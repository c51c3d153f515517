"""Single-layer softmax classifier with class-weighted cross-entropy.

The evaluation design fixes the classifier to logits = W x + b followed by
a softmax, so individual entries of W stay directly interpretable in
weight reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryRows

LOG_FLOOR = 1e-12
MODEL_FILE_TAG = "nameblind-model v1"


@dataclass
class ModelParams:
    """Weights of the classifier: W is (num_classes, num_features)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.ndim != 1:
            raise ValueError("W must be 2-d and b 1-d")
        if self.b.shape[0] != self.W.shape[0]:
            raise ValueError("b length must equal the number of classes")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.W.shape[0]

    @property
    def num_features(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.W.copy(), self.b.copy())


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtraction)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _features(X):
    """X unchanged when it is a BinaryRows store, else a float64 array."""
    return X if isinstance(X, BinaryRows) else np.asarray(X, dtype=np.float64)


def forward_batch(params: ModelParams, X) -> np.ndarray:
    """Probability matrix (n, num_classes) for a feature matrix (n, M).

    X is a float64 array (BLAS multiplies it) or a data.BinaryRows store,
    multiplied from its CSR index lists: each row's logits then depend on
    that row alone, and agree with the dense product to rounding.
    """
    X = _features(X)
    if X.ndim != 2 or X.shape[1] != params.num_features:
        raise ValueError(
            f"expected (n, {params.num_features}) features, got {X.shape}"
        )
    # a store's entries are 1.0 by construction, its indices checked when built
    if isinstance(X, np.ndarray) and not np.isfinite(X).all():
        raise ValueError("input features must be finite")
    return softmax(X @ params.W.T + params.b)


def predict_batch(params: ModelParams, X) -> np.ndarray:
    """Predicted class indices (argmax, lowest index on ties)."""
    return np.argmax(forward_batch(params, X), axis=1)


def class_weights(label_counts) -> np.ndarray:
    """Inverse-frequency class weights, N / (|C| * N_c).

    Balanced counts give all-ones; rarer classes get proportionally larger
    weights so every class carries equal aggregate influence in the loss.
    """
    counts = np.asarray(label_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.shape[0] == 0:
        raise ValueError("label_counts must be a nonempty 1-d sequence")
    if np.any(counts < 1):
        raise ValueError(
            f"class {int(np.argmin(counts))} has zero count; "
            "weights are undefined"
        )
    return counts.sum() / (counts.shape[0] * counts)


def _check_batch(probs, labels, weights):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("batch must be a nonempty (n, num_classes) array")
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels must align with the batch")
    if weights.shape != (probs.shape[1],):
        raise ValueError("need one weight per class")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("label out of range")
    return probs, labels, weights


def weighted_cross_entropy(probs, labels, weights) -> float:
    """Mean over the batch of -weight_y * log(p_y), with p_y floored at 1e-12."""
    probs, labels, weights = _check_batch(probs, labels, weights)
    p_true = probs[np.arange(len(labels)), labels]
    return float(
        np.mean(-weights[labels] * np.log(np.maximum(p_true, LOG_FLOOR)))
    )


def loss_and_gradient(params: ModelParams, X, labels, weights,
                      l2_coeff: float = 0.0, penalty=None, lam: float = 0.0):
    """The training objective and its exact gradients w.r.t. W and b.

    Weighted cross-entropy + l2_coeff * sum(W**2) + lam * penalty(p_true),
    where penalty maps the true-label probabilities to (value, d value /
    d p_true). Per item the cross-entropy's logit gradient is
    weight_y * (probs - onehot(y)) / n; the penalty's is chained through
    d p_true / d logit_j = p_true * (1[j == y] - p_j). X is a float64
    array or a data.BinaryRows store, as for forward_batch.
    """
    X = _features(X)
    probs = forward_batch(params, X)
    probs, labels, weights = _check_batch(probs, labels, weights)
    loss = weighted_cross_entropy(probs, labels, weights)
    if l2_coeff:
        loss += l2_coeff * float(np.sum(params.W**2))
    rows = np.arange(len(labels))
    G = probs.copy()
    G[rows, labels] -= 1.0
    G *= weights[labels][:, None] / len(labels)
    if penalty is not None and lam:
        p_true = probs[rows, labels]
        value, pen_grad = penalty(p_true)
        loss += lam * value
        coef = pen_grad * p_true
        P = -coef[:, None] * probs
        P[rows, labels] += coef
        G = G + lam * P
    grad_W = G.T @ X
    grad_b = G.sum(axis=0)
    if l2_coeff:
        grad_W = grad_W + 2.0 * l2_coeff * params.W
    return loss, grad_W, grad_b


def save_model(params: ModelParams, feature_names, class_names, path) -> None:
    """Write the model as labeled text, 17 significant digits per value."""
    if len(class_names) != params.num_classes:
        raise ValueError("need one class name per class")
    if len(feature_names) != params.num_features:
        raise ValueError("need one feature name per feature")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_FILE_TAG + "\n")
        fh.write(f"num_classes {params.num_classes}\n")
        fh.write(f"num_features {params.num_features}\n")
        for name in class_names:
            fh.write(f"class {name}\n")
        for name in feature_names:
            fh.write(f"feature {name}\n")
        for row in params.W:
            fh.write("W " + " ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write("b " + " ".join(f"{v:.17g}" for v in params.b) + "\n")


def load_model(path):
    """Read a model file; returns (params, feature_names, class_names)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FILE_TAG:
        raise ValueError(f"{path}: not a recognized model file")
    try:
        num_classes = int(lines[1].split()[1])
        num_features = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model header") from exc
    if len(lines) < 4 + 2 * num_classes + num_features:
        raise ValueError(f"{path}: truncated model file")
    pos = 3
    class_names = [line[len("class "):] for line in lines[pos:pos + num_classes]]
    pos += num_classes
    feature_names = [
        line[len("feature "):] for line in lines[pos:pos + num_features]
    ]
    pos += num_features
    rows = []
    for line in lines[pos:pos + num_classes]:
        fields = line.split()
        if fields[:1] != ["W"] or len(fields) != num_features + 1:
            raise ValueError(f"{path}: malformed weight row")
        rows.append([float(v) for v in fields[1:]])
    pos += num_classes
    fields = lines[pos].split()
    if fields[:1] != ["b"] or len(fields) != num_classes + 1:
        raise ValueError(f"{path}: malformed bias row")
    b = [float(v) for v in fields[1:]]
    return ModelParams(np.array(rows), np.array(b)), feature_names, class_names
