"""Single-layer softmax classifier with class-weighted cross-entropy.

The evaluation design fixes the classifier to logits = W x + b followed by
a softmax, so individual entries of W stay directly interpretable in
weight reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BinaryRows
from .losses import penalty_strength

LOG_FLOOR = 1e-12
MODEL_FILE_TAG = "nameblind-model v1"


@dataclass
class ModelParams:
    """Weights of the classifier: W is (num_classes, num_features).

    A stack of L classifiers over the same classes and features, trained
    in lockstep, has a leading model axis: W (L, num_classes,
    num_features) and b (L, num_classes). forward_batch and
    loss_and_gradient then evaluate all L on one batch.
    """

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim not in (2, 3) or self.b.ndim != self.W.ndim - 1:
            raise ValueError("W must be 2-d and b 1-d (3-d and 2-d stacked)")
        if self.b.shape != self.W.shape[:-1]:
            raise ValueError("b length must equal the number of classes")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.W.shape[-2]

    @property
    def num_features(self) -> int:
        return self.W.shape[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (max-subtraction).

    A last axis of 2 takes its max and sum elementwise, the same bytes as
    the reductions, which numpy runs through a slow short-row loop: 16
    against 75 us per Adult-shaped (3, 256, 2) stack (best of 5 x 2,000
    calls, one BLAS thread, 2-vCPU VM).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] == 2:
        exp = np.exp(logits - np.maximum(logits[..., :1], logits[..., 1:]))
        return exp / (exp[..., :1] + exp[..., 1:])
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


def _features(X):
    """X unchanged when it is a BinaryRows store, else a float64 array."""
    return X if isinstance(X, BinaryRows) else np.asarray(X, dtype=np.float64)


def forward_batch(params: ModelParams, X) -> np.ndarray:
    """Probability matrix (n, num_classes) for a feature matrix (n, M), or
    (L, n, num_classes) for a stack of L models.

    X is a float64 array (BLAS multiplies it) or a data.BinaryRows store,
    multiplied from its CSR index lists: each row's logits then depend on
    that row alone, and agree with the dense product to rounding. A stack
    multiplies X once per model with the shapes of one model's product
    (np.matmul runs one BLAS product per model slice), so each model's
    probabilities are the bytes of its own call.
    """
    X = _features(X)
    if X.ndim != 2 or X.shape[1] != params.num_features:
        raise ValueError(
            f"expected (n, {params.num_features}) features, got {X.shape}"
        )
    # a store's entries are 1.0 by construction, its indices checked when built
    if isinstance(X, np.ndarray) and not np.isfinite(X).all():
        raise ValueError("input features must be finite")
    return softmax(X @ params.W.swapaxes(-1, -2) + params.b[..., None, :])


def predict_batch(params: ModelParams, X) -> np.ndarray:
    """Predicted class indices (argmax, lowest index on ties)."""
    return np.argmax(forward_batch(params, X), axis=-1)


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


def objective(W, probs, labels, weights, l2_coeff, penalty, lams):
    """The training objective of each model of a stack at its probabilities.

    W is the stack's (L, C, M) weights and probs its (L, n, C)
    probabilities on n records with these labels. Per model, base is the
    class-weighted cross-entropy, the mean over the records of -weight_y *
    log(p_y) with p_y floored at LOG_FLOOR, plus l2_coeff * sum(W**2).
    penalty, shared by the stack, maps one model's true-label
    probabilities to (value, d value / d p_true), or is None. Model i
    calls it only when lams[i] > 0; else its value is 0.0 and its gradient
    None. Its total is base + lams[i] * value. The records are checked
    once for all models.

    Returns (totals, bases, values, gradients, p_true): one Python float,
    float, float and array or None per model, and the (L, n) true-label
    probabilities.
    """
    strengths = [penalty_strength(value) for value in lams]
    if len(strengths) != len(W):
        raise ValueError("need one lam per model")
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1] == 0:
        raise ValueError("probs must be a nonempty (L, n, num_classes) stack")
    n, num_classes = probs.shape[1:]
    if labels.shape != (n,):
        raise ValueError("labels must align with the batch")
    if weights.shape != (num_classes,):
        raise ValueError("need one weight per class")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("label out of range")
    # (L, n) in row order, so each model's mean sums as its own row does
    p_true = np.ascontiguousarray(probs[:, np.arange(n), labels])
    cross_entropy = (np.log(np.maximum(p_true, LOG_FLOOR))
                     * -weights[labels]).mean(axis=-1)
    totals, bases, values, gradients = [], [], [], []
    for i, strength in enumerate(strengths):
        base = float(cross_entropy[i])
        if l2_coeff:
            base += l2_coeff * float(np.sum(W[i]**2))
        value, gradient = (penalty(p_true[i]) if penalty is not None
                           and strength else (0.0, None))
        totals.append(base + strength * value)
        bases.append(base)
        values.append(value)
        gradients.append(gradient)
    return totals, bases, values, gradients, p_true


def loss_and_gradient(params: ModelParams, X, labels, weights,
                      l2_coeff: float = 0.0, penalty=None, lam: float = 0.0):
    """The training objective's total (objective) and its exact gradients
    w.r.t. W and b.

    Per item the cross-entropy's logit gradient is weight_y * (probs -
    onehot(y)) / n; the penalty's is chained through d p_true / d logit_j
    = p_true * (1[j == y] - p_j). X is a float64 array or a
    data.BinaryRows store, as for forward_batch.

    For a stack of L models (ModelParams with a model axis) lam is a
    sequence of L, one per model, and the one penalty serves them all. The
    result is the (L,) losses with the (L, C, M) and (L, C) gradients,
    each model's the bytes of its own call: the batch is multiplied once
    per model, and a model calls the penalty only when its lam > 0. One
    model is the stack of one.
    """
    stacked = params.W.ndim == 3
    if not stacked:
        params = ModelParams(params.W[None], params.b[None])
        lam = [lam]
    X = _features(X)
    probs = forward_batch(params, X)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float64)
    totals, _, _, gradients, p_true = objective(
        params.W, probs, labels, weights, l2_coeff, penalty, lam)
    rows = np.arange(len(labels))
    G = probs.copy()
    G[:, rows, labels] -= 1.0
    G *= weights[labels][:, None] / len(labels)
    for i, (gradient, strength) in enumerate(zip(gradients, lam)):
        if gradient is not None:
            coef = gradient * p_true[i]
            P = -coef[:, None] * probs[i]
            P[rows, labels] += coef
            G[i] += float(strength) * P
    grad_W = G.swapaxes(-1, -2) @ X
    grad_b = G.sum(axis=-2)
    if l2_coeff:
        grad_W += 2.0 * l2_coeff * params.W
    if not stacked:
        return totals[0], grad_W[0], grad_b[0]
    return np.array(totals), grad_W, grad_b


def _layout(num_classes: int, num_features: int) -> list[str]:
    """The key of each line after a model file's tag, in file order."""
    return (["num_classes", "num_features"] + ["class"] * num_classes
            + ["feature"] * num_features + ["W"] * num_classes + ["b"])


def model_text(params: ModelParams, feature_names, class_names) -> str:
    """The model file's text: its tag and one "key value" line per _layout
    key, 17 significant digits per W and b value."""
    if params.W.ndim != 2:
        raise ValueError("a model file holds one model, not a stack")
    if len(class_names) != params.num_classes:
        raise ValueError("need one class name per class")
    if len(feature_names) != params.num_features:
        raise ValueError("need one feature name per feature")
    names = [*class_names, *feature_names]
    if any("\n" in name or "\r" in name for name in names):
        raise ValueError("class and feature names cannot hold a line break")
    rows = [" ".join([f"{v:.17g}" for v in row])
            for row in params.W.tolist() + [params.b.tolist()]]
    values = [params.num_classes, params.num_features, *names, *rows]
    return "".join([f"{MODEL_FILE_TAG}\n"]
                   + [f"{key} {value}\n" for key, value
                      in zip(_layout(*params.W.shape), values)])


def save_model(params: ModelParams, feature_names, class_names, path) -> None:
    """Write model_text(params, feature_names, class_names) to path."""
    text = model_text(params, feature_names, class_names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    """Read a model file; returns (params, feature_names, class_names).

    The file must be the tag and one "key value" line per _layout key: the
    counts in decimal digits, each W row num_features finite numbers and
    the b row num_classes. Any other file, one that is not UTF-8 too,
    raises one ValueError naming the file and its first line that differs.
    """
    with open(path, "rb") as fh:
        # a line ends at "\n", "\r\n" or "\r" alone, as in text mode:
        # unlike str.splitlines, bytes.splitlines keeps \x0c and U+2028
        lines = fh.read().splitlines()
    keys, values, number = ["num_classes", "num_features"], [], 0
    try:
        if lines[0] != MODEL_FILE_TAG.encode():
            raise ValueError
        for number, line in enumerate(lines[1:], 1):
            line = line.decode("utf-8")  # UnicodeDecodeError is a ValueError
            key = keys[number - 1]  # IndexError past the b row
            if not line.startswith(key + " "):
                raise ValueError
            value = line[len(key) + 1:]
            if key.startswith("num_"):
                if not (value.isascii() and value.isdigit()):
                    raise ValueError
                # capped: past the file's end a count fails at the same line
                value = min(int(value), len(lines))
            elif key in ("W", "b"):
                value = [float(v) for v in value.split()]
                width = values[1] if key == "W" else values[0]
                if len(value) != width or not np.isfinite(value).all():
                    raise ValueError
            values.append(value)
            if key == "num_features":
                keys = _layout(*values)
        number = len(lines)
        if number != len(keys) + 1:
            raise ValueError
    except (IndexError, ValueError):
        where = "malformed" if number < len(lines) else "missing (truncated)"
        raise ValueError(f"{path}: not a recognized model file, line "
                         f"{number + 1} {where}") from None
    num_classes, num_features, *values = values
    W = np.reshape(values[-num_classes - 1:-1], (num_classes, num_features))
    return (ModelParams(W, np.array(values[-1])),
            values[num_classes:-num_classes - 1], values[:num_classes])
