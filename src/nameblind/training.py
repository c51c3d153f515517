"""Mini-batch Adam training combining the base loss with a fairness penalty.

Names enter only through the loss: the trained classifier's inputs contain
no name-derived features, so it can be deployed without access to names.
Runs are deterministic given a config seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .clustering import ClusterModel, kmeans
from .embeddings import EmbeddingTable, NameTable, batch_name_vectors
from .model import (
    ModelParams,
    class_weights,
    forward_batch,
    loss_and_gradient,
    weighted_cross_entropy,
)
from .metrics import balanced_tpr

# most rows a full-set pass gathers at once (forward_rows). Over 19,200 x
# 1,818 binary features and 28 classes (one BLAS thread, 2-vCPU VM) a pass
# took 53-68 ms in blocks of 256 rows against 89-99 ms in blocks of 1,024
# and 166-176 ms in blocks of 8,192 (best of 5, three runs), with
# bit-identical probabilities.
BLOCK_ROWS = 256


class NumericalError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    lam scales the fairness penalty selected by variant ("none" disables
    it); k is the cluster count used by the cluster penalty.
    """

    lam: float = 0.0
    variant: str = "none"
    k: int = 12
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 50
    seed: int = 0
    l2_coeff: float = 0.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.variant not in losses.VARIANTS:
            raise ValueError(
                f"variant must be one of {losses.VARIANTS}, got {self.variant!r}"
            )
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("Adam eps must be positive")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be nonnegative")


@dataclass
class AdamState:
    """First/second moment accumulators and the shared timestep.

    work_W and work_b are two scratch arrays of each parameter's shape, so
    a step allocates nothing of W's size.
    """

    m_W: np.ndarray
    v_W: np.ndarray
    m_b: np.ndarray
    v_b: np.ndarray
    t: int = 0
    work_W: np.ndarray = field(init=False, repr=False)
    work_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.work_W = np.empty((2, *self.m_W.shape))
        self.work_b = np.empty((2, *self.m_b.shape))

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> "AdamState":
        shape = (num_classes, num_features)
        return cls(
            m_W=np.zeros(shape),
            v_W=np.zeros(shape),
            m_b=np.zeros(num_classes),
            v_b=np.zeros(num_classes),
        )


@dataclass
class EpochRecord:
    epoch: int
    base_loss: float
    penalty: float
    total_loss: float
    val_balanced_tpr: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    cluster_model: ClusterModel | None
    split: tuple[np.ndarray, np.ndarray, np.ndarray]


def train_val_test_split(n: int, seed: int,
                         fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)):
    """Seeded disjoint index split; remainder rows land in the test part."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train:n_train + n_val]),
        np.sort(order[n_train + n_val:]),
    )


def adam_step(params: ModelParams, grad_W, grad_b, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update, applied in place."""
    grad_W = np.asarray(grad_W, dtype=np.float64)
    grad_b = np.asarray(grad_b, dtype=np.float64)
    if not (np.isfinite(grad_W).all() and np.isfinite(grad_b).all()):
        raise NumericalError("non-finite gradients")
    state.t += 1
    _adam_update(params.W, grad_W, state.m_W, state.v_W, state.work_W,
                 state.t, config)
    _adam_update(params.b, grad_b, state.m_b, state.v_b, state.work_b,
                 state.t, config)


def _adam_update(param, grad, m, v, work, t: int, config: TrainConfig) -> None:
    """param -= lr * mhat / (sqrt(vhat) + eps) at timestep t, the moments m
    and v updated first, all in place through the two scratch arrays of
    work; the same operations in the same order as the expressions in the
    comments, so the result is bit-identical to them."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    step, denom = work
    # m = b1 * m + (1 - b1) * grad
    np.multiply(m, b1, out=m)
    np.multiply(grad, 1 - b1, out=step)
    np.add(m, step, out=m)
    # v = b2 * v + (1 - b2) * grad**2
    np.multiply(v, b2, out=v)
    np.square(grad, out=step)
    np.multiply(step, 1 - b2, out=step)
    np.add(v, step, out=v)
    # param -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
    np.divide(m, 1 - b1**t, out=step)
    np.multiply(step, config.learning_rate, out=step)
    np.divide(v, 1 - b2**t, out=denom)
    np.sqrt(denom, out=denom)
    np.add(denom, config.adam_eps, out=denom)
    np.divide(step, denom, out=step)
    np.subtract(param, step, out=param)


@dataclass
class PenaltyContext:
    """The name data a penalty reads, shared by the fits of one dataset.

    names is the embeddings.NameTable of every record of the dataset (one
    vector row per distinct found name, each record's first- and
    last-name row, and include); train reads it at its training rows, the
    covariance penalty through losses.CoclTable. clusters caches the
    k-means model of the included training names per (k, seed, training
    rows), filled by the first cluster-penalty fit that needs it, so a
    sweep clusters once per seed.
    """

    names: NameTable
    clusters: dict = field(default_factory=dict)

    @classmethod
    def build(cls, embeddings: EmbeddingTable, first_names,
              last_names) -> "PenaltyContext":
        """Context of the records with these names (batch_name_vectors)."""
        return cls(batch_name_vectors(embeddings, first_names, last_names))

    def cluster_model(self, k: int, seed: int, train_idx) -> ClusterModel:
        """k-means of the included training records' name vectors."""
        key = (k, seed, np.asarray(train_idx).tobytes())
        if key not in self.clusters:
            rows = train_idx[self.names.include[train_idx]]
            self.clusters[key] = kmeans(self.names.take(rows), k, seed=seed)
        return self.clusters[key]


def train(dataset, embeddings: EmbeddingTable | None, config: TrainConfig,
          split=None, context: PenaltyContext | None = None) -> TrainResult:
    """Train the classifier with the configured penalty.

    Pipeline: the name table comes from context, or is built once here
    when none is given (records whose names have no embedding coverage are
    excluded from penalty statistics); the covariance penalty of each
    batch, and the per-epoch one built once per fit, read the table rows
    of their records' names (losses.CoclTable), never gathering a
    per-record vector; the cluster penalty clusters the training-split
    name vectors once per context and freezes the assignments; class
    weights come from the training labels; each epoch shuffles with the
    seeded RNG and applies Adam per batch. Each batch gathers its rows
    with dataset.features.take, which keeps a sparse (BinaryRows) feature
    store sparse, and full-set passes go through forward_rows, so text
    features are never densified.
    Identical configs and seeds produce bitwise-identical parameters.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    num_classes = len(dataset.class_names)
    if split is None:
        split = train_val_test_split(n, config.seed)
    train_idx, val_idx, _ = split
    features = dataset.features
    y = dataset.labels[train_idx]

    cluster_model = None
    batch_penalty = epoch_penalty = None
    if config.variant != "none" and config.lam > 0:
        if context is None:
            if embeddings is None:
                raise ValueError("the selected penalty needs an embedding table")
            context = PenaltyContext.build(embeddings, dataset.first_names,
                                           dataset.last_names)
        names = context.names
        if len(names) != n:
            raise ValueError("the penalty context must cover every record")
        include = names.include[train_idx]
        if not include.any():
            raise ValueError(
                f"the {config.variant} penalty needs embedded names, but 0 of "
                f"{len(train_idx)} training records have a name in the "
                "embedding table"
            )
        if config.variant == "clucl":  # reads only the cluster ids
            cluster_model = context.cluster_model(config.k, config.seed,
                                                  train_idx)
            cluster_ids = np.zeros(len(train_idx), dtype=np.int64)
            cluster_ids[include] = cluster_model.assignments

            def batch_penalty(positions, measure=losses.penalty):
                return lambda p_true: measure(
                    losses.PenaltyInputs(p_true, y[positions],
                                         cluster_ids[positions],
                                         include_mask=include[positions]),
                    "clucl", config.k, num_classes,
                )
            epoch_penalty = batch_penalty(slice(None), losses.penalty_value)
        else:  # cocl reads the name-table rows of the records' names
            first, last = names.first[train_idx], names.last[train_idx]

            def batch_penalty(batch):
                return losses.CoclTable(y[batch], names.vectors, first[batch],
                                        last[batch], num_classes).penalty
            epoch_penalty = losses.CoclTable(y, names.vectors, first, last,
                                             num_classes).value
    weights = class_weights(np.bincount(y, minlength=num_classes))
    params = ModelParams(
        W=np.zeros((num_classes, features.shape[1])),
        b=np.zeros(num_classes),
    )
    state = AdamState.zeros(params.num_classes, params.num_features)
    rng = np.random.default_rng(config.seed)
    history: list[EpochRecord] = []
    n_train = len(train_idx)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            batch = order[start:start + config.batch_size]
            _, grad_W, grad_b = loss_and_gradient(
                params, features.take(train_idx[batch], axis=0), y[batch],
                weights, config.l2_coeff,
                None if batch_penalty is None else batch_penalty(batch),
                config.lam,
            )
            adam_step(params, grad_W, grad_b, state, config)

        base, penalty = evaluate_losses(
            params, features, train_idx, y, weights, config, epoch_penalty,
        )
        total = losses.total_loss(base, penalty, config.lam)
        if not np.isfinite(total):
            raise NumericalError(
                f"non-finite loss at epoch {epoch}: base={base}, penalty={penalty}"
            )
        if len(val_idx):
            val_preds = forward_rows(params, features, val_idx).argmax(axis=1)
            val_tpr = balanced_tpr(
                val_preds, dataset.labels[val_idx], num_classes,
                require_all_classes=False,
            )
        else:
            val_tpr = float("nan")
        history.append(EpochRecord(epoch, base, penalty, total, val_tpr))

    return TrainResult(
        params=params,
        history=history,
        cluster_model=cluster_model,
        split=split,
    )


def forward_rows(params, features, rows) -> np.ndarray:
    """forward_batch(params, features.take(rows, axis=0)) for any number
    of rows.

    The rows are walked in near-equal blocks of at most BLOCK_ROWS, so no
    more than one block of gathered rows exists at a time. A BinaryRows
    store's logits are row by row sums, the same bytes whatever the
    blocks. For dense rows the blocks are near-equal so that every block
    has at least BLOCK_ROWS / 2 rows when there is more than one: BLAS
    multiplies a product of a few rows (under about 32 with OpenBLAS
    0.3.31 on a Haswell-class CPU) through other kernels, whose rounding
    can differ from the one product over all rows.
    """
    rows = np.asarray(rows)
    blocks = np.array_split(rows, max(1, -(-len(rows) // BLOCK_ROWS)))
    return np.concatenate([forward_batch(params, features.take(b, axis=0))
                           for b in blocks])


def evaluate_losses(params, features, rows, y, weights, config: TrainConfig,
                    penalty=None):
    """(base, penalty) over the records features[rows] (not batch estimates).

    y aligns with rows. base is the weighted cross-entropy plus the l2
    term, so base + lam * penalty is model.loss_and_gradient's objective
    over the same records. penalty is the configured penalty's value as
    p_true -> value over those records.
    """
    probs = forward_rows(params, features, rows)
    base = weighted_cross_entropy(probs, y, weights)
    if config.l2_coeff:
        base += config.l2_coeff * float(np.sum(params.W**2))
    if penalty is None:
        return base, 0.0
    return base, penalty(probs[np.arange(len(y)), y])


def write_history_csv(history: list[EpochRecord], path) -> None:
    """Emit the per-epoch training record as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "base_loss", "penalty", "total_loss", "val_balanced_tpr"]
        )
        for rec in history:
            writer.writerow(
                [
                    rec.epoch,
                    repr(rec.base_loss),
                    repr(rec.penalty),
                    repr(rec.total_loss),
                    repr(rec.val_balanced_tpr),
                ]
            )
