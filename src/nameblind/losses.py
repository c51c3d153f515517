"""Fairness penalties and the composite training objective.

Two penalties discourage the classifier from learning a correlation
between the predicted probability of a record's true label and the word
embedding of the record's name:

* cluster penalty ("clucl"): names are clustered once up front; for each
  class, the penalty is the average squared difference between per-cluster
  means of the true-label probability, taken over ordered cluster pairs.
* covariance penalty ("cocl"): for each class, the penalty is the l2 norm
  of the covariance between the true-label probability and the name
  vector.

Both are averaged over classes and added to the base loss scaled by a
nonnegative strength. Gradients flow only through the true-label
probabilities; cluster assignments and name vectors are constants during
training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("none", "clucl", "cocl")


@dataclass
class PenaltyInputs:
    """Aligned per-record arrays consumed by the penalties.

    Records with include_mask False (e.g. names with no embedding
    coverage) are ignored by every statistic. cluster_ids are only needed
    for the cluster penalty, name_vectors only for the covariance penalty.
    """

    true_label_probs: np.ndarray
    labels: np.ndarray
    cluster_ids: np.ndarray | None = None
    name_vectors: np.ndarray | None = None
    include_mask: np.ndarray | None = None

    def __post_init__(self):
        self.true_label_probs = np.asarray(self.true_label_probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.true_label_probs.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must align with true_label_probs")
        if self.include_mask is None:
            self.include_mask = np.ones(n, dtype=bool)
        else:
            self.include_mask = np.asarray(self.include_mask, dtype=bool)
            if self.include_mask.shape != (n,):
                raise ValueError("include_mask must align with true_label_probs")
        if self.cluster_ids is not None:
            self.cluster_ids = np.asarray(self.cluster_ids, dtype=np.int64)
            if self.cluster_ids.shape != (n,):
                raise ValueError("cluster_ids must align with true_label_probs")
        if self.name_vectors is not None:
            self.name_vectors = np.asarray(self.name_vectors, dtype=np.float64)
            if self.name_vectors.ndim != 2 or self.name_vectors.shape[0] != n:
                raise ValueError("name_vectors must be an (n, dim) array")

    def __len__(self) -> int:
        return self.true_label_probs.shape[0]


def _included(labels, probs, include, num_classes: int):
    """(labels, probs) of the included records, each probability taken
    about its class's first included one: the offset cancels in every
    statistic the penalties read, and equal probabilities give exact zeros.
    """
    labels = labels[include]
    probs = probs[include]
    classes, first = np.unique(labels, return_index=True)
    offset = np.zeros(num_classes)
    offset[classes] = probs[first]
    return labels, probs - offset[labels]


def _centred(labels, probs, include, num_classes: int):
    """(weights, counts): each record's true-label probability about its
    class's mean over the included records, 0 for excluded records, and
    the class counts of the included records."""
    kept, centred = _included(labels, probs, include, num_classes)
    counts = np.bincount(kept, minlength=num_classes)
    mean_p = (np.bincount(kept, weights=centred, minlength=num_classes)
              / np.maximum(counts, 1))
    weights = np.zeros(len(labels))
    weights[include] = centred - mean_p[kept]
    return weights, counts


def _cluster_cells(inputs: PenaltyInputs, k: int, num_classes: int):
    """Per-(class, cluster) cell statistics read by the cluster penalty.

    Counts and mean true-label probabilities of the included records come
    from np.bincount over label * k + cluster. Returns (sel, cells, counts,
    diffs, pairs): the included records, their cell indices, the (C, k)
    counts, diffs[c, u, w] = mean[c, u] - mean[c, w] where both cells are
    populated (0 elsewhere), and per class the number v * (v - 1) of
    ordered pairs of populated cells.
    """
    if inputs.cluster_ids is None:
        raise ValueError("cluster_ids are required for the cluster penalty")
    sel = inputs.include_mask
    labels, probs = _included(inputs.labels, inputs.true_label_probs, sel,
                              num_classes)
    ids = inputs.cluster_ids[sel]
    if len(ids) and (ids.min() < 0 or ids.max() >= k):
        raise ValueError(f"cluster ids must lie in [0, {k})")
    cells = labels * k + ids
    size = num_classes * k
    counts = np.bincount(cells, minlength=size).reshape(num_classes, k)
    sums = np.bincount(cells, weights=probs, minlength=size)
    populated = counts > 0
    means = np.zeros((num_classes, k))
    np.divide(sums.reshape(num_classes, k), counts, out=means, where=populated)
    both = populated[:, :, None] & populated[:, None, :]
    diffs = np.where(both, means[:, :, None] - means[:, None, :], 0.0)
    v = populated.sum(axis=1)
    return sel, cells, counts, diffs, v * (v - 1)


def _class_covariances(weights, rows, counts, means=None):
    """Per-class covariance between true-label probability and name vector,
    from one product of class weights over name-vector rows.

    rows are the vectors read: a batch's gathered name vectors, or a name
    table's rows. Row c of weights holds, per vector row, the sum of the
    centred probabilities (see _centred) of the class-c records reading
    it, each times the record's share of that row, so
    cov_c = (weights_c @ rows - sum(weights_c) * vbar_c) / n_c with vbar_c
    the class's mean name vector (the sum is 0 up to rounding). Without
    means, weights stacks the C class-membership rows above those C rows
    and the means come from the same product. Returns (means, cov), each
    (C, dim).
    """
    n_c = np.maximum(counts, 1)[:, None]
    product = weights @ rows
    if means is None:
        num_classes = len(counts)
        means = product[:num_classes] / n_c
        weights, product = weights[num_classes:], product[num_classes:]
    return means, (product - weights.sum(axis=1)[:, None] * means) / n_c


def _batch_covariances(inputs: PenaltyInputs, num_classes: int):
    """_class_covariances over the records of inputs, excluded records
    weighted 0; returns (include, labels, vectors, means, cov, counts)."""
    if inputs.name_vectors is None:
        raise ValueError("name_vectors are required for the covariance penalty")
    labels, include = inputs.labels, inputs.include_mask
    centred, counts = _centred(labels, inputs.true_label_probs, include,
                               num_classes)
    records = np.arange(len(labels))
    stacked = np.zeros((2 * num_classes, len(labels)))
    stacked[labels, records] = include
    stacked[num_classes + labels, records] = centred
    means, cov = _class_covariances(stacked, inputs.name_vectors, counts)
    return include, labels, inputs.name_vectors, means, cov, counts


class CoclTable:
    """The covariance penalty by value over fixed records whose name
    vectors are name-table rows (embeddings.NameTable): a record's vector
    is the mean of its found names' rows.

    The class counts, the (class, table row) key and share of each found
    name, and the class mean vectors are constants of the records,
    computed once; each value is then one np.bincount over the keys and
    one (C, rows) @ (rows, dim) product, whatever the number of records.
    """

    def __init__(self, labels, vectors, first, last, num_classes: int):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.vectors = vectors
        self.num_classes = num_classes
        found_first, found_last = first >= 0, last >= 0
        self.include = found_first | found_last
        share = np.where(found_first & found_last, 0.5, 1.0)
        self.records = np.concatenate((np.flatnonzero(found_first),
                                       np.flatnonzero(found_last)))
        self.shares = share[self.records]
        self.keys = (self.labels[self.records] * len(vectors)
                     + np.concatenate((first[found_first], last[found_last])))
        self.counts = np.bincount(self.labels[self.include],
                                  minlength=num_classes)
        members = self._per_class(self.shares)
        self.means = members @ vectors / np.maximum(self.counts, 1)[:, None]

    def _per_class(self, weights) -> np.ndarray:
        """(C, rows): the weights summed per (class, table row) key."""
        size = self.num_classes * len(self.vectors)
        return np.bincount(self.keys, weights=weights,
                           minlength=size).reshape(self.num_classes, -1)

    def value(self, true_label_probs) -> float:
        """The covariance penalty at these true-label probabilities."""
        centred, _ = _centred(self.labels, true_label_probs, self.include,
                              self.num_classes)
        weights = self._per_class(centred[self.records] * self.shares)
        _, cov = _class_covariances(weights, self.vectors, self.counts,
                                    self.means)
        return _cocl_value(cov, self.num_classes)


def _statistics(inputs: PenaltyInputs, variant: str, k: int,
                num_classes: int):
    """The statistics pass of the selected penalty: _cluster_cells for
    clucl, _batch_covariances for cocl, None where the penalty is 0 by
    definition (variant "none", clucl with k = 1)."""
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if variant == "none":
        return None
    if variant == "clucl":
        if k < 1:
            raise ValueError("k must be positive")
        return None if k == 1 else _cluster_cells(inputs, k, num_classes)
    if variant == "cocl":
        return _batch_covariances(inputs, num_classes)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _value(stats, variant: str, num_classes: int) -> float:
    """The selected penalty's value from its statistics (see _statistics)."""
    if stats is None:
        return 0.0
    if variant == "clucl":
        _, _, _, diffs, pairs = stats
        live = pairs > 0
        per_class = np.sum(diffs[live] ** 2, axis=(1, 2)) / pairs[live]
        return float(per_class.sum()) / num_classes
    return _cocl_value(stats[4], num_classes)


def _cocl_value(cov, num_classes: int) -> float:
    """The covariance penalty from the per-class covariances."""
    return float(np.linalg.norm(cov, axis=1).sum()) / num_classes


def penalty(inputs: PenaltyInputs, variant: str, k: int,
            num_classes: int) -> tuple[float, np.ndarray]:
    """(value, grad) of the selected penalty from one statistics pass.

    grad holds d value / d true_label_prob_i, one entry per record, 0 for
    masked-out records; variant "none" gives (0.0, zeros).
    """
    stats = _statistics(inputs, variant, k, num_classes)
    value = _value(stats, variant, num_classes)
    grad = np.zeros(len(inputs))
    if stats is None:
        return value, grad
    if variant == "clucl":
        sel, cells, counts, diffs, pairs = stats
        # d l_c / d mean_u = (4 / pairs) * sum_v (mean_u - mean_v), and each
        # record of cell u holds 1 / count_u of mean_u
        denom = pairs[:, None] * counts * num_classes
        cell_grads = np.zeros(counts.shape)
        np.divide(4.0 * diffs.sum(axis=2), denom, out=cell_grads, where=denom > 0)
        grad[sel] = cell_grads.ravel()[cells]
        return value, grad
    sel, labels, vectors, means, cov, counts = stats
    norms = np.linalg.norm(cov, axis=1)
    # d |cov_c| / d p_i = (v_i - vbar_c) . cov_c / (|cov_c| n_c)
    scale = np.zeros(num_classes)
    np.divide(1.0, norms * counts * num_classes, out=scale, where=norms > 0)
    unit = cov * scale[:, None]
    picked = ((vectors @ unit.T)[np.arange(len(labels)), labels]
              - np.sum(means * unit, axis=1)[labels])
    return value, np.where(sel, picked, 0.0)


def clucl_penalty(inputs: PenaltyInputs, k: int, num_classes: int) -> float:
    """Average over classes of the mean squared pairwise cluster disparity.

    For class c, every ordered pair (u, v) of clusters that both contain at
    least one class-c record contributes (mean_u - mean_v)^2, where mean_u
    is the average true-label probability of class-c records in cluster u;
    the sum is divided by the number of evaluated ordered pairs. Classes
    with fewer than two populated clusters contribute 0, as does k = 1.
    """
    return penalty_value(inputs, "clucl", k, num_classes)


def cocl_penalty(inputs: PenaltyInputs, num_classes: int) -> float:
    """Average over classes of the covariance norm.

    For class c with at least two included records, the covariance between
    the true-label probability and the name vector is the (population)
    mean of (p_i - mean_p) * (vec_i - mean_vec); the class contributes its
    l2 norm. Classes with fewer than two included records contribute 0.
    """
    return penalty_value(inputs, "cocl", 1, num_classes)


def penalty_value(inputs: PenaltyInputs, variant: str, k: int,
                  num_classes: int) -> float:
    """Value of the selected penalty, without its gradient; variant "none"
    is 0. The same statistics pass and value as penalty."""
    return _value(_statistics(inputs, variant, k, num_classes), variant,
                  num_classes)


def penalty_gradient(inputs: PenaltyInputs, variant: str, k: int,
                     num_classes: int) -> np.ndarray:
    """Exact partials of the selected penalty w.r.t. each true-label prob."""
    return penalty(inputs, variant, k, num_classes)[1]


def total_loss(base: float, penalty: float, lam: float) -> float:
    """Composite objective: base + lam * penalty."""
    if lam < 0:
        raise ValueError("penalty strength must be nonnegative")
    return base + lam * penalty
