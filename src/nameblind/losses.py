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

Both are averaged over classes; model.objective adds them to the base
loss scaled by a nonnegative strength. Gradients flow only through the
true-label probabilities; cluster assignments and name vectors are
constants during training. Each penalty has one implementation, a table
built over fixed records whose penalty(p) returns the value and its
gradient in one pass: CluclTable over the records' cluster ids, CoclTable
over the name-table rows the records read (a matrix of per-record vectors
is the table whose row i is record i's vector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANTS = ("none", "clucl", "cocl")


@dataclass
class PenaltyInputs:
    """Aligned per-record arrays read by the public penalty functions.

    Records with include_mask False (e.g. names with no embedding
    coverage) are ignored by every statistic. cluster_ids are only needed
    for the cluster penalty (read as a CluclTable), name_vectors only for
    the covariance penalty (read as a CoclTable). Each table checks the
    labels it reads.
    """

    true_label_probs: np.ndarray
    labels: np.ndarray
    cluster_ids: np.ndarray | None = None
    name_vectors: np.ndarray | None = None
    include_mask: np.ndarray | None = None

    def __post_init__(self):
        self.true_label_probs = np.asarray(self.true_label_probs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
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


def _class_labels(labels, num_classes: int) -> np.ndarray:
    """labels as int64 class indices, checked once over the whole array:
    ValueError unless each is an integer in [0, num_classes)."""
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu" and not np.array_equal(labels,
                                                             np.trunc(labels)):
        raise ValueError("class labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"class labels must lie in [0, {num_classes})")
    return labels.astype(np.int64, copy=False)


class _Included:
    """The included records of a table: their labels, and each present
    class with the position of its first included record, found once."""

    def __init__(self, labels, include, num_classes: int):
        self.include = include
        self.labels = labels[include]
        self.classes, self.first = np.unique(self.labels, return_index=True)
        self.num_classes = num_classes

    def probs(self, probs) -> np.ndarray:
        """The included records' probabilities, each taken about its
        class's first included one: the offset cancels in every statistic
        the penalties read, and equal probabilities give exact zeros."""
        probs = probs[self.include]
        offset = np.zeros(self.num_classes)
        offset[self.classes] = probs[self.first]
        return probs - offset[self.labels]


class CluclTable:
    """The cluster penalty over fixed records: record i of class labels[i]
    sits in cluster cluster_ids[i] of k, and a record with include False is
    excluded (its cluster id is not read).

    Each included record's (class, cluster) cell, the (C, k) cell counts
    and, per class, the number v * (v - 1) of ordered pairs of its v
    populated cells are computed once; a penalty is then one np.bincount of
    the probabilities over the cells and O(C k^2) work on the cell means.
    """

    def __init__(self, labels, cluster_ids, include, k: int, num_classes: int):
        self.labels = _class_labels(labels, num_classes)
        self.include = np.asarray(include, dtype=bool)
        self.k, self.num_classes = k, num_classes
        ids = np.asarray(cluster_ids)[self.include]
        if len(ids) and (ids.min() < 0 or ids.max() >= k):
            raise ValueError(f"cluster ids must lie in [0, {k})")
        self.included = _Included(self.labels, self.include, num_classes)
        self.cells = self.included.labels * k + ids
        self.counts = np.bincount(self.cells, minlength=num_classes * k
                                  ).reshape(num_classes, k)
        self.populated = self.counts > 0
        v = self.populated.sum(axis=1)
        self.pairs = v * (v - 1)

    def penalty(self, true_label_probs) -> tuple[float, np.ndarray]:
        """(value, d value / d p_i per record, 0 if excluded) at the
        true-label probabilities p. With diffs[c, u, w] = mean[c, u] -
        mean[c, w] where both cells are populated (0 elsewhere), class c
        contributes sum(diffs[c]^2) / pairs[c]; d l_c / d mean_u =
        (4 / pairs) * sum_w diffs[c, u, w], and each record of cell u
        holds 1 / count_u of mean_u."""
        num_classes, k, counts = self.num_classes, self.k, self.counts
        probs = self.included.probs(true_label_probs)
        sums = np.bincount(self.cells, weights=probs,
                           minlength=num_classes * k)
        means = np.zeros((num_classes, k))
        np.divide(sums.reshape(num_classes, k), counts, out=means,
                  where=self.populated)
        both = self.populated[:, :, None] & self.populated[:, None, :]
        diffs = np.where(both, means[:, :, None] - means[:, None, :], 0.0)
        live = self.pairs > 0
        per_class = np.sum(diffs[live] ** 2, axis=(1, 2)) / self.pairs[live]
        denom = self.pairs[:, None] * counts * num_classes
        cell_grads = np.zeros(counts.shape)
        np.divide(4.0 * diffs.sum(axis=2), denom, out=cell_grads,
                  where=denom > 0)
        grad = np.zeros(len(self.labels))
        grad[self.include] = cell_grads.ravel()[self.cells]
        return float(per_class.sum()) / num_classes, grad


class CoclTable:
    """The covariance penalty over fixed records whose name vectors are
    name-table rows (embeddings.NameTable): a record's vector is the mean
    of its found names' rows (first, last; -1 where not found), and a
    record with neither found is excluded.

    Only the R <= 2 x records rows the found names read are kept, under
    local ids. Each found name's (class, local row) key and share, the
    class counts and the (C, R) weights of the class mean vectors over the
    rows are computed once; a penalty's value is then one np.bincount over
    the keys and one (C, R) @ (R, dim) product, and its gradient one more
    (R, dim) @ (dim, C) product. No per-record vector is built.
    """

    def __init__(self, labels, vectors, first, last, num_classes: int):
        self.labels = _class_labels(labels, num_classes)
        self.num_classes = num_classes
        found_first, found_last = first >= 0, last >= 0
        self.include = found_first | found_last
        self.included = _Included(self.labels, self.include, num_classes)
        share = np.where(found_first & found_last, 0.5, 1.0)
        self.records = np.concatenate((np.flatnonzero(found_first),
                                       np.flatnonzero(found_last)))
        self.shares = share[self.records]
        used, self.local = np.unique(
            np.concatenate((first[found_first], last[found_last])),
            return_inverse=True)
        self.rows = vectors[used]
        self.keys = self.labels[self.records] * len(used) + self.local
        self.counts = np.bincount(self.included.labels, minlength=num_classes)
        # means_c = mean_weights_c @ rows
        self.mean_weights = (self._per_class(self.shares)
                             / np.maximum(self.counts, 1)[:, None])

    def _per_class(self, weights) -> np.ndarray:
        """(C, R): the weights summed per (class, local row) key."""
        size = self.num_classes * len(self.rows)
        return np.bincount(self.keys, weights=weights,
                           minlength=size).reshape(self.num_classes, -1)

    def _covariances(self, true_label_probs) -> np.ndarray:
        """(C, dim) per-class covariances. Row c of weights sums, per local
        row, the class-c records' probabilities (about the class mean)
        times their shares of it, so cov_c = (weights_c - sum(weights_c) *
        mean_weights_c) @ rows / n_c (the sum is 0 up to rounding)."""
        num_classes, n_c = self.num_classes, np.maximum(self.counts, 1)
        kept, probs = self.included.labels, self.included.probs(true_label_probs)
        mean_p = np.bincount(kept, weights=probs, minlength=num_classes) / n_c
        centred = np.zeros(len(self.labels))
        centred[self.include] = probs - mean_p[kept]
        weights = self._per_class(centred[self.records] * self.shares)
        weights = weights - weights.sum(axis=1)[:, None] * self.mean_weights
        return weights @ self.rows / n_c[:, None]

    def penalty(self, true_label_probs) -> tuple[float, np.ndarray]:
        """(value, d value / d p_i per record, 0 if excluded) at the
        true-label probabilities p. With u_c = cov_c / (|cov_c| C n_c),
        record i of class c gets (v_i - means_c) . u_c: the share-weighted
        sum of proj[row, c] over its found names (the shares sum to 1),
        proj = rows @ U.T less means_c . u_c = mean_weights_c @
        (rows @ U.T)[:, c]."""
        num_classes = self.num_classes
        cov = self._covariances(true_label_probs)
        norms = np.linalg.norm(cov, axis=1)
        scale = np.zeros(num_classes)
        np.divide(1.0, norms * self.counts * num_classes, out=scale,
                  where=norms > 0)
        unit = cov * scale[:, None]
        proj = self.rows @ unit.T
        proj -= np.sum(self.mean_weights * proj.T, axis=1)
        picked = proj[self.local, self.labels[self.records]] * self.shares
        grad = np.bincount(self.records, weights=picked,
                           minlength=len(self.labels))
        return float(norms.sum()) / num_classes, grad


def _table(inputs: PenaltyInputs, variant: str, k: int, num_classes: int):
    """The table of the selected penalty over inputs' records, or None
    where the penalty is 0 by definition (variant "none", clucl with
    k = 1). cocl reads the CoclTable whose row i is record i's name
    vector: first = arange(n) where included, last = -1."""
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    if variant == "none":
        return None
    if variant == "clucl":
        if k < 1:
            raise ValueError("k must be positive")
        if k == 1:
            return None
        if inputs.cluster_ids is None:
            raise ValueError("cluster_ids are required for the cluster penalty")
        return CluclTable(inputs.labels, inputs.cluster_ids,
                          inputs.include_mask, k, num_classes)
    if variant == "cocl":
        if inputs.name_vectors is None:
            raise ValueError(
                "name_vectors are required for the covariance penalty")
        n = len(inputs)
        return CoclTable(inputs.labels, inputs.name_vectors,
                         np.where(inputs.include_mask, np.arange(n), -1),
                         np.full(n, -1), num_classes)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def penalty(inputs: PenaltyInputs, variant: str, k: int,
            num_classes: int) -> tuple[float, np.ndarray]:
    """(value, grad) of the selected penalty from its table's one pass.

    grad holds d value / d true_label_prob_i, one entry per record, 0 for
    masked-out records; variant "none" gives (0.0, zeros).
    """
    table = _table(inputs, variant, k, num_classes)
    if table is None:
        return 0.0, np.zeros(len(inputs))
    return table.penalty(inputs.true_label_probs)


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
    """Value of the selected penalty; variant "none" is 0."""
    return penalty(inputs, variant, k, num_classes)[0]


def penalty_gradient(inputs: PenaltyInputs, variant: str, k: int,
                     num_classes: int) -> np.ndarray:
    """Exact partials of the selected penalty w.r.t. each true-label prob."""
    return penalty(inputs, variant, k, num_classes)[1]


def penalty_strength(lam) -> float:
    """lam as a float; ValueError unless it is finite and nonnegative."""
    lam = float(lam)
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(
            f"penalty strength must be finite and nonnegative, got {lam!r}")
    return lam
