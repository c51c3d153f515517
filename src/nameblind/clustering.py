"""k-means over name vectors, seeded with k-means++.

Clustering runs once on the training-set name vectors and the assignments
are frozen for the rest of training; distances are squared Euclidean
throughout. Deterministic for a given (points, k, seed, max_iters, tol).

Assignment passes find the nearest centroid from the n×k distance matrix
in GEMM form. Everything that reads a distance value (inertia, its
history, k-means++ weights, empty-cluster reseeding) uses the direct form
instead, so a point equal to its centroid is at exactly 0. Working memory
is O(n·k) beyond the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-4
DEFAULT_N_INIT = 10
EXHAUSTIVE_INIT_CAP = 200  # try all k-subsets as inits when this cheap
_BLOCK_ROWS = 256  # rows per block of direct distances


@dataclass
class ClusterModel:
    """Fitted k-means state.

    assignments hold, for each input point, the index of its nearest
    centroid (lowest index on ties); inertia is the sum of squared
    distances from each point to its assigned centroid. inertia_history
    records the inertia after every assignment pass, so callers can verify
    the Lloyd iterations never increased it.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations_run: int
    inertia_history: list[float] = field(default_factory=list)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, dim) array")
    return pts


def _nearest(pts: np.ndarray, sq_norms: np.ndarray,
             centroids: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid (lowest index on ties).

    Takes the n×k squared distances in the GEMM form
    ||x||² - 2·x·c + ||c||², clamped at 0, so working memory is O(n·k)
    beyond the points; sq_norms holds ||x||² per point.
    """
    d2 = pts @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += np.einsum("kd,kd->k", centroids, centroids)
    np.maximum(d2, 0.0, out=d2)
    return np.argmin(d2, axis=1)


def _sq_dists_to(pts: np.ndarray, centroids: np.ndarray,
                 index: np.ndarray) -> np.ndarray:
    """Squared distance from each point i to centroids[index[i]].

    Direct O(n·d) form, so a point equal to its centroid is at exactly 0.
    Rows go in blocks so each block's differences stay in cache.
    """
    out = np.empty(len(pts))
    for start in range(0, len(pts), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        diff = centroids[index[rows]] - pts[rows]
        out[rows] = np.einsum("nd,nd->n", diff, diff)
    return out


def _distinct(pts: np.ndarray, k: int) -> np.ndarray:
    distinct = np.unique(pts, axis=0)
    if len(distinct) < k:
        raise ValueError(
            f"need at least k={k} distinct points, got {len(distinct)}"
        )
    return distinct


def kmeans_pp_init(points, k: int, seed: int) -> np.ndarray:
    """Choose k initial centroids with the k-means++ rule.

    The first centroid is uniform over the points (seeded); each further
    centroid is sampled with probability proportional to its squared
    distance to the nearest centroid chosen so far.
    """
    pts = _as_points(points)
    if k < 1:
        raise ValueError("k must be positive")
    _distinct(pts, k)
    return _pp_init(pts, k, seed)


def _pp_init(pts: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding of points known to hold at least k distinct rows."""
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(len(pts))]
    if k == 1:
        return centroids
    row0 = np.zeros(len(pts), dtype=np.intp)  # every point to one centroid
    d2 = _sq_dists_to(pts, centroids[:1], row0)
    for j in range(1, k):
        probs = d2 / d2.sum()
        idx = rng.choice(len(pts), p=probs)
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, _sq_dists_to(pts, centroids[j:j + 1], row0))
    return centroids


def kmeans(points, k: int, seed: int, max_iters: int = DEFAULT_MAX_ITERS,
           tol: float = DEFAULT_TOL, n_init: int = DEFAULT_N_INIT) -> ClusterModel:
    """Best of n_init seeded k-means++ runs (by final inertia).

    Single-run Lloyd regularly sticks in local minima even on tiny
    instances, so like most k-means implementations this one repeats the
    init/iterate cycle n_init times with derived seeds and keeps the run
    with the lowest inertia (earliest run wins ties). On inputs small
    enough that every k-subset of distinct points is enumerable cheaply,
    Lloyd additionally runs from each such init: k-means++ seeding
    provably cannot reach some optima of tiny instances no matter how
    many restarts it gets. Deterministic for a given
    (points, k, seed, max_iters, tol, n_init).
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if k < 1:
        raise ValueError("k must be positive")
    pts = _as_points(points)
    distinct = _distinct(pts, k)
    sq_norms = np.einsum("nd,nd->n", pts, pts)
    best = None
    for i in range(n_init):
        model = _lloyd(pts, sq_norms, _pp_init(pts, k, seed + i), max_iters, tol)
        if best is None or model.inertia < best.inertia:
            best = model
    if _n_subsets(len(distinct), k) <= EXHAUSTIVE_INIT_CAP:
        for subset in combinations(range(len(distinct)), k):
            model = _lloyd(pts, sq_norms, distinct[list(subset)], max_iters, tol)
            if model.inertia < best.inertia:
                best = model
    return best


def _n_subsets(n: int, k: int) -> float:
    try:
        return comb(n, k)
    except ValueError:
        return 0


def _lloyd(pts: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray,
           max_iters: int, tol: float) -> ClusterModel:
    """Standard Lloyd iterations from the given initial centroids.

    Stops when every centroid moves less than tol (Euclidean) or after
    max_iters. A cluster left empty by an assignment pass is reseeded to
    the point currently farthest from its assigned centroid, which keeps
    all k clusters alive without increasing the objective. Each centroid
    update is one (k, n) one-hot matrix times the points.
    """
    k = len(centroids)
    history: list[float] = []
    iterations_run = 0
    for _ in range(max_iters):
        iterations_run += 1
        assignments = _nearest(pts, sq_norms, centroids)
        per_point = _sq_dists_to(pts, centroids, assignments)
        # Reseeding can itself empty a cluster (by stealing its only
        # member), so sweep until none are empty; k passes always suffice.
        for _sweep in range(k):
            empty = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
            if len(empty) == 0:
                break
            for j in empty:
                idx = int(np.argmax(per_point))
                if per_point[idx] == 0.0:
                    break
                centroids[j] = pts[idx]
                assignments[idx] = j
                per_point[idx] = 0.0
        history.append(float(per_point.sum()))
        counts = np.bincount(assignments, minlength=k)
        alive = counts > 0
        onehot = np.zeros((k, len(pts)))
        onehot[assignments, np.arange(len(pts))] = 1.0
        new_centroids = centroids.copy()
        new_centroids[alive] = (onehot @ pts)[alive] / counts[alive, None]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tol:
            break
    assignments = _nearest(pts, sq_norms, centroids)
    inertia = float(_sq_dists_to(pts, centroids, assignments).sum())
    history.append(inertia)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations_run=iterations_run,
        inertia_history=history,
    )


def write_cluster_model(model: ClusterModel, path) -> None:
    """Export centroids as text: a "k dim" header, then one row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{model.k} {model.centroids.shape[1]}\n")
        for row in model.centroids:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_assignments(record_ids, assignments, path) -> None:
    """Export assignments as two tab-separated columns (id, cluster)."""
    if len(record_ids) != len(assignments):
        raise ValueError("record_ids and assignments must align")
    with open(path, "w", encoding="utf-8") as fh:
        for rid, cluster in zip(record_ids, assignments):
            fh.write(f"{rid}\t{int(cluster)}\n")
