"""k-means over name vectors, seeded with k-means++.

Clustering runs once on the training-set name vectors and the assignments
are frozen for the rest of training; distances are squared Euclidean
throughout. Deterministic for a given (points, k, seed, n_init).

Name vectors repeat (records share names), so each call finds the m
distinct rows once and takes every distance per distinct row, expanding
it to the n points through each point's row index. Assignment passes
find the nearest centroid from the m×k distance matrix in GEMM form.
Everything that reads a distance value (inertia, its history, k-means++
weights, empty-cluster reseeding) uses the direct form instead, so a
point equal to its centroid is at exactly 0. Sampling, reseeding, sums
and centroid updates stay per point, so results are bit-identical to
measuring each point on its own. Working memory is O(m·d + n·k) beyond
the points.

A fit is cached per user (cache.compute, kind "kmeans"): its entry is
keyed on a SHA-256 of the points' bytes, their shape, k, the seed,
n_init, MAX_ITERS, TOL, EXHAUSTIVE_INIT_CAP, the numpy version (the GEMMs
depend on its BLAS) and the source of this module and of the cache
module. A later call with the same key reads the stored ClusterModel
back, bit for bit, instead of running any restart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import cache

MAX_ITERS = 100  # Lloyd passes per run at most
TOL = 1e-4  # a run stops once no centroid moves this far
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

    def fields(self) -> dict:
        """The model as arrays and JSON values, for a cache entry."""
        return dict(vars(self))


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, dim) array")
    return pts


def _distinct_rows(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of pts and, for each point, its row among them.

    Rows are distinct by value, as in np.unique(axis=0): adding 0.0 turns
    -0.0 into 0.0, so equal rows have equal bytes. Each distinct row is
    the first point that holds it, in order of first appearance. Only one
    block of rows and one key per distinct row are held, so memory is
    O(distinct·d) beyond the points.
    """
    first: dict[bytes, int] = {}
    reps: list[int] = []
    inverse = np.empty(len(pts), dtype=np.intp)
    width = pts.shape[1] * pts.itemsize
    for start in range(0, len(pts), _BLOCK_ROWS):
        block = (pts[start:start + _BLOCK_ROWS] + 0.0).tobytes()
        for i, offset in enumerate(range(0, len(block), width), start):
            key = block[offset:offset + width]
            row = first.get(key)
            if row is None:
                row = first[key] = len(reps)
                reps.append(i)
            inverse[i] = row
    distinct = pts[reps]
    if not np.isfinite(distinct).all():
        raise ValueError("points must be finite")
    if len(distinct) < k:
        raise ValueError(
            f"need at least k={k} distinct points, got {len(distinct)}"
        )
    return distinct, inverse


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
                 index: np.ndarray | None = None) -> np.ndarray:
    """Squared distance from each point i to centroids[index[i]].

    With index None, centroids is one (d,) centroid that every point is
    measured against. Direct O(n·d) form, so a point equal to its
    centroid is at exactly 0. Rows go in blocks so each block's
    differences stay in cache.
    """
    out = np.empty(len(pts))
    for start in range(0, len(pts), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        target = centroids if index is None else centroids[index[rows]]
        diff = target - pts[rows]
        out[rows] = np.einsum("nd,nd->n", diff, diff)
    return out


def _pp_init(pts: np.ndarray, distinct: np.ndarray, inverse: np.ndarray,
             k: int, seed: int) -> np.ndarray:
    """k-means++ seeding of points known to hold at least k distinct rows.

    Distances are taken once per distinct row and expanded to the points
    (distinct[inverse] equals pts by value), so every draw is over the
    same n weights as when each point is measured on its own.
    """
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(len(pts))]
    d2 = _sq_dists_to(distinct, centroids[0])
    for j in range(1, k):
        weights = d2[inverse]
        idx = rng.choice(len(pts), p=weights / weights.sum())
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, _sq_dists_to(distinct, centroids[j]))
    return centroids


def kmeans(points, k: int, seed: int,
           n_init: int = DEFAULT_N_INIT) -> ClusterModel:
    """Best of n_init seeded k-means++ runs (by final inertia).

    Single-run Lloyd regularly sticks in local minima even on tiny
    instances, so like most k-means implementations this one repeats the
    init/iterate cycle n_init times with derived seeds and keeps the run
    with the lowest inertia (earliest run wins ties). On inputs small
    enough that every k-subset of distinct points is enumerable cheaply,
    Lloyd additionally runs from each such init: k-means++ seeding
    provably cannot reach some optima of tiny instances no matter how
    many restarts it gets. Deterministic for a given
    (points, k, seed, n_init).

    An earlier call's fit of the same points (to the bit), k, seed,
    n_init and constants is read back from the per-user cache (see the
    module docstring) and no restart runs; a miss fits and stores it. An
    entry that cannot be read, or whose centroids or assignments have
    another shape or dtype, is a miss.

    Raises ValueError for non-finite points or fewer than k distinct ones.
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if k < 1:
        raise ValueError("k must be positive")
    pts = _as_points(points)
    n, dim = pts.shape
    inputs = {"points": hashlib.sha256(np.ascontiguousarray(pts)).hexdigest(),
              "shape": [n, dim], "k": int(k), "seed": int(seed),
              "n_init": int(n_init), "max_iters": MAX_ITERS, "tol": TOL,
              "exhaustive_init_cap": EXHAUSTIVE_INIT_CAP,
              "numpy": np.__version__}

    def decode(fields):
        model = ClusterModel(**fields)
        if (model.k != k or model.centroids.dtype != np.float64
                or model.centroids.shape != (k, dim)
                or model.assignments.dtype != np.intp
                or model.assignments.shape != (n,)):
            raise ValueError("a cached model of another shape")
        return model

    return cache.compute("kmeans", __file__, inputs,
                         lambda: _fit(pts, k, seed, n_init), decode)


def _fit(pts: np.ndarray, k: int, seed: int, n_init: int) -> ClusterModel:
    """kmeans' fit itself, run on a cache miss."""
    distinct, inverse = _distinct_rows(pts, k)
    sq_norms = np.einsum("nd,nd->n", distinct, distinct)
    best = None
    for i in range(n_init):
        init = _pp_init(pts, distinct, inverse, k, seed + i)
        model = _lloyd(pts, distinct, inverse, sq_norms, init)
        if best is None or model.inertia < best.inertia:
            best = model
    if comb(len(distinct), k) <= EXHAUSTIVE_INIT_CAP:
        # sorted rows, so the subsets (and which wins a tie) do not
        # depend on the order the points came in
        ordered = np.unique(distinct, axis=0)
        for subset in combinations(range(len(ordered)), k):
            model = _lloyd(pts, distinct, inverse, sq_norms,
                           ordered[list(subset)])
            if model.inertia < best.inertia:
                best = model
    return best


def _lloyd(pts: np.ndarray, distinct: np.ndarray, inverse: np.ndarray,
           sq_norms: np.ndarray, centroids: np.ndarray) -> ClusterModel:
    """Standard Lloyd iterations from the given initial centroids.

    Stops when every centroid moves less than TOL (Euclidean) or after
    MAX_ITERS passes. A cluster left empty by an assignment pass is
    reseeded to the point currently farthest from its assigned centroid,
    which keeps all k clusters alive without increasing the objective. Nearest
    centroids and distances are found per distinct row (sq_norms holds
    their squared norms) and expanded through inverse; the reseed, the
    inertia sums and the centroid update (one (k, n) one-hot matrix
    times the points) stay per point, so duplicates weigh as often as
    they occur and every sum adds in the same order.
    """
    k = len(centroids)
    history: list[float] = []
    iterations_run = 0
    for _ in range(MAX_ITERS):
        iterations_run += 1
        nearest = _nearest(distinct, sq_norms, centroids)
        assignments = nearest[inverse]
        per_point = _sq_dists_to(distinct, centroids, nearest)[inverse]
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
        if shift < TOL:
            break
    nearest = _nearest(distinct, sq_norms, centroids)
    inertia = float(_sq_dists_to(distinct, centroids, nearest)[inverse].sum())
    history.append(inertia)
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=nearest[inverse],
        inertia=inertia,
        iterations_run=iterations_run,
        inertia_history=history,
    )


def write_centroids(model: ClusterModel, path) -> None:
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
