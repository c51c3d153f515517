import io
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nameblind import clustering
from nameblind.clustering import (
    _distinct_rows,
    _lloyd,
    _nearest,
    _pp_init,
    kmeans,
    write_assignments,
    write_centroids,
)

from oracles import (
    kmeans_per_point,
    kmeans_pp_init_per_point,
    lloyd_oracle_best,
    lloyd_per_point,
    optimal_partition_inertia,
)


def two_blobs(rng, n_per_blob=50, offset=100.0):
    a = rng.normal(0.0, 1.0, size=(n_per_blob, 2))
    b = rng.normal(offset, 1.0, size=(n_per_blob, 2))
    return np.vstack([a, b])


def pp_init(points, k, seed):
    """The k-means++ seeding kmeans runs: _pp_init over the points'
    distinct rows."""
    distinct, inverse = _distinct_rows(points, k)
    return _pp_init(points, distinct, inverse, k, seed)


def test_init_two_points_picks_both():
    points = np.array([[0.0, 0.0], [10.0, 10.0]])
    centroids = pp_init(points, k=2, seed=5)
    got = {tuple(c) for c in centroids}
    assert got == {(0.0, 0.0), (10.0, 10.0)}


def test_init_insufficient_distinct_points():
    points = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="distinct"):
        kmeans(points, k=2, seed=0)


def test_distinct_means_equal_values():
    # -0.0 equals 0.0, so these are two distinct rows, as in np.unique;
    # a set of the rows' bytes would count three.
    points = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="need at least k=3 distinct points, got 2"):
        kmeans(points, k=3, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    points = np.arange(12.0).reshape(6, 2)
    points[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmeans(points, k=2, seed=0)


def test_init_separated_blobs_monte_carlo():
    # Brute-force check: with two blobs 100 apart, k-means++ should put
    # one initial centroid in each blob in at least 99% of seeded trials.
    points = two_blobs(np.random.default_rng(0))
    centers = np.array([[0.0, 0.0], [100.0, 100.0]])
    hits = 0
    for seed in range(1000):
        centroids = pp_init(points, k=2, seed=seed)
        nearest = set()
        for c in centroids:
            dists = [np.sum((c - center) ** 2) for center in centers]
            nearest.add(int(np.argmin(dists)))
        hits += nearest == {0, 1}
    assert hits >= 990


def test_init_duplicates_of_a_chosen_point_get_zero_weight():
    # Each of 3 distinct points repeated 500 times: once a point is chosen,
    # its duplicates sit at distance exactly 0, so k-means++ always picks
    # the 3 distinct points.
    distinct = np.array([[0.1, 0.2, 0.3], [1.7, -0.4, 2.2], [-3.1, 0.9, 0.05]])
    points = np.repeat(distinct, 500, axis=0)
    for seed in range(50):
        centroids = pp_init(points, k=3, seed=seed)
        assert {tuple(c) for c in centroids} == {tuple(p) for p in distinct}


def test_kmeans_two_points_exact_fit():
    points = np.array([[0.0, 0.0], [5.0, 5.0]])
    model = kmeans(points, k=2, seed=1)
    assert model.inertia == 0.0
    assert sorted(model.assignments.tolist()) == [0, 1]


def test_kmeans_four_points_matches_enumeration_oracle():
    points = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    best = optimal_partition_inertia(points, k=2)
    assert best == pytest.approx(4.0, abs=1e-12)
    model = kmeans(points, k=2, seed=3)
    assert model.inertia == pytest.approx(best, abs=1e-9)
    got = {tuple(c) for c in model.centroids}
    assert got == {(0.0, 1.0), (10.0, 1.0)}


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(12, 3))
    model = kmeans(points, k=1, seed=0)
    assert np.allclose(model.centroids[0], points.mean(axis=0), atol=1e-12)
    assert np.all(model.assignments == 0)


def test_kmeans_memory_is_linear_in_points():
    # An n x k x d distance tensor would peak near k times the points.
    rng = np.random.default_rng(12)
    points = np.repeat(rng.normal(size=(1000, 300)), 4, axis=0)
    tracemalloc.start()
    try:
        kmeans(points, k=12, seed=0, n_init=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * points.nbytes


def test_kmeans_memory_below_points_with_duplicates():
    # Distances are taken over the 1,000 distinct rows and the dedupe
    # holds one key per distinct row, so the working set stays below the
    # 4,000 points themselves.
    rng = np.random.default_rng(12)
    points = np.repeat(rng.normal(size=(1000, 300)), 4, axis=0)
    points = points[rng.permutation(len(points))]
    tracemalloc.start()
    try:
        kmeans(points, k=12, seed=0, n_init=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * points.nbytes


def assert_same_model(model, oracle):
    assert model.centroids.tobytes() == oracle["centroids"].tobytes()
    assert model.assignments.tobytes() == oracle["assignments"].tobytes()
    assert model.inertia == oracle["inertia"]
    assert model.inertia_history == oracle["inertia_history"]
    assert model.iterations_run == oracle["iterations_run"]


def shuffled_duplicates(seed, n_distinct, dim, repeats=3):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_distinct, dim))
    return rows[rng.integers(n_distinct, size=repeats * n_distinct)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kmeans_bitwise_matches_per_point_oracle(seed):
    points = shuffled_duplicates(seed, n_distinct=120 + 40 * seed, dim=300)
    k = 4 + 3 * seed
    assert_same_model(kmeans(points, k=k, seed=seed),
                      kmeans_per_point(points, k=k, seed=seed))


def test_kmeans_pp_init_bitwise_matches_per_point_oracle():
    points = shuffled_duplicates(7, n_distinct=150, dim=300)
    for seed in range(10):
        got = pp_init(points, k=9, seed=seed)
        assert got.tobytes() == kmeans_pp_init_per_point(points, 9, seed).tobytes()


def test_exhaustive_init_bitwise_matches_per_point_oracle():
    # 6 distinct rows (one also written with -0.0), k=2: 15 subsets, so
    # the exhaustive inits run, taking np.unique's row order.
    rows = np.array([[0.0, 1.0], [3.0, 0.5], [1.0, 1.0], [4.0, 4.0],
                     [0.5, 3.0], [3.5, 3.5], [-0.0, 1.0]])
    rng = np.random.default_rng(5)
    points = rows[rng.integers(len(rows), size=30)]
    for seed in range(5):
        assert_same_model(kmeans(points, k=2, seed=seed, n_init=2),
                          kmeans_per_point(points, k=2, seed=seed, n_init=2))


def test_lloyd_reseed_bitwise_matches_per_point_oracle():
    rows = np.array([[0.0, 3.0], [0.0, 4.0], [0.0, 5.0], [2.0, 0.0],
                     [2.0, 2.0], [4.0, 0.0], [5.0, 2.0], [5.0, 3.0],
                     [5.0, 4.0]])
    counts = [9, 3, 3, 1, 7, 3, 4, 3, 3]
    rng = np.random.default_rng(0)
    points = rows[rng.permutation(np.repeat(np.arange(len(rows)), counts))]
    init = rows[[3, 5, 6, 7, 8]]

    def nearest(centroids):
        return ((points[:, None] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)

    # After the first update no point is nearest to cluster 4.
    first = nearest(init)
    means = np.array([points[first == j].mean(axis=0) for j in range(5)])
    assert np.bincount(nearest(means), minlength=5).min() == 0
    distinct, inverse = _distinct_rows(points, 5)
    sq_norms = np.einsum("nd,nd->n", distinct, distinct)
    model = _lloyd(points, distinct, inverse, sq_norms, init.copy())
    oracle = lloyd_per_point(points, np.einsum("nd,nd->n", points, points),
                              init.copy(), 100, 1e-4)
    assert_same_model(model, oracle)
    assert_same_model(kmeans(points, k=5, seed=196),
                      kmeans_per_point(points, k=5, seed=196))


def test_assign_nearest_tie_and_exact():
    model = kmeans(np.array([[0.0, 0.0], [10.0, 0.0]]), k=2, seed=0)
    # order the centroids deterministically for the checks below
    order = np.argsort(model.centroids[:, 0])
    centroids = model.centroids[order]
    assert centroids.tolist() == [[0.0, 0.0], [10.0, 0.0]]
    assert model.inertia == 0.0
    assert model.assignments.tolist() == np.argsort(order).tolist()
    # A converged partition never holds a tied point (moving it would lower
    # the inertia), so the tie rule is checked on the assignment pass itself.
    queries = np.array([[1.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
    sq_norms = np.einsum("nd,nd->n", queries, queries)
    assert _nearest(queries, sq_norms, centroids).tolist() == [0, 0, 1]
    assert _nearest(queries, sq_norms, centroids[::-1]).tolist() == [1, 0, 0]


def test_kmeans_deterministic(monkeypatch):
    # two computed fits, not a fit and its cache entry
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    rng = np.random.default_rng(4)
    points = rng.normal(size=(40, 3))
    a = kmeans(points, k=3, seed=9)
    b = kmeans(points, k=3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.iterations_run == b.iterations_run


def test_relabeling_keeps_inertia():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(30, 2))
    model = kmeans(points, k=3, seed=1)
    perm = np.array([2, 0, 1])
    permuted_centroids = model.centroids[perm]
    relabel = np.argsort(perm)  # old index -> new index
    permuted_assignments = relabel[model.assignments]
    inertia = float(
        np.sum((points - permuted_centroids[permuted_assignments]) ** 2)
    )
    assert inertia == pytest.approx(model.inertia, rel=1e-12)


def test_inertia_non_increasing_per_iteration(monkeypatch):
    monkeypatch.setattr(clustering, "MAX_ITERS", 25)
    monkeypatch.setattr(clustering, "TOL", 0.0)
    rng = np.random.default_rng(6)
    points = np.vstack(
        [rng.normal(i * 3, 1.0, size=(20, 2)) for i in range(3)]
    )
    model = kmeans(points, k=3, seed=2)
    history = model.inertia_history
    assert len(history) >= 2
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev + 1e-9


def test_assignments_are_nearest_and_inertia_consistent():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(60, 4))
    model = kmeans(points, k=4, seed=11)
    d2 = ((points[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), model.assignments)
    recomputed = float(d2[np.arange(len(points)), model.assignments].sum())
    assert model.inertia == pytest.approx(recomputed, rel=1e-9)


def test_tiny_instances_match_brute_force_lloyd():
    # Equal restart budgets on both sides: our kmeans gets 50 seeded
    # inits, the independent oracle 50 uniform restarts. One-sided bound:
    # a result *below* the oracle's best would mean the oracle missed the
    # optimum, not that the implementation is wrong.
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        points = rng.normal(size=(n, 2)).round(3)
        if len(np.unique(points, axis=0)) < k:
            continue
        model = kmeans(points, k=k, seed=trial, n_init=50)
        best = lloyd_oracle_best(points, k, seed=trial, restarts=50)
        assert model.inertia <= best + 1e-9


def test_exports(tmp_path):
    points = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 1.0], [4.0, 1.0]])
    model = kmeans(points, k=2, seed=0)
    centroid_path = tmp_path / "clusters.txt"
    write_centroids(model, centroid_path)
    lines = centroid_path.read_text().splitlines()
    assert lines[0] == "2 2"
    parsed = np.array([[float(v) for v in line.split()] for line in lines[1:]])
    assert np.array_equal(parsed, model.centroids)
    assign_path = tmp_path / "assignments.txt"
    write_assignments(["r0", "r1", "r2", "r3"], model.assignments, assign_path)
    rows = [line.split("\t") for line in assign_path.read_text().splitlines()]
    assert [r[0] for r in rows] == ["r0", "r1", "r2", "r3"]
    assert [int(r[1]) for r in rows] == model.assignments.tolist()


def cache_entries():
    """The k-means entries in the cache (the tests' XDG_CACHE_HOME, see
    conftest)."""
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "nameblind")
                  .glob("kmeans-*.npz"))


def model_bytes(model):
    """Every field of a ClusterModel, each array as its dtype, shape and
    bytes and each other value with its type."""
    return {name: (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray)
            else (type(value), [(type(v), v) for v in value])
            if isinstance(value, list) else (type(value), value)
            for name, value in vars(model).items()}


def no_fit(monkeypatch):
    """Make any k-means run raise: a call must be served from the cache."""
    def fail(*args):
        raise AssertionError("k-means ran")

    for name in ("_distinct_rows", "_pp_init", "_lloyd"):
        monkeypatch.setattr(clustering, name, fail)


@pytest.fixture()
def fits(monkeypatch):
    """One item per kmeans call that ran the fit, not read the cache."""
    calls = []
    distinct_rows = clustering._distinct_rows
    monkeypatch.setattr(clustering, "_distinct_rows", lambda *args: (
        calls.append(1) or distinct_rows(*args)))
    return calls


def test_a_hit_is_bitwise_the_cold_fit(monkeypatch):
    points = shuffled_duplicates(3, n_distinct=80, dim=20)
    cold = kmeans(points, k=5, seed=4)
    [entry] = cache_entries()
    with np.load(entry, allow_pickle=False) as fields:
        assert str(fields["source"]) == str(fields["identity"]) == ""
        assert fields["centroids"].shape == (5, 20)
        assert fields["assignments"].dtype == np.int64
    no_fit(monkeypatch)
    for _ in range(2):
        hit = kmeans(points, k=5, seed=4)
        assert model_bytes(hit) == model_bytes(cold)
    assert cache_entries() == [entry]


def nudged(points):
    """points with one coordinate moved by one ulp."""
    points = points.copy()
    points[7, 3] = np.nextafter(points[7, 3], np.inf)
    return points


@pytest.mark.parametrize("change", ["k", "seed", "n_init", "MAX_ITERS",
                                    "TOL", "one ulp"])
def test_each_input_of_the_fit_misses(monkeypatch, fits, change):
    points = shuffled_duplicates(4, n_distinct=60, dim=10)
    args = dict(k=4, seed=2, n_init=3)
    kmeans(points, **args)
    if change in ("MAX_ITERS", "TOL"):
        monkeypatch.setattr(clustering, change,
                            getattr(clustering, change) * 2)
    elif change == "one ulp":
        points = nudged(points)
    else:
        args[change] += 1
    other = kmeans(points, **args)
    assert len(fits) == 2
    assert len(cache_entries()) == 2
    # and the other inputs' entry is served from then on
    assert model_bytes(kmeans(points, **args)) == model_bytes(other)
    assert len(fits) == 2


def rewrite_entry(entry, change):
    """Replace the k-means entry's member change with a wrongly shaped
    copy, keeping every other member."""
    with np.load(entry, allow_pickle=False) as fields:
        members = {name: fields[name] for name in fields.files}
    members[change] = {"centroids": members["centroids"][:-1],
                       "assignments": members["assignments"][:, None]}[change]
    damaged = io.BytesIO()
    np.savez(damaged, **members)
    return damaged.getvalue()


def test_a_damaged_entry_is_a_miss_then_rewritten(fits):
    points = shuffled_duplicates(5, n_distinct=60, dim=10)
    cold = model_bytes(kmeans(points, k=4, seed=1))
    [entry] = cache_entries()
    whole = entry.read_bytes()
    contents = [whole[:size] for size in (0, 10, len(whole) // 2,
                                          len(whole) - 1)]
    contents += [rewrite_entry(entry, "centroids"),
                 rewrite_entry(entry, "assignments")]
    for content in contents:
        entry.write_bytes(content)
        ran = len(fits)
        assert model_bytes(kmeans(points, k=4, seed=1)) == cold
        assert len(fits) == ran + 1
        # the fit wrote the entry anew
        assert model_bytes(kmeans(points, k=4, seed=1)) == cold
        assert len(fits) == ran + 1


def test_an_unwritable_cache_still_fits(monkeypatch, fits):
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    points = shuffled_duplicates(6, n_distinct=40, dim=5)
    models = [kmeans(points, k=3, seed=0) for _ in range(2)]
    assert len(fits) == 2
    assert model_bytes(models[0]) == model_bytes(models[1])
