import numpy as np
import pytest

from nameblind.embeddings import EmbeddingTable, batch_name_vectors
from nameblind.losses import (
    CoclTable,
    PenaltyInputs,
    clucl_penalty,
    cocl_penalty,
    penalty,
    penalty_gradient,
    penalty_value,
    total_loss,
)

from oracles import (
    central_diff_grad,
    clucl_loop_gradient,
    clucl_loop_penalty,
    cocl_loop_gradient,
    cocl_loop_penalty,
    name_vectors_loop,
    rel_error,
)


def make_inputs(probs, labels, clusters=None, vectors=None, mask=None):
    return PenaltyInputs(
        true_label_probs=np.asarray(probs, dtype=float),
        labels=np.asarray(labels),
        cluster_ids=None if clusters is None else np.asarray(clusters),
        name_vectors=None if vectors is None else np.asarray(vectors, dtype=float),
        include_mask=None if mask is None else np.asarray(mask, dtype=bool),
    )


def random_inputs(rng, n=30, num_classes=3, k=3, dim=4, with_mask=True):
    mask = rng.random(n) < 0.85 if with_mask else np.ones(n, dtype=bool)
    return make_inputs(
        probs=rng.uniform(0.05, 0.95, size=n),
        labels=rng.integers(0, num_classes, size=n),
        clusters=rng.integers(0, k, size=n),
        vectors=rng.normal(size=(n, dim)),
        mask=mask,
    )


# ---------------------------------------------------------------- cluster penalty

def test_clucl_k1_is_zero():
    inputs = make_inputs([0.5, 0.9], [0, 0], clusters=[0, 0])
    assert clucl_penalty(inputs, k=1, num_classes=1) == 0.0


def test_clucl_hand_computed_two_clusters():
    # one class, cluster means 0.8 and 0.6:
    # ordered pairs (0,1) and (1,0) each contribute 0.2^2 -> (0.04+0.04)/2
    inputs = make_inputs(
        [0.7, 0.9, 0.5, 0.7], [0, 0, 0, 0], clusters=[0, 0, 1, 1]
    )
    assert clucl_penalty(inputs, k=2, num_classes=1) == pytest.approx(0.04, abs=1e-12)


def test_clucl_equal_probs_zero_for_any_clustering():
    rng = np.random.default_rng(0)
    inputs = make_inputs(
        np.full(20, 0.37), np.zeros(20, dtype=int), clusters=rng.integers(0, 4, 20)
    )
    assert clucl_penalty(inputs, k=4, num_classes=1) == 0.0


def test_clucl_skips_empty_cells_and_renormalizes():
    # k=3 but cluster 2 has no members: normalizer is the 2 evaluated
    # ordered pairs, so the value matches the k=2 case.
    inputs = make_inputs([0.8, 0.6], [0, 0], clusters=[0, 1])
    assert clucl_penalty(inputs, k=3, num_classes=1) == pytest.approx(0.04, abs=1e-12)


def test_clucl_single_populated_cluster_contributes_zero():
    inputs = make_inputs([0.2, 0.9], [0, 0], clusters=[1, 1])
    assert clucl_penalty(inputs, k=3, num_classes=1) == 0.0


def test_clucl_cluster_relabel_invariance():
    rng = np.random.default_rng(1)
    inputs = random_inputs(rng, n=60, num_classes=2, k=4)
    base = clucl_penalty(inputs, k=4, num_classes=2)
    perm = rng.permutation(4)
    relabeled = make_inputs(
        inputs.true_label_probs,
        inputs.labels,
        clusters=perm[inputs.cluster_ids],
        mask=inputs.include_mask,
    )
    assert clucl_penalty(relabeled, k=4, num_classes=2) == pytest.approx(
        base, rel=1e-12
    )


def test_clucl_scaling_about_mean_is_quadratic():
    probs = np.array([0.8, 0.8, 0.6, 0.6])
    labels = np.zeros(4, dtype=int)
    clusters = np.array([0, 0, 1, 1])
    base = clucl_penalty(make_inputs(probs, labels, clusters=clusters), 2, 1)
    alpha = 0.5
    scaled = probs.mean() + alpha * (probs - probs.mean())
    got = clucl_penalty(make_inputs(scaled, labels, clusters=clusters), 2, 1)
    assert got == pytest.approx(alpha**2 * base, rel=1e-12)


def test_clucl_matches_loop_oracle_at_bios_shape():
    # C=28, k=12: masked records (with out-of-range cluster ids), classes
    # with no records, classes with one populated cluster, empty cells.
    rng = np.random.default_rng(10)
    num_classes, k = 28, 12
    n = 600
    for _ in range(5):
        labels = rng.integers(0, num_classes - 3, size=n)
        clusters = rng.integers(0, k, size=n)
        single = labels % 5 == 0
        clusters[single] = labels[single] % k
        clusters[clusters == 7] = 8  # cell 7 empty in every class
        mask = rng.random(n) < 0.8
        clusters[~mask] = -1
        probs = rng.uniform(0.0, 1.0, size=n)
        inputs = make_inputs(probs, labels, clusters=clusters, mask=mask)
        args = (probs, labels, clusters, mask, k, num_classes)
        assert abs(clucl_penalty(inputs, k, num_classes)
                   - clucl_loop_penalty(*args)) <= 1e-12
        grad = penalty_gradient(inputs, "clucl", k, num_classes)
        assert np.max(np.abs(grad - clucl_loop_gradient(*args))) <= 1e-12


# ------------------------------------------------------------- covariance penalty

def test_cocl_constant_probs_zero():
    rng = np.random.default_rng(2)
    inputs = make_inputs(
        np.full(15, 0.42), np.zeros(15, dtype=int), vectors=rng.normal(size=(15, 3))
    )
    assert cocl_penalty(inputs, num_classes=1) == 0.0


def test_cocl_hand_computed():
    # p = (0.2, 0.4), 1-d vectors (0, 1):
    # cov = ((-0.1)(-0.5) + (0.1)(0.5)) / 2 = 0.05
    inputs = make_inputs([0.2, 0.4], [0, 0], vectors=[[0.0], [1.0]])
    assert cocl_penalty(inputs, num_classes=1) == pytest.approx(0.05, abs=1e-12)


def test_cocl_translation_invariance():
    rng = np.random.default_rng(3)
    inputs = random_inputs(rng, n=40, num_classes=2)
    base = cocl_penalty(inputs, num_classes=2)
    shifted = make_inputs(
        inputs.true_label_probs,
        inputs.labels,
        vectors=inputs.name_vectors + np.array([5.0, -3.0, 0.25, 100.0]),
        mask=inputs.include_mask,
    )
    assert cocl_penalty(shifted, num_classes=2) == pytest.approx(base, rel=1e-9)


def test_cocl_vector_scaling_law():
    rng = np.random.default_rng(4)
    inputs = random_inputs(rng, n=40, num_classes=2)
    base = cocl_penalty(inputs, num_classes=2)
    for alpha in (2.0, -3.5):
        scaled = make_inputs(
            inputs.true_label_probs,
            inputs.labels,
            vectors=alpha * inputs.name_vectors,
            mask=inputs.include_mask,
        )
        assert cocl_penalty(scaled, num_classes=2) == pytest.approx(
            abs(alpha) * base, rel=1e-12
        )


def test_cocl_prob_scaling_about_mean_is_linear():
    inputs = make_inputs([0.2, 0.4], [0, 0], vectors=[[0.0], [1.0]])
    base = cocl_penalty(inputs, num_classes=1)
    probs = np.array([0.2, 0.4])
    alpha = 3.0
    scaled = make_inputs(
        probs.mean() + alpha * (probs - probs.mean()), [0, 0], vectors=[[0.0], [1.0]]
    )
    assert cocl_penalty(scaled, num_classes=1) == pytest.approx(
        abs(alpha) * base, rel=1e-12
    )


def test_cocl_single_member_class_contributes_zero():
    inputs = make_inputs([0.3, 0.8], [0, 1], vectors=[[1.0], [2.0]])
    # each class has one member -> both contribute 0
    assert cocl_penalty(inputs, num_classes=2) == 0.0


def test_cocl_null_distribution_monte_carlo():
    # With the pairing between probabilities and vectors shuffled at
    # random, the covariance has mean zero: the shuffle-averaged
    # covariance vector shrinks toward zero and the mean penalty sits far
    # below the value for a genuinely correlated pairing.
    rng = np.random.default_rng(5)
    n, dim, shuffles = 400, 3, 500
    probs = rng.uniform(0.3, 0.7, size=n)
    vectors = rng.normal(size=(n, dim))
    vectors[:, 0] = 8.0 * (probs - probs.mean()) + 0.1 * rng.normal(size=n)
    structured = cocl_penalty(
        make_inputs(probs, np.zeros(n, dtype=int), vectors=vectors), 1
    )
    penalties = []
    cov_sum = np.zeros(dim)
    for _ in range(shuffles):
        perm = rng.permutation(n)
        shuffled = vectors[perm]
        cov_sum += (
            (probs - probs.mean())[:, None] * (shuffled - shuffled.mean(axis=0))
        ).mean(axis=0)
        penalties.append(
            cocl_penalty(
                make_inputs(probs, np.zeros(n, dtype=int), vectors=shuffled), 1
            )
        )
    null_scale = np.sqrt(probs.var() * vectors.var(axis=0).sum() / n)
    assert np.mean(penalties) < 3.0 * null_scale
    assert np.mean(penalties) < structured / 5.0
    assert np.linalg.norm(cov_sum / shuffles) < 4.0 * null_scale / np.sqrt(shuffles)


def test_cocl_matches_loop_oracle_at_bios_shape():
    # C=28, d=300: masked records, classes with no records, one record and
    # many records, and vectors far from the origin.
    rng = np.random.default_rng(11)
    num_classes, dim, n = 28, 300, 700
    for trial in range(4):
        labels = rng.integers(0, num_classes - 4, size=n)
        labels[:2] = num_classes - 4      # one included, one masked
        labels[2] = num_classes - 3       # one masked record only
        mask = rng.random(n) < 0.8
        mask[:3] = [True, False, False]
        probs = rng.uniform(0.0, 1.0, size=n)
        vectors = rng.normal(size=(n, dim)) + 3.0 * trial
        inputs = make_inputs(probs, labels, vectors=vectors, mask=mask)
        args = (probs, labels, vectors, mask, num_classes)
        assert abs(cocl_penalty(inputs, num_classes)
                   - cocl_loop_penalty(*args)) <= 1e-12
        grad = penalty_gradient(inputs, "cocl", 1, num_classes)
        assert np.max(np.abs(grad - cocl_loop_gradient(*args))) <= 1e-12
    # probabilities constant within each class give exactly zero
    constant = make_inputs(0.1 + 0.03 * labels, labels, vectors=vectors,
                           mask=mask)
    assert cocl_penalty(constant, num_classes) == 0.0
    assert np.all(penalty_gradient(constant, "cocl", 1, num_classes) == 0.0)


def test_cocl_matches_loop_oracle_two_classes():
    # the public vector path at C=2, with excluded records whose vectors
    # are not zero (they must weigh nothing)
    rng = np.random.default_rng(12)
    for trial in range(6):
        n = int(rng.integers(5, 300))
        labels = rng.integers(0, 2, size=n)
        mask = rng.random(n) < 0.7
        probs = rng.uniform(0.0, 1.0, size=n)
        vectors = rng.normal(size=(n, 300)) + 2.0 * trial
        inputs = make_inputs(probs, labels, vectors=vectors, mask=mask)
        args = (probs, labels, vectors, mask, 2)
        value, grad = penalty(inputs, "cocl", 1, 2)
        assert abs(value - cocl_loop_penalty(*args)) <= 1e-12
        assert np.max(np.abs(grad - cocl_loop_gradient(*args))) <= 1e-12
        assert np.all(grad[~mask] == 0.0)


# the last records of name_records: two records per class read one name
# row ("n0"), then two read none
ONE_ROW = [("n0", "n0", 0), ("n0", None, 0), ("absent1", "n0", 1),
           (None, "n0", 1), (None, "absent2", 0), (None, None, 1)]


def name_records(rng, n, dim, num_names=40):
    """(names, vectors, include) of n random records then the ONE_ROW
    ones: the NameTable, and the loop oracle's per-record vectors and
    include mask. Names are shared, with both, one or none found, and
    vectors far from the origin."""
    entries = {f"n{i}": rng.normal(size=dim) + 4.0 for i in range(num_names)}
    table = EmbeddingTable(dimension=dim, entries=entries)
    pool = list(entries) + ["absent1", "absent2", None]
    first = [pool[i] for i in rng.integers(len(pool), size=n)]
    last = [pool[i] for i in rng.integers(len(pool), size=n)]
    first += [f for f, _, _ in ONE_ROW]
    last += [l for _, l, _ in ONE_ROW]
    vectors, coverages, include = name_vectors_loop(entries, dim, first, last)
    assert set(coverages) == {"both-found", "first-only", "last-only", "none"}
    return batch_name_vectors(table, first, last), vectors, include


@pytest.mark.parametrize("num_classes", [2, 28])
def test_cocl_table_value_matches_gathered_vectors(num_classes):
    # CoclTable over name-table rows against the loop oracle over the
    # records' vectors built by another loop, by value and gradient, and
    # against the public path over gathered vectors
    rng = np.random.default_rng(13 + num_classes)
    names, vectors, include = name_records(rng, n=900, dim=300)
    assert np.array_equal(names.include, include)
    labels = rng.integers(0, num_classes, size=len(include))
    labels[-len(ONE_ROW):] = [c for _, _, c in ONE_ROW]
    last = num_classes - 1
    mixed = np.sort(rng.choice(900, size=700, replace=False))
    single = mixed[:300].copy()  # class `last` has one included record
    single_labels = np.where(labels[single] == last, 0, labels[single])
    single_labels[np.flatnonzero(include[single])[0]] = last
    empty = mixed[300:600]       # class `last` has no records
    empty_labels = np.where(labels[empty] == last, 0, labels[empty])
    one_row = np.arange(900, 900 + len(ONE_ROW))
    dead = np.flatnonzero(~include)[:50]
    batches = [(mixed, labels[mixed]), (single, single_labels),
               (empty, empty_labels), (one_row, labels[one_row]),
               (dead, labels[dead])]
    for rows, batch_labels in batches:
        table = CoclTable(batch_labels, names.vectors, names.first[rows],
                          names.last[rows], num_classes)
        for trial in range(2):
            probs = rng.uniform(0.0, 1.0, size=len(rows))
            args = (probs, batch_labels, vectors[rows], include[rows],
                    num_classes)
            value, grad = table.penalty(probs)
            expected = cocl_loop_penalty(*args)
            assert value == table.value(probs)
            assert abs(value - expected) <= 1e-12 * expected
            assert rel_error(grad, cocl_loop_gradient(*args)) <= 1e-12
            assert np.all(grad[~include[rows]] == 0.0)
            if rows is one_row:
                # as rows of their own, its equal vectors leave rounding
                # noise about the zero covariance
                continue
            gathered = make_inputs(probs, batch_labels,
                                   vectors=names.take(rows),
                                   mask=names.include[rows])
            public = penalty(gathered, "cocl", 1, num_classes)
            assert abs(public[0] - expected) <= 1e-12 * expected
            assert rel_error(public[1], grad) <= 1e-12
        if rows is one_row or rows is dead:
            assert value == 0.0 and np.all(grad == 0.0)
        # probabilities constant within each class give exactly zero
        value, grad = table.penalty(0.1 + 0.02 * batch_labels)
        assert value == 0.0 and np.all(grad == 0.0)


# ---------------------------------------------------------------------- gradients

def test_gradient_zero_at_equal_cluster_means():
    inputs = make_inputs(
        np.full(12, 0.5), np.zeros(12, dtype=int), clusters=[0, 1, 2] * 4
    )
    grad = penalty_gradient(inputs, "clucl", k=3, num_classes=1)
    assert np.all(grad == 0.0)


def test_masked_records_get_zero_gradient():
    rng = np.random.default_rng(6)
    inputs = random_inputs(rng, n=40)
    for variant in ("clucl", "cocl"):
        grad = penalty_gradient(inputs, variant, k=3, num_classes=3)
        assert np.all(grad[~inputs.include_mask] == 0.0)


@pytest.mark.parametrize("variant", ["clucl", "cocl"])
def test_gradient_matches_finite_differences(variant):
    rng = np.random.default_rng(7)
    for trial in range(30):
        inputs = random_inputs(rng, n=int(rng.integers(12, 40)))

        def penalty_of(p):
            probe = make_inputs(
                p,
                inputs.labels,
                clusters=inputs.cluster_ids,
                vectors=inputs.name_vectors,
                mask=inputs.include_mask,
            )
            return penalty_value(probe, variant, 3, 3)

        grad = penalty_gradient(inputs, variant, k=3, num_classes=3)
        fd = central_diff_grad(penalty_of, inputs.true_label_probs, step=1e-6)
        assert rel_error(grad, fd) < 1e-4


def test_all_masked_out_is_zero():
    rng = np.random.default_rng(8)
    inputs = random_inputs(rng, n=20)
    dead = make_inputs(
        inputs.true_label_probs,
        inputs.labels,
        clusters=inputs.cluster_ids,
        vectors=inputs.name_vectors,
        mask=np.zeros(20, dtype=bool),
    )
    assert clucl_penalty(dead, k=3, num_classes=3) == 0.0
    assert cocl_penalty(dead, num_classes=3) == 0.0
    assert np.all(penalty_gradient(dead, "clucl", 3, 3) == 0.0)
    assert np.all(penalty_gradient(dead, "cocl", 3, 3) == 0.0)


def test_penalties_nonnegative_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        inputs = random_inputs(rng)
        assert clucl_penalty(inputs, k=3, num_classes=3) >= 0.0
        assert cocl_penalty(inputs, num_classes=3) >= 0.0


# --------------------------------------------------------------------- total loss

def test_total_loss():
    assert total_loss(1.0, 0.04, 0.0) == 1.0
    assert total_loss(1.0, 0.04, 2.0) == pytest.approx(1.08, abs=1e-15)
    assert total_loss(0.7, 0.0, 123.0) == 0.7
    with pytest.raises(ValueError):
        total_loss(1.0, 0.1, -0.5)


def test_penalty_value_dispatch():
    inputs = make_inputs([0.2, 0.4], [0, 0], clusters=[0, 1], vectors=[[0.0], [1.0]])
    assert penalty_value(inputs, "none", 2, 1) == 0.0
    assert penalty_value(inputs, "cocl", 2, 1) == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ValueError, match="variant"):
        penalty_value(inputs, "bogus", 2, 1)
    # the value alone is the bytes penalty returns beside the gradient
    rng = np.random.default_rng(10)
    for _ in range(10):
        inputs = random_inputs(rng)
        for variant, k in (("none", 3), ("clucl", 1), ("clucl", 3), ("cocl", 3)):
            assert (penalty_value(inputs, variant, k, 3)
                    == penalty(inputs, variant, k, 3)[0])


def test_missing_required_fields_raise():
    inputs = make_inputs([0.2, 0.4], [0, 0])
    with pytest.raises(ValueError, match="cluster_ids"):
        clucl_penalty(inputs, k=2, num_classes=1)
    with pytest.raises(ValueError, match="name_vectors"):
        cocl_penalty(inputs, num_classes=1)
    # labels out of range or not integral fail once per call, not per record
    for labels in ([0, 2], [-1, 0], [0, 0.5], [0, np.nan]):
        bad = make_inputs([0.2, 0.4], labels, clusters=[0, 1],
                          vectors=[[0.0], [1.0]])
        for variant in ("clucl", "cocl"):
            with pytest.raises(ValueError, match="class labels"):
                penalty(bad, variant, 2, 2)
            with pytest.raises(ValueError, match="class labels"):
                penalty_value(bad, variant, 2, 2)
        with pytest.raises(ValueError, match="class labels"):
            CoclTable(bad.labels, np.ones((1, 1)), np.zeros(2, dtype=np.intp),
                      np.full(2, -1), 2)
