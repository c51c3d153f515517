import csv
import os
import signal
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nameblind import clustering, losses, training
from nameblind.cli import main
from nameblind.clustering import kmeans
from nameblind.data import BinaryRows, Dataset, fit_text, parse_text
from nameblind.embeddings import EmbeddingTable, NameTable, batch_name_vectors
from nameblind.losses import CluclTable, CoclTable
from nameblind.metrics import GroupAttribute, GroupLabels
from nameblind.model import (
    ModelParams,
    class_weights,
    forward_batch,
    loss_and_gradient,
    objective,
    predict_batch,
)
from nameblind.training import (
    AdamState,
    NumericalError,
    TrainConfig,
    adam_step,
    forward_rows,
    train,
    train_val_test_split,
    write_history_csv,
)

from oracles import densify
from synth_benchmark import write_benchmark_files


def scalar_config(**kwargs):
    defaults = dict(learning_rate=0.1, batch_size=4, epochs=1, seed=0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def test_adam_zero_gradient_is_fixed_point():
    params = ModelParams(W=np.array([[1.5, -2.0]]), b=np.array([0.25]))
    state = AdamState.zeros(1, 2)
    adam_step(params, np.zeros((1, 2)), np.zeros(1), state, scalar_config())
    assert np.array_equal(params.W, [[1.5, -2.0]])
    assert np.array_equal(params.b, [0.25])


def test_adam_first_step_hand_computed():
    # t=1, g=1: mhat=1, vhat=1 -> update = -lr / (1 + eps)
    params = ModelParams(W=np.array([[0.0]]), b=np.array([0.0]))
    state = AdamState.zeros(1, 1)
    config = scalar_config()
    adam_step(params, np.array([[1.0]]), np.array([0.0]), state, config)
    expected = -0.1 / (1.0 + training.ADAM_EPS)
    assert params.W[0, 0] == pytest.approx(expected, abs=1e-15)
    assert state.t == 1


def test_adam_repeated_steps_move_against_gradient():
    params = ModelParams(W=np.array([[0.0]]), b=np.array([0.0]))
    state = AdamState.zeros(1, 1)
    config = scalar_config()
    previous = 0.0
    for _ in range(5):
        adam_step(params, np.array([[1.0]]), np.array([0.0]), state, config)
        assert params.W[0, 0] < previous
        previous = params.W[0, 0]


def check_adam_textbook_form(shape):
    """adam_step on a W of this shape (a stack with a leading model axis)
    against the bias-corrected update written out, over steps whose
    gradients change sign and scale, bit for bit."""
    rng = np.random.default_rng(11)
    config = scalar_config(learning_rate=0.03)
    b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    params = ModelParams(W=rng.normal(size=shape), b=rng.normal(size=shape[:-1]))
    W, b = params.W.copy(), params.b.copy()
    m_W, v_W = np.zeros(shape), np.zeros(shape)
    m_b, v_b = np.zeros(shape[:-1]), np.zeros(shape[:-1])
    state = AdamState.zeros(*shape)
    for t in range(1, 8):
        grad_W = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
        grad_b = rng.normal(size=shape[:-1])
        adam_step(params, grad_W, grad_b, state, config)
        m_W = b1 * m_W + (1 - b1) * grad_W
        v_W = b2 * v_W + (1 - b2) * grad_W**2
        m_b = b1 * m_b + (1 - b1) * grad_b
        v_b = b2 * v_b + (1 - b2) * grad_b**2
        W -= config.learning_rate * (m_W / (1 - b1**t)) / (
            np.sqrt(v_W / (1 - b2**t)) + eps)
        b -= config.learning_rate * (m_b / (1 - b1**t)) / (
            np.sqrt(v_b / (1 - b2**t)) + eps)
        assert state.t == t
        assert params.W.tobytes() == W.tobytes()
        assert params.b.tobytes() == b.tobytes()
        assert state.m_W.tobytes() == m_W.tobytes()
        assert state.v_W.tobytes() == v_W.tobytes()


def test_adam_step_matches_textbook_form_bitwise():
    check_adam_textbook_form((3, 5))


def test_adam_step_on_a_stack_matches_textbook_form():
    check_adam_textbook_form((4, 3, 5))


def test_adam_rejects_non_finite_gradients():
    params = ModelParams(W=np.zeros((1, 1)), b=np.zeros(1))
    state = AdamState.zeros(1, 1)
    with pytest.raises(NumericalError):
        adam_step(params, np.array([[np.nan]]), np.zeros(1), state, scalar_config())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(variant="bogus")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field, value", [
    ("lam", np.nan), ("lam", np.inf), ("learning_rate", np.nan),
    ("learning_rate", np.inf), ("l2_coeff", np.nan),
])
def test_train_config_rejects_non_finite_values(field, value):
    # nan passes every comparison check (nan < 0 is False)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_objective_rejects_bad_penalty_strength(lam):
    params = ModelParams(W=np.zeros((2, 2)), b=np.zeros(2))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        loss_and_gradient(params, np.ones((3, 2)), np.array([0, 1, 0]),
                          np.ones(2), lam=lam)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        objective(params.W[None], np.full((1, 3, 2), 0.5), np.array([0, 1, 0]),
                  np.ones(2), 0.0, None, [lam])
    with pytest.raises(ValueError, match="lam must be"):
        train(separable_dataset(), None, TrainConfig(epochs=1), lams=[0.0, lam])


def test_split_sizes_disjoint_deterministic():
    train_idx, val_idx, test_idx = train_val_test_split(103, seed=5)
    assert len(train_idx) == 82 and len(val_idx) == 10 and len(test_idx) == 11
    combined = np.concatenate([train_idx, val_idx, test_idx])
    assert sorted(combined.tolist()) == list(range(103))
    again = train_val_test_split(103, seed=5)
    for a, b in zip((train_idx, val_idx, test_idx), again):
        assert np.array_equal(a, b)


def separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    x0 = (2.0 * labels - 1.0) + rng.uniform(-0.5, 0.5, size=n)
    x1 = rng.normal(size=n)
    features = np.column_stack([x0, x1])
    names = [f"n{i}" for i in range(n)]
    return Dataset(
        features=features,
        labels=labels,
        first_names=names,
        last_names=[None] * n,
        feature_names=["x0", "x1"],
        class_names=["neg", "pos"],
    )


def toy_table(names, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(
        dimension=dim,
        entries={name: rng.normal(size=dim) for name in names},
    )


def test_lambda_zero_matches_baseline_exactly():
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    base = train(dataset, None, TrainConfig(variant="none", epochs=5, seed=3,
                                            batch_size=32))
    for variant in ("cocl", "clucl"):
        other = train(dataset, table,
                      TrainConfig(variant=variant, lam=0.0, epochs=5, seed=3,
                                  batch_size=32))
        assert np.array_equal(base.params.W, other.params.W)
        assert np.array_equal(base.params.b, other.params.b)


def test_training_is_deterministic():
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    config = TrainConfig(variant="cocl", lam=0.5, epochs=4, seed=11,
                         batch_size=32)
    a = train(dataset, table, config)
    b = train(dataset, table, config)
    assert np.array_equal(a.params.W, b.params.W)
    assert np.array_equal(a.params.b, b.params.b)
    assert [r.total_loss for r in a.history] == [r.total_loss for r in b.history]


def test_training_learns_separable_data():
    dataset = separable_dataset(n=300, seed=1)
    config = TrainConfig(epochs=50, seed=0, learning_rate=0.05, batch_size=32)
    result = train(dataset, None, config)
    train_idx = result.split[0]
    preds = predict_batch(result.params, dataset.features[train_idx])
    accuracy = float(np.mean(preds == dataset.labels[train_idx]))
    assert accuracy >= 0.98


@pytest.fixture()
def kmeans_calls(monkeypatch):
    """The ClusterModel of each k-means run that train has made so far."""
    models = []
    real = training.kmeans
    monkeypatch.setattr(training, "kmeans", lambda *args, **kwargs: (
        models.append(real(*args, **kwargs)) or models[-1]))
    return models


def test_history_length_and_finite_losses(kmeans_calls):
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    config = TrainConfig(variant="clucl", lam=1.0, k=3, epochs=6, seed=2,
                         batch_size=64)
    result = train(dataset, table, config)
    assert len(result.history) == config.epochs
    assert [r.epoch for r in result.history] == list(range(1, 7))
    for rec in result.history:
        assert np.isfinite(rec.base_loss)
        assert np.isfinite(rec.penalty)
        assert rec.total_loss == rec.base_loss + config.lam * rec.penalty
    [clusters] = kmeans_calls
    assert clusters.k == 3


def test_clucl_runs_that_differ_only_in_lambda_fit_kmeans_once(monkeypatch):
    # the clusters depend on the data, the embeddings, the seed and k
    # alone: a second run reads them from the cache, and every run is the
    # bytes of a run without a cache
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    config = TrainConfig(variant="clucl", lam=1.0, k=3, epochs=3, seed=2,
                         batch_size=64)
    configs = [config, replace(config, lam=2.5, learning_rate=0.02)]
    fits = []
    fit = clustering._fit
    monkeypatch.setattr(clustering, "_fit",
                        lambda *args: fits.append(1) or fit(*args))
    cached = [train(dataset, table, c) for c in configs]
    assert len(fits) == 1
    monkeypatch.setenv("XDG_CACHE_HOME", "/dev/null")
    uncached = [train(dataset, table, c) for c in configs]
    assert len(fits) == 3
    for a, b in zip(cached, uncached):
        assert a.params.W.tobytes() == b.params.W.tobytes()
        assert a.params.b.tobytes() == b.params.b.tobytes()
        assert a.history == b.history


def objective_penalty(dataset, table, result, config, rows):
    """The training split's penalty callable, restricted to rows of it:
    the table train builds, for cocl over the name-table rows of the
    records' names (test_losses checks both tables against loop
    oracles)."""
    if config.variant == "none":
        return None
    train_idx = result.split[0]
    names = batch_name_vectors(table, dataset.first_names, dataset.last_names)
    labels = dataset.labels[train_idx][rows]
    if config.variant == "cocl":
        return CoclTable(labels, names.vectors, names.first[train_idx][rows],
                         names.last[train_idx][rows], 2).penalty
    include = names.include[train_idx]
    clusters = np.zeros(len(train_idx), dtype=np.int64)
    # the clustering train made: k-means is deterministic given its seed
    clusters[include] = kmeans(names.take(train_idx[include]), config.k,
                               seed=config.seed).assignments
    return CluclTable(labels, clusters[rows], include[rows], config.k,
                      2).penalty


@pytest.mark.parametrize("variant", ["none", "cocl", "clucl"])
def test_train_steps_apply_objective_gradient(variant):
    # one batch per epoch: each of train's updates is adam_step on the
    # gradient of loss_and_gradient over the seeded shuffle of the training
    # split. Two epochs, because at the zero start every p_true is equal and
    # the penalty gradient is 0.
    dataset = separable_dataset(n=60)
    table = toy_table(dataset.first_names[::2])
    config = TrainConfig(variant=variant, lam=2.0, k=3, epochs=2, seed=4,
                         batch_size=64, l2_coeff=0.01, learning_rate=0.05)
    result = train(dataset, table, config)
    train_idx = result.split[0]
    y = dataset.labels[train_idx]
    weights = class_weights(np.bincount(y, minlength=2))
    params = ModelParams(W=np.zeros((2, 2)), b=np.zeros(2))
    state = AdamState.zeros(2, 2)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(train_idx))
        pen = objective_penalty(dataset, table, result, config, order)
        _, grad_W, grad_b = loss_and_gradient(
            params, dataset.features[train_idx][order], y[order], weights,
            config.l2_coeff, pen, config.lam,
        )
        adam_step(params, grad_W, grad_b, state, config)
    assert np.array_equal(result.params.W, params.W)
    assert np.array_equal(result.params.b, params.b)


@pytest.mark.parametrize("variant", ["none", "cocl"])
def test_history_total_loss_is_the_objective(variant):
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    config = TrainConfig(variant=variant, lam=1.5, epochs=3, seed=2,
                         batch_size=32, l2_coeff=0.02, learning_rate=0.05)
    result = train(dataset, table, config)
    train_idx = result.split[0]
    y = dataset.labels[train_idx]
    weights = class_weights(np.bincount(y, minlength=2))
    pen = objective_penalty(dataset, table, result, config, slice(None))
    # the history row is the objective at the final params, bit for bit
    totals, bases, penalties, _, _ = objective(
        result.params.W[None],
        forward_rows(result.params, dataset.features, train_idx)[None], y,
        weights, config.l2_coeff, pen, [config.lam])
    last = result.history[-1]
    assert (last.total_loss, last.base_loss, last.penalty) == (
        totals[0], bases[0], penalties[0])
    # and loss_and_gradient's loss over the same records, to rounding
    loss = loss_and_gradient(result.params, dataset.features[train_idx], y,
                             weights, config.l2_coeff, pen, config.lam)[0]
    assert abs(last.total_loss - loss) <= 1e-12


def test_penalty_on_training_reduces_it():
    # not an accuracy claim, just that the penalty path is actually wired:
    # the penalized run ends with a smaller penalty value than the
    # unpenalized run evaluated on the same inputs.
    dataset = separable_dataset(n=400, seed=5)
    rng = np.random.default_rng(6)
    # name vectors track the signal feature, so the baseline's true-label
    # probabilities covary with them within each class
    entries = {}
    for i, name in enumerate(dataset.first_names):
        center = 3.0 * dataset.features[i, 0]
        entries[name] = center + rng.normal(size=4) * 0.1
    table = EmbeddingTable(dimension=4, entries=entries)
    free = train(dataset, table, TrainConfig(variant="cocl", lam=0.0, epochs=20,
                                             seed=1, batch_size=64,
                                             learning_rate=0.05))
    constrained = train(dataset, table,
                        TrainConfig(variant="cocl", lam=5.0, epochs=20, seed=1,
                                    batch_size=64, learning_rate=0.05))
    # measure the covariance penalty of both end states on the train split
    from nameblind.losses import PenaltyInputs, cocl_penalty
    from nameblind.model import forward_batch
    from nameblind.embeddings import batch_name_vectors

    train_idx = free.split[0]
    names = batch_name_vectors(table, dataset.first_names, dataset.last_names)
    vectors, include = names.take(np.arange(len(dataset))), names.include

    def end_penalty(result):
        probs = forward_batch(result.params, dataset.features[train_idx])
        y = dataset.labels[train_idx]
        inputs = PenaltyInputs(
            true_label_probs=probs[np.arange(len(y)), y],
            labels=y,
            name_vectors=vectors[train_idx],
            include_mask=include[train_idx],
        )
        return cocl_penalty(inputs, num_classes=2)

    assert end_penalty(constrained) < 0.5 * end_penalty(free)


def test_trained_model_ignores_names():
    dataset = separable_dataset()
    table = toy_table(dataset.first_names)
    config = TrainConfig(variant="cocl", lam=1.0, epochs=4, seed=9,
                         batch_size=32)
    result = train(dataset, table, config)
    before = predict_batch(result.params, dataset.features)
    dataset.first_names = [None] * len(dataset)
    dataset.last_names = [None] * len(dataset)
    after = predict_batch(result.params, dataset.features)
    assert np.array_equal(before, after)


def test_penalty_without_embeddings_errors():
    dataset = separable_dataset()
    with pytest.raises(ValueError, match="embedding"):
        train(dataset, None, TrainConfig(variant="cocl", lam=1.0, epochs=1))


@pytest.mark.parametrize("variant", ["cocl", "clucl"])
def test_penalty_with_zero_name_coverage_errors(variant):
    dataset = separable_dataset()
    table = toy_table([f"other{i}" for i in range(10)])
    config = TrainConfig(variant=variant, lam=1.0, k=3, epochs=1)
    with pytest.raises(ValueError, match=f"{variant} penalty.* 0 of 160 "):
        train(dataset, table, config)


def test_divergent_run_raises_numerical_error():
    dataset = separable_dataset()
    config = TrainConfig(epochs=3, seed=0, learning_rate=1e308, batch_size=64)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            train(dataset, None, config)


def test_group_labels_never_enter_features():
    dataset = separable_dataset()
    dataset.eval_groups = GroupLabels(
        [GroupAttribute("g", "a", "b",
                        np.zeros(len(dataset), dtype=np.int8))]
    )
    result = train(dataset, None, TrainConfig(epochs=2, seed=0, batch_size=64))
    assert result.params.num_features == 2  # x0, x1 only


def test_history_csv(tmp_path):
    dataset = separable_dataset()
    result = train(dataset, None, TrainConfig(epochs=3, seed=0, batch_size=64))
    path = tmp_path / "history.csv"
    write_history_csv(result.history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "base_loss", "penalty", "total_loss",
                       "val_balanced_tpr"]
    assert len(rows) == 4
    assert float(rows[1][1]) == result.history[0].base_loss


def write_text_corpus(path, n_docs, n_words, seed):
    """Tab-separated text records whose label shifts the word distribution."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    lines = []
    for i in range(n_docs):
        label = i % 3
        common = rng.choice(words, size=rng.integers(5, 30))
        marked = rng.choice(words[label::3], size=rng.integers(0, 6))
        document = " ".join([*common, *marked]) if i % 97 else ""
        lines.append(f"job{label}\tfirst{i % 40}\tlast{i % 7}\t{document}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("variant", ["none", "cocl", "clucl"])
def test_train_on_binary_rows_matches_dense(variant, tmp_path):
    # the CSR products add in another order than BLAS, so sparse and dense
    # fits agree to rounding; sparse reruns agree bit for bit
    path = tmp_path / "bios.tsv"
    write_text_corpus(path, n_docs=700, n_words=120, seed=1)
    sparse = fit_text(parse_text(path), min_count=1, top_fraction=0.0,
                      fit_indices=range(700))
    assert isinstance(sparse.features, BinaryRows)
    dense = Dataset(
        features=densify(sparse.features),
        labels=sparse.labels,
        first_names=sparse.first_names,
        last_names=sparse.last_names,
        feature_names=sparse.feature_names,
        class_names=sparse.class_names,
    )
    assert isinstance(dense.features, np.ndarray)
    table = toy_table([f"first{i}" for i in range(0, 40, 2)], dim=6)
    config = TrainConfig(variant=variant, lam=2.0, k=4, epochs=3, seed=7,
                         batch_size=64, learning_rate=0.05, l2_coeff=0.001)
    a = train(sparse, table, config)
    b = train(dense, table, config)
    np.testing.assert_allclose(a.params.W, b.params.W, rtol=0, atol=1e-12)
    np.testing.assert_allclose(a.params.b, b.params.b, rtol=0, atol=1e-12)
    assert len(a.history) == len(b.history) == 3
    for got, want in zip(a.history, b.history):
        assert got.epoch == want.epoch
        np.testing.assert_allclose(
            [got.base_loss, got.penalty, got.total_loss, got.val_balanced_tpr],
            [want.base_loss, want.penalty, want.total_loss, want.val_balanced_tpr],
            rtol=0, atol=1e-12)
    again = train(sparse, table, config)
    assert again.params.W.tobytes() == a.params.W.tobytes()
    assert again.params.b.tobytes() == a.params.b.tobytes()
    assert again.history == a.history


def grid_dataset(store, tmp_path):
    """A dense or a BinaryRows dataset, with a name table covering part of
    its first names."""
    if store == "dense":
        dataset = separable_dataset(n=300)
        return dataset, toy_table(dataset.first_names[::3])
    path = tmp_path / "bios.tsv"
    write_text_corpus(path, n_docs=700, n_words=120, seed=1)
    dataset = fit_text(parse_text(path), min_count=1, top_fraction=0.0,
                       fit_indices=range(700))
    assert isinstance(dataset.features, BinaryRows)
    return dataset, toy_table([f"first{i}" for i in range(0, 40, 2)], dim=6)


def pin_workers(monkeypatch, count):
    """Make train split a grid into at most count groups, whatever the
    CPUs of this machine."""
    monkeypatch.setattr(training, "usable_cpus", lambda: count)


def assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("variant", ["cocl", "clucl"])
@pytest.mark.parametrize("store", ["dense", "binary"])
def test_grid_fits_are_the_solo_fits(store, variant, tmp_path, monkeypatch,
                                     kmeans_calls):
    # one train call over a lambda grid trains the models in lockstep over
    # one shuffle, in one process or split over forked workers; each is bit
    # for bit the train run at its own lambda, lambda 0 (no penalty at all)
    # included
    dataset, table = grid_dataset(store, tmp_path)
    config = TrainConfig(variant=variant, k=3, epochs=3, seed=5,
                         batch_size=64, learning_rate=0.05, l2_coeff=0.001)
    lams = [0.5, 0.0, 2.0]
    solos = [train(dataset, table, replace(config, lam=lam)) for lam in lams]
    for workers in (1, 2, 3):
        pin_workers(monkeypatch, workers)
        kmeans_calls.clear()
        grid = train(dataset, table, config, lams=lams)
        assert len(grid.fits) == len(lams)
        for fit, solo in zip(grid.fits, solos):
            assert fit.params.W.tobytes() == solo.params.W.tobytes()
            assert fit.params.b.tobytes() == solo.params.b.tobytes()
            assert fit.history == solo.history
            assert fit.split is grid.split
            assert all(np.array_equal(a, b)
                       for a, b in zip(fit.split, solo.split))
        assert grid.fits[1].history[-1].penalty == 0.0
        # one clustering serves every fit of the grid
        assert len(kmeans_calls) == (variant == "clucl")
        assert_no_child_remains()


@pytest.mark.parametrize("variant", ["cocl", "clucl"])
@pytest.mark.parametrize("store", ["dense", "binary"])
def test_fits_without_history_have_the_same_parameters(store, variant,
                                                       tmp_path, kmeans_calls):
    # the history reads neither the RNG nor the optimizer state, so a fit
    # that skips it is the same bytes, with an empty history
    dataset, table = grid_dataset(store, tmp_path)
    config = TrainConfig(variant=variant, k=3, epochs=3, seed=5,
                         batch_size=64, learning_rate=0.05, l2_coeff=0.001)
    lams = [0.5, 0.0, 2.0]
    full = train(dataset, table, config, lams=lams)
    bare = train(dataset, table, config, lams=lams, history=False)
    for fit, bare_fit in zip(full.fits, bare.fits, strict=True):
        assert len(fit.history) == 3
        assert bare_fit.history == []
        assert bare_fit.params.W.tobytes() == fit.params.W.tobytes()
        assert bare_fit.params.b.tobytes() == fit.params.b.tobytes()
    if variant == "clucl":
        full_clusters, bare_clusters = kmeans_calls
        assert (bare_clusters.centroids.tobytes()
                == full_clusters.centroids.tobytes())


def test_grid_builds_one_penalty_table_per_batch(monkeypatch):
    # the models share each batch's table (and the epoch table); a model
    # at lambda 0 never reads it. Each epoch's objective calls penalty once
    # per positive lambda
    built, calls = [], []
    real = losses.CoclTable

    class Counting(real):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(len(self.labels))

        def penalty(self, p):
            calls.append(len(p))
            return super().penalty(p)

    monkeypatch.setattr(losses, "CoclTable", Counting)
    pin_workers(monkeypatch, 1)  # the counts are of this process's calls
    dataset = separable_dataset(n=300)
    config = TrainConfig(variant="cocl", epochs=2, seed=5, batch_size=64)
    train(dataset, toy_table(dataset.first_names[::3]), config,
          lams=[0.0, 1.0, 2.0])
    # 240 training records in batches of 64, two epochs
    assert built == [240] + [64, 64, 64, 48] * 2
    assert calls == ([64, 64] * 3 + [48, 48] + [240, 240]) * 2


def test_one_lambda_never_forks(monkeypatch, tmp_path):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    pin_workers(monkeypatch, 4)
    dataset = separable_dataset(n=300)
    config = TrainConfig(variant="cocl", lam=1.0, epochs=2, seed=5,
                         batch_size=64)
    train(dataset, toy_table(dataset.first_names[::3]), config)
    train(dataset, toy_table(dataset.first_names[::3]), config, lams=[2.0])
    # nor does a one-seed train command, nor any command at one CPU
    data, schema, embeddings = write_benchmark_files(tmp_path, seed=0)
    inputs = ["--data", str(data), "--schema", str(schema),
              "--embeddings", str(embeddings), "--variant", "cocl",
              "--epochs", "1", "--out", str(tmp_path / "out")]
    for cpus, command in (
            (4, ["train", "--lambda", "1", "--seeds", "0"]),
            (1, ["train", "--lambda", "1", "--seeds", "0", "1", "2"]),
            (1, ["sweep", "--lambdas", "0", "1", "2", "--seeds", "0", "1"])):
        pin_workers(monkeypatch, cpus)
        assert main([*command, *inputs]) == 0


def test_a_worker_group_skips_its_tables_when_its_lambdas_are_zero(
        monkeypatch):
    # lambdas [0, 0, 1] in two groups: the caller's group [0, 0] builds no
    # batch table, the worker's group [1] builds its own
    built = []
    real = losses.CoclTable

    class Counting(real):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(os.getpid())

    monkeypatch.setattr(losses, "CoclTable", Counting)
    pin_workers(monkeypatch, 2)
    dataset = separable_dataset(n=300)
    config = TrainConfig(variant="cocl", epochs=2, seed=5, batch_size=64)
    grid = train(dataset, toy_table(dataset.first_names[::3]), config,
                 lams=[0.0, 0.0, 1.0], history=False)
    assert built == []
    solo = train(dataset, toy_table(dataset.first_names[::3]),
                 replace(config, lam=1.0), history=False)
    assert grid.fits[2].params.W.tobytes() == solo.params.W.tobytes()


def failing_at(at, message):
    exc = NumericalError(message)
    exc.at = at
    return exc


def test_fit_groups_returns_every_group_in_order():
    outcomes = training._fit_groups(lambda group: [2 * v for v in group],
                                    [[1.0], [2.0, 3.0], [4.0]])
    assert outcomes == [[2.0], [4.0, 6.0], [8.0]]
    assert_no_child_remains()


def test_fit_groups_raises_the_earliest_numerical_failure():
    # group 0 (this process) fails last; groups 1 and 2 (workers) tie at
    # the earliest check, and group order breaks the tie
    at = {0: (2, 1, 0), 1: (1, 3, 1), 2: (1, 3, 1), 3: (1, 3, 0)}

    def fit(group):
        raise failing_at(at[group[0]], f"group {group[0]}")

    with pytest.raises(NumericalError, match="group 3") as info:
        training._fit_groups(fit, [[0], [1], [2], [3]])
    assert info.value.at == (1, 3, 0)
    at[3] = (1, 3, 2)
    with pytest.raises(NumericalError, match="group 1"):
        training._fit_groups(fit, [[0], [1], [2], [3]])
    assert_no_child_remains()


def test_fit_groups_raises_a_worker_error_over_a_numerical_one():
    def fit(group):
        if group == [2]:
            raise ValueError("bad group 2")
        raise failing_at((1, 1, 0), f"group {group[0]}")

    with pytest.raises(ValueError, match="bad group 2"):
        training._fit_groups(fit, [[0], [1], [2]])
    assert_no_child_remains()


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(7), "exit code 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
])
def test_a_worker_that_dies_fails_the_grid(death, message):
    def fit(group):
        if group == [1]:
            death()
        return group

    with pytest.raises(RuntimeError,
                       match=rf"worker for lambdas \[1\] .*\({message}\)"):
        training._fit_groups(fit, [[0], [1], [2]])
    assert_no_child_remains()


def test_an_interrupt_here_terminates_and_reaps_the_workers():
    def fit(group):
        if group == [0]:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        training._fit_groups(fit, [[0], [1], [2]])
    assert time.monotonic() - start < 30
    assert_no_child_remains()


def span_fit(tmp_path, waits=None):
    """A one-group fit that returns its call's (call, pid, start, end):
    it sleeps 0.2 s, after waiting up to 10 s for the fit of call
    waits[call], if any, to have started."""
    waits = waits or {}

    def fit(group):
        (call,) = group
        start = time.monotonic()
        (tmp_path / f"started{call}").touch()
        partner = tmp_path / f"started{waits.get(call)}"
        while (call in waits and not partner.exists()
               and time.monotonic() < start + 10):
            time.sleep(0.01)
        time.sleep(0.2)
        return [(call, os.getpid(), start, time.monotonic())]

    return fit


def queue_spans(calls, fit):
    """Submit calls one-group calls to a FitQueue: the spans it collects,
    each with its call's index."""
    collected = []
    with training.FitQueue(calls, None, lambda index, values:
                           collected.append((index, *values))) as queue:
        for call in range(calls):
            queue.submit(fit, [[call]])
    assert [index for index, *_ in collected] == list(range(calls))
    spans = [span for _, span in collected]
    assert [call for call, *_ in spans] == list(range(calls))
    assert_no_child_remains()
    return spans


def test_a_queue_collects_its_calls_in_order_with_at_most_cpus_workers(
        monkeypatch, tmp_path):
    # four one-group calls at two CPUs: the first three fitted in workers,
    # the last here, each call collected in call order. A worker is forked
    # only once fewer than two run, and a worker reaped has ended, so at
    # most two workers fit at once, and beside them only this process
    pin_workers(monkeypatch, 2)
    spans = queue_spans(4, span_fit(tmp_path))
    here = [pid == os.getpid() for _, pid, _, _ in spans]
    assert here == [False] * 3 + [True]
    for _, _, start, _ in spans:
        at_once = [s <= start < e for _, _, s, e in spans]
        assert sum(at_once[:3]) <= 2 and sum(at_once) <= 3


def test_the_first_two_of_four_calls_fit_at_once_on_two_cpus(monkeypatch,
                                                               tmp_path):
    # this process only sets up calls while they fit, so it is not
    # counted: call 1's worker starts while call 0's runs (which waits for
    # it; forked after call 0's ended, it would not)
    pin_workers(monkeypatch, 2)
    spans = queue_spans(4, span_fit(tmp_path, waits={0: 1}))
    assert os.getpid() not in (spans[0][1], spans[1][1])
    assert spans[1][2] < spans[0][3]


def test_the_last_of_three_calls_fits_here_beside_two_workers(monkeypatch,
                                                               tmp_path):
    # three calls on two CPUs: calls 0 and 1 in workers, call 2 here at
    # once, before either worker ends (each waits for call 2 to start)
    pin_workers(monkeypatch, 2)
    spans = queue_spans(3, span_fit(tmp_path, waits={0: 2, 1: 2}))
    here = [pid == os.getpid() for _, pid, _, _ in spans]
    assert here == [False, False, True]
    assert spans[2][2] < min(spans[0][3], spans[1][3])


def test_a_finish_failure_ranks_after_every_fit_failure(monkeypatch):
    # in one process the lockstep fit of every lambda comes before any
    # finish, so when lambda 1e200 diverges in the worker's group, that is
    # the failure, though finish fails first on the caller's lambda-0 fit
    def finish(dataset, fit):
        raise ValueError("finish failed")

    dataset = separable_dataset(n=300)
    huge = toy_table(dataset.first_names[::3])
    huge = EmbeddingTable(huge.dimension, {name: vector * 1e150 for name,
                                           vector in huge.entries.items()})
    config = TrainConfig(variant="cocl", epochs=2, seed=5, batch_size=64)
    for cpus in (1, 2):
        pin_workers(monkeypatch, cpus)
        with (pytest.raises(NumericalError, match="lambda=1e\\+200") as info,
              np.errstate(over="ignore", invalid="ignore"),
              training.FitQueue(1, finish, None) as queue):
            train(dataset, huge, config, lams=[0.0, 1e200], history=False,
                  queue=queue)
        assert info.value.at[0] <= config.epochs
        assert_no_child_remains()


def test_forward_rows_matches_forward_batch():
    rng = np.random.default_rng(3)
    rows = [sorted(rng.choice(50, size=rng.integers(0, 6), replace=False))
            for _ in range(700)]
    features = BinaryRows(np.cumsum([0] + [len(r) for r in rows]),
                          [c for r in rows for c in r], 50)
    params = ModelParams(W=rng.normal(size=(3, 50)), b=rng.normal(size=3))
    dense = densify(features)
    everything = forward_rows(params, features, np.arange(700))
    for selection in (np.arange(700), rng.permutation(700)[:513],
                      np.arange(700)[::-1], np.array([4]),
                      np.array([], dtype=np.int64)):
        got = forward_rows(params, features, selection)
        want = forward_batch(params, dense[selection])
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)
        assert np.allclose(forward_rows(params, dense, selection), want,
                           rtol=0, atol=1e-12)
        # a row's probabilities are the same bytes in any selection, order
        # or block: here blocks of at most 256 rows, and one block of all
        assert got.tobytes() == everything[selection].tobytes()
        one_block = forward_batch(params, features.take(selection, axis=0))
        assert one_block.tobytes() == got.tobytes()


def test_train_memory_scales_with_nonzeros(tmp_path):
    # a dense copy of the training rows alone would be four times the bound
    path = tmp_path / "bios.tsv"
    write_text_corpus(path, n_docs=4000, n_words=2000, seed=2)
    dataset = fit_text(parse_text(path), min_count=1, top_fraction=0.0,
                       fit_indices=range(4000))
    n_train = int(0.8 * len(dataset))
    dense_bytes = n_train * len(dataset.feature_names) * 8
    assert len(dataset.feature_names) >= 1500
    table = toy_table([f"first{i}" for i in range(40)], dim=8)
    config = TrainConfig(variant="cocl", lam=1.0, epochs=1, seed=0)
    tracemalloc.start()
    try:
        train(dataset, table, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


def test_cocl_train_never_gathers_name_vectors(monkeypatch):
    # each batch and each epoch reads name-table rows through CoclTable;
    # no per-record vector is built
    def take(self, rows):
        raise AssertionError("NameTable.take called")

    monkeypatch.setattr(NameTable, "take", take)
    dataset = separable_dataset(n=300)
    table = toy_table(dataset.first_names[::3])
    result = train(dataset, table,
                   TrainConfig(variant="cocl", lam=2.0, epochs=2, seed=5,
                               batch_size=32, learning_rate=0.05))
    assert all(rec.penalty > 0 for rec in result.history)


def test_clucl_train_builds_no_penalty_inputs(monkeypatch):
    # each batch and each epoch reads a losses.CluclTable; PenaltyInputs
    # serves only the public penalty functions
    def build(*args, **kwargs):
        raise AssertionError("PenaltyInputs built")

    monkeypatch.setattr(losses, "PenaltyInputs", build)
    dataset = separable_dataset(n=300)
    table = toy_table(dataset.first_names[::3])
    result = train(dataset, table,
                   TrainConfig(variant="clucl", lam=2.0, k=3, epochs=2, seed=5,
                               batch_size=32, learning_rate=0.05))
    assert all(rec.penalty > 0 for rec in result.history)


def test_name_table_memory_scales_with_distinct_names():
    # 50k records drawn from 500 names, d=300: a per-record (n, d) matrix
    # alone would be 120 MB; the name table holds 500 rows plus two row
    # indices per record
    rng = np.random.default_rng(0)
    n, dim = 50_000, 300
    pool = [f"name{i}" for i in range(500)]
    table = toy_table(pool, dim=dim)
    first = [pool[i] for i in rng.integers(0, 500, size=n)]
    last = [pool[i] for i in rng.integers(0, 500, size=n)]
    tracemalloc.start()
    try:
        names = batch_name_vectors(table, first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(names.first) == n and names.include.all()
    assert peak < n * dim * 8 / 20
