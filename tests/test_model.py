import math

import numpy as np
import pytest

from nameblind.data import BinaryRows
from nameblind.losses import PenaltyInputs, penalty
from nameblind.model import (
    ModelParams,
    class_weights,
    forward_batch,
    load_model,
    loss_and_gradient,
    objective,
    predict_batch,
    save_model,
    softmax,
)

from oracles import central_diff_grad, rel_error


def test_forward_zero_params_is_uniform():
    params = ModelParams(W=np.zeros((3, 4)), b=np.zeros(3))
    probs = forward_batch(params, np.ones((2, 4)))
    assert np.allclose(probs, 1 / 3, atol=1e-12)
    assert predict_batch(params, np.ones((2, 4))).tolist() == [0, 0]  # ties


def test_forward_huge_logits_no_overflow():
    params = ModelParams(W=np.zeros((2, 1)), b=np.array([1000.0, 0.0]))
    probs = forward_batch(params, np.zeros((1, 1)))
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_forward_hand_computed_softmax():
    params = ModelParams(W=np.eye(2), b=np.zeros(2))
    X = np.array([[math.log(2.0), 0.0]])
    assert forward_batch(params, X)[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert predict_batch(params, X).tolist() == [0]


def test_forward_errors():
    params = ModelParams(W=np.zeros((2, 3)), b=np.zeros(2))
    with pytest.raises(ValueError, match="features"):
        forward_batch(params, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="features"):
        forward_batch(params, np.zeros(3))  # one record must be a (1, M) batch
    with pytest.raises(ValueError, match="finite"):
        forward_batch(params, np.array([[1.0, np.nan, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        predict_batch(params, np.array([[np.inf, 0.0, 0.0]]))


def test_softmax_normalization_and_argmax_bulk():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=10.0, size=(10_000, 5))
    probs = softmax(logits)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(logits, axis=1))
    assert np.all(probs >= 0) and np.all(probs <= 1)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(100, 4))
    shifted = logits + rng.normal(size=(100, 1))
    assert np.all(np.abs(softmax(logits) - softmax(shifted)) < 1e-9)


def test_two_class_softmax_is_the_bytes_of_the_general_expression():
    rng = np.random.default_rng(2)
    extreme = np.array([[700.0, -700.0], [-700.0, 700.0], [700.0, 700.0],
                        [-700.0, -700.0], [3.5, 3.5], [0.0, -0.0],
                        [np.inf, 1.0], [1.0, -np.inf], [np.inf, np.inf],
                        [-np.inf, -np.inf], [np.inf, -np.inf], [np.nan, 1.0]])
    for logits in (rng.normal(scale=10.0, size=(3, 256, 2)),
                   rng.normal(scale=10.0, size=(256, 2)), extreme):
        with np.errstate(invalid="ignore"):
            exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
            want = exp / exp.sum(axis=-1, keepdims=True)
            got = softmax(logits)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()
    # the infinities and the nan reach nan rows: the check above compares them
    assert np.isnan(got).all(axis=-1).sum() == 5


def test_class_weights_balanced():
    assert np.allclose(class_weights([50, 50]), [1.0, 1.0])
    assert np.allclose(class_weights([10, 10, 10]), [1.0, 1.0, 1.0])


def test_class_weights_imbalanced():
    assert class_weights([90, 10]) == pytest.approx([0.5556, 5.0], abs=1e-3)


def test_class_weights_zero_count():
    with pytest.raises(ValueError, match="zero count"):
        class_weights([5, 0])


def cross_entropy(probs, labels, weights):
    """The base of one model at probs with no l2 term and no penalty."""
    probs = np.asarray(probs, dtype=np.float64)
    W = np.zeros((1, probs.shape[1], 1))
    return objective(W, probs[None], labels, weights, 0.0, None, [0.0])[1][0]


def test_weighted_cross_entropy_values():
    assert cross_entropy([[1.0, 0.0]], [0], [1.0, 1.0]) == 0.0
    loss = cross_entropy([[0.5, 0.5]], [0], [1.0, 1.0])
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)
    loss2 = cross_entropy([[0.5, 0.5]], [0], [2.0, 1.0])
    assert loss2 == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_weighted_cross_entropy_all_ones_equals_unweighted():
    rng = np.random.default_rng(2)
    probs = softmax(rng.normal(size=(50, 4)))
    labels = rng.integers(0, 4, size=50)
    got = cross_entropy(probs, labels, np.ones(4))
    unweighted = -np.mean(np.log(probs[np.arange(50), labels]))
    assert got == pytest.approx(unweighted, rel=1e-12)


def test_weighted_cross_entropy_errors():
    with pytest.raises(ValueError, match="nonempty"):
        cross_entropy(np.zeros((0, 2)), [], [1.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy([[0.5, 0.5]], [2], [1.0, 1.0])


def test_objective_parts_per_model():
    # base = cross-entropy + l2 term; the stack's one penalty is called
    # once per model at lam > 0 and never at lam 0, and the total is
    # base + lam * value, a Python float
    rng = np.random.default_rng(6)
    W = rng.normal(size=(3, 2, 4))
    probs = softmax(rng.normal(size=(3, 5, 2)))
    labels = np.array([0, 1, 1, 0, 1])
    weights = np.array([1.5, 0.75])
    calls = []

    def pen(p):
        calls.append(p.copy())
        return float(np.sum(p)), 2.0 * p

    totals, bases, values, grads, p_true = objective(
        W, probs, labels, weights, 0.1, pen, [2.0, 3.0, 0.0])
    assert np.array_equal(p_true, probs[:, np.arange(5), labels])
    for i in range(3):
        assert bases[i] == (cross_entropy(probs[i], labels, weights)
                            + 0.1 * float(np.sum(W[i]**2)))
    assert len(calls) == 2
    assert np.array_equal(calls[0], p_true[0])
    assert np.array_equal(calls[1], p_true[1])
    assert values == [float(np.sum(p_true[0])), float(np.sum(p_true[1])), 0.0]
    assert np.array_equal(grads[0], 2.0 * p_true[0])
    assert np.array_equal(grads[1], 2.0 * p_true[1])
    assert grads[2] is None
    assert totals == [bases[0] + 2.0 * values[0], bases[1] + 3.0 * values[1],
                      bases[2]]
    assert all(type(v) is float for v in totals + bases + values)
    with pytest.raises(ValueError, match="one lam per model"):
        objective(W, probs, labels, weights, 0.1, None, [0.0] * 2)


def test_zero_weights_give_zero_gradients():
    rng = np.random.default_rng(3)
    params = ModelParams(W=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    X = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    _, grad_W, grad_b = loss_and_gradient(params, X, labels, np.zeros(3))
    assert np.all(grad_W == 0.0)
    assert np.all(grad_b == 0.0)


def test_loss_is_the_weighted_cross_entropy_and_lam_is_nonnegative():
    rng = np.random.default_rng(5)
    params = ModelParams(W=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    X = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    weights = rng.uniform(0.5, 2.0, size=3)
    loss = loss_and_gradient(params, X, labels, weights)[0]
    assert loss == cross_entropy(forward_batch(params, X), labels, weights)
    with pytest.raises(ValueError, match="nonnegative"):
        loss_and_gradient(params, X, labels, weights, lam=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        loss_and_gradient(params, X, labels, weights,
                          penalty=lambda p: (1.0, np.zeros_like(p)), lam=-1.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n, M, C = 5, 4, 3
        params = ModelParams(W=rng.normal(size=(C, M)), b=rng.normal(size=C))
        X = rng.normal(size=(n, M))
        labels = rng.integers(0, C, size=n)
        weights = rng.uniform(0.5, 2.0, size=C)
        l2 = 0.0 if trial % 2 == 0 else 0.01
        _, grad_W, grad_b = loss_and_gradient(params, X, labels, weights, l2)

        def loss_of_W(W):
            p = ModelParams(W=W, b=params.b)
            return loss_and_gradient(p, X, labels, weights, l2)[0]

        def loss_of_b(b):
            p = ModelParams(W=params.W, b=b)
            return loss_and_gradient(p, X, labels, weights, l2)[0]

        fd_W = central_diff_grad(loss_of_W, params.W, step=1e-6)
        fd_b = central_diff_grad(loss_of_b, params.b, step=1e-6)
        assert rel_error(grad_W, fd_W) < 1e-5
        assert rel_error(grad_b, fd_b) < 1e-5


def check_composite_gradient(variant, features):
    """The objective train minimizes: cross-entropy + l2 + lam * penalty,
    with some records masked out of the penalty, against central finite
    differences; features(rng, n, M) draws each trial's batch."""
    rng = np.random.default_rng(12)
    for trial in range(10):
        n, M, C, k = 16, 4, 3, 3
        params = ModelParams(W=rng.normal(size=(C, M)), b=rng.normal(size=C))
        X = features(rng, n, M)
        labels = rng.integers(0, C, size=n)
        weights = rng.uniform(0.5, 2.0, size=C)
        clusters = rng.integers(0, k, size=n)
        vectors = rng.normal(size=(n, 5))
        mask = rng.random(n) < 0.75

        def pen(p_true):
            inputs = PenaltyInputs(p_true, labels, clusters, vectors, mask)
            return penalty(inputs, variant, k, C)

        args = (labels, weights, 0.05, pen, 1.5)
        _, grad_W, grad_b = loss_and_gradient(params, X, *args)
        fd_W = central_diff_grad(
            lambda W: loss_and_gradient(ModelParams(W, params.b), X, *args)[0],
            params.W,
        )
        fd_b = central_diff_grad(
            lambda b: loss_and_gradient(ModelParams(params.W, b), X, *args)[0],
            params.b,
        )
        assert rel_error(grad_W, fd_W) < 1e-5
        assert rel_error(grad_b, fd_b) < 1e-5


@pytest.mark.parametrize("variant", ["none", "cocl", "clucl"])
def test_composite_gradient_matches_finite_differences(variant):
    check_composite_gradient(variant, lambda rng, n, M: rng.normal(size=(n, M)))


@pytest.mark.parametrize("variant", ["none", "cocl", "clucl"])
def test_composite_gradient_on_binary_rows_matches_finite_differences(variant):
    def binary_rows(rng, n, M):
        mask = rng.random((n, M)) < 0.4
        mask[3] = False  # a row without entries
        return BinaryRows(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))),
                          np.nonzero(mask)[1], M)

    check_composite_gradient(variant, binary_rows)


@pytest.mark.parametrize("store", ["dense", "binary"])
def test_stacked_loss_and_gradient_is_each_models_own_call(store):
    # L models on one batch: each model's loss, gradients and
    # probabilities are the bytes of its own 2-d call, and its logits the
    # bytes of its own 2-d product; the stack's one penalty is called once
    # per model at lam > 0 and never at lam 0
    rng = np.random.default_rng(21)
    L, n, M, C = 3, 40, 6, 4
    W, b = rng.normal(size=(L, C, M)), rng.normal(size=(L, C))
    mask = rng.random((n, M)) < 0.4
    mask[5] = False  # a row without entries
    X = (BinaryRows(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))),
                    np.nonzero(mask)[1], M)
         if store == "binary" else rng.normal(size=(n, M)))
    labels = rng.integers(0, C, size=n)
    weights = rng.uniform(0.5, 2.0, size=C)
    vectors = rng.normal(size=(n, 5))
    include = rng.random(n) < 0.75

    calls = []

    def cocl(p_true):
        calls.append(p_true.copy())
        return penalty(PenaltyInputs(p_true, labels, None, vectors, include),
                       "cocl", 1, C)

    lams = [0.5, 0.0, 2.0]
    stack = ModelParams(W, b)
    loss, grad_W, grad_b = loss_and_gradient(stack, X, labels, weights, 0.05,
                                             cocl, lams)
    probs = forward_batch(stack, X)
    p_true = probs[:, np.arange(n), labels]
    assert len(calls) == 2
    assert np.array_equal(calls[0], p_true[0])
    assert np.array_equal(calls[1], p_true[2])
    assert loss.shape == (L,) and grad_W.shape == (L, C, M)
    assert grad_b.shape == (L, C) and probs.shape == (L, n, C)
    for i in range(L):
        one = ModelParams(W[i], b[i])
        got = loss_and_gradient(one, X, labels, weights, 0.05, cocl, lams[i])
        assert loss[i] == got[0]
        assert grad_W[i].tobytes() == got[1].tobytes()
        assert grad_b[i].tobytes() == got[2].tobytes()
        assert probs[i].tobytes() == forward_batch(one, X).tobytes()
        assert probs[i].tobytes() == softmax(X @ W[i].T + b[i]).tobytes()
    assert len(calls) == 4  # and the own calls of models 0 and 2
    with pytest.raises(ValueError, match="one lam per model"):
        loss_and_gradient(stack, X, labels, weights, 0.0, cocl, lams[:2])


def test_symmetric_batch_gives_antisymmetric_bias_gradient():
    params = ModelParams(W=np.zeros((2, 3)), b=np.zeros(2))
    x = np.array([0.4, -1.2, 0.7])
    X = np.vstack([x, x])
    _, _, grad_b = loss_and_gradient(params, X, np.array([0, 1]), np.ones(2))
    assert grad_b[0] == -grad_b[1]


def test_predict_batch_argmax():
    params = ModelParams(W=np.array([[1.0, 0.0], [0.0, 1.0]]), b=np.zeros(2))
    X = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    assert predict_batch(params, X).tolist() == [0, 1, 0]


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = ModelParams(W=rng.normal(size=(3, 5)), b=rng.normal(size=3))
    features = [f"f{i}" for i in range(4)] + ["has space=yes"]
    classes = ["alpha", "beta", "gamma"]
    path = tmp_path / "model.txt"
    save_model(params, features, classes, path)
    loaded, got_features, got_classes = load_model(path)
    assert np.array_equal(loaded.W, params.W)
    assert np.array_equal(loaded.b, params.b)
    assert got_features == features
    assert got_classes == classes


def test_save_model_writes_numpy_scalar_formatting(tmp_path):
    # each value is written as the float64 scalar formats it at 17
    # significant digits; save_model formats Python floats
    values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
              0.1, 1 / 3, -1.7976931348623157e308, 123456789.0]
    params = ModelParams(W=np.array([values[:5], values[4:]]),
                         b=np.array([values[2], values[7]]))
    path = tmp_path / "model.txt"
    save_model(params, [f"f{i}" for i in range(5)], ["lo", "hi"], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    want = ["W " + " ".join(f"{v:.17g}" for v in row) for row in params.W]
    want.append("b " + " ".join(f"{v:.17g}" for v in params.b))
    assert lines[-3:] == want
    with pytest.raises(ValueError, match="stack"):
        save_model(ModelParams(params.W[None], params.b[None]),
                   [f"f{i}" for i in range(5)], ["lo", "hi"], path)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ValueError, match="not a recognized"):
        load_model(path)


def test_load_model_rejects_every_truncation(tmp_path):
    params = ModelParams(W=np.arange(6.0).reshape(2, 3), b=np.array([0.5, -1.0]))
    path = tmp_path / "model.txt"
    save_model(params, ["f0", "f1", "f2"], ["lo", "hi"], path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for keep in range(len(lines)):
        path.write_text("".join(lines[:keep]), encoding="utf-8")
        with pytest.raises(ValueError):
            load_model(path)
    for blank in (len(lines) - 2, len(lines) - 1):  # a W row, the b row
        path.write_text("".join(lines[:blank] + ["\n"] + lines[blank + 1:]),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)


def small_model_file(path):
    """Write a two-class, three-feature model file; returns its text
    split at "\n"."""
    params = ModelParams(W=np.arange(6.0).reshape(2, 3), b=np.array([0.5, -1.0]))
    save_model(params, ["f0", "f1", "f2"], ["lo", "hi"], path)
    return path.read_text(encoding="utf-8").split("\n")


@pytest.mark.parametrize("number, line, message", [
    (4, "label lo", "line 4 malformed"),  # a class line with another key
    (5, "feature hi", "line 5 malformed"),
    (7, "class f1", "line 7 malformed"),  # a feature line with another key
    (8, "feature\tf2", "line 8 malformed"),
    (2, "classes 2", "line 2 malformed"),  # header keys
    (3, "num_feature 3", "line 3 malformed"),
    (2, "num_classes -2", "line 2 malformed"),  # counts
    (3, "num_features 3.0", "line 3 malformed"),
    (3, "num_features \u0663", "line 3 malformed"),
    (3, "num_features  3", "line 3 malformed"),
    # a count past the file's end: line 6 is not the class line it asks for
    (2, "num_classes 99999999999999999999", "line 6 malformed"),
    (12, "b 0 0", "line 12 malformed"),  # lines after the b row
    (12, "", "line 12 malformed"),
    (12, "extra", "line 12 malformed"),
    (10, "W 3 4 5\nW 3 4 5", "line 11 malformed"),  # a third W row
    (10, "W 3 4 nan", "line 10 malformed"),
    (10, "W 3 4", "line 10 malformed"),
    (11, "b 0.5", "line 11 malformed"),
    (11, "b 0.5 -1 2", "line 11 malformed"),
    (11, "b 0.5\r-1", "line 11 malformed"),
    (1, "nameblind-model v2", "line 1 malformed"),
])
def test_load_model_names_the_first_line_off_the_layout(number, line, message,
                                                        tmp_path):
    path = tmp_path / "model.txt"
    lines = small_model_file(path)
    assert len(lines) == 12 and lines[-1] == ""  # 11 lines, each ended
    lines[number - 1:number] = [line] if number < 12 else [line, ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value) == (f"{path}: not a recognized model file, "
                               f"{message}")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_load_model_names_a_line_that_is_not_utf8(newline, tmp_path):
    # reported like any other line off the layout, not by the codec
    path = tmp_path / "model.txt"
    text = newline.join(small_model_file(path)).encode("utf-8")
    for data, number in ((b"\xff\xfe", 1),
                         (text.replace(b"class hi", b"class h\xffi"), 5),
                         (text.replace(b"feature f2", b"feature f\xe2\x80"), 8)):
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == (f"{path}: not a recognized model file, "
                                   f"line {number} malformed")


def test_load_model_accepts_other_newlines_and_no_final_one(tmp_path):
    path = tmp_path / "model.txt"
    lines = small_model_file(path)
    want = load_model(path)
    for text in ("\r\n".join(lines), "\r".join(lines), "\n".join(lines[:-1])):
        path.write_bytes(text.encode("utf-8"))
        got = load_model(path)
        assert got[1:] == want[1:]
        assert np.array_equal(got[0].W, want[0].W)
        assert np.array_equal(got[0].b, want[0].b)


def test_names_with_odd_characters_round_trip_exactly(tmp_path):
    # str.splitlines would split at each of these; a model file splits
    # only at "\n"
    breaks = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]
    classes = ["a\x0cb", "", " lead and trail ", "x\u2028y", "\t"]
    features = breaks + ["", " ", "  two  spaces ", "class lo", "W 1 2",
                         "has space=yes", "Zo\u00eb"]
    rng = np.random.default_rng(8)
    params = ModelParams(W=rng.normal(size=(len(classes), len(features))),
                         b=rng.normal(size=len(classes)))
    path = tmp_path / "model.txt"
    save_model(params, features, classes, path)
    loaded, got_features, got_classes = load_model(path)
    assert got_classes == classes and got_features == features
    assert loaded.W.tobytes() == params.W.tobytes()
    assert loaded.b.tobytes() == params.b.tobytes()


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\nb", "\n"])
@pytest.mark.parametrize("where", ["class", "feature"])
def test_save_model_rejects_a_name_with_a_line_break(name, where, tmp_path):
    params = ModelParams(W=np.zeros((2, 1)), b=np.zeros(2))
    classes, features = ["lo", "hi"], ["f0"]
    (classes if where == "class" else features)[0] = name
    path = tmp_path / "model.txt"
    with pytest.raises(ValueError, match="line break"):
        save_model(params, features, classes, path)
    assert not path.exists()


def test_a_model_of_no_classes_or_no_features_round_trips(tmp_path):
    path = tmp_path / "model.txt"
    for shape in ((0, 2), (2, 0), (0, 0)):
        params = ModelParams(W=np.zeros(shape), b=np.zeros(shape[0]))
        features = [f"f{i}" for i in range(shape[1])]
        classes = [f"c{i}" for i in range(shape[0])]
        save_model(params, features, classes, path)
        loaded, got_features, got_classes = load_model(path)
        assert loaded.W.shape == shape and loaded.b.shape == shape[:1]
        assert (got_features, got_classes) == (features, classes)


def test_forward_batch_matches_forward():
    # each row of a batch is the softmax of that record's own logits
    rng = np.random.default_rng(6)
    params = ModelParams(W=rng.normal(size=(3, 4)), b=rng.normal(size=3))
    X = rng.normal(size=(7, 4))
    batch = forward_batch(params, X)
    for i in range(7):
        single = softmax(params.W @ X[i] + params.b)
        assert np.allclose(batch[i], single, atol=1e-15)
