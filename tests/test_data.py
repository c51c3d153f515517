import collections
import inspect
import logging
import string
import tracemalloc

import numpy as np
import pytest

from nameblind.data import (
    DEDUPE_DOCS,
    BinaryRows,
    Dataset,
    NameDemographics,
    TabularSchema,
    TokenizedDocuments,
    assign_synthetic_names,
    fit_tabular,
    fit_text,
    infer_race_labels,
    load_name_probabilities,
    load_tabular,
    load_text,
    parse_tabular,
    parse_text,
    partition_names,
    scrub,
    tokenize,
)
from nameblind.embeddings import normalize_token
from nameblind.metrics import GroupAttribute, GroupLabels

from oracles import (
    dense_bag_of_words,
    densify,
    load_tabular_loop,
    load_text_loop,
    race_labels_loop,
    regex_tokens,
    synthetic_names_loop,
)

SCHEMA_TEXT = """
# demo schema
age continuous
color categorical
sex categorical group=F
income label
junk ignore
first first_name
last last_name
"""


def write_csv(tmp_path, header, rows, name="data.csv"):
    path = tmp_path / name
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def demo_csv(tmp_path):
    header = ["age", "color", "sex", "income", "junk", "first", "last"]
    rows = [
        [17, "red", "F", "low", "x", "anna", "smith"],
        [90, "blue", "M", "high", "x", "bob", "jones"],
        [30, "red", "F", "low", "x", "cara", "diaz"],
        [100, "green", "M", "high", "x", "dan", "wu"],
    ]
    return write_csv(tmp_path, header, rows)


def test_schema_parse_roles_and_groups():
    schema = TabularSchema.parse(SCHEMA_TEXT)
    assert schema.columns["age"].role == "continuous"
    assert schema.columns["sex"].role == "categorical"
    assert schema.columns["sex"].group_positive == "F"
    assert schema.columns["junk"].role == "ignore"
    assert schema.columns["first"].role == "first_name"


def test_schema_requires_one_label():
    with pytest.raises(ValueError, match="label"):
        TabularSchema.parse("age continuous\n")
    with pytest.raises(ValueError, match="unknown role"):
        TabularSchema.parse("age wiggly\nincome label\n")


def test_schema_eval_only_group():
    schema = TabularSchema.parse("race group=white\nincome label\n")
    assert schema.columns["race"].role == "group"
    assert schema.columns["race"].group_positive == "white"


def test_load_tabular_minmax_endpoints(tmp_path):
    schema = TabularSchema.parse(SCHEMA_TEXT)
    dataset = load_tabular(demo_csv(tmp_path), schema, fit_indices=[0, 1, 2])
    age = dataset.features[:, dataset.feature_names.index("age")]
    assert age[0] == 0.0            # fit minimum 17
    assert age[1] == 1.0            # fit maximum 90
    assert age[2] == pytest.approx((30 - 17) / (90 - 17), abs=1e-12)
    assert age[3] == 1.0            # 100 clamps to 1.0


def test_load_tabular_one_hot_exactly_one(tmp_path):
    schema = TabularSchema.parse(SCHEMA_TEXT)
    dataset = load_tabular(demo_csv(tmp_path), schema)
    color_cols = [
        j for j, nm in enumerate(dataset.feature_names) if nm.startswith("color=")
    ]
    assert len(color_cols) == 3
    block = dataset.features[:, color_cols]
    assert np.all(np.isin(block, (0.0, 1.0)))
    assert np.all(block.sum(axis=1) == 1.0)
    assert "color=blue" in dataset.feature_names


def test_load_tabular_unseen_category_zeros_and_logs(tmp_path, caplog):
    schema = TabularSchema.parse(SCHEMA_TEXT)
    with caplog.at_level(logging.WARNING):
        dataset = load_tabular(demo_csv(tmp_path), schema, fit_indices=[0, 1, 2])
    color_cols = [
        j for j, nm in enumerate(dataset.feature_names) if nm.startswith("color=")
    ]
    assert len(color_cols) == 2  # green unseen in fit rows
    assert np.all(dataset.features[3, color_cols] == 0.0)
    assert "green" in caplog.text


def test_load_tabular_group_sidecar_not_in_features(tmp_path):
    schema = TabularSchema.parse(SCHEMA_TEXT)
    dataset = load_tabular(demo_csv(tmp_path), schema)
    sex = dataset.eval_groups.get("sex")
    assert sex.positive_label == "F"
    assert sex.negative_label == "M"
    assert sex.values.tolist() == [1, 0, 1, 0]
    # the column stays a feature too (declared categorical)
    assert "sex=F" in dataset.feature_names
    assert dataset.class_names == ["high", "low"]
    assert dataset.labels.tolist() == [1, 0, 1, 0]
    assert dataset.first_names == ["anna", "bob", "cara", "dan"]


def test_load_tabular_unparseable_cell(tmp_path):
    header = ["age", "income"]
    rows = [[17, "low"], ["oops", "high"]]
    path = write_csv(tmp_path, header, rows)
    schema = TabularSchema.parse("age continuous\nincome label\n")
    with pytest.raises(ValueError, match="row 3.*age"):
        load_tabular(path, schema)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_parse_tabular_rejects_non_finite_cell(tmp_path, cell):
    # a nan would make the column's min and max nan and zero the whole
    # scaled column; an inf would give nan features
    path = write_csv(tmp_path, ["age", "income"],
                     [[30, "low"], [cell, "high"], [40, "low"], [25, "high"]])
    schema = TabularSchema.parse("age continuous\nincome label\n")
    with pytest.raises(ValueError,
                       match=f"row 3, column 'age': non-finite value '{cell}'"):
        parse_tabular(path, schema)


def test_load_tabular_schema_csv_mismatch(tmp_path):
    path = write_csv(tmp_path, ["age", "income"], [[1, "low"]])
    schema = TabularSchema.parse("age continuous\nheight continuous\nincome label\n")
    with pytest.raises(ValueError, match="height"):
        load_tabular(path, schema)


# ------------------------------------------------------------------ demographics

def demo_tables():
    return NameDemographics(
        first_white={"anna": 0.9, "bob": 0.3, "cara": 0.5, "dan": 0.8,
                     "emma": 0.2},
        first_male={"anna": 0.1, "bob": 0.8, "cara": 0.2, "dan": 0.9,
                    "fred": 0.95},
        last_white={"smith": 0.7, "diaz": 0.2},
    )


def test_partition_names_routing_and_boundary():
    part = partition_names(demo_tables())
    assert "anna" in part.white_female      # 0.9 white, 0.1 male
    assert "dan" in part.white_male
    assert "bob" in part.nonwhite_male
    # cara has p_white exactly 0.5: strictly-greater rule -> non-white
    assert "cara" in part.nonwhite_female
    # emma / fred appear in only one table each -> excluded
    assert "emma" not in part.all_names()
    assert "fred" not in part.all_names()


def test_partition_sets_disjoint_and_cover_intersection():
    part = partition_names(demo_tables())
    sets = [part.white_male, part.white_female,
            part.nonwhite_male, part.nonwhite_female]
    union = set().union(*sets)
    assert sum(len(s) for s in sets) == len(union)
    tables = demo_tables()
    assert union == set(tables.first_white) & set(tables.first_male)


def test_partition_empty_intersection():
    with pytest.raises(ValueError, match="both"):
        partition_names(NameDemographics(first_white={"a": 1.0},
                                         first_male={"b": 1.0}))


def big_partition():
    names = {}
    for g, (white, male) in enumerate(
        [(0.9, 0.9), (0.9, 0.1), (0.1, 0.9), (0.1, 0.1)]
    ):
        for i in range(10):
            names[f"n{g}x{i}"] = (white, male)
    return partition_names(
        NameDemographics(
            first_white={n: wm[0] for n, wm in names.items()},
            first_male={n: wm[1] for n, wm in names.items()},
        )
    )


def grouped_dataset(n, rng):
    race = rng.integers(0, 2, size=n)
    gender = rng.integers(0, 2, size=n)
    return Dataset(
        features=np.zeros((n, 1)),
        labels=np.zeros(n, dtype=np.int64),
        first_names=[None] * n,
        last_names=[None] * n,
        feature_names=["x"],
        class_names=["c"],
        eval_groups=GroupLabels(
            [
                GroupAttribute("race", "white", "non-white", race),
                GroupAttribute("gender", "male", "female", gender),
            ]
        ),
    )


def test_assign_synthetic_names_routes_by_category():
    rng = np.random.default_rng(0)
    dataset = grouped_dataset(200, rng)
    part = big_partition()
    assign_synthetic_names(dataset, part, seed=1)
    race = dataset.eval_groups.get("race").values
    gender = dataset.eval_groups.get("gender").values
    for i, name in enumerate(dataset.first_names):
        assert name in part.category(bool(race[i]), bool(gender[i]))
    assert all(last is None for last in dataset.last_names)


def test_assign_synthetic_names_deterministic():
    rng = np.random.default_rng(1)
    dataset_a = grouped_dataset(100, rng)
    dataset_b = Dataset(
        features=dataset_a.features.copy(),
        labels=dataset_a.labels.copy(),
        first_names=[None] * 100,
        last_names=[None] * 100,
        feature_names=["x"],
        class_names=["c"],
        eval_groups=dataset_a.eval_groups,
    )
    part = big_partition()
    assign_synthetic_names(dataset_a, part, seed=7)
    assign_synthetic_names(dataset_b, part, seed=7)
    assert dataset_a.first_names == dataset_b.first_names


def test_assign_synthetic_names_uniform_within_category():
    # 10^4 draws from one category of 10 names: each name's count within
    # 3 sigma of the multinomial expectation.
    n = 10_000
    dataset = Dataset(
        features=np.zeros((n, 1)),
        labels=np.zeros(n, dtype=np.int64),
        first_names=[None] * n,
        last_names=[None] * n,
        feature_names=["x"],
        class_names=["c"],
        eval_groups=GroupLabels(
            [
                GroupAttribute("race", "white", "non-white", np.ones(n, dtype=np.int8)),
                GroupAttribute("gender", "male", "female", np.ones(n, dtype=np.int8)),
            ]
        ),
    )
    part = big_partition()
    assign_synthetic_names(dataset, part, seed=3)
    pool = sorted(part.white_male)
    counts = {name: 0 for name in pool}
    for name in dataset.first_names:
        counts[name] += 1
    p = 1.0 / len(pool)
    sigma = np.sqrt(n * p * (1 - p))
    for name in pool:
        assert abs(counts[name] - n * p) <= 3.0 * sigma


def test_assign_synthetic_names_missing_label():
    dataset = grouped_dataset(4, np.random.default_rng(2))
    dataset.eval_groups.get("race").values[1] = -1
    with pytest.raises(ValueError, match="race and gender"):
        assign_synthetic_names(dataset, big_partition(), seed=0)


# ------------------------------------------------------------------ text pipeline

def vectorize(tmp_path, documents, min_count, top_fraction):
    """(dense features, vocabulary) of documents through parse_text and
    fit_text, pruning on every document."""
    path = tmp_path / "docs.tsv"
    path.write_text("".join(f"job\tn{i}\tl{i}\t{doc}\n"
                            for i, doc in enumerate(documents)), encoding="utf-8")
    dataset = fit_text(parse_text(path), min_count, top_fraction)
    return densify(dataset.features), dataset.feature_names


def test_vectorize_defaults_match_pruning_rule():
    for fn in (fit_text, load_text):
        sig = inspect.signature(fn)
        assert sig.parameters["min_count"].default == 20
        assert sig.parameters["top_fraction"].default == 0.10


def test_vectorize_presence_not_counts(tmp_path):
    features, vocab = vectorize(
        tmp_path, ["dog dog dog cat", "cat mouse"], min_count=1, top_fraction=0.0
    )
    assert vocab == ["cat", "dog", "mouse"]
    assert features.tolist() == [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def test_vectorize_simple_corpus(tmp_path):
    features, vocab = vectorize(tmp_path, ["a b", "a c"], min_count=1,
                                top_fraction=0.0)
    assert vocab == ["a", "b", "c"]
    assert features.tolist() == [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def test_vectorize_top_fraction_drops_most_common(tmp_path):
    docs = ["common alpha", "common beta", "common gamma", "common alpha"]
    # 4 types; top 25% by document frequency drops exactly "common"
    _, vocab = vectorize(tmp_path, docs, min_count=1, top_fraction=0.25)
    assert vocab == ["alpha", "beta", "gamma"]


def test_vectorize_top_fraction_tie_broken_alphabetically(tmp_path):
    docs = ["tie1 tie2 solo", "tie1 tie2"]
    # tie1/tie2 share df=2; dropping 1 of 3 types must drop tie1
    _, vocab = vectorize(tmp_path, docs, min_count=1, top_fraction=1 / 3)
    assert vocab == ["solo", "tie2"]


def test_vectorize_min_count_uses_total_occurrences(tmp_path):
    docs = ["rare seen seen", "seen"]
    # "rare" occurs once in total, "seen" three times
    _, vocab = vectorize(tmp_path, docs, min_count=2, top_fraction=0.0)
    assert vocab == ["seen"]


def test_vectorize_empty_vocabulary(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        vectorize(tmp_path, ["a", "b"], min_count=5, top_fraction=0.0)


def test_vectorize_outputs_binary_sorted_unique(tmp_path):
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(30)]
    docs = [
        " ".join(rng.choice(words, size=rng.integers(3, 12)))
        for _ in range(40)
    ]
    features, vocab = vectorize(tmp_path, docs, min_count=1, top_fraction=0.1)
    assert vocab == sorted(set(vocab))
    assert np.all(np.isin(features, (0.0, 1.0)))


def test_load_text_end_to_end(tmp_path):
    path = tmp_path / "bios.tsv"
    path.write_text(
        "nurse\tAnna\tSmith\tShe is a nurse in town\n"
        "engineer\tBob\tJones\tHe builds a bridge in town\n"
        "nurse\tCara\tDiaz\tShe helps patients in town\n",
        encoding="utf-8",
    )
    dataset = load_text(path, min_count=1, top_fraction=0.0)
    assert dataset.class_names == ["engineer", "nurse"]
    assert dataset.labels.tolist() == [1, 0, 1]
    assert dataset.first_names == ["Anna", "Bob", "Cara"]
    assert "she" in dataset.feature_names
    scrubbed = load_text(path, min_count=1, top_fraction=0.0, scrub_names=True)
    assert "she" not in scrubbed.feature_names
    assert "anna" not in scrubbed.feature_names


def random_token_lists(seed, n_docs=40, n_words=30):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    lists = [list(rng.choice(words, size=rng.integers(0, 12)))
             for _ in range(n_docs)]
    lists[3] = []                # an empty document
    lists[7] = ["unknown"] * 3   # a document with no vocabulary word
    return lists, words[2:]      # w0, w1 are not in the vocabulary either


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_token_dedupe_matches_counting_oracle(block, monkeypatch):
    monkeypatch.setattr("nameblind.data.DEDUPE_DOCS", block)
    token_lists, _ = random_token_lists(seed=9)
    token_lists[13] = token_lists[14] = []  # empty documents at a block edge
    docs = TokenizedDocuments.from_token_lists(iter(token_lists))
    assert len(docs) == len(token_lists)
    assert docs.tokens == sorted({t for tokens in token_lists for t in tokens})
    for i, tokens in enumerate(token_lists):
        counted = collections.Counter(tokens)
        span = slice(docs.indptr[i], docs.indptr[i + 1])
        assert [docs.tokens[j] for j in docs.ids[span]] == sorted(counted)
        assert docs.counts[span].tolist() == [counted[t] for t in sorted(counted)]


def test_token_dedupe_memory_scales_with_kept_arrays():
    # one sort over every document at once peaked at 6.6 times the arrays kept
    n_docs = 8 * DEDUPE_DOCS

    def token_lists():
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]
        for _ in range(n_docs):
            yield [words[i] for i in rng.integers(0, 2000, rng.integers(0, 50))]

    tracemalloc.start()
    try:
        docs = TokenizedDocuments.from_token_lists(token_lists())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(docs) == n_docs
    kept = docs.indptr.nbytes + docs.ids.nbytes + docs.counts.nbytes
    assert peak < 4 * kept


def test_token_dedupe_memory_with_repeated_tokens():
    # 40 words, up to 400 tokens a document: a block's raw token ids far
    # outnumber the entries kept. Holding every raw id until the last block
    # is sorted peaked at 6.4 times the arrays kept; deduping each block as
    # it is read peaks at 2.8 times
    n_docs = 8 * DEDUPE_DOCS

    def token_lists():
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(40)]
        for _ in range(n_docs):
            yield [words[i] for i in rng.integers(0, 40, rng.integers(0, 401))]

    tracemalloc.start()
    try:
        docs = TokenizedDocuments.from_token_lists(token_lists())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(docs) == n_docs and len(docs.tokens) == 40
    kept = docs.indptr.nbytes + docs.ids.nbytes + docs.counts.nbytes
    assert peak < 4 * kept


def test_vocabulary_fit_and_bag_of_words_memory():
    # 64 blocks of documents with about 10 distinct words each. Counting
    # the vocabulary over every fit row's entries at once peaked at 4.8
    # times the store's ids, and the bag of words with int64 temporaries
    # over every entry at 6.3 times (output included)
    n_docs, n_types = 64 * DEDUPE_DOCS, 2000
    rng = np.random.default_rng(0)
    keys = np.unique(np.repeat(np.arange(n_docs) * n_types, 10)
                     + rng.integers(0, n_types, 10 * n_docs))
    docs = TokenizedDocuments(
        tokens=[f"w{i:04d}" for i in range(n_types)],
        indptr=np.concatenate(([0], np.cumsum(
            np.bincount(keys // n_types, minlength=n_docs)))),
        ids=(keys % n_types).astype(np.int32),
        counts=rng.integers(1, 4, len(keys)).astype(np.int32),
    )
    del keys
    rows = rng.permutation(n_docs)[:n_docs * 3 // 5]
    tracemalloc.start()
    try:
        vocabulary = docs.fit_vocabulary(rows, 1, 0.1)
        fit_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        features = docs.bag_of_words(vocabulary)
        bag_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < len(vocabulary) < n_types and len(features) == n_docs
    assert fit_peak < 0.5 * docs.ids.nbytes
    assert bag_peak < 3.5 * docs.ids.nbytes


def test_binary_rows_match_dense_oracle():
    token_lists, vocabulary = random_token_lists(seed=6)
    docs = TokenizedDocuments.from_token_lists(token_lists)
    ids = [docs.tokens.index(t) for t in vocabulary if t in docs.tokens]
    features = docs.bag_of_words(ids)
    dense = dense_bag_of_words(token_lists, [docs.tokens[i] for i in ids])
    assert isinstance(features, BinaryRows)
    assert features.indptr.dtype == np.int64
    assert features.indices.dtype == np.int32
    assert features.shape == dense.shape and len(features) == len(dense)
    assert features.indptr[4] == features.indptr[3]  # empty rows stay empty
    assert features.indptr[8] == features.indptr[7]
    selections = [
        np.arange(40),                        # sorted
        np.array([39, 3, 7, 0, 22, 5]),       # unsorted, with empty rows
        np.array([5, 5, 3, 5, 3]),            # repeated
        [7, 3],                               # a list
        np.array([], dtype=np.int64),         # empty selection
        [],
        slice(None), slice(3, 8), slice(None, None, -3), slice(30, 10),
    ]
    for rows in selections:
        block = features[rows]
        assert block.dtype == np.float64
        assert block.shape == dense[rows].shape
        # bitwise, so no -0.0 or other representation of the same values
        assert block.tobytes() == dense[rows].tobytes()
    assert densify(features).tobytes() == dense.tobytes()
    n, v = dense.shape
    with pytest.raises(TypeError, match=f"{n} x {v} .* {8 * n * v:,} bytes"):
        np.asarray(features)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_bag_of_words_with_empty_documents_at_block_edges(block, monkeypatch):
    monkeypatch.setattr("nameblind.data.DEDUPE_DOCS", block)
    token_lists, vocabulary = random_token_lists(seed=6)
    # empty documents and documents with no vocabulary word at both ends
    # and on both sides of block edges
    token_lists[0] = token_lists[-1] = token_lists[20] = []
    token_lists[13] = token_lists[14] = ["w0", "w1", "w0"]
    token_lists[21] = ["unknown"]
    docs = TokenizedDocuments.from_token_lists(token_lists)
    ids = [docs.tokens.index(t) for t in vocabulary if t in docs.tokens]
    features = docs.bag_of_words(ids)
    dense = dense_bag_of_words(token_lists, [docs.tokens[i] for i in ids])
    assert features.indptr.dtype == np.int64
    assert features.indices.dtype == np.int32
    assert densify(features).tobytes() == dense.tobytes()
    # a vocabulary that only two documents hold: every other row is empty
    sparse = docs.bag_of_words([docs.tokens.index("unknown")])
    assert np.diff(sparse.indptr).tolist() == [int("unknown" in t)
                                               for t in token_lists]


def test_binary_rows_refuse_a_dense_copy():
    # the Bios shape: 400k documents over a 20k-word vocabulary
    features = BinaryRows(np.zeros(400_001, dtype=np.int64), [], 20_000)
    with pytest.raises(TypeError,
                       match="400000 x 20000 .* 64,000,000,000 bytes"):
        np.asarray(features)


def test_binary_rows_reject_bad_selections_and_indices():
    features = BinaryRows(np.array([0, 2, 2, 3]), np.array([0, 2, 1]), 3)
    with pytest.raises(IndexError):
        features[np.array([0, 3])]
    with pytest.raises(IndexError):
        features[np.array([-1])]
    with pytest.raises(TypeError):
        features[np.array([True, False, True])]
    with pytest.raises(TypeError):
        features[np.array([[0]])]
    with pytest.raises(ValueError, match="out of range"):
        BinaryRows(np.array([0, 2]), np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="indptr"):
        BinaryRows(np.array([0, 2, 1]), np.array([0]), 3)


def binary_rows(mask):
    """The BinaryRows store of a boolean (n, V) matrix."""
    return BinaryRows(np.concatenate(([0], np.cumsum(mask.sum(axis=1)))),
                      np.nonzero(mask)[1], mask.shape[1])


def test_binary_rows_products_match_dense():
    rng = np.random.default_rng(8)
    mask = rng.random((60, 25)) < 0.2
    empty = [0, 1, 30, 31, 58, 59]  # at the start, in the middle, at the end
    mask[empty] = False
    features = binary_rows(mask)
    dense = mask.astype(np.float64)
    selections = [
        np.arange(60),
        np.array([0, 12, 30, 7, 59]),     # empty rows at start, middle, end
        np.array([31, 30, 1]),            # only empty rows
        np.array([], dtype=np.int64),     # no rows
        rng.permutation(60)[:17],
    ]
    for rows in selections:
        X = features.take(rows, axis=0)
        assert isinstance(X, BinaryRows)
        assert X.shape == (len(rows), 25)
        assert densify(X).tobytes() == dense[rows].tobytes()
        M = rng.normal(size=(25, 4))
        A = rng.normal(size=(3, len(rows)))
        for got, want in ((X @ M, dense[rows] @ M),
                          (X @ M[:, :1], dense[rows] @ M[:, :1]),
                          (A @ X, A @ dense[rows])):
            assert got.shape == want.shape and got.dtype == np.float64
            scale = max(np.abs(want).max(initial=0.0), 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * scale)
        # rows without entries give exactly 0
        assert not (X @ M)[~mask[rows].any(axis=1)].any()
        # a stack of arrays multiplies slice by slice, the same bytes
        Ms, As = rng.normal(size=(2, 25, 4)), rng.normal(size=(2, 3, len(rows)))
        stacked, rstacked = X @ Ms, As @ X
        assert stacked.shape == (2, len(rows), 4)
        assert rstacked.shape == (2, 3, 25)
        for i in range(2):
            assert stacked[i].tobytes() == (X @ Ms[i]).tobytes()
            assert rstacked[i].tobytes() == (As[i] @ X).tobytes()
    with pytest.raises(ValueError, match="axis"):
        features.take([0], axis=1)
    with pytest.raises(ValueError):
        features @ np.ones((24, 2))
    with pytest.raises(ValueError):
        np.ones((2, 59)) @ features
    with pytest.raises(ValueError):
        features @ np.ones((1, 2, 25, 2))


def test_ndarray_matmul_dispatches_to_binary_rows(monkeypatch):
    features = binary_rows(np.eye(4, dtype=bool)[[2, 0, 3]])

    def densify(self, dtype=None, copy=None):
        raise AssertionError("the product densified the store")

    monkeypatch.setattr(BinaryRows, "__array__", densify)
    A = np.arange(6.0).reshape(2, 3)
    got = A @ features
    assert isinstance(got, np.ndarray)
    assert got.tolist() == [[1.0, 0.0, 0.0, 2.0], [4.0, 0.0, 3.0, 5.0]]
    assert (features @ np.arange(8.0).reshape(4, 2)).tolist() == [
        [4.0, 5.0], [0.0, 1.0], [6.0, 7.0]]


def test_load_text_features_are_binary_rows(tmp_path):
    path = tmp_path / "bios.tsv"
    docs = ["she is a nurse in town", "he builds a bridge", "a nurse in town",
            "zzz qqq"]  # the last holds no vocabulary word
    path.write_text(
        "".join(f"job{i % 2}\tn{i}\tl{i}\t{doc}\n" for i, doc in enumerate(docs)),
        encoding="utf-8",
    )
    dataset = load_text(path, min_count=2, top_fraction=0.0)
    vocab = ["a", "in", "nurse", "town"]
    dense = dense_bag_of_words([tokenize(doc) for doc in docs], vocab)
    assert isinstance(dataset.features, BinaryRows)
    assert dataset.feature_names == vocab
    assert dataset.features.indptr[4] == dataset.features.indptr[3]
    assert densify(dataset.features).tobytes() == dense.tobytes()


def test_load_text_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("nurse\tAnna\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_text(path)


# ------------------------------------------------------------------- race labels

def test_infer_race_degenerate_probabilities():
    demo = NameDemographics(first_white={"anna": 1.0}, first_male={},
                            last_white={"smith": 1.0})
    attr = infer_race_labels(["anna"] * 5, ["smith"] * 5, demo, seed=0)
    assert attr.values.tolist() == [1] * 5


def test_infer_race_bernoulli_rate():
    demo = NameDemographics(first_white={"anna": 0.6}, first_male={},
                            last_white={"smith": 0.2})
    n = 10_000
    attr = infer_race_labels(["anna"] * n, ["smith"] * n, demo, seed=1)
    rate = attr.values.mean()  # average of 0/1 draws at p = 0.4
    assert abs(rate - 0.4) <= 0.015


def test_infer_race_missing_names():
    demo = NameDemographics(first_white={"anna": 0.9}, first_male={},
                            last_white={})
    attr = infer_race_labels(["anna", "zoe"], [None, None], demo, seed=2)
    assert attr.values[0] in (0, 1)
    assert attr.values[1] == -1


def test_infer_race_single_table_fallback():
    demo = NameDemographics(first_white={}, first_male={},
                            last_white={"smith": 1.0})
    attr = infer_race_labels(["anna"], ["smith"], demo, seed=3)
    assert attr.values.tolist() == [1]


# ----------------------------------------------------------------------- scrub

def test_scrub_examples():
    assert scrub("She is a surgeon", "Anna") == "is a surgeon"
    assert scrub("Anna studied at X", "Anna") == "studied at X"
    assert scrub("Nothing to remove here", "Anna") == "Nothing to remove here"


def test_scrub_removes_pronouns_case_insensitively():
    assert scrub("HE said his work, she likes hers.") == "said work, likes"
    assert scrub("Mr. Smith met Mrs. Jones") == "Smith met Jones"


def test_scrub_idempotent():
    rng = np.random.default_rng(4)
    words = ["she", "he", "Anna", "builds", "bridges.", "Her", "team", "mr"]
    for _ in range(20):
        doc = " ".join(rng.choice(words, size=10))
        once = scrub(doc, "anna")
        assert scrub(once, "anna") == once


def test_tokenize_splits_punctuation():
    assert tokenize("She's a nurse, truly.") == ["she's", "a", "nurse", "truly"]


def test_tokenize_matches_regex_oracle():
    # control characters and Unicode spaces (\x1c, \x85, NBSP), characters
    # whose lowercase form is ASCII or two characters (Kelvin sign, İ),
    # non-ASCII letters, an astral emoji and a lone surrogate
    alphabet = list(string.ascii_letters + string.digits + "'\"-_ ")
    alphabet += ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\x00",
                 "\u2019", "\xdf", "\u0130", "\u212a", "\uff21",
                 "\U0001f600", "\ud800"]
    rng = np.random.default_rng(15)
    for _ in range(50_000):
        text = "".join([alphabet[i] for i in
                        rng.integers(0, len(alphabet), rng.integers(0, 25))])
        assert tokenize(text) == regex_tokens(text), repr(text)
    assert tokenize("\u212aelvin \u0130stanbul") == ["kelvin", "i", "stanbul"]


def test_name_probability_table_parse(tmp_path):
    path = tmp_path / "probs.tsv"
    path.write_text("Anna\t0.9\nBOB\t0.25\n", encoding="utf-8")
    table = load_name_probabilities(path)
    assert table == {"anna": 0.9, "bob": 0.25}
    bad = tmp_path / "bad.tsv"
    bad.write_text("anna\t1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside"):
        load_name_probabilities(bad)


# ------------------------------------------- parse once, fit per split: oracles

def _mixed_names(n, rng):
    """First/last names with both, one or neither in the tables, plus
    case, punctuation, blank and missing variants."""
    firsts = ["Anna", "anna!", " BOB ", "cara", "zed", "", None, "O'Neil"]
    lasts = ["Smith", "smith,", "JONES", "wu", "nope", None, "", "o'neil."]
    return ([firsts[i] for i in rng.integers(len(firsts), size=n)],
            [lasts[i] for i in rng.integers(len(lasts), size=n)])


def test_infer_race_labels_matches_loop_oracle():
    demo = NameDemographics(
        first_white={"anna": 0.8, "bob": 0.35, "cara": 0.5, "o'neil": 0.9},
        first_male={},
        last_white={"smith": 0.6, "jones": 0.05, "o'neil": 0.25},
    )
    first, last = _mixed_names(400, np.random.default_rng(5))
    for seed in range(20):
        got = infer_race_labels(first, last, demo, seed=seed).values
        want = race_labels_loop(first, last, demo.first_white,
                                demo.last_white, seed)
        assert got.dtype == np.int8
        assert got.tolist() == want.tolist()
    # all four coverage cases occur
    assert {(f is not None and normalize_token(f) in demo.first_white,
             l is not None and normalize_token(l) in demo.last_white)
            for f, l in zip(first, last)} == {(True, True), (True, False),
                                              (False, True), (False, False)}


def test_assign_synthetic_names_matches_loop_oracle():
    # pools of 1, 3, 7 and 250 names
    sizes = {(0, 0): 1, (0, 1): 3, (1, 0): 7, (1, 1): 250}
    first_white, first_male = {}, {}
    for (white, male), size in sizes.items():
        for i in range(size):
            name = f"w{white}m{male}n{i}"
            first_white[name] = 0.9 if white else 0.1
            first_male[name] = 0.9 if male else 0.1
    part = partition_names(NameDemographics(first_white, first_male))
    pools = {key: sorted(part.category(bool(key[0]), bool(key[1])))
             for key in sizes}
    assert {key: len(pool) for key, pool in pools.items()} == sizes
    for seed in range(20):
        dataset = grouped_dataset(600, np.random.default_rng(100 + seed))
        race = dataset.eval_groups.get("race").values
        gender = dataset.eval_groups.get("gender").values
        assign_synthetic_names(dataset, part, seed=seed)
        assert dataset.first_names == synthetic_names_loop(race, gender, pools, seed)
        assert dataset.last_names == [None] * 600


def write_text_records(path, documents, names=None):
    lines = []
    for i, doc in enumerate(documents):
        first, last = names[i] if names else (f"First{i % 5}", f"last{i % 3}")
        lines.append(f"job{i % 3}\t{first or ''}\t{last or ''}\t{doc}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_text_dataset_matches(dataset, want):
    assert dataset.feature_names == want["vocabulary"]
    assert dataset.class_names == want["class_names"]
    assert dataset.labels.tolist() == want["labels"]
    assert dataset.first_names == want["first_names"]
    assert dataset.last_names == want["last_names"]
    rows = want["rows"]
    counts = [len(r) for r in rows]
    assert dataset.features.indptr.tolist() == [0, *np.cumsum(counts).tolist()]
    assert dataset.features.indices.tolist() == [c for r in rows for c in r]
    assert dataset.features.num_columns == len(want["vocabulary"])


def test_fit_text_matches_load_text_oracle(tmp_path):
    rng = np.random.default_rng(9)
    words = [f"w{i:02d}" for i in range(40)] + ["She", "his", "Mr."]
    documents = [" ".join(rng.choice(words, size=rng.integers(1, 25)))
                 for _ in range(150)]
    documents[4] = ""                            # an empty document
    documents[9] = "first1 First1, she HE mrs"   # emptied by --scrub
    path = tmp_path / "records.tsv"
    write_text_records(path, documents)
    splits = [None, list(range(0, 150, 2)), list(range(75)),
              np.random.default_rng(1).permutation(150)[:100],
              np.random.default_rng(2).integers(0, 150, 200)]  # repeats
    for scrub_names in (False, True):
        records = parse_text(path, scrub_names=scrub_names)
        for fit_indices in splits:
            for min_count, top_fraction in ((1, 0.0), (3, 0.1), (5, 0.33)):
                want = load_text_loop(path, min_count, top_fraction,
                                      scrub_names, fit_indices)
                got = fit_text(records, min_count, top_fraction, fit_indices)
                assert_text_dataset_matches(got, want)
                same = load_text(path, min_count, top_fraction, scrub_names,
                                 fit_indices)
                assert_text_dataset_matches(same, want)
    assert load_text_loop(path, 1, 0.0, False, None)["rows"][4] == []


@pytest.mark.parametrize("block", [1, 7])
def test_vocabulary_fit_over_blocks_matches_oracle(block, tmp_path,
                                                   monkeypatch):
    # the vocabulary is counted per block of fit rows: many blocks, and
    # repeated rows that count again, within and across blocks
    monkeypatch.setattr("nameblind.data.DEDUPE_DOCS", block)
    rng = np.random.default_rng(10)
    words = [f"w{i:02d}" for i in range(30)]
    documents = [" ".join(rng.choice(words, size=rng.integers(0, 15)))
                 for _ in range(60)]
    path = tmp_path / "records.tsv"
    write_text_records(path, documents)
    records = parse_text(path)
    for fit_indices in (None, rng.integers(0, 60, 90),
                        [5, 5, 5, 6, 7, 5, 40, 40, *range(8, 30)]):
        for min_count, top_fraction in ((1, 0.0), (4, 0.2)):
            want = load_text_loop(path, min_count, top_fraction, False,
                                  fit_indices)
            assert_text_dataset_matches(
                fit_text(records, min_count, top_fraction, fit_indices), want)


def test_fit_text_tie_at_cut_and_exact_min_count(tmp_path):
    # ten types: "common" (df 6), then "tie" and "tied" (df 4 each), so a
    # top_fraction of 0.2 drops "common" and, alphabetically, "tie" only;
    # "exact" occurs exactly 3 times, in one document
    documents = ["common tie tied one", "common tie tied two",
                 "common tie tied three", "common tie tied four",
                 "common five exact exact exact", "common six", ""]
    path = tmp_path / "records.tsv"
    write_text_records(path, documents)
    records = parse_text(path)
    for min_count, want_exact in ((3, True), (4, False)):
        want = load_text_loop(path, min_count, 0.2, False, None)
        assert ("tie" in want["vocabulary"], "tied" in want["vocabulary"]) == (
            False, min_count <= 4)
        assert ("exact" in want["vocabulary"]) == want_exact
        assert_text_dataset_matches(fit_text(records, min_count, 0.2), want)
    want = load_text_loop(path, 1, 0.2, False, None)
    assert want["vocabulary"] == ["exact", "five", "four", "one", "six",
                                  "three", "tied", "two"]
    assert_text_dataset_matches(fit_text(records, 1, 0.2), want)
    # fit on the first four documents: "common", "tie" and "tied" tie at
    # the top, and a cut of two drops the first two alphabetically
    want = load_text_loop(path, 1, 0.3, False, [0, 1, 2, 3])
    assert want["vocabulary"] == ["four", "one", "three", "tied", "two"]
    assert_text_dataset_matches(fit_text(records, 1, 0.3, [0, 1, 2, 3]), want)


TABULAR_ROLES = {
    "age": ("continuous", None),
    "flat": ("continuous", None),
    "color": ("categorical", None),
    "sex": ("categorical", "F"),
    "region": ("group", "north"),
    "income": ("label", None),
    "junk": ("ignore", None),
    "first": ("first_name", None),
    "last": ("last_name", None),
}


def test_fit_tabular_matches_load_tabular_oracle(tmp_path, caplog):
    rng = np.random.default_rng(4)
    n = 60
    colors = ["red", "blue", "green", "teal", ""]
    rows = []
    for i in range(n):
        rows.append([
            f"{rng.uniform(-5, 90):.3f}", "7.5",       # flat: a constant column
            colors[i % 3] if i < 50 else colors[4 if i % 2 else 3],
            "F" if i % 3 else "M",
            ["north", "south", ""][i % 3],
            "hi" if rng.random() < 0.4 else "lo",
            "x", f"name{i % 9}" if i % 7 else "", f"sur{i % 4}",
        ])
    path = write_csv(tmp_path, list(TABULAR_ROLES), rows)
    schema = TabularSchema.parse("\n".join(
        f"{c} {role}" + (f" group={pos}" if pos else "")
        if role != "group" else f"{c} group={pos}"
        for c, (role, pos) in TABULAR_ROLES.items()
    ))
    records = parse_tabular(path, schema)
    # the last ten rows hold the only "teal" and "" colors
    for fit_indices in (None, list(range(50)), list(range(0, 50, 3)),
                        np.random.default_rng(2).permutation(n)[:30]):
        want = load_tabular_loop(path, TABULAR_ROLES, fit_indices)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="nameblind.data"):
            got = fit_tabular(records, fit_indices)
        assert [r.args for r in caplog.records] == want["warnings"]
        assert got.features.tobytes() == want["features"].tobytes()
        assert got.feature_names == want["feature_names"]
        assert got.labels.tolist() == want["labels"]
        assert got.class_names == want["class_names"]
        assert got.first_names == want["first_names"]
        assert got.last_names == want["last_names"]
        assert [(a.name, a.positive_label, a.negative_label, a.values.tolist())
                for a in got.eval_groups.attributes] == want["attributes"]
        same = load_tabular(path, schema, fit_indices=fit_indices)
        assert same.features.tobytes() == got.features.tobytes()
        assert same.feature_names == got.feature_names
    assert load_tabular_loop(path, TABULAR_ROLES, list(range(50)))["warnings"] == [
        ("color", ""), ("color", "teal")]
    assert "flat" in want["feature_names"]


def test_fit_tabular_allocates_the_feature_matrix_once(tmp_path):
    # one block per column joined by np.hstack held the matrix twice
    rng = np.random.default_rng(5)
    n, categorical = 5000, 10
    header = ["x", "y", *(f"c{j}" for j in range(categorical)), "label"]
    rows = [[f"{rng.random():.4f}", f"{rng.random():.4f}",
             *(f"v{v}" for v in rng.integers(0, 10, categorical)),
             "ab"[i % 2]] for i in range(n)]
    path = write_csv(tmp_path, header, rows)
    schema = TabularSchema.parse("x continuous\ny continuous\nlabel label\n"
                                 + "".join(f"c{j} categorical\n"
                                           for j in range(categorical)))
    records = parse_tabular(path, schema)
    tracemalloc.start()
    try:
        dataset = fit_tabular(records, np.arange(0, n, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (n, 2 + 10 * categorical)
    assert peak < 1.5 * dataset.features.nbytes
