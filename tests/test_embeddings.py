import numpy as np
import pytest

from nameblind.embeddings import (
    Coverage,
    EmbeddingFormatError,
    EmbeddingTable,
    batch_name_vectors,
    collect_name_tokens,
    load_embeddings,
    normalize_token,
    save_embeddings,
)

from oracles import load_embeddings_split, name_vectors_loop


def write_vectors(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0 0\nsmith 0 1 0\n")
    table = load_embeddings(path)
    assert table.dimension == 3
    assert len(table) == 2
    assert np.array_equal(table.get("anna"), [1.0, 0.0, 0.0])
    assert np.array_equal(table.get("smith"), [0.0, 1.0, 0.0])


def test_load_allowlist(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0 0\nsmith 0 1 0\n")
    table = load_embeddings(path, allowlist={"anna"})
    assert len(table) == 1
    assert "anna" in table
    assert table.get("smith") is None


def test_wrong_vector_length_reports_line(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path)


def test_malformed_header(tmp_path):
    path = write_vectors(tmp_path, "not a header line\n")
    with pytest.raises(EmbeddingFormatError, match="header"):
        load_embeddings(path)


def test_zero_dimension(tmp_path):
    path = write_vectors(tmp_path, "1 0\nanna\n")
    with pytest.raises(EmbeddingFormatError, match="dimension"):
        load_embeddings(path)


def test_non_numeric_component(tmp_path):
    path = write_vectors(tmp_path, "1 2\nanna 1 oops\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path)


def test_tokens_normalized_on_load_and_lookup(tmp_path):
    path = write_vectors(tmp_path, "1 2\nANNA 1 2\n")
    table = load_embeddings(path)
    assert np.array_equal(table.get("  Anna, "), [1.0, 2.0])
    assert normalize_token(" Anna!! ") == "anna"
    assert normalize_token("O'Brien") == "o'brien"


def make_table(entries):
    dim = len(next(iter(entries.values())))
    return EmbeddingTable(
        dimension=dim,
        entries={k: np.asarray(v, dtype=np.float64) for k, v in entries.items()},
    )


def gathered(table, first_names, last_names):
    """(vectors, coverages, include) of every record through
    batch_name_vectors and its NameTable.take."""
    names = batch_name_vectors(table, first_names, last_names)
    return names.take(np.arange(len(names))), names.coverages(), names.include


def one_record(table, first, last):
    """(vector, coverage) of one record through batch_name_vectors."""
    vectors, coverages, include = gathered(table, [first], [last])
    assert include[0] == (coverages[0] is not Coverage.NONE)
    return vectors[0], coverages[0]


def test_name_vector_both_found():
    table = make_table({"anna": [1.0, 0.0], "smith": [0.0, 1.0]})
    vector, coverage = one_record(table, "anna", "smith")
    assert coverage is Coverage.BOTH_FOUND
    assert np.array_equal(vector, [0.5, 0.5])


def test_name_vector_single_found():
    table = make_table({"anna": [1.0, 0.0]})
    vector, coverage = one_record(table, "anna", "missing")
    assert coverage is Coverage.FIRST_ONLY
    assert np.array_equal(vector, [1.0, 0.0])
    vector, coverage = one_record(table, None, "anna")
    assert coverage is Coverage.LAST_ONLY
    assert np.array_equal(vector, [1.0, 0.0])


def test_name_vector_none_found():
    table = make_table({"anna": [1.0, 0.0]})
    vector, coverage = one_record(table, "bob", "jones")
    assert coverage is Coverage.NONE
    assert np.array_equal(vector, [0.0, 0.0])


def test_name_vector_symmetric_in_operands():
    rng = np.random.default_rng(7)
    table = make_table({"a": rng.normal(size=5), "b": rng.normal(size=5)})
    vectors, _, _ = gathered(table, ["a", "b"], ["b", "a"])
    assert np.array_equal(vectors[0], vectors[1])


def test_name_vector_componentwise_bounds():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u, v = rng.normal(size=4), rng.normal(size=4)
        table = make_table({"u": u, "v": v})
        out, _ = one_record(table, "u", "v")
        assert np.all(out >= np.minimum(u, v) - 1e-15)
        assert np.all(out <= np.maximum(u, v) + 1e-15)


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    table = make_table({f"tok{i}": rng.normal(size=6) for i in range(10)})
    path = tmp_path / "out.txt"
    save_embeddings(table, path)
    reloaded = load_embeddings(path)
    assert reloaded.dimension == table.dimension
    assert set(reloaded.entries) == set(table.entries)
    for token, vector in table.entries.items():
        assert np.array_equal(reloaded.entries[token], vector)


def test_batch_name_vectors_mask():
    table = make_table({"anna": [1.0, 0.0], "smith": [0.0, 1.0]})
    vectors, coverages, include = gathered(
        table, ["anna", "nope"], ["smith", None]
    )
    assert np.array_equal(vectors[0], [0.5, 0.5])
    assert coverages == [Coverage.BOTH_FOUND, Coverage.NONE]
    assert include.tolist() == [True, False]


def test_collect_name_tokens():
    tokens = collect_name_tokens(["Anna", None, " Bob,"], ["Smith", "", "anna"])
    assert tokens == {"anna", "bob", "smith"}


# ------------------------------------------------- the skip-fast embedding scan

SEPARATORS = {
    "double space": lambda vals: "  ".join(vals),
    "tab": lambda vals: "\t".join(vals),
    "trailing spaces": lambda vals: " ".join(vals) + "   ",
    "leading spaces": lambda vals: "   " + " ".join(vals),
    "no-break space": lambda vals: "\xa0".join(vals),
    "unit separator": lambda vals: "\x1f".join(vals),
}


@pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_component_reports_line(tmp_path, component):
    path = write_vectors(
        tmp_path, f"3 3\nanna 1 0 0\nsmith 0 {component} 0\nzed 0 0 1\n"
    )
    with pytest.raises(EmbeddingFormatError, match="line 3: non-finite"):
        load_embeddings(path, allowlist={"anna", "smith"})
    # a skipped line's components are not parsed
    table = load_embeddings(path, allowlist={"anna", "zed"})
    assert sorted(table.entries) == ["anna", "zed"]


@pytest.mark.parametrize("separator", sorted(SEPARATORS))
@pytest.mark.parametrize("skipped", [True, False])
def test_line_missing_a_component_reports_line(tmp_path, separator, skipped):
    join = SEPARATORS[separator]
    token = "skipme" if skipped else "anna"
    path = write_vectors(
        tmp_path, f"3 3\nanna 1 0 0\n{token} {join(['0.5', '0.25'])}\nsmith 0 1 0\n"
    )
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path, allowlist={"anna", "smith"})


@pytest.mark.parametrize("separator", sorted(SEPARATORS))
def test_skipped_line_with_extra_component_reports_line(tmp_path, separator):
    line = "xx " + SEPARATORS[separator](["1", "2", "3", "4"])
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\n{line}\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path, allowlist={"anna"})


@pytest.mark.parametrize("blank", ["\t", "\x1f", "\xa0", "\u2003"])
def test_skipped_line_with_a_hidden_extra_component_reports_line(tmp_path, blank):
    # as many spaces as a well-formed line, plus one more blank
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\nxx 1 2 3{blank}4\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path, allowlist={"anna"})


def test_well_formed_lines_with_other_blanks_load(tmp_path):
    text = (
        "6 3\n"
        "anna\t1\t0\t0\n"                  # kept, tab-separated
        "skip\t1\t2\t3\n"                  # skipped, tab-separated
        "Smith   0  1    0  \n"            # kept, runs of spaces
        "other  4 5  6\n"                  # skipped, runs of spaces
        "  bob 7 8 9\n"                    # kept, leading spaces
        "\u00e9t\u00e9 1 2 3\n"           # skipped, a non-ASCII token
        "\n"
        "cara 0.5 0.25 -0.0\n"             # kept, the plain fast layout
    )
    path = write_vectors(tmp_path, text)
    allowlist = {"anna", "smith", "bob", "cara"}
    table = load_embeddings(path, allowlist=allowlist)
    dimension, entries = load_embeddings_split(path, allowlist)
    assert table.dimension == dimension == 3
    assert list(table.entries) == list(entries) == ["anna", "smith", "bob", "cara"]
    for token, vector in entries.items():
        assert table.entries[token].tobytes() == vector.tobytes()


def test_scan_matches_split_path_on_bench_layout(tmp_path):
    # the benchmark's vector-file layout ("%s" + " %.5f" * 300 per line):
    # names scattered among many distractor lines
    rng = np.random.default_rng(0)
    dim = 300
    names = [f"name{i}" for i in range(60)]
    tokens = names + [f"xdistract{i}" for i in range(1500)]
    fmt = "%s" + " %.5f" * dim
    lines = [fmt % (t, *v) for t, v in
             zip(tokens, rng.normal(0, 0.3, (len(tokens), dim)).tolist())]
    order = rng.permutation(len(lines))
    path = write_vectors(tmp_path, f"{len(lines)} {dim}\n"
                         + "\n".join(lines[i] for i in order) + "\n")
    allowlist = set(names[::2]) | {"Name1!", "absent"}
    table = load_embeddings(path, allowlist=allowlist)
    dimension, entries = load_embeddings_split(path, allowlist)
    assert table.dimension == dimension
    assert list(table.entries) == list(entries)
    assert len(entries) == 31
    for token, vector in entries.items():
        assert table.entries[token].tobytes() == vector.tobytes()


def test_batch_name_vectors_matches_loop_oracle():
    rng = np.random.default_rng(8)
    entries = {f"n{i}": rng.normal(size=5) for i in range(12)}
    entries["n3"][2] = -0.0
    entries["smith"] = rng.normal(size=5)
    table = make_table(entries)
    pool = [None, "", "N1", "n2!", " n3", "n4", "nope", "Smith.", "n11", "?"]
    first = [pool[i] for i in rng.integers(len(pool), size=300)]
    last = [pool[i] for i in rng.integers(len(pool), size=300)]
    vectors, coverages, include = gathered(table, first, last)
    want_vectors, want_coverages, want_include = name_vectors_loop(
        table.entries, table.dimension, first, last)
    assert vectors.tobytes() == want_vectors.tobytes()
    assert [c.value for c in coverages] == want_coverages
    assert set(want_coverages) == {"both-found", "first-only", "last-only", "none"}
    assert include.tolist() == want_include.tolist()
    # a batch's gather: any subset of the records, unsorted and repeated
    names = batch_name_vectors(table, first, last)
    assert len(names.vectors) == 6 + 1   # the pool's found names, zero row
    rows = rng.integers(0, 300, size=120)
    assert names.take(rows).tobytes() == want_vectors[rows].tobytes()
    assert names.take(rows[:0]).shape == (0, 5)
    empty, none_coverage, none_include = gathered(table, [], [])
    assert empty.shape == (0, 5) and none_coverage == [] and len(none_include) == 0
