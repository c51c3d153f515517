import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nameblind import cache, embeddings
from nameblind.embeddings import (
    SCAN_BLOCK,
    EmbeddingFormatError,
    EmbeddingTable,
    _checked_lines,
    batch_name_vectors,
    load_embeddings,
    normalize_token,
)

from oracles import load_embeddings_split, name_vectors_loop
from synth_benchmark import save_embeddings


def write_vectors(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0 0\nsmith 0 1 0\n")
    table = load_embeddings(path, {"anna", "smith"})
    assert table.dimension == 3
    assert len(table) == 2
    assert np.array_equal(table.get("anna"), [1.0, 0.0, 0.0])
    assert np.array_equal(table.get("smith"), [0.0, 1.0, 0.0])


def test_load_allowlist(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0 0\nsmith 0 1 0\n")
    table = load_embeddings(path, allowlist={"anna"})
    assert len(table) == 1
    assert table.get("anna") is not None
    assert table.get("smith") is None


def test_load_allowlist_is_normalized(tmp_path):
    # raw names are matched as the file's tokens are, after normalize_token
    path = write_vectors(tmp_path, "3 3\nanna 1 0 0\nsmith 0 1 0\nbob 0 0 1\n")
    table = load_embeddings(path, allowlist={" Anna,", "SMITH"})
    assert sorted(table.entries) == ["anna", "smith"]


def test_wrong_vector_length_reports_line(tmp_path):
    path = write_vectors(tmp_path, "2 3\nanna 1 0\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path, {"anna"})


def test_load_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"\xef\xbb\xbf2 3\nanna 1 0 0\nsmith 0 1 0\n")
    table = load_embeddings(path, allowlist={"anna", "smith"})
    assert table.dimension == 3
    assert np.array_equal(table.get("anna"), [1.0, 0.0, 0.0])
    assert np.array_equal(table.get("smith"), [0.0, 1.0, 0.0])


def test_malformed_header(tmp_path):
    path = write_vectors(tmp_path, "not a header line\n")
    with pytest.raises(EmbeddingFormatError, match="header"):
        load_embeddings(path, {"anna"})


def test_zero_dimension(tmp_path):
    path = write_vectors(tmp_path, "1 0\nanna\n")
    with pytest.raises(EmbeddingFormatError, match="dimension"):
        load_embeddings(path, {"anna"})


def test_non_numeric_component(tmp_path):
    path = write_vectors(tmp_path, "1 2\nanna 1 oops\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path, {"anna"})


def test_tokens_normalized_on_load_and_lookup(tmp_path):
    path = write_vectors(tmp_path, "1 2\nANNA 1 2\n")
    table = load_embeddings(path, {"anna"})
    assert np.array_equal(table.get("  Anna, "), [1.0, 2.0])
    assert normalize_token(" Anna!! ") == "anna"
    assert normalize_token("O'Brien") == "o'brien"


def make_table(entries):
    dim = len(next(iter(entries.values())))
    return EmbeddingTable(
        dimension=dim,
        entries={k: np.asarray(v, dtype=np.float64) for k, v in entries.items()},
    )


# which of a record's (first, last) names were found, as name_vectors_loop
# names it
COVERAGE = {(True, True): "both-found", (True, False): "first-only",
            (False, True): "last-only", (False, False): "none"}


def gathered(table, first_names, last_names):
    """(vectors, coverages, include) of every record through
    batch_name_vectors: NameTable.take, the coverage its first and last
    rows give, and include."""
    names = batch_name_vectors(table, first_names, last_names)
    coverages = [COVERAGE[found] for found in zip((names.first >= 0).tolist(),
                                                  (names.last >= 0).tolist())]
    return names.take(np.arange(len(names.first))), coverages, names.include


def one_record(table, first, last):
    """(vector, coverage) of one record through batch_name_vectors."""
    vectors, coverages, include = gathered(table, [first], [last])
    assert include[0] == (coverages[0] != "none")
    return vectors[0], coverages[0]


def test_name_vector_both_found():
    table = make_table({"anna": [1.0, 0.0], "smith": [0.0, 1.0]})
    vector, coverage = one_record(table, "anna", "smith")
    assert coverage == "both-found"
    assert np.array_equal(vector, [0.5, 0.5])


def test_name_vector_single_found():
    table = make_table({"anna": [1.0, 0.0]})
    vector, coverage = one_record(table, "anna", "missing")
    assert coverage == "first-only"
    assert np.array_equal(vector, [1.0, 0.0])
    vector, coverage = one_record(table, None, "anna")
    assert coverage == "last-only"
    assert np.array_equal(vector, [1.0, 0.0])


def test_name_vector_none_found():
    table = make_table({"anna": [1.0, 0.0]})
    vector, coverage = one_record(table, "bob", "jones")
    assert coverage == "none"
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
    reloaded = load_embeddings(path, table.entries)
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
    assert coverages == ["both-found", "none"]
    assert include.tolist() == [True, False]


# ------------------------------------------------- the skip-fast embedding scan

@pytest.fixture(params=[1, 7, 64, SCAN_BLOCK])
def scan_block(request, monkeypatch):
    """The characters per read of the block scan: tiny blocks put block
    edges in every line, the default is what runs."""
    monkeypatch.setattr("nameblind.embeddings.SCAN_BLOCK", request.param)


def assert_matches_split_path(path, allowlist):
    """load_embeddings gives the tokens, order and vector bytes of the
    oracle that splits every line; returns the table."""
    table = load_embeddings(path, allowlist=allowlist)
    dimension, entries = load_embeddings_split(path, allowlist)
    assert table.dimension == dimension
    assert list(table.entries) == list(entries)
    for token, vector in entries.items():
        assert table.entries[token].tobytes() == vector.tobytes()
    return table


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


@pytest.mark.parametrize(
    "blank", ["\t", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"])
def test_skipped_line_with_a_hidden_extra_component_reports_line(tmp_path, blank):
    # as many spaces as a well-formed line, plus one more blank
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\nxx 1 2 3{blank}4\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_embeddings(path, allowlist={"anna"})


@pytest.mark.parametrize("blank", ["\x85", "\xa0", "\u2003", "\u3000"])
def test_skipped_line_with_a_blank_in_its_token_reports_line(tmp_path, scan_block,
                                                             blank):
    # as many spaces as a well-formed line, and a non-ASCII blank that
    # splits the token in two
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\nx{blank}y 1 2 3\n")
    with pytest.raises(EmbeddingFormatError, match="line 3: expected 3"):
        load_embeddings(path, allowlist={"anna"})


@pytest.mark.parametrize("line", [" xx 1 2", "xx 1 2 ", "xx 1  2"])
def test_skipped_line_with_misplaced_spaces_reports_line(tmp_path, scan_block,
                                                         line):
    # as many spaces as a well-formed line, but one field short
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\n{line}\n")
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
    table = assert_matches_split_path(path, {"anna", "smith", "bob", "cara"})
    assert table.dimension == 3
    assert list(table.entries) == ["anna", "smith", "bob", "cara"]


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
    table = assert_matches_split_path(path, set(names[::2]) | {"Name1!", "absent"})
    assert len(table) == 31
    # every line of this layout is checked, so only kept lines are split
    data = path.read_bytes()
    data = data[data.index(b"\n") + 1:]
    assert _checked_lines(data, dim)[2].all()


def scan_lines(newline):
    """The lines of a vector file of dimension 3 that the block scan must
    judge as the split path does: every SEPARATORS layout, blank lines,
    non-ASCII and DEL bytes and a duplicate token, each kept and skipped."""
    lines = ["26 3"]
    for i, separator in enumerate(sorted(SEPARATORS)):
        values = [f"{i}.5", "-0.0", f"1e-{i}"]
        lines += [f"keep{i} " + SEPARATORS[separator](values),
                  f"skip{i} " + SEPARATORS[separator](values)]
    lines += [
        "anna 1 2 3",
        "",
        "   ",
        "\t",
        "skip 4 5 6",
        "\u00e9t\u00e9 0.25 0.5 0.75",  # kept, a non-ASCII token
        "\u00fcber 7 8 9",  # skipped, a non-ASCII token
        "de\x7fl 1 0 1",  # kept, DEL is not a blank
        "zz\x7f 0 1 0",  # skipped
        "skip 1 2 3\x7f",
        "anna 4 5 6",  # the last anna wins
        "cara -1 -2 -3",  # no newline after the last line
    ]
    return newline.join(lines)


SCAN_KEEP = {f"keep{i}" for i in range(len(SEPARATORS))} | {
    "anna", "\u00e9t\u00e9", "de\x7fl", "cara"}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_block_scan_matches_split_path(tmp_path, scan_block, newline):
    path = tmp_path / "vectors.txt"
    path.write_bytes(scan_lines(newline).encode("utf-8"))
    table = assert_matches_split_path(path, SCAN_KEEP)
    assert set(table.entries) == SCAN_KEEP
    assert list(table.entries)[-2:] == ["de\x7fl", "cara"]
    assert table.get("anna").tolist() == [4.0, 5.0, 6.0]
    # the same lines with a malformed one at the end
    path.write_bytes((scan_lines(newline) + newline + "skip 1 2").encode("utf-8"))
    with pytest.raises(EmbeddingFormatError, match="line 26: expected 3"):
        load_embeddings(path, allowlist=SCAN_KEEP)


def limit_line(token, length):
    """A well-formed line of dimension 3, length bytes long."""
    return token + "x" * (length - len(token) - 6) + " 1 2 3"


@pytest.mark.parametrize("length", [65535, 65536, 65537])
def test_lines_at_the_checked_length_limit(tmp_path, scan_block, length):
    # a line of at most 65,535 bytes is checked; a longer one is split
    kept = limit_line("keep", length)
    text = "\n".join(["3 3", kept, limit_line("skip", length), "anna 1 2 3"])
    path = write_vectors(tmp_path, text + "\n")
    token = kept.split()[0]
    table = assert_matches_split_path(path, {token, "anna"})
    assert list(table.entries) == [token, "anna"]
    data = text.split("\n", 1)[1].encode()
    assert _checked_lines(data, 3)[2].tolist() == [length <= 65535] * 2 + [True]


def test_skipped_line_with_a_wrapped_space_count_reports_line(tmp_path,
                                                              scan_block):
    # 65,536 extra spaces: a 16-bit count of them would read 3
    line = "xx" + " 1" * (3 + 65536)
    path = write_vectors(tmp_path, f"2 3\nanna 1 0 0\n{line}\nzed 0 1 0\n")
    with pytest.raises(EmbeddingFormatError, match="line 3: expected 3"):
        load_embeddings(path, allowlist={"anna"})


def test_checked_lines():
    lines = {
        "tok 1 2 3": True,
        "": False,
        "t\x7f 1 2 3": True,
        "t\u00f6k 1 2 3": True,  # non-ASCII bytes are judged by the scan
        "tok 1 2 3\u00a04": True,
        "tok 1 2": False,  # too few spaces
        "tok 1 2 3 4": False,  # too many
        "tok  1 2": False,  # a double space
        " tok 1 2": False,  # a leading space
        "tok 1 2 ": False,  # a trailing space
        "tok 1 2\t3": False,  # a byte below 32
        "t\u00f6k 1\x1f2 3": False,
    }
    for last_newline in ("\n", ""):
        data = ("\n".join(lines) + last_newline).encode()
        starts, ends, checked = _checked_lines(data, 3)
        assert [data[s:e].decode() for s, e in zip(starts, ends)] == list(lines)
        assert checked.tolist() == list(lines.values())


def test_non_ascii_tokens_are_not_split(tmp_path, scan_block, monkeypatch):
    path = write_vectors(tmp_path, (
        "4 3\n"
        "\u00e9t\u00e9 1 2 3\n"  # kept
        "\u00fcber 4 5 6\n"  # skipped unsplit
        "\u65e5\u672c 7 8 9\n"  # skipped unsplit
        "zz 1\u00e9 2 3\n"  # split: a non-ASCII field
    ))
    split = []
    split_line = embeddings._split_line
    monkeypatch.setattr(embeddings, "_split_line",
                        lambda line, *args: split.append(line)
                        or split_line(line, *args))
    table = assert_matches_split_path(path, {"\u00e9t\u00e9", "anna"})
    assert list(table.entries) == ["\u00e9t\u00e9"]
    assert split == ["\u00e9t\u00e9 1 2 3", "zz 1\u00e9 2 3"]


def test_invalid_utf8_in_a_skipped_line_raises(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"2 3\nanna 1 0 0\nzz\xff 1 2 3\n")
    with pytest.raises(UnicodeDecodeError):
        load_embeddings(path, allowlist={"anna"})


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
    assert coverages == want_coverages
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


# ------------------------------------------------------- the vector-file cache

def aged(path, seconds=10):
    """path, with its mtime set seconds into the past: old enough that the
    rows a scan keeps may be cached."""
    then = time.time() - seconds
    os.utime(path, (then, then))
    return path


def cache_entries():
    """The cache's entry files (the tests' XDG_CACHE_HOME, see conftest)."""
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "nameblind").glob("*"))


@pytest.fixture()
def scans(monkeypatch):
    """The number of blocks the vector-file scan has checked so far."""
    calls = []
    checked_lines = embeddings._checked_lines
    monkeypatch.setattr(embeddings, "_checked_lines",
                        lambda *args: calls.append(1) or checked_lines(*args))
    return calls


def no_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("the vector file was scanned")
    monkeypatch.setattr(embeddings, "_checked_lines", scan)


def scan_file(tmp_path):
    """An aged file of scan_lines: duplicate, non-ASCII and skipped tokens."""
    return aged(write_vectors(tmp_path, scan_lines("\n")))


def assert_same_table(table, want):
    assert table.dimension == want.dimension
    assert list(table.entries) == list(want.entries)
    for token, vector in want.entries.items():
        assert table.entries[token].tobytes() == vector.tobytes()


def test_cache_hit_matches_a_cold_scan_and_the_split_path(tmp_path, monkeypatch):
    path = scan_file(tmp_path)
    cold = assert_matches_split_path(path, SCAN_KEEP)
    [entry] = cache_entries()
    with np.load(entry, allow_pickle=False) as data:
        assert sorted(data.files) == ["code", "identity", "inputs", "json",
                                      "source", "vectors"]
        assert str(data["source"]) == str(path.resolve())
        assert str(data["inputs"]) == hashlib.sha256(
            json.dumps(sorted(SCAN_KEEP)).encode()).hexdigest()
        assert json.loads(data["json"].tobytes()) == {
            "dimension": 3, "tokens": list(cold.entries)}
        assert data["vectors"].dtype == np.float64
        assert data["vectors"].shape == (len(SCAN_KEEP), 3)
    no_scan(monkeypatch)
    for _ in range(2):
        assert_same_table(assert_matches_split_path(path, SCAN_KEEP), cold)


def test_cache_lives_under_xdg_cache_home_or_home(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    inputs, other_inputs = "0" * 64, "1" * 64
    entry = Path(cache._cache_file(path, "vectors", inputs))
    assert entry.parent == Path(os.environ["XDG_CACHE_HOME"]) / "nameblind"
    assert entry.name.endswith(".npz")
    # one entry per real path, kind and inputs, whatever the path that
    # names the file
    (tmp_path / "link").symlink_to(tmp_path)
    assert cache._cache_file(tmp_path / "link" / "v.txt", "vectors",
                             inputs) == str(entry)
    assert cache._cache_file(tmp_path / "w.txt", "vectors", inputs) != str(entry)
    assert cache._cache_file(path, "records", inputs) != str(entry)
    assert cache._cache_file(path, "vectors", other_inputs) != str(entry)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for unset in ("", "relative/cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", unset)
        assert Path(cache._cache_file(path, "vectors", inputs)) == (
            tmp_path / "home" / ".cache" / "nameblind" / entry.name)


def test_rewritten_file_misses(tmp_path, scans):
    path = aged(write_vectors(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n"))
    assert load_embeddings(path, {"anna"}).get("anna").tolist() == [1, 0, 0]
    # rewritten in place at the same size: a new mtime
    path.write_text("2 3\nanna 2 0 0\nbob 0 1 0\n", encoding="utf-8")
    aged(path, seconds=20)
    assert load_embeddings(path, {"anna"}).get("anna").tolist() == [2, 0, 0]
    # replaced by another file of the same size and mtime: a new inode
    stat = path.stat()
    other = write_vectors(tmp_path, "2 3\nanna 3 0 0\nbob 0 1 0\n", "other.txt")
    os.utime(other, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    os.replace(other, path)
    scanned = len(scans)
    assert load_embeddings(path, {"anna"}).get("anna").tolist() == [3, 0, 0]
    assert len(scans) > scanned
    assert len(cache_entries()) == 1


def test_a_recent_file_is_never_cached(tmp_path, scans):
    path = write_vectors(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n")
    for _ in range(3):
        assert list(load_embeddings(path, {"anna"}).entries) == ["anna"]
    assert len(scans) == 3
    assert cache_entries() == []
    aged(path, seconds=3)
    load_embeddings(path, {"anna"})
    assert len(cache_entries()) == 1


def test_a_file_changed_during_its_scan_is_never_cached(tmp_path, monkeypatch):
    path = aged(write_vectors(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n"))
    checked_lines = embeddings._checked_lines

    def touch_then_check(*args):
        aged(path, seconds=20)
        return checked_lines(*args)

    monkeypatch.setattr(embeddings, "_checked_lines", touch_then_check)
    assert list(load_embeddings(path, {"anna"}).entries) == ["anna"]
    assert cache_entries() == []


def test_a_nul_token_is_cached_and_served_without_a_scan(tmp_path,
                                                        monkeypatch):
    # a NUL is neither blank nor punctuation, so it stays in the token
    path = aged(write_vectors(tmp_path, "1 3\nab\0 1 0 0\n"))
    assert len(load_embeddings(path, {"ab"})) == 0
    cold = load_embeddings(path, {"ab\0"})
    assert list(cold.entries) == ["ab\0"]
    assert len(cache_entries()) == 2   # one per allowlist
    no_scan(monkeypatch)
    assert_same_table(load_embeddings(path, {"ab\0"}), cold)


@pytest.mark.parametrize("bad_line, message", [
    ("zed 1 2", "line 3: expected 3 components, got 2"),
    ("anna 1 nan 0", "line 3: non-finite vector component"),
])
def test_a_malformed_file_is_never_cached(tmp_path, bad_line, message):
    path = aged(write_vectors(tmp_path, f"2 3\nbob 0 1 0\n{bad_line}\n"))
    for _ in range(3):
        with pytest.raises(EmbeddingFormatError, match=message):
            load_embeddings(path, allowlist={"anna", "bob"})
    assert cache_entries() == []


def test_a_subset_allowlist_rescans_into_an_entry_of_its_own(tmp_path,
                                                             monkeypatch, scans):
    # an entry serves only the normalized allowlist it was written for
    path = scan_file(tmp_path)
    cold = load_embeddings(path, allowlist=SCAN_KEEP)
    scanned = len(scans)
    table = assert_matches_split_path(path, {"Cara.", " ANNA"})
    assert len(scans) > scanned
    assert list(table.entries) == ["anna", "cara"]   # file order
    for token in table.entries:
        assert table.entries[token].tobytes() == cold.entries[token].tobytes()
    assert len(cache_entries()) == 2
    no_scan(monkeypatch)
    assert_same_table(load_embeddings(path, allowlist={"anna", "cara"}), table)
    assert_same_table(load_embeddings(path, allowlist=SCAN_KEEP), cold)


def test_a_superset_allowlist_rescans_into_an_entry_of_its_own(tmp_path,
                                                               monkeypatch,
                                                               scans):
    path = scan_file(tmp_path)
    small = load_embeddings(path, allowlist={"anna"})
    scanned = len(scans)
    table = assert_matches_split_path(path, {"anna", "cara"})
    assert len(scans) > scanned
    assert len(cache_entries()) == 2
    no_scan(monkeypatch)
    assert_same_table(load_embeddings(path, allowlist={"anna", "cara"}), table)
    assert_same_table(load_embeddings(path, allowlist={"anna"}), small)


def test_alternating_allowlists_scan_once_each(tmp_path, scans):
    # two data files that share one vector file: switching between their
    # allowlists rescans neither
    path = scan_file(tmp_path)
    first, second = {"anna", "cara"}, {"keep0", "de\x7fl"}
    scanned = []
    for allowlist in (first, second) * 3:
        before = len(scans)
        load_embeddings(path, allowlist=allowlist)
        scanned.append(len(scans) > before)
    assert scanned == [True, True] + [False] * 4
    assert len(cache_entries()) == 2


def test_allowlists_that_join_alike_are_keyed_apart(tmp_path, scans):
    # "a\0b" is one token, and "\0".join(["a", "b"]) is the same string
    path = aged(write_vectors(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    assert len(load_embeddings(path, allowlist={"a\0b"})) == 0
    assert len(cache_entries()) == 1
    scanned = len(scans)
    assert list(load_embeddings(path, allowlist={"a", "b"}).entries) == ["a", "b"]
    assert len(scans) > scanned


def test_a_truncated_cache_entry_falls_back_to_the_scan(tmp_path, monkeypatch,
                                                        scans):
    path = scan_file(tmp_path)
    cold = load_embeddings(path, allowlist=SCAN_KEEP)
    [entry] = cache_entries()
    data = entry.read_bytes()
    for size in (0, 10, len(data) // 2, len(data) - 1):
        entry.write_bytes(data[:size])
        scanned = len(scans)
        assert_same_table(load_embeddings(path, allowlist=SCAN_KEEP), cold)
        assert len(scans) > scanned
    # the scan wrote the entry anew
    no_scan(monkeypatch)
    assert_same_table(load_embeddings(path, allowlist=SCAN_KEEP), cold)


@pytest.mark.parametrize("vectors", [np.zeros((1, 3), np.float32),
                                     np.zeros((2, 3))],
                         ids=["float32", "a row too many"])
def test_an_entry_of_another_dtype_or_shape_falls_back_to_the_scan(
        tmp_path, scans, vectors):
    path = aged(write_vectors(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n"))

    class Planted:
        def fields(self):
            return {"dimension": 3, "tokens": ["anna"],
                    "vectors": vectors}

    # an entry under the key of load_embeddings(path, {"anna"})
    cache.load(path, "vectors", embeddings.__file__, ["anna"],
               lambda fh: Planted(), EmbeddingTable.from_fields)
    assert len(cache_entries()) == 1 and not scans
    assert load_embeddings(path, {"anna"}).get("anna").tolist() == [1, 0, 0]
    assert scans


def test_an_unwritable_cache_falls_back_to_the_scan(tmp_path, monkeypatch, scans):
    path = scan_file(tmp_path)
    # a cache home that is a regular file: no directory can be made in it
    blocker = write_vectors(tmp_path, "", "not-a-directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    first = assert_matches_split_path(path, SCAN_KEEP)
    scanned = len(scans)
    assert_same_table(assert_matches_split_path(path, SCAN_KEEP), first)
    assert len(scans) == 2 * scanned > 0
    assert blocker.read_bytes() == b""
