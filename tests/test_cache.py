"""The input caches: records entries of parse_tabular and parse_text, and
the rules every entry keeps (nameblind.cache)."""

import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nameblind import cache, data, embeddings
from nameblind.clustering import kmeans
from nameblind.data import (
    TabularRecords,
    TabularSchema,
    TextRecords,
    TokenizedDocuments,
    parse_tabular,
    parse_text,
)
from nameblind.embeddings import EmbeddingTable, load_embeddings
from nameblind.metrics import GroupAttribute

SCHEMA_TEXT = """
age continuous
color categorical
sex categorical group=F
income label
junk ignore
first first_name
last last_name
"""

CSV_TEXT = """age,color,sex,income,junk,first,last
17,red,F,low,x,anna,smith
90,blue,M,high,x,,jones
30,red,,low,x,cara,
100,green,M,high,x,dan,wu
"""

TEXT_RECORDS = ("nurse\tAnna\tSmith\tShe (she/her) is a nurse; Anna cares.\n"
                "chef\t\tJones\tHe cooks for his town.\n"
                "nurse\tCara\t \tA nurse, she helps.\n")


def aged(path, seconds=10):
    """path, with its mtime set seconds into the past: old enough that
    its parse may be cached."""
    then = time.time() - seconds
    os.utime(path, (then, then))
    return path


def entries(kind="records"):
    """The cache's entry files of kind (the tests' XDG_CACHE_HOME, see
    conftest)."""
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "nameblind")
                  .glob(f"{kind}-*.npz"))


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def parse_csv(path, schema_text=SCHEMA_TEXT):
    return parse_tabular(path, TabularSchema.parse(schema_text))


def snapshot(records):
    """Every field of records (or of a vector table), each array as its
    dtype, shape and bytes."""
    return {name: (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else value
            for name, value in records.fields().items()}


CASES = {
    "tabular": (CSV_TEXT, "data.csv", parse_csv),
    "text": (TEXT_RECORDS, "bios.tsv", parse_text),
    "scrubbed text": (TEXT_RECORDS, "bios.tsv",
                      lambda path: parse_text(path, scrub_names=True)),
}


@pytest.mark.parametrize("case", CASES)
def test_a_hit_matches_a_cold_parse(tmp_path, count_parses, case):
    text, name, parse = CASES[case]
    path = aged(write(tmp_path, text, name))
    cold = parse(path)
    [entry] = entries()
    with np.load(entry, allow_pickle=False) as fields:
        assert str(fields["source"]) == str(path.resolve())
        assert len(str(fields["code"])) == 64
    for _ in range(2):
        assert snapshot(parse(path)) == snapshot(cold)
    assert len(count_parses) == 1
    assert entries() == [entry]


# None, the empty string, and strings that JSON escapes or encodes as more
# than one byte or code unit: a NUL, a quote, a backslash, a newline,
# non-ASCII, astral and a lone surrogate
ODD_NAMES = [None, "", "\0", "a\0b", '"', "\\", "\n", "Zoë", "\U0001d49c",
             "\ud800"]


def hand_built(kind):
    """Records or a vector table of kind holding every one of ODD_NAMES,
    and the function that decodes it from a cache entry's fields."""
    n = len(ODD_NAMES)
    tokens = ODD_NAMES[1:]
    if kind == "text":
        documents = TokenizedDocuments.from_token_lists(
            [[token] for token in tokens] + [[]])
        return TextRecords(np.arange(n) % 2, ["\0", "Zoë"], ODD_NAMES,
                           ODD_NAMES[::-1], documents), TextRecords.from_fields
    if kind == "tabular":
        columns = [data._FeatureColumn("\n", np.linspace(0.0, 1.0, n)),
                   data._FeatureColumn("\ud800", np.arange(n) % 3,
                                       ['"', "\\", "\U0001d49c"])]
        attributes = [GroupAttribute("\0", "Zoë", "", np.arange(n) % 3 - 1)]
        records = TabularRecords(columns, np.arange(n) % 2, ["", "\n"],
                                 ODD_NAMES, ODD_NAMES[::-1], attributes)
        return records, TabularRecords.from_fields
    table = EmbeddingTable(3, {token: np.array([i, -0.0, 1e-300])
                               for i, token in enumerate(tokens)})
    return table, EmbeddingTable.from_fields


@pytest.mark.parametrize("kind", ["text", "tabular", "vectors"])
def test_hand_built_values_round_trip_exactly(tmp_path, kind):
    path = aged(write(tmp_path, "unread", "input.txt"))
    value, decode = hand_built(kind)
    module = embeddings if kind == "vectors" else data

    def load(parse):
        return cache.load(path, "vectors" if kind == "vectors" else "records",
                          module.__file__, kind, parse, decode)

    def no_parse(fh):
        raise AssertionError("parsed")

    assert load(lambda fh: value) is value
    read = load(no_parse)
    assert read is not value
    assert snapshot(read) == snapshot(value)


def rewrite_in_place(path):
    path.write_text(path.read_text(encoding="utf-8").replace("low", "mid"),
                    encoding="utf-8")
    aged(path, seconds=20)


@pytest.mark.parametrize("change", ["schema", "rewritten file"])
def test_tabular_misses(tmp_path, count_parses, change):
    path = aged(write(tmp_path, CSV_TEXT, "data.csv"))
    parse_csv(path)
    if change == "schema":
        # one group value more: the same columns and roles
        records = parse_csv(path, SCHEMA_TEXT.replace("color categorical",
                                                      "color categorical group=red"))
        assert [a.name for a in records.attributes] == ["color", "sex"]
    else:
        rewrite_in_place(path)
        assert parse_csv(path).class_names == ["high", "mid"]
    assert len(count_parses) == 2
    # another schema has an entry of its own; a rewritten file's replaces
    # the stale one
    assert len(entries()) == (2 if change == "schema" else 1)


def test_toggling_scrub_misses(tmp_path, count_parses):
    path = aged(write(tmp_path, TEXT_RECORDS, "bios.tsv"))
    plain = parse_text(path)
    scrubbed = parse_text(path, scrub_names=True)
    assert "she" in plain.documents.tokens
    assert "she" not in scrubbed.documents.tokens
    assert len(count_parses) == 2
    # each setting keeps an entry of its own: toggling back is a hit
    assert snapshot(parse_text(path)) == snapshot(plain)
    assert snapshot(parse_text(path, scrub_names=True)) == snapshot(scrubbed)
    assert len(count_parses) == 2
    assert len(entries()) == 2


@pytest.mark.parametrize("case", ["tabular", "text"])
def test_a_recent_file_is_never_cached(tmp_path, count_parses, case):
    text, name, parse = CASES[case]
    path = write(tmp_path, text, name)
    for _ in range(3):
        parse(path)
    assert len(count_parses) == 3
    assert entries() == []
    aged(path, seconds=3)
    parse(path)
    assert len(entries()) == 1


@pytest.mark.parametrize("case, bad, message", [
    ("tabular", "oops,red,F,low,x,eve,li\n", "row 6, column 'age'"),
    ("text", "nurse\tEve\n", "line 4: expected 4 tab-separated fields"),
])
def test_a_malformed_file_is_never_cached(tmp_path, count_parses, case, bad,
                                         message):
    text, name, parse = CASES[case]
    path = aged(write(tmp_path, text + bad, name))
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            parse(path)
    assert len(count_parses) == 2
    assert entries() == []


@pytest.mark.parametrize("case", ["tabular", "text"])
def test_a_truncated_entry_falls_back_to_the_parse(tmp_path, count_parses, case):
    text, name, parse = CASES[case]
    path = aged(write(tmp_path, text, name))
    cold = snapshot(parse(path))
    [entry] = entries()
    whole = entry.read_bytes()
    # and an entry whole but for its JSON document, cut short
    with np.load(entry, allow_pickle=False) as fields:
        members = {name: fields[name] for name in fields.files}
    members["json"] = members["json"][:-1]
    damaged = io.BytesIO()
    np.savez(damaged, **members)
    for content in [whole[:size] for size in (0, 10, len(whole) // 2,
                                              len(whole) - 1)] + [damaged.getvalue()]:
        entry.write_bytes(content)
        parsed = len(count_parses)
        assert snapshot(parse(path)) == cold
        assert len(count_parses) == parsed + 1
        # the parse wrote the entry anew
        assert snapshot(parse(path)) == cold
        assert len(count_parses) == parsed + 1


def assert_other_code_misses(tmp_path, count_parses, monkeypatch, change_code):
    """An entry of each kind is a miss after change_code(), then is
    rewritten under the new digest and hit."""
    records = aged(write(tmp_path, CSV_TEXT, "data.csv"))
    vectors = aged(write(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n", "v.txt"))
    parse_csv(records)
    load_embeddings(vectors, {"anna"})
    change_code()
    scans = []
    checked_lines = embeddings._checked_lines
    monkeypatch.setattr(embeddings, "_checked_lines",
                        lambda *args: scans.append(1) or checked_lines(*args))
    parse_csv(records)
    assert list(load_embeddings(vectors, {"anna"}).entries) == ["anna"]
    assert len(count_parses) == 2 and scans
    # and the entries are rewritten under the new digest
    scanned = len(scans)
    parse_csv(records)
    load_embeddings(vectors, {"anna"})
    assert len(count_parses) == 2 and len(scans) == scanned


def test_an_entry_of_other_code_misses(tmp_path, count_parses, monkeypatch):
    code = cache._code_digest
    assert_other_code_misses(tmp_path, count_parses, monkeypatch, lambda: (
        monkeypatch.setattr(cache, "_code_digest",
                            lambda module: "other " + code(module))))


def test_an_entry_of_another_cache_module_misses(tmp_path, count_parses,
                                                monkeypatch):
    # the code digest covers cache.py, which lays entries out, as well as
    # the module that parsed the file: an edit to either is a miss
    edited = tmp_path / "cache.py"
    edited.write_text(Path(cache.__file__).read_text(encoding="utf-8")
                      + "# another layout\n", encoding="utf-8")
    assert_other_code_misses(tmp_path, count_parses, monkeypatch, lambda: (
        monkeypatch.setattr(cache, "__file__", str(edited))))


def test_a_write_evicts_the_entries_of_deleted_files(tmp_path):
    gone = aged(write(tmp_path, CSV_TEXT, "gone.csv"))
    kept = aged(write(tmp_path, TEXT_RECORDS, "kept.tsv"))
    vectors = aged(write(tmp_path, "1 3\nanna 1 0 0\n", "v.txt"))
    parse_csv(gone)
    parse_text(kept)
    load_embeddings(vectors, {"anna"})
    assert len(entries()) == 2 and len(entries("vectors")) == 1
    gone.unlink()
    vectors.unlink()
    # an entry without a source, as an earlier layout wrote
    directory = entries()[0].parent
    np.savez(directory / "0123.npz", vectors=np.zeros(3))
    # reading evicts nothing
    parse_text(kept)
    assert len(entries()) == 2 and len(entries("vectors")) == 1
    fresh = aged(write(tmp_path, CSV_TEXT, "new.csv"))
    parse_csv(fresh)
    sources = []
    for entry in directory.iterdir():
        with np.load(entry, allow_pickle=False) as fields:
            sources.append(str(fields["source"]))
    assert sorted(sources) == sorted(str(p.resolve()) for p in (kept, fresh))


def test_a_write_evicts_the_entries_of_a_changed_file(tmp_path):
    vectors = aged(write(tmp_path, "2 3\nanna 1 0 0\nbob 0 1 0\n", "v.txt"))
    load_embeddings(vectors, {"anna"})
    load_embeddings(vectors, {"bob"})
    # an entry of compute names no file: no write evicts it
    kmeans(np.array([[0.0, 0.0], [1.0, 1.0]]), k=2, seed=0)
    assert len(entries("vectors")) == 2 and len(entries("kmeans")) == 1
    vectors.write_text("2 3\nanna 0 0 1\nbob 0 1 0\n", encoding="utf-8")
    aged(vectors, seconds=20)
    assert load_embeddings(vectors, {"anna"}).get("anna").tolist() == [0, 0, 1]
    # the {"bob"} entry of the old file can never hit again
    [entry] = entries("vectors")
    with np.load(entry, allow_pickle=False) as fields:
        assert json.loads(fields["json"].tobytes())["tokens"] == ["anna"]
    assert len(entries("kmeans")) == 1
