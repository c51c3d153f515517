"""Per-user caches of parsed input files and of k-means fits.

load serves the parse of a vector file (embeddings.load_embeddings) or of a
records file (data.parse_tabular, data.parse_text) from one ``.npz`` entry
per file real path, kind and parse inputs (an allowlist, a schema, a
--scrub setting), under ``$XDG_CACHE_HOME/nameblind/``
(``~/.cache/nameblind/`` when that is unset or relative), so a later
command over the unchanged file with the same inputs skips the parse.
compute serves a result that depends on its inputs alone, named by
content rather than by a file (clustering.kmeans: a digest of the points,
k, the seed and every constant the fit reads), from one entry per kind
and inputs in the same directory.

An entry's key is the file's real path, a digest of the source of this
module and of the module that parsed the file, the file's size, mtime,
inode and device, and a digest of the parse's other inputs; an entry of
compute has an empty path and identity. decode runs only on the fields
of an entry whose whole key matched: any other entry, or one that cannot
be read or decoded, is a miss.

An entry holds its key as four 0-d string members, each array field as a
member of its own and every other field in one json.dumps document. It
is written whole or not at all (a temporary file, then os.replace),
holds no pickles, and is written only after a parse or computation that
raised nothing; a parse's only for a file whose identity did not change
during the parse and that was last modified at least 2 s before it
started. A cache that cannot be written is left as it was. Each write
first deletes the entries of a file that no longer exists or whose size,
mtime, inode or device changed since the entry was written.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time

import numpy as np

# git's racy-clean rule: a file modified less than this long before a parse
# started may be rewritten again within one timestamp granule, keeping its
# size and mtime, so its parse is never cached
_RACY_NS = 2_000_000_000


def _cache_dir() -> str:
    """$XDG_CACHE_HOME/nameblind (~/.cache/nameblind when that is unset or
    relative)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "nameblind")


def _cache_file(path, kind: str, inputs: str) -> str:
    """The kind ("vectors" or "records") of entry of the file at path and
    the inputs digest inputs (of fixed length), under _cache_dir()."""
    key = hashlib.sha256(os.fsencode(os.path.realpath(path))
                         + inputs.encode()).hexdigest()
    return os.path.join(_cache_dir(), f"{kind}-{key}.npz")


def _identity(stat) -> str:
    """The size, mtime, inode and device of a file: an entry is served
    only while all four match."""
    return f"{stat.st_size} {stat.st_mtime_ns} {stat.st_ino} {stat.st_dev}"


def _code_digest(producer) -> str | None:
    """sha256 of the digests of this module's source, which lays entries
    out, and of the producer module's, which parses an input; None when
    either cannot be read (then nothing is cached)."""
    digest = hashlib.sha256()
    try:
        for module_file in (__file__, producer):
            with open(module_file, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    except OSError:
        return None
    return digest.hexdigest()


def _evict_dead(directory: str) -> None:
    """Delete the entries in directory whose file no longer exists or has
    another identity than the entry recorded, or that name none (a damaged
    entry, or one of an earlier layout). An entry of compute (its source
    is "") is kept: it depends on no file."""
    for name in os.listdir(directory):
        if not name.endswith(".npz"):
            continue
        entry = os.path.join(directory, name)
        try:
            with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                source, identity = str(data["source"]), str(data["identity"])
            live = source == "" or _identity(os.stat(source)) == identity
        except Exception:
            live = False   # damaged, of an earlier layout, or its file is gone
        if not live:
            with contextlib.suppress(OSError):
                os.unlink(entry)


def _read(file: str, key: dict, decode):
    """decode(fields) of the entry file's fields (its arrays by name, and
    the values of its JSON document) when its key equals key, else None."""
    try:
        with open(file, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if any(str(data[name]) != value for name, value in key.items()):
                return None
            fields = {name: data[name] for name in data.files if name not in key}
        fields.update(json.loads(fields.pop("json").tobytes()))
        return decode(fields)
    except Exception:
        # a missing or damaged entry fails in any of zipfile's, numpy's or
        # json's ways (a bad CRC, an unknown compression method, a short
        # member), and a field of the wrong shape in decode's: a miss
        return None


def _write(file: str, key: dict, fields: dict) -> None:
    """Replace the entry file with key and fields, arrays and values
    json.dumps takes (it escapes a NUL or a lone surrogate, so every
    string reads back exactly); a cache that cannot be written is left as
    it is."""
    arrays = {name: np.array(value) for name, value in key.items()}
    document = {}
    for name, value in fields.items():
        (arrays if isinstance(value, np.ndarray) else document)[name] = value
    arrays["json"] = np.frombuffer(json.dumps(document).encode(), np.uint8)
    directory = os.path.dirname(file)
    try:
        os.makedirs(directory, exist_ok=True)
        _evict_dead(directory)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
        try:
            with os.fdopen(fd, "wb") as out:
                np.savez(out, allow_pickle=False, **arrays)
            os.replace(tmp, file)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError:
        pass


def load(path, kind: str, producer, inputs, parse, decode, **open_args):
    """The parse of the input file at path, opened as fh with encoding
    "utf-8-sig" and open_args: decode(fields) of its cache entry when the
    entry's whole key matches, else parse(fh), whose fields() (numpy
    arrays, and values json.dumps takes, by name) then replace the entry.

    kind names what the entry holds ("vectors" or "records"), producer is
    the __file__ of the module that parses the file, and inputs, any value
    json.dumps takes, are the parse's other inputs: each inputs has an
    entry of its own, which serves only a load with equal inputs.
    """
    with open(path, encoding="utf-8-sig", **open_args) as fh:
        started_ns = time.time_ns()
        stat = os.fstat(fh.fileno())
        key = {"source": os.path.realpath(path), "code": _code_digest(producer),
               "identity": _identity(stat),
               "inputs": hashlib.sha256(json.dumps(inputs).encode()).hexdigest()}
        file = _cache_file(path, kind, key["inputs"])
        result = _read(file, key, decode)   # a miss when code is None
        if result is None:
            result = parse(fh)
            if (key["code"] is not None
                    and _identity(os.fstat(fh.fileno())) == key["identity"]
                    and stat.st_mtime_ns <= started_ns - _RACY_NS):
                _write(file, key, result.fields())
    return result


def compute(kind: str, producer, inputs, run, decode):
    """run()'s result: decode(fields) of the cache entry of kind and
    inputs when the entry's whole key matches, else run(), whose
    fields() (numpy arrays, and values json.dumps takes, by name) then
    replace the entry.

    For a result that depends on its inputs alone, never on a file: kind
    names what the entry holds ("kmeans"), producer is the __file__ of the
    module that computes it, and inputs, any value json.dumps takes, must
    name everything run() reads. The entry names no file (its source
    and identity are ""), so no write evicts it.
    """
    key = {"source": "", "code": _code_digest(producer), "identity": "",
           "inputs": hashlib.sha256(json.dumps(inputs).encode()).hexdigest()}
    file = os.path.join(_cache_dir(), f"{kind}-{key['inputs']}.npz")
    result = _read(file, key, decode)   # a miss when code is None
    if result is None:
        result = run()
        if key["code"] is not None:
            _write(file, key, result.fields())
    return result
