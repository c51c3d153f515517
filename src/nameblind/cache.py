"""Per-user caches of parsed input files.

A parse of a vector file (embeddings.load_embeddings) or of a records file
(data.parse_tabular, data.parse_text) keeps its result in one ``.npz``
entry per file real path and kind, under ``$XDG_CACHE_HOME/nameblind/``
(``~/.cache/nameblind/`` when that is unset or relative), so a later
command over the unchanged file skips the parse.

Beside the parse's arrays an entry holds its key: the layout of these
fields, the file's real path, a digest of the source of the module that
parsed it, the file's size, mtime, inode and device, and the parse's
other inputs. An entry is served only while its whole key matches, so one
written by other code, for another file or for other inputs is a miss.

An entry is written whole or not at all (a temporary file, then
os.replace) and holds no pickles. It is written only after a parse that
raised nothing, of a file whose identity did not change during the parse
and that was last modified at least 2 s before it started. Any failure to
read an entry is a miss, and any failure to write one leaves the cache as
it was. Each write first deletes the entries whose file no longer exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import time

import numpy as np

# the layout of an entry's key and string fields; another layout is a miss
_FORMAT = "nameblind-cache-2"

# git's racy-clean rule: a file modified less than this long before a parse
# started may be rewritten again within one timestamp granule, keeping its
# size and mtime, so its parse is never cached
_RACY_NS = 2_000_000_000


def _cache_file(path, kind: str) -> str:
    """The kind ("vectors" or "records") of entry of the file at path: one
    per real path, under $XDG_CACHE_HOME/nameblind/ (~/.cache/nameblind/
    when that is unset or relative)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    key = hashlib.sha256(os.fsencode(os.path.realpath(path))).hexdigest()
    return os.path.join(base, "nameblind", f"{kind}-{key}.npz")


def _identity(stat) -> str:
    """The size, mtime, inode and device of a file: an entry is served
    only while all four match."""
    return f"{stat.st_size} {stat.st_mtime_ns} {stat.st_ino} {stat.st_dev}"


def _code_digest(module_file) -> str | None:
    """sha256 of the module file that parses an input, or None when it
    cannot be read (then nothing is cached)."""
    try:
        with open(module_file, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _pack(strings: list[str]) -> np.ndarray | None:
    """strings as the UTF-8 bytes of each one followed by a NUL, or None
    when one holds a NUL or cannot be encoded, so would not read back."""
    joined = "".join(s + "\0" for s in strings)
    if joined.count("\0") != len(strings):
        return None
    try:
        return np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None


def _unpack(packed: np.ndarray) -> list[str]:
    return packed.tobytes().decode("utf-8").split("\0")[:-1]


def _evict_dead(directory: str) -> None:
    """Delete the entries in directory whose file no longer exists, or
    that name none (a damaged entry, or one of an earlier layout)."""
    for name in os.listdir(directory):
        if not name.endswith(".npz"):
            continue
        entry = os.path.join(directory, name)
        try:
            with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                source = str(data["source"])
        except Exception:
            source = None
        if source is None or not os.path.exists(source):
            with contextlib.suppress(OSError):
                os.unlink(entry)


class Entry:
    """The cache entry of the input file at path, open as fh.

    kind names what the entry holds ("vectors" or "records"), producer is
    the __file__ of the module that parses the file, and inputs describes
    the parse's other inputs. Make the Entry before the parse reads fh.
    """

    def __init__(self, path, fh, kind: str, producer, inputs: str = ""):
        self.file = _cache_file(path, kind)
        self.started_ns = time.time_ns()
        stat = os.fstat(fh.fileno())
        self.mtime_ns = stat.st_mtime_ns
        self.key = {
            "format": _FORMAT,
            "source": os.path.realpath(path),
            "code": _code_digest(producer),
            "identity": _identity(stat),
            "inputs": inputs,
        }

    def read(self, decode):
        """decode(fields) of the entry's fields (arrays by name, and lists
        of str for the fields written as such), or None when the entry is
        missing, damaged or of another key."""
        if self.key["code"] is None:
            return None
        try:
            with open(self.file, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                fields = {name: data[name] for name in data.files}
            key = {name: str(fields.pop(name)) for name in self.key if name in fields}
            if key != self.key:
                return None
            for name in str(fields.pop("strings")).split():
                fields[name] = _unpack(fields[name])
        except Exception:
            # a damaged entry fails in any of zipfile's, numpy's or UTF-8's
            # ways (a bad CRC, an unknown compression method, a short
            # member): a miss
            return None
        return decode(fields)

    def write(self, fh, fields: dict) -> None:
        """Replace the entry with fields, each an array or a list of str.

        Nothing is written when the file open as fh changed since the
        Entry was made or was modified under 2 s before that, or when a
        string holds a NUL or cannot be encoded; a cache that cannot be
        written is left as it is.
        """
        if (self.key["code"] is None
                or _identity(os.fstat(fh.fileno())) != self.key["identity"]
                or self.mtime_ns > self.started_ns - _RACY_NS):
            return
        arrays = {name: np.array(value) for name, value in self.key.items()}
        strings = [name for name, value in fields.items() if isinstance(value, list)]
        arrays["strings"] = np.array(" ".join(strings))
        for name, value in fields.items():
            arrays[name] = _pack(value) if name in strings else value
            if arrays[name] is None:
                return
        directory = os.path.dirname(self.file)
        try:
            os.makedirs(directory, exist_ok=True)
            _evict_dead(directory)
            fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=directory)
            try:
                with os.fdopen(fd, "wb") as out:
                    np.savez(out, allow_pickle=False, **arrays)
                os.replace(tmp, self.file)
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
        except OSError:
            pass
