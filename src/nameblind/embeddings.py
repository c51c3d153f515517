"""Pretrained word vectors and per-individual name vectors.

Vector files use the common text format: a ``<count> <dimension>`` header
line, then one token followed by ``dimension`` whitespace-separated reals
per line. Tokens are normalized (lowercased, surrounding punctuation
stripped) both on load and on lookup, since pretrained vocabularies are
predominantly lowercase.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from enum import Enum

import numpy as np

_STRIP_CHARS = string.punctuation + string.whitespace


class EmbeddingFormatError(ValueError):
    """A word-vector file does not match the expected text format."""


class Coverage(str, Enum):
    """Which of a record's two name tokens were found in the table."""

    BOTH_FOUND = "both-found"
    FIRST_ONLY = "first-only"
    LAST_ONLY = "last-only"
    NONE = "none"


def normalize_token(token: str) -> str:
    """Lowercase a token and strip surrounding punctuation/whitespace."""
    return token.strip(_STRIP_CHARS).lower()


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> vector map; safe for concurrent reads."""

    dimension: int
    entries: dict[str, np.ndarray]

    def get(self, token: str | None) -> np.ndarray | None:
        """Vector for a token, or None when absent (never a default)."""
        if token is None:
            return None
        key = normalize_token(token)
        if not key:
            return None
        return self.entries.get(key)

    def __contains__(self, token: str) -> bool:
        return self.get(token) is not None

    def __len__(self) -> int:
        return len(self.entries)


# characters per read of the vector-file scan, which then reads on to the
# end of the line. At 32 KB a block's buffers stay under glibc's 128 KB
# mmap threshold while its lines are under 32 KB and mostly ASCII: the
# largest, the space count's uint16 copy of its mask, takes 2 bytes a
# byte of UTF-8. Freeing a larger buffer raises that threshold for the
# rest of the process, which is how 64 KB blocks (10-17% faster) raised
# the peak RSS of the Adult benchmark workload by 0.3 MB and 256 KB blocks
# by 1.5 MB.
SCAN_BLOCK = 1 << 15

# a line of at most this many bytes holds at most as many spaces, so its
# uint16 space count cannot wrap
_MAX_CHECKED_BYTES = (1 << 16) - 1


def _checked_lines(data: bytes, dimension: int):
    """(starts, ends, checked) of the lines of a block of text.

    data is UTF-8 text whose lines end in "\n" (the last may not), as read
    in text mode, so it holds no "\r". Line i is the bytes
    data[starts[i]:ends[i]]. checked[i] is True when that line has no
    control byte (below 32), no leading, trailing or double space, at most
    _MAX_CHECKED_BYTES bytes and exactly dimension spaces. Such a line
    may still hold a non-ASCII blank, at which str.split() also separates
    fields; load_embeddings rules that out before it skips the line.
    Every other line must be split to be judged.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    # the bytes below 32: "\n" and the other controls
    flagged = np.flatnonzero(b < 32)
    newline = b[flagged] == 10
    ends = flagged[newline]
    if b[-1] != 10:
        ends = np.append(ends, len(b))
    starts = np.concatenate(([0], ends[:-1] + 1))
    space = b == 32
    # a segment runs from a line's start to the next line's: the line and
    # its "\n", so none is empty
    counts = np.add.reduceat(space.view(np.uint8), starts, dtype=np.uint16)
    # space[starts] and space[ends - 1] are a line's first and last bytes;
    # an empty line reads a neighbour's, but it has 0 < dimension spaces
    checked = ((counts == dimension) & (ends - starts <= _MAX_CHECKED_BYTES)
               & ~space[starts] & ~space[ends - 1])
    doubles = np.flatnonzero(space[1:] & space[:-1])
    bad = np.concatenate((flagged[~newline], doubles))
    checked[np.searchsorted(ends, bad)] = False
    return starts, ends, checked


def _split_line(line: str, dimension: int, wanted, where: str):
    """(token, vector) of a line to keep, or None for a blank line or one
    whose token is empty or not wanted (every token is, when wanted is
    None). The one parse of a vector line: it raises EmbeddingFormatError,
    prefixed with where, for a line without dimension fields after its
    token and for a kept line with a non-numeric or non-finite one."""
    fields = line.split()
    if not fields:
        return None
    token = normalize_token(fields[0])
    values = fields[1:]
    if len(values) != dimension:
        raise EmbeddingFormatError(
            f"{where}: expected {dimension} components, got {len(values)}")
    if not token or (wanted is not None and token not in wanted):
        return None
    try:
        vector = np.array(values, dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingFormatError(
            f"{where}: non-numeric vector component") from exc
    if not np.isfinite(vector).all():
        raise EmbeddingFormatError(f"{where}: non-finite vector component")
    return token, vector


def load_embeddings(path, allowlist=None) -> EmbeddingTable:
    """Read a word-vector text file into an EmbeddingTable.

    Args:
        path: file whose first line is "<count> <dimension>" and whose
            remaining lines are a token plus `dimension` decimal reals.
        allowlist: optional set of tokens to keep. Full embedding files are
            multi-gigabyte, so callers typically pass the set of name tokens
            present in their dataset. Matching happens on normalized tokens.
            The file is read in blocks of lines, and numpy checks each
            block's lines for their field count (see _checked_lines). A
            checked line with ASCII fields and a printable token that is
            not kept is never split, so the scan costs little more than
            reading the file. Every other line goes through _split_line,
            so a malformed one raises.

    Raises:
        EmbeddingFormatError: malformed header, zero dimension, a line
            whose vector length disagrees with the header, or a kept line
            with a non-numeric or non-finite (nan, inf) component (the
            message reports the offending line number).
    """
    wanted = None
    if allowlist is not None:
        wanted = {normalize_token(t) for t in allowlist}
    entries: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise EmbeddingFormatError(
                f"{path}: line 1: expected '<count> <dimension>' header, got {header!r}"
            )
        try:
            int(parts[0])  # declared count; informational only
            dimension = int(parts[1])
        except ValueError as exc:
            raise EmbeddingFormatError(
                f"{path}: line 1: non-integer header field in {header!r}"
            ) from exc
        if dimension <= 0:
            raise EmbeddingFormatError(
                f"{path}: vector dimension must be positive, got {dimension}"
            )
        line_no = 1
        while block := fh.read(SCAN_BLOCK):
            text = block + fh.readline()
            data = text.encode("utf-8")
            ascii_text = text.isascii()
            starts, ends, checked = _checked_lines(data, dimension)
            for start, end, checked_line in zip(
                    starts.tolist(), ends.tolist(), checked.tolist()):
                line_no += 1
                if checked_line and wanted is not None:
                    space = data.index(b" ", start)
                    token = data[start:space].decode()
                    # a checked line splits at its spaces alone unless a
                    # non-ASCII blank hides in it: none can in ASCII text,
                    # nor in ASCII fields after a printable token
                    # (isprintable is False for every blank but " ")
                    if (ascii_text or (data[space:end].isascii()
                                       and token.isprintable())
                    ) and normalize_token(token) not in wanted:
                        continue
                entry = _split_line(data[start:end].decode(), dimension,
                                    wanted, f"{path}: line {line_no}")
                if entry is not None:
                    entries[entry[0]] = entry[1]
    return EmbeddingTable(dimension=dimension, entries=entries)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the table back in the same text format (exact round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.entries)} {table.dimension}\n")
        for token, vector in table.entries.items():
            values = " ".join(repr(float(v)) for v in vector)
            fh.write(f"{token} {values}\n")


_COVERAGES = (Coverage.NONE, Coverage.LAST_ONLY, Coverage.FIRST_ONLY,
              Coverage.BOTH_FOUND)


@dataclass(frozen=True)
class NameTable:
    """Per-record name vectors, stored once per distinct found name.

    vectors holds one row per distinct name found in the embedding table,
    then a zero row; first and last give each record's first- and
    last-name row, -1 (the zero row) when the name was not found, and
    include is True where either was. Memory is O(distinct names x
    dimension + records): no per-record matrix is kept, and take gathers
    the records' vectors for k-means (losses.CoclTable reads the rows).
    """

    vectors: np.ndarray   # (found names + 1, dimension) float64
    first: np.ndarray     # (n,) intp
    last: np.ndarray      # (n,) intp
    include: np.ndarray   # (n,) bool

    def __len__(self) -> int:
        return len(self.first)

    def take(self, rows) -> np.ndarray:
        """The (len(rows), dimension) name vectors of records[rows]: the
        mean 0.5 * (first + last) where both names were found, the one
        found vector, or zeros."""
        first, last = self.first[rows], self.last[rows]
        out = self.vectors[np.where(first >= 0, first, last)]
        both = (first >= 0) & (last >= 0)
        out[both] = 0.5 * (out[both] + self.vectors[last[both]])
        return out

    def coverages(self) -> list[Coverage]:
        """Which of each record's two names were found."""
        codes = 2 * (self.first >= 0) + (self.last >= 0)
        return [_COVERAGES[c] for c in codes.tolist()]


def batch_name_vectors(table, first_names, last_names) -> NameTable:
    """The NameTable of records given by aligned lists of first/last names.

    Both names found: elementwise mean of the two vectors. Exactly one
    found: that vector unchanged. Neither found: zero vector with coverage
    "none" -- such records are excluded from penalty statistics rather than
    given a made-up vector, which would add noise to the very quantity
    being constrained. Each distinct name is looked up once and each found
    one's vector is stored once.
    """
    if len(first_names) != len(last_names):
        raise ValueError("first_names and last_names must have equal length")
    row: dict[str | None, int] = {}   # name -> row of found, -1 when absent
    found = []
    for name in dict.fromkeys(itertools.chain(first_names, last_names)):
        vector = table.get(name)
        row[name] = -1 if vector is None else len(found)
        if vector is not None:
            found.append(vector)
    found.append(np.zeros(table.dimension))  # row -1: neither name found
    n = len(first_names)
    first = np.fromiter(map(row.__getitem__, first_names), np.intp, n)
    last = np.fromiter(map(row.__getitem__, last_names), np.intp, n)
    return NameTable(np.vstack(found), first, last, (first >= 0) | (last >= 0))

