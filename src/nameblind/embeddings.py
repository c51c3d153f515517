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


# the ASCII characters other than " " at which str.split() separates fields
# and that a line read in text mode can hold (it ends at \n or \r)
_OTHER_ASCII_BLANKS = "\t\v\f\x1c\x1d\x1e\x1f"


def _skippable(body: str, dimension: int, wanted) -> bool:
    """True when body.split() is a token outside wanted plus dimension fields.

    body is a line with no trailing whitespace. The proof uses C-level
    string scans, not a split: a line whose only whitespace is single
    spaces, none leading, splits at exactly its spaces. (An ASCII line is
    searched for the few other ASCII blanks; any other line must be
    printable, which excludes every whitespace character but " ".) When
    the proof fails the caller splits the line, so a line of the wrong
    length still raises.
    """
    space = body.find(" ")
    if space < 0 or normalize_token(body[:space]) in wanted:
        return False
    if body.count(" ") != dimension or space == 0 or "  " in body:
        return False
    if body.isascii():
        return not any(map(body.__contains__, _OTHER_ASCII_BLANKS))
    return body.isprintable()


def load_embeddings(path, allowlist=None) -> EmbeddingTable:
    """Read a word-vector text file into an EmbeddingTable.

    Args:
        path: file whose first line is "<count> <dimension>" and whose
            remaining lines are a token plus `dimension` decimal reals.
        allowlist: optional set of tokens to keep. Full embedding files are
            multi-gigabyte, so callers typically pass the set of name tokens
            present in their dataset. Matching happens on normalized tokens.
            A line whose token is not kept is checked for its field count
            without being split (see _skippable), so the scan costs little
            more than reading the file.

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
    with open(path, encoding="utf-8") as fh:
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
        for line_no, line in enumerate(fh, start=2):
            body = line.rstrip()
            if not body or (wanted is not None
                            and _skippable(body, dimension, wanted)):
                continue
            fields = body.split()
            token = normalize_token(fields[0])
            values = fields[1:]
            if len(values) != dimension:
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: expected {dimension} components, "
                    f"got {len(values)}"
                )
            if not token or (wanted is not None and token not in wanted):
                continue
            try:
                vector = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: non-numeric vector component"
                ) from exc
            if not np.isfinite(vector).all():
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: non-finite vector component"
                )
            entries[token] = vector
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
    the records' vectors when they are read.
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


def collect_name_tokens(first_names, last_names) -> set[str]:
    """Normalized, non-empty name tokens -- the natural load allowlist."""
    tokens = set()
    for name in list(first_names) + list(last_names):
        if name is None:
            continue
        token = normalize_token(name)
        if token:
            tokens.add(token)
    return tokens
