"""Dataset ingestion and preprocessing.

Two input shapes are supported: tabular CSV (continuous columns min-max
scaled to [0,1], categorical columns expanded to binary indicators) and
text records (binary bag-of-words with frequency-based vocabulary
pruning). Group attributes used for bias evaluation live in a sidecar
structure and are never joined into the feature matrix.
"""

from __future__ import annotations

import array
import collections
import csv
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .embeddings import normalize_token
from .metrics import GroupAttribute, GroupLabels

log = logging.getLogger(__name__)

ROLES = ("continuous", "categorical", "label", "ignore", "first_name",
         "last_name", "group")

PRONOUNS = frozenset(
    ["he", "she", "her", "his", "him", "hers", "himself", "herself",
     "mr", "mrs", "ms"]
)

# byte -> itself for the token bytes [a-z0-9'], a space for every other
# byte. A non-ASCII character encodes to bytes >= 0x80 in UTF-8, so it
# separates tokens like any other character outside [a-z0-9'].
_TOKEN_BYTES = bytes(
    b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789'" else 0x20
    for b in range(256)
)

# documents per block when text is parsed (deduplicated per sort in
# TokenizedDocuments.from_token_lists) and when a vocabulary is counted
# (TokenizedDocuments.fit_vocabulary), which bounds either step's
# temporaries to one block's entries
DEDUPE_DOCS = 1024


def _entries_of(indptr, rows):
    """Positions of the entries of CSR rows (nonnegative int64), in row order,
    and each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    take = np.arange(counts.sum()) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts
    )
    return take, counts


class BinaryRows:
    """Binary feature rows stored as CSR column-index lists.

    Row i holds 1.0 at columns indices[indptr[i]:indptr[i + 1]] and 0.0
    elsewhere, so memory is O(nonzeros) rather than rows x columns.
    ``rows.take(selection, axis=0)`` (a slice or a 1-d array of row
    indices) returns the selected rows as a BinaryRows, and ``X @ M`` and
    ``A @ X`` multiply straight from the index lists, so training and
    prediction never build a dense block. ``rows[selection]`` returns the
    selected rows as a dense float64 block. ``np.asarray(rows)`` raises
    TypeError rather than densify every row, which at the paper's Bios
    shape would allocate 64 GB.
    """

    ndim = 2
    # numpy hands ``ndarray @ BinaryRows`` to __rmatmul__
    __array_ufunc__ = None

    def __init__(self, indptr, indices, num_columns: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.num_columns = int(num_columns)
        if (self.indptr.ndim != 1 or self.indices.ndim != 1
                or len(self.indptr) == 0 or self.indptr[0] != 0
                or self.indptr[-1] != len(self.indices)
                or np.any(np.diff(self.indptr) < 0)):
            raise ValueError("indptr must rise from 0 to len(indices)")
        if len(self.indices) and not (
            0 <= self.indices.min() and self.indices.max() < self.num_columns
        ):
            raise ValueError("column indices out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.num_columns

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows, axis=0) -> "BinaryRows":
        """The rows at a slice or 1-d integer array of row indices, in
        that order, as a BinaryRows (rows only, as ndarray.take(rows,
        axis=0))."""
        if axis != 0:
            raise ValueError("BinaryRows.take selects rows (axis=0) only")
        n = len(self)
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(n))
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise TypeError("select rows with a slice or a 1-d integer array")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"row index out of range for {n} rows")
        take, counts = _entries_of(self.indptr, rows.astype(np.int64, copy=False))
        return BinaryRows(np.concatenate(([0], np.cumsum(counts))),
                          self.indices[take], self.num_columns)

    def __getitem__(self, rows) -> np.ndarray:
        selected = self.take(rows)
        block = np.zeros(selected.shape)
        block[selected._entry_rows(), selected.indices] = 1.0
        return block

    def __array__(self, dtype=None, copy=None):
        raise TypeError(
            f"a dense copy of {self.shape[0]} x {self.shape[1]} binary rows "
            f"would allocate {8 * self.shape[0] * self.shape[1]:,} bytes; "
            "multiply with @ or take rows[selection]")

    def _entry_rows(self) -> np.ndarray:
        """The row of each entry of indices."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def __matmul__(self, other) -> np.ndarray:
        """X @ M for a (num_columns, m) array M, or for a stack (L,
        num_columns, m) of L such arrays, one product per slice.

        Row i is the sum of M's rows at row i's columns, added in column
        order, so it does not depend on which other rows are selected
        with it; a row without entries gives exactly 0.
        """
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (2, 3) or other.shape[-2] != self.num_columns:
            raise ValueError(f"cannot multiply {self.shape} rows by an array "
                             f"of shape {other.shape}")
        stack = other if other.ndim == 3 else other[None]
        out = np.zeros((len(stack), len(self), other.shape[-1]))
        starts = self.indptr[:-1]
        # reduceat gives the element at the start for an empty segment (and
        # rejects a start equal to the length), so only rows with entries
        # go through it; each segment then runs to the next such row
        filled = starts < self.indptr[1:]
        if filled.any():
            for block, matrix in zip(out, stack):
                block[filled] = np.add.reduceat(
                    np.take(matrix, self.indices, axis=0), starts[filled],
                    axis=0)
        return out if other.ndim == 3 else out[0]

    def __rmatmul__(self, other) -> np.ndarray:
        """A @ X for an (m, len(self)) array A, or for a stack (L, m,
        len(self)) of L such arrays: one np.bincount of the column indices
        per row of A, weighted by its values at each entry's row."""
        other = np.asarray(other, dtype=np.float64)
        if other.ndim not in (2, 3) or other.shape[-1] != len(self):
            raise ValueError(f"cannot multiply an array of shape {other.shape} "
                             f"by {self.shape} rows")
        columns = self.indices.astype(np.intp)
        stack = other if other.ndim == 3 else other[None]
        weights = np.take(stack, self._entry_rows(), axis=-1)
        out = np.empty((*stack.shape[:-1], self.num_columns))
        for rows, model_weights in zip(out, weights):
            for row, w in zip(rows, model_weights):
                row[:] = np.bincount(columns, weights=w,
                                     minlength=self.num_columns)
        return out if other.ndim == 3 else out[0]


@dataclass
class Dataset:
    """Feature matrix plus labels, names, and evaluation-only group labels.

    features is a dense float64 array (tabular data) or a BinaryRows
    store (text); features.take(rows, axis=0) gives the rows in the same
    kind of store, and both multiply with ``@``.
    """

    features: np.ndarray | BinaryRows
    labels: np.ndarray
    first_names: list[str | None]
    last_names: list[str | None]
    feature_names: list[str]
    class_names: list[str]
    eval_groups: GroupLabels | None = None

    def __post_init__(self):
        if not isinstance(self.features, BinaryRows):
            self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must align with features")
        if len(self.first_names) != n or len(self.last_names) != n:
            raise ValueError("name lists must align with features")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("need one feature name per column")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class ColumnSpec:
    role: str
    group_positive: str | None = None


@dataclass
class TabularSchema:
    """Column-name -> role map for tabular CSV ingestion.

    Text form, one column per line:

        age continuous
        workclass categorical
        sex categorical group=Male
        race categorical group=White
        income label
        fnlwgt ignore
        first_name first_name

    A bare ``group=VALUE`` role marks an evaluation-only column that never
    becomes a feature; ``group=VALUE`` combined with a feature role keeps
    the column as a feature and additionally evaluates it as a binary
    attribute whose positive group is VALUE.
    """

    columns: dict[str, ColumnSpec] = field(default_factory=dict)

    def __post_init__(self):
        labels = [c for c, s in self.columns.items() if s.role == "label"]
        if len(labels) != 1:
            raise ValueError("schema must declare exactly one label column")

    @classmethod
    def parse(cls, text: str) -> "TabularSchema":
        columns: dict[str, ColumnSpec] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ValueError(
                    f"schema line {line_no}: expected '<column> <role>'"
                )
            column = tokens[0]
            role = None
            group_positive = None
            for token in tokens[1:]:
                if token.startswith("group="):
                    group_positive = token[len("group="):]
                    if not group_positive:
                        raise ValueError(
                            f"schema line {line_no}: empty group value"
                        )
                elif token in ROLES:
                    role = token
                else:
                    raise ValueError(
                        f"schema line {line_no}: unknown role {token!r}"
                    )
            if role is None:
                if group_positive is None:
                    raise ValueError(f"schema line {line_no}: missing role")
                role = "group"
            if role == "group" and group_positive is None:
                raise ValueError(
                    f"schema line {line_no}: group columns need group=VALUE"
                )
            if column in columns:
                raise ValueError(f"schema line {line_no}: duplicate column {column!r}")
            columns[column] = ColumnSpec(role=role, group_positive=group_positive)
        return cls(columns=columns)

    @classmethod
    def load(cls, path) -> "TabularSchema":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())


def read_csv_rows(path):
    """Header and data rows of a CSV file, cells stripped of whitespace."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty CSV file") from None
        rows = [[cell.strip() for cell in row] for row in reader if row]
    return header, rows


@dataclass
class _FeatureColumn:
    """One continuous or categorical CSV column, parsed."""

    name: str
    values: np.ndarray                 # floats, or category codes
    categories: list[str] | None = None  # categorical: every value, sorted


@dataclass
class TabularRecords:
    """A CSV file parsed against its schema, before any fit statistics.

    parse_tabular reads the file once; fit_tabular builds a Dataset from it
    per fit split, taking only min/max and the observed categories from
    the fit rows.
    """

    columns: list[_FeatureColumn]      # in CSV column order
    labels: np.ndarray
    class_names: list[str]
    first_names: list[str | None]
    last_names: list[str | None]
    attributes: list[GroupAttribute]

    def __len__(self) -> int:
        return len(self.labels)


def parse_tabular(path, schema: TabularSchema) -> TabularRecords:
    """Read a CSV file with a header row into TabularRecords.

    Raises ValueError on a header that disagrees with the schema, a row of
    the wrong width, or an unparseable or non-finite continuous value.
    """
    header, rows = read_csv_rows(path)
    missing = [c for c in schema.columns if c not in header]
    if missing:
        raise ValueError(f"{path}: schema columns not in CSV header: {missing}")
    unlisted = [c for c in header if c not in schema.columns]
    if unlisted:
        raise ValueError(f"{path}: CSV columns missing from schema: {unlisted}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {width}")
    n = len(rows)
    columns: list[_FeatureColumn] = []
    label_column = None
    first_names: list[str | None] = [None] * n
    last_names: list[str | None] = [None] * n
    attributes: list[GroupAttribute] = []

    for name, cells in zip(header, zip(*rows)):
        spec = schema.columns[name]
        if spec.role == "continuous":
            try:
                values = np.array([float(v) for v in cells])
            except ValueError:
                bad = next(i for i, v in enumerate(cells) if not _is_float(v))
                raise ValueError(
                    f"{path}: row {bad + 2}, column {name!r}: "
                    f"unparseable value {cells[bad]!r}"
                ) from None
            finite = np.isfinite(values)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ValueError(f"{path}: row {bad + 2}, column {name!r}: "
                                 f"non-finite value {cells[bad]!r}")
            columns.append(_FeatureColumn(name, values))
        elif spec.role == "categorical":
            categories = sorted(set(cells))
            code = {cat: j for j, cat in enumerate(categories)}
            values = np.fromiter(map(code.__getitem__, cells), np.int64, n)
            columns.append(_FeatureColumn(name, values, categories))
        elif spec.role == "label":
            label_column = cells
        elif spec.role == "first_name":
            first_names = [cell or None for cell in cells]
        elif spec.role == "last_name":
            last_names = [cell or None for cell in cells]
        # "ignore" and bare "group" columns contribute no features
        if spec.group_positive is not None:
            observed = sorted({c for c in cells if c})
            others = [v for v in observed if v != spec.group_positive]
            negative = others[0] if len(others) == 1 else f"not-{spec.group_positive}"
            values = np.array(
                [
                    -1 if not cell else (1 if cell == spec.group_positive else 0)
                    for cell in cells
                ],
                dtype=np.int8,
            )
            attributes.append(
                GroupAttribute(
                    name=name,
                    positive_label=spec.group_positive,
                    negative_label=negative,
                    values=values,
                )
            )

    class_names = sorted(set(label_column))
    class_idx = {cls: i for i, cls in enumerate(class_names)}
    labels = np.array([class_idx[v] for v in label_column], dtype=np.int64)
    return TabularRecords(columns, labels, class_names, first_names,
                          last_names, attributes)


def _fit_rows(n: int, fit_indices):
    """fit_indices as nonnegative int64 row numbers (all rows for None)."""
    if fit_indices is None:
        return np.arange(n)
    return np.arange(n)[np.asarray(fit_indices, dtype=np.int64)]


def fit_tabular(records: TabularRecords, fit_indices=None) -> Dataset:
    """Dataset of parsed CSV records, preprocessed on the fit rows.

    Continuous columns are min-max scaled using the fit rows' min/max
    (values outside that range at evaluation time are clamped to [0,1]);
    categorical columns become one indicator feature per category observed
    in the fit rows, with unseen categories mapping to all-zero indicators
    (logged). fit_indices defaults to every row; pass the training-split
    indices to keep evaluation rows out of the preprocessing statistics.
    """
    n = len(records)
    rows = _fit_rows(n, fit_indices)
    if not len(rows):
        raise ValueError("fit_indices selected no rows")
    # each column's categories seen in the fit rows (None: continuous),
    # so the matrix is laid out and allocated once before it is filled
    seen_of: list[np.ndarray | None] = []
    for column in records.columns:
        if column.categories is None:
            seen_of.append(None)
            continue
        seen = np.zeros(len(column.categories), dtype=bool)
        seen[column.values[rows]] = True
        for j in np.flatnonzero(~seen):
            log.warning(
                "column %r: value %r unseen in fit rows; mapped to "
                "all-zero indicators", column.name, column.categories[j]
            )
        seen_of.append(seen)
    width = sum(1 if seen is None else int(seen.sum()) for seen in seen_of)
    features = np.zeros((n, width))
    feature_names: list[str] = []
    for column, seen in zip(records.columns, seen_of):
        start = len(feature_names)
        if seen is None:
            fit_values = column.values[rows]
            lo, hi = fit_values.min(), fit_values.max()
            if hi > lo:
                scaled = (column.values - lo) / (hi - lo)
                features[:, start] = np.clip(scaled, 0.0, 1.0)
            # a constant column stays all zeros
            feature_names.append(column.name)
            continue
        feature_of = np.cumsum(seen) - 1
        hit = np.flatnonzero(seen[column.values])
        features[hit, start + feature_of[column.values[hit]]] = 1.0
        feature_names.extend(f"{column.name}={cat}"
                             for cat, s in zip(column.categories, seen) if s)
    return Dataset(
        features=features,
        labels=records.labels,
        first_names=records.first_names,
        last_names=records.last_names,
        feature_names=feature_names,
        class_names=list(records.class_names),
        eval_groups=(GroupLabels(list(records.attributes))
                     if records.attributes else None),
    )


def load_tabular(path, schema: TabularSchema, fit_indices=None) -> Dataset:
    """Build a Dataset from a CSV file with a header row.

    parse_tabular then fit_tabular, which documents the preprocessing.
    """
    return fit_tabular(parse_tabular(path, schema), fit_indices)


def _is_float(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False


@dataclass
class NameDemographics:
    """Name -> probability tables used for synthetic names and race inference."""

    first_white: dict[str, float] = field(default_factory=dict)
    first_male: dict[str, float] = field(default_factory=dict)
    last_white: dict[str, float] = field(default_factory=dict)


def load_name_probabilities(path) -> dict[str, float]:
    """Read a two-column "name<TAB>probability" table (names normalized)."""
    table: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{path}: line {line_no}: expected 'name probability'"
                )
            try:
                p = float(fields[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: unparseable probability"
                ) from None
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"{path}: line {line_no}: probability {p} outside [0,1]"
                )
            table[normalize_token(fields[0])] = p
    return table


@dataclass
class NamePartition:
    """First names split into four disjoint race-by-gender categories."""

    white_male: set[str]
    white_female: set[str]
    nonwhite_male: set[str]
    nonwhite_female: set[str]

    def category(self, white: bool, male: bool) -> set[str]:
        if white:
            return self.white_male if male else self.white_female
        return self.nonwhite_male if male else self.nonwhite_female

    def all_names(self) -> set[str]:
        return (self.white_male | self.white_female
                | self.nonwhite_male | self.nonwhite_female)


def partition_names(demographics: NameDemographics,
                    threshold: float = 0.5) -> NamePartition:
    """Split names present in both tables by thresholding each probability.

    A name counts as "white" only when its proportion is strictly above
    the threshold (likewise "male"), so a probability exactly at the
    threshold lands in the complement category.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    shared = set(demographics.first_white) & set(demographics.first_male)
    if not shared:
        raise ValueError("no names present in both demographics tables")
    part = NamePartition(set(), set(), set(), set())
    for name in shared:
        white = demographics.first_white[name] > threshold
        male = demographics.first_male[name] > threshold
        part.category(white, male).add(name)
    return part


def assign_synthetic_names(dataset: Dataset, partition: NamePartition,
                           seed: int, race_attr: str = "race",
                           gender_attr: str = "gender") -> Dataset:
    """Fill first_names by sampling from each record's race-gender category.

    The positive group of race_attr is mapped to the partition's "white"
    categories and the positive group of gender_attr to "male". Every
    record must carry both attribute values. Last names are left empty.
    """
    if dataset.eval_groups is None:
        raise ValueError("dataset has no evaluation group labels")
    race = dataset.eval_groups.get(race_attr).values
    gender = dataset.eval_groups.get(gender_attr).values
    if np.any(race == -1) or np.any(gender == -1):
        raise ValueError("every record needs race and gender labels")
    # pool 2 * white + male, the four sorted pools laid end to end
    pools = [sorted(partition.category(bool(white), bool(male)))
             for white in (0, 1) for male in (0, 1)]
    for key, pool in enumerate(pools):
        if not pool:
            raise ValueError(
                f"empty name category for (white={key // 2}, male={key % 2})"
            )
    sizes = np.array([len(pool) for pool in pools])
    starts = np.cumsum(sizes) - sizes
    category = 2 * race.astype(np.int64) + gender
    # one bounded draw per record, in record order: the same stream as a
    # scalar rng.integers(len(pool)) per record
    drawn = np.random.default_rng(seed).integers(0, sizes[category])
    names = list(itertools.chain.from_iterable(pools))
    dataset.first_names = [names[i] for i in (starts[category] + drawn).tolist()]
    dataset.last_names = [None] * len(dataset)
    return dataset


def tokenize(text: str) -> list[str]:
    """The maximal runs of [a-z0-9'] in the lowercased text, in order.

    One pass of C-level string methods: every byte of the text's UTF-8
    encoding outside [a-z0-9'] becomes a space, then the text is split on
    spaces. A lone surrogate encodes (surrogatepass) to bytes >= 0x80, so
    it separates tokens instead of raising.
    """
    return (text.lower().encode("utf-8", "surrogatepass")
            .translate(_TOKEN_BYTES).decode("ascii").split())


@dataclass
class TokenizedDocuments:
    """Documents as a CSR of token ids into one token table.

    tokens is sorted, so token ids ascend alphabetically. Document i holds
    the distinct ids ids[indptr[i]:indptr[i + 1]] (ascending), the id at
    position j occurring counts[j] times in it.
    """

    tokens: list[str]
    indptr: np.ndarray   # int64, one more than there are documents
    ids: np.ndarray      # int32
    counts: np.ndarray   # int32

    @classmethod
    def from_token_lists(cls, token_lists) -> "TokenizedDocuments":
        """Tokenized documents from an iterable of token lists, read once.

        Each block of DEDUPE_DOCS documents is deduplicated as it is read,
        by one sort of (document, first-seen id) keys, so no more than one
        block's raw token ids exist at a time. Once every token is known,
        each block's ids are remapped to alphabetical ranks and re-sorted
        within their documents.
        """
        interned: dict[str, int] = collections.defaultdict()
        interned.default_factory = interned.__len__  # a new token's id
        token_lists = iter(token_lists)

        def next_block(lengths):
            """The next DEDUPE_DOCS token lists, each one's length appended
            to lengths as it is read."""
            for tokens in itertools.islice(token_lists, DEDUPE_DOCS):
                lengths.append(len(tokens))
                yield tokens

        per_doc, kept_ids, kept_counts = [], [], []
        while True:
            lengths = array.array("q")
            tokens = itertools.chain.from_iterable(next_block(lengths))
            ids = np.fromiter(map(interned.__getitem__, tokens), np.int32)
            if not lengths:
                break
            keys = np.repeat(np.arange(len(lengths), dtype=np.int64) << 32,
                             np.frombuffer(lengths, np.int64))
            keys |= ids
            del ids
            keys, counts = np.unique(keys, return_counts=True)
            per_doc.append(np.bincount(keys >> 32, minlength=len(lengths)))
            kept_ids.append((keys & 0xFFFFFFFF).astype(np.int32))
            kept_counts.append(counts.astype(np.int32))
        first_seen = list(interned)
        order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        width = max(len(order), 1)
        total = sum(map(len, kept_ids))
        ids, counts = np.empty(total, np.int32), np.empty(total, np.int32)
        end = 0
        for i, sizes in enumerate(per_doc):
            # ascending ids within each document, blocks laid end to end
            block_ids = rank[kept_ids[i]]
            docs = np.repeat(np.arange(len(sizes)), sizes)
            resort = np.argsort(docs * width + block_ids)
            span = slice(end, end + len(resort))
            ids[span] = block_ids[resort]
            counts[span] = kept_counts[i][resort]
            kept_ids[i] = kept_counts[i] = None
            end = span.stop
        return cls(
            tokens=[first_seen[i] for i in order],
            indptr=np.concatenate(([0], np.cumsum(np.concatenate(
                per_doc or [np.empty(0, np.int64)])))),
            ids=ids,
            counts=counts,
        )

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def fit_vocabulary(self, rows, min_count: int, top_fraction: float):
        """Sorted token ids of the vocabulary pruned on documents[rows].

        rows are nonnegative document indices (repeats count again), or
        None for every document. Drops the top_fraction most common types
        (by document frequency, ties broken alphabetically so the cut is
        deterministic) and any type occurring fewer than min_count times
        in total. The counts are summed over blocks of DEDUPE_DOCS rows,
        so no temporary spans every row's entries; each sum is of
        integers, exact in any order.
        """
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0.0 <= top_fraction < 1.0:
            raise ValueError("top_fraction must lie in [0, 1)")
        if rows is None:
            rows = np.arange(len(self))
        doc_freq = np.zeros(len(self.tokens), np.int64)
        occurrences = np.zeros(len(self.tokens))
        for start in range(0, len(rows), DEDUPE_DOCS):
            take = _entries_of(self.indptr, rows[start:start + DEDUPE_DOCS])[0]
            ids = self.ids[take]
            doc_freq += np.bincount(ids, minlength=len(self.tokens))
            occurrences += np.bincount(ids, weights=self.counts[take],
                                       minlength=len(self.tokens))
        types = np.flatnonzero(doc_freq)
        ranked = types[np.argsort(-doc_freq[types], kind="stable")]
        kept = ranked[int(top_fraction * len(types)):]
        vocabulary = np.sort(kept[occurrences[kept] >= min_count])
        if not len(vocabulary):
            raise ValueError("vocabulary is empty after pruning")
        return vocabulary

    def bag_of_words(self, vocabulary) -> BinaryRows:
        """Binary features, column j set where a document holds token id
        vocabulary[j]; ascending ids give each row's columns in order."""
        column = np.full(len(self.tokens), -1, dtype=np.int32)
        column[vocabulary] = np.arange(len(vocabulary), dtype=np.int32)
        columns = column[self.ids]
        kept = columns >= 0
        # each document's kept entries; reduceat takes only documents with
        # entries (see BinaryRows.__matmul__). It sums a full-length copy of
        # kept in its dtype: int32 holds any count, as a document holds
        # each int32 id at most once
        per_doc = np.zeros(len(self), np.int64)
        starts = self.indptr[:-1]
        filled = starts < self.indptr[1:]
        if filled.any():
            per_doc[filled] = np.add.reduceat(kept, starts[filled],
                                              dtype=np.int32)
        return BinaryRows(np.concatenate(([0], np.cumsum(per_doc))),
                          columns[kept], len(vocabulary))


@dataclass
class TextRecords:
    """A text-records file parsed once, before any vocabulary fit.

    fit_text builds a Dataset from it per fit split; only the vocabulary
    depends on the split.
    """

    labels: np.ndarray
    class_names: list[str]
    first_names: list[str | None]
    last_names: list[str | None]
    documents: TokenizedDocuments

    def __len__(self) -> int:
        return len(self.labels)


def parse_text(path, scrub_names: bool = False) -> TextRecords:
    """Read tab-separated text records into TextRecords, one pass.

    Each line holds four fields: label, first name, last name, document.
    With scrub_names the record's first name and gendered pronouns are
    removed from the document before it is tokenized. Raises ValueError
    on a line without four fields or a file without records.
    """
    labels_raw: list[str] = []
    first_names: list[str | None] = []
    last_names: list[str | None] = []

    def documents():
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 4:
                    raise ValueError(
                        f"{path}: line {line_no}: expected 4 tab-separated "
                        f"fields, got {len(fields)}"
                    )
                label, first, last, document = fields
                labels_raw.append(label.strip())
                first_names.append(first.strip() or None)
                last_names.append(last.strip() or None)
                if scrub_names:
                    document = scrub(document, first_names[-1])
                yield tokenize(document)

    tokenized = TokenizedDocuments.from_token_lists(documents())
    if not labels_raw:
        raise ValueError(f"{path}: no records")
    class_names = sorted(set(labels_raw))
    class_idx = {cls: i for i, cls in enumerate(class_names)}
    labels = np.array([class_idx[v] for v in labels_raw], dtype=np.int64)
    return TextRecords(labels, class_names, first_names, last_names, tokenized)


def fit_text(records: TextRecords, min_count: int = 20,
             top_fraction: float = 0.10, fit_indices=None) -> Dataset:
    """Dataset of parsed text records, its vocabulary pruned on the fit rows.

    Features are binary bag-of-words: 1 when the document contains the
    type, regardless of repetitions. The vocabulary is fit on the rows in
    fit_indices (default: all): it drops the top_fraction most common word
    types (by document frequency, ties broken alphabetically so the cut is
    deterministic) and any type occurring fewer than min_count times in
    total, and is sorted.
    """
    docs = records.documents
    rows = None if fit_indices is None else _fit_rows(len(records), fit_indices)
    ids = docs.fit_vocabulary(rows, min_count, top_fraction)
    return Dataset(
        features=docs.bag_of_words(ids),
        labels=records.labels,
        first_names=records.first_names,
        last_names=records.last_names,
        feature_names=[docs.tokens[i] for i in ids],
        class_names=list(records.class_names),
    )


def load_text(path, min_count: int = 20, top_fraction: float = 0.10,
              scrub_names: bool = False, fit_indices=None) -> Dataset:
    """Build a Dataset from tab-separated text records.

    Each line holds four fields: label, first name, last name, document.
    With scrub_names the record's first name and gendered pronouns are
    removed from the document before any vocabulary statistics are
    computed. The vocabulary is pruned on the fit rows (default: all).
    """
    return fit_text(parse_text(path, scrub_names), min_count, top_fraction,
                    fit_indices)


def white_probabilities(first_names, last_names,
                        demographics: NameDemographics) -> np.ndarray:
    """Per record the mean of its first-name and last-name white
    proportions (one is enough); NaN where neither name is in the tables.

    Each distinct name is normalized and looked up once.
    """
    if len(first_names) != len(last_names):
        raise ValueError("first_names and last_names must align")

    def lookup(names, table):
        probs = {name: table.get(normalize_token(name), np.nan)
                 for name in set(names) if name is not None}
        return np.fromiter(map(probs.get, names, itertools.repeat(np.nan)),
                           np.float64, len(names))

    first = lookup(first_names, demographics.first_white)
    last = lookup(last_names, demographics.last_white)
    first_found, last_found = ~np.isnan(first), ~np.isnan(last)
    total = np.where(first_found, first, 0.0) + np.where(last_found, last, 0.0)
    with np.errstate(invalid="ignore"):  # 0 / 0: NaN where neither is found
        return total / (first_found.astype(np.int64) + last_found)


def draw_race_labels(p_white, seed: int, attr_name: str = "race") -> GroupAttribute:
    """Evaluation-only race labels: one seeded Bernoulli draw per record
    from its white probability, in record order; records with a NaN
    probability are marked missing (-1)."""
    covered = np.flatnonzero(~np.isnan(p_white))
    values = np.full(len(p_white), -1, dtype=np.int8)
    draws = np.random.default_rng(seed).random(len(covered))
    values[covered] = draws < p_white[covered]
    return GroupAttribute(
        name=attr_name,
        positive_label="white",
        negative_label="non-white",
        values=values,
    )


def infer_race_labels(first_names, last_names,
                      demographics: NameDemographics, seed: int,
                      attr_name: str = "race") -> GroupAttribute:
    """Evaluation-only race labels sampled from name statistics.

    Per record the "white" probability is the mean of the available
    first-name and last-name proportions (one is enough); the label is a
    seeded Bernoulli draw from it. Records with neither name in the tables
    are marked missing and drop out of bias-report support.
    """
    return draw_race_labels(
        white_probabilities(first_names, last_names, demographics), seed,
        attr_name,
    )


def scrub(document: str, first_name: str | None = None) -> str:
    """Remove the record's first name and gendered pronouns, token-wise.

    Matching is case-insensitive on punctuation-stripped tokens; remaining
    tokens are rejoined with single spaces, which makes scrubbing
    idempotent.
    """
    remove = set(PRONOUNS)
    if first_name is not None:
        token = normalize_token(first_name)
        if token:
            remove.add(token)
    kept = [t for t in document.split() if normalize_token(t) not in remove]
    return " ".join(kept)
