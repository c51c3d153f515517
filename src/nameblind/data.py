"""Dataset ingestion and preprocessing.

Two input shapes are supported: tabular CSV (continuous columns min-max
scaled to [0,1], categorical columns expanded to binary indicators) and
text records (binary bag-of-words with frequency-based vocabulary
pruning). Group attributes used for bias evaluation live in a sidecar
structure and are never joined into the feature matrix.
"""

from __future__ import annotations

import csv
import itertools
import logging
import re
import sys
from collections import Counter
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

_WORD_RE = re.compile(r"[a-z0-9']+")

DATASET_FILE_TAG = "nameblind-dataset v1"


class BinaryRows:
    """Binary feature rows stored as CSR column-index lists.

    Row i holds 1.0 at columns indices[indptr[i]:indptr[i + 1]] and 0.0
    elsewhere, so memory is O(nonzeros) rather than rows x columns.
    ``rows[selection]`` (a slice or a 1-d array of row indices) returns
    the selected rows as a dense float64 block; ``np.asarray(rows)`` gives
    the whole dense matrix.
    """

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

    @classmethod
    def from_index_lists(cls, rows, num_columns: int) -> "BinaryRows":
        """Store built from one list of column indices per row."""
        counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = np.fromiter(itertools.chain.from_iterable(rows),
                              dtype=np.int32, count=int(indptr[-1]))
        return cls(indptr, indices, num_columns)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.num_columns

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, rows) -> np.ndarray:
        n = len(self)
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(n))
        rows = np.asarray(rows)
        if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
            raise TypeError("select rows with a slice or a 1-d integer array")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"row index out of range for {n} rows")
        rows = rows.astype(np.int64, copy=False)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # position in self.indices of every one in the selected rows
        take = np.arange(counts.sum()) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )
        block = np.zeros((len(rows), self.num_columns))
        block[np.repeat(np.arange(len(rows)), counts), self.indices[take]] = 1.0
        return block

    def __array__(self, dtype=None, copy=None):
        dense = self[:]
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass
class Dataset:
    """Feature matrix plus labels, names, and evaluation-only group labels.

    features is a dense float64 array (tabular data) or a BinaryRows
    store (text); both give dense float64 rows for features[rows].
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


def load_tabular(path, schema: TabularSchema, fit_indices=None) -> Dataset:
    """Build a Dataset from a CSV file with a header row.

    Continuous columns are min-max scaled using the fit rows' min/max
    (values outside that range at evaluation time are clamped to [0,1]);
    categorical columns become one indicator feature per category observed
    in the fit rows, with unseen categories mapping to all-zero indicators
    (logged). fit_indices defaults to every row; pass the training-split
    indices to keep evaluation rows out of the preprocessing statistics.
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
    col_idx = {c: header.index(c) for c in schema.columns}
    if fit_indices is None:
        fit_rows = rows
    else:
        fit_rows = [rows[i] for i in fit_indices]
        if not fit_rows:
            raise ValueError("fit_indices selected no rows")

    def column(rows_, name):
        idx = col_idx[name]
        return [row[idx] for row in rows_]

    feature_blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    label_column = None
    first_names: list[str | None] = [None] * len(rows)
    last_names: list[str | None] = [None] * len(rows)
    attributes: list[GroupAttribute] = []

    for name in header:  # preserve CSV column order in the feature layout
        spec = schema.columns[name]
        cells = column(rows, name)
        if spec.role == "continuous":
            try:
                values = np.array([float(v) for v in cells])
            except ValueError:
                bad = next(i for i, v in enumerate(cells) if not _is_float(v))
                raise ValueError(
                    f"{path}: row {bad + 2}, column {name!r}: "
                    f"unparseable value {cells[bad]!r}"
                ) from None
            fit_values = np.array([float(v) for v in column(fit_rows, name)])
            lo, hi = fit_values.min(), fit_values.max()
            if hi > lo:
                scaled = (values - lo) / (hi - lo)
            else:
                scaled = np.zeros_like(values)  # constant column
            feature_blocks.append(np.clip(scaled, 0.0, 1.0)[:, None])
            feature_names.append(name)
        elif spec.role == "categorical":
            categories = sorted(set(column(fit_rows, name)))
            block = np.zeros((len(rows), len(categories)))
            cat_idx = {cat: j for j, cat in enumerate(categories)}
            unseen = set()
            for i, cell in enumerate(cells):
                j = cat_idx.get(cell)
                if j is None:
                    unseen.add(cell)
                else:
                    block[i, j] = 1.0
            for value in sorted(unseen):
                log.warning(
                    "column %r: value %r unseen in fit rows; mapped to "
                    "all-zero indicators", name, value
                )
            feature_blocks.append(block)
            feature_names.extend(f"{name}={cat}" for cat in categories)
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
    features = (
        np.hstack(feature_blocks) if feature_blocks else np.zeros((len(rows), 0))
    )
    return Dataset(
        features=features,
        labels=labels,
        first_names=first_names,
        last_names=last_names,
        feature_names=feature_names,
        class_names=class_names,
        eval_groups=GroupLabels(attributes) if attributes else None,
    )


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
    pools = {
        (white, male): sorted(partition.category(bool(white), bool(male)))
        for white in (0, 1)
        for male in (0, 1)
    }
    for key, pool in pools.items():
        if not pool:
            raise ValueError(f"empty name category for (white={key[0]}, male={key[1]})")
    rng = np.random.default_rng(seed)
    first_names = []
    for w, m in zip(race, gender):
        pool = pools[(int(w), int(m))]
        first_names.append(pool[rng.integers(len(pool))])
    dataset.first_names = first_names
    dataset.last_names = [None] * len(dataset)
    return dataset


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens (whitespace/punctuation split)."""
    # interned, so token lists kept for many documents share their strings
    return list(map(sys.intern, _WORD_RE.findall(text.lower())))


def vectorize_text(documents, min_count: int = 20,
                   top_fraction: float = 0.10):
    """Binary bag-of-words features with frequency-pruned vocabulary.

    Drops the top_fraction most common word types (by document frequency,
    ties broken alphabetically so the cut is deterministic) and any type
    occurring fewer than min_count times in total. Each feature is 1 when
    the document contains the type, regardless of repetitions. Returns
    (features, vocabulary) with the vocabulary sorted.
    """
    token_lists = [tokenize(doc) for doc in documents]
    vocabulary = _fit_vocabulary(token_lists, min_count, top_fraction)
    return np.asarray(_bag_of_words(token_lists, vocabulary)), vocabulary


def _fit_vocabulary(token_lists, min_count: int, top_fraction: float):
    """Sorted vocabulary of tokenized documents, pruned as in vectorize_text."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if not 0.0 <= top_fraction < 1.0:
        raise ValueError("top_fraction must lie in [0, 1)")
    occurrences, doc_freq = Counter(), Counter()
    for tokens in token_lists:
        occurrences.update(tokens)
        doc_freq.update(set(tokens))
    types = sorted(doc_freq, key=lambda t: (-doc_freq[t], t))
    n_drop = int(top_fraction * len(types))
    vocabulary = sorted(
        t for t in types[n_drop:] if occurrences[t] >= min_count
    )
    if not vocabulary:
        raise ValueError("vocabulary is empty after pruning")
    return vocabulary


def _bag_of_words(token_lists, vocabulary) -> BinaryRows:
    """Binary features: 1 where the document holds the type."""
    index = {t: j for j, t in enumerate(vocabulary)}
    rows = []
    for tokens in token_lists:
        columns = set(map(index.get, tokens))
        columns.discard(None)
        rows.append(sorted(columns))
    return BinaryRows.from_index_lists(rows, len(vocabulary))


def load_text(path, min_count: int = 20, top_fraction: float = 0.10,
              scrub_names: bool = False, fit_indices=None) -> Dataset:
    """Build a Dataset from tab-separated text records.

    Each line holds four fields: label, first name, last name, document.
    With scrub_names the record's first name and gendered pronouns are
    removed from the document before any vocabulary statistics are
    computed. The vocabulary is pruned on the fit rows (default: all).
    """
    labels_raw: list[str] = []
    first_names: list[str | None] = []
    last_names: list[str | None] = []
    documents: list[str] = []
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
            documents.append(document)
    if not documents:
        raise ValueError(f"{path}: no records")
    if scrub_names:
        documents = [
            scrub(doc, first) for doc, first in zip(documents, first_names)
        ]
    token_lists = [tokenize(doc) for doc in documents]
    fit_tokens = (token_lists if fit_indices is None
                  else [token_lists[i] for i in fit_indices])
    vocabulary = _fit_vocabulary(fit_tokens, min_count, top_fraction)
    features = _bag_of_words(token_lists, vocabulary)
    class_names = sorted(set(labels_raw))
    class_idx = {cls: i for i, cls in enumerate(class_names)}
    labels = np.array([class_idx[v] for v in labels_raw], dtype=np.int64)
    return Dataset(
        features=features,
        labels=labels,
        first_names=first_names,
        last_names=last_names,
        feature_names=list(vocabulary),
        class_names=class_names,
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
    if len(first_names) != len(last_names):
        raise ValueError("first_names and last_names must align")
    rng = np.random.default_rng(seed)
    values = np.full(len(first_names), -1, dtype=np.int8)
    for i, (first, last) in enumerate(zip(first_names, last_names)):
        probs = []
        if first is not None:
            p = demographics.first_white.get(normalize_token(first))
            if p is not None:
                probs.append(p)
        if last is not None:
            p = demographics.last_white.get(normalize_token(last))
            if p is not None:
                probs.append(p)
        if not probs:
            continue
        values[i] = 1 if rng.random() < float(np.mean(probs)) else 0
    return GroupAttribute(
        name=attr_name,
        positive_label="white",
        negative_label="non-white",
        values=values,
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


def save_dataset(dataset: Dataset, path) -> None:
    """Cache a Dataset in the columnar text format (exact reload).

    Dense features are written as one repr float per column; BinaryRows
    features (text) as the column indices of each row's ones, flagged by
    a "layout indices" header line.
    """
    groups = dataset.eval_groups.attributes if dataset.eval_groups else []
    features = dataset.features
    sparse = isinstance(features, BinaryRows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DATASET_FILE_TAG + "\n")
        fh.write("classes\t" + "\t".join(dataset.class_names) + "\n")
        fh.write("features\t" + "\t".join(dataset.feature_names) + "\n")
        if sparse:
            fh.write("layout\tindices\n")
        for attr in groups:
            fh.write(
                f"attr\t{attr.name}\t{attr.positive_label}\t{attr.negative_label}\n"
            )
        fh.write(f"records\t{len(dataset)}\n")
        for i in range(len(dataset)):
            if sparse:
                ones = features.indices[features.indptr[i]:features.indptr[i + 1]]
                feature_str = " ".join(map(str, ones.tolist()))
            else:
                feature_str = " ".join(repr(float(v)) for v in features[i])
            row = [
                str(int(dataset.labels[i])),
                dataset.first_names[i] or "",
                dataset.last_names[i] or "",
                " ".join(str(int(a.values[i])) for a in groups),
                feature_str,
            ]
            fh.write("\t".join(row) + "\n")


def load_dataset(path) -> Dataset:
    """Reload a Dataset cached by save_dataset."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DATASET_FILE_TAG:
        raise ValueError(f"{path}: not a recognized dataset cache")
    class_names: list[str] = []
    feature_names: list[str] = []
    attr_meta: list[tuple[str, str, str]] = []
    n_records = None
    sparse = False
    pos = 1
    while pos < len(lines):
        fields = lines[pos].split("\t")
        tag = fields[0]
        if tag == "classes":
            class_names = fields[1:]
        elif tag == "features":
            feature_names = fields[1:]
        elif tag == "layout" and fields[1:] == ["indices"]:
            sparse = True
        elif tag == "attr":
            attr_meta.append((fields[1], fields[2], fields[3]))
        elif tag == "records":
            n_records = int(fields[1])
            pos += 1
            break
        else:
            raise ValueError(f"{path}: unexpected line {pos + 1}")
        pos += 1
    if n_records is None:
        raise ValueError(f"{path}: missing records count")
    body = lines[pos:pos + n_records]
    if len(body) != n_records:
        raise ValueError(f"{path}: expected {n_records} records, got {len(body)}")
    labels = np.empty(n_records, dtype=np.int64)
    first_names: list[str | None] = []
    last_names: list[str | None] = []
    attr_values = [np.empty(n_records, dtype=np.int8) for _ in attr_meta]
    if sparse:
        rows = []
    else:
        features = np.zeros((n_records, len(feature_names)))
    for i, line in enumerate(body):
        label, first, last, group_str, feat_str = line.split("\t")
        labels[i] = int(label)
        first_names.append(first or None)
        last_names.append(last or None)
        group_vals = group_str.split() if group_str else []
        if len(group_vals) != len(attr_meta):
            raise ValueError(f"{path}: record {i}: group value count mismatch")
        for j, v in enumerate(group_vals):
            attr_values[j][i] = int(v)
        if sparse:
            rows.append([int(v) for v in feat_str.split()])
        elif feat_str:
            features[i] = [float(v) for v in feat_str.split()]
    if sparse:
        features = BinaryRows.from_index_lists(rows, len(feature_names))
    attributes = [
        GroupAttribute(name=nm, positive_label=p, negative_label=ng, values=vals)
        for (nm, p, ng), vals in zip(attr_meta, attr_values)
    ]
    return Dataset(
        features=features,
        labels=labels,
        first_names=first_names,
        last_names=last_names,
        feature_names=feature_names,
        class_names=class_names,
        eval_groups=GroupLabels(attributes) if attributes else None,
    )
