"""Bias quantification: per-class TPRs by group, gaps, RMS/max summaries.

Group attributes are binary and evaluation-only; they are never joined
into the feature matrix. A TPR cell with empty support (no group member
carries that true label) is undefined and excluded from the RMS and max
aggregates rather than imputed as zero, which would understate bias;
undefined cells stay visible as blanks in the serialized report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

MISSING = -1  # group value for records whose attribute is unknown


@dataclass
class GroupAttribute:
    """One named binary attribute with per-record values.

    values: 1 for the positive group, 0 for its complement, -1 missing.
    The gap sign convention is positive group minus complement.
    """

    name: str
    positive_label: str
    negative_label: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int8)
        if not np.all(np.isin(self.values, (-1, 0, 1))):
            raise ValueError("group values must be -1, 0 or 1")


@dataclass
class GroupLabels:
    """A set of uniquely named group attributes over the same records."""

    attributes: list[GroupAttribute] = field(default_factory=list)

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")

    def get(self, name: str) -> GroupAttribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"no group attribute named {name!r}")


def _class_tprs(predictions, labels, mask, num_classes: int):
    """Per class c < num_classes, the TPR of the records in mask and its
    support, from one np.bincount each of the labels and of the hits.

    The support is the number of masked records with true label c, and
    the TPR the fraction of them predicted c: None (undefined) when the
    support is 0, excluded from aggregates, never zeroed. Both are lists
    of Python numbers. Raises ValueError for a label outside
    [0, num_classes), before any count.
    """
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    support = np.bincount(labels[mask], minlength=num_classes)
    hits = np.bincount(labels[mask & (predictions == labels)],
                       minlength=num_classes)
    support, hits = support[:num_classes].tolist(), hits[:num_classes].tolist()
    return [h / n if n else None for h, n in zip(hits, support)], support


def gap_rms(gaps) -> float:
    """Root mean square of the defined gaps."""
    defined = [g for g in gaps if g is not None]
    if not defined:
        raise ValueError("no defined gaps to aggregate")
    return float(np.sqrt(np.mean(np.square(defined))))


def gap_max(gaps) -> float:
    """Maximum absolute value over the defined gaps."""
    defined = [abs(g) for g in gaps if g is not None]
    if not defined:
        raise ValueError("no defined gaps to aggregate")
    return float(max(defined))


def balanced_tpr(predictions, labels, num_classes: int) -> float:
    """Unweighted mean of the TPRs of classes 0 .. num_classes - 1.

    The natural accuracy measure under class imbalance. A class absent
    from labels, as on a small validation or test split, is skipped.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty label set")
    tprs, _ = _class_tprs(predictions, labels,
                          np.ones(len(labels), dtype=bool), num_classes)
    values = [t for t in tprs if t is not None]
    if not values:
        raise ValueError("no class has any records")
    return float(np.mean(values))


@dataclass
class AttributeReport:
    """Per-class TPRs and gaps for one binary attribute."""

    name: str
    positive_label: str
    negative_label: str
    tpr_pos: list[float | None]
    tpr_neg: list[float | None]
    gaps: list[float | None]          # positive minus complement; None if either side undefined
    counts_pos: list[int]             # class-c records in the positive group
    counts_neg: list[int]
    gap_rms: float | None
    gap_max: float | None


@dataclass
class BiasReport:
    """Full bias measurement for one prediction set."""

    num_classes: int
    class_names: list[str]
    balanced_tpr: float
    attributes: list[AttributeReport]

    def get(self, name: str) -> AttributeReport:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"no attribute named {name!r} in report")


def bias_report(predictions, labels, group_labels: GroupLabels,
                num_classes: int,
                class_names: list[str] | None = None) -> BiasReport:
    """Per-(attribute, class) TPRs and gaps plus RMS/max/balanced summaries
    of classes 0 .. num_classes - 1, any of them absent from labels."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if class_names is None:
        class_names = [f"class_{c}" for c in range(num_classes)]
    if len(class_names) != num_classes:
        raise ValueError("need one class name per class")
    for attr in group_labels.attributes:
        if attr.values.shape != labels.shape:
            raise ValueError(f"attribute {attr.name!r} must align with labels")

    attr_reports = []
    any_defined = False
    for attr in group_labels.attributes:
        tpr_pos, counts_pos = _class_tprs(predictions, labels,
                                          attr.values == 1, num_classes)
        tpr_neg, counts_neg = _class_tprs(predictions, labels,
                                          attr.values == 0, num_classes)
        gaps = [tp - tn if tp is not None and tn is not None else None
                for tp, tn in zip(tpr_pos, tpr_neg)]
        defined = [g for g in gaps if g is not None]
        any_defined = any_defined or bool(defined)
        attr_reports.append(
            AttributeReport(
                name=attr.name,
                positive_label=attr.positive_label,
                negative_label=attr.negative_label,
                tpr_pos=tpr_pos,
                tpr_neg=tpr_neg,
                gaps=gaps,
                counts_pos=counts_pos,
                counts_neg=counts_neg,
                gap_rms=gap_rms(gaps) if defined else None,
                gap_max=gap_max(gaps) if defined else None,
            )
        )
    if group_labels.attributes and not any_defined:
        raise ValueError("no attribute has any defined gap")
    overall = balanced_tpr(predictions, labels, num_classes)
    return BiasReport(
        num_classes=num_classes,
        class_names=list(class_names),
        balanced_tpr=overall,
        attributes=attr_reports,
    )


def summary_header(report: BiasReport) -> list[str]:
    """Summary columns: balanced TPR, then per-attribute RMS, then max."""
    names = [a.name for a in report.attributes]
    return (
        ["balanced_tpr"]
        + [f"gap_rms_{n}" for n in names]
        + [f"gap_max_{n}" for n in names]
    )


def summary_values(report: BiasReport) -> list[float | None]:
    return (
        [report.balanced_tpr]
        + [a.gap_rms for a in report.attributes]
        + [a.gap_max for a in report.attributes]
    )


def csv_cell(value) -> str:
    """A float's repr, or an empty field for an undefined value (None)."""
    return "" if value is None else repr(value)


def write_bias_report_csv(report: BiasReport, path) -> None:
    """Serialize the report: one row per attribute-class cell, then a
    summary block with the balanced TPR and per-attribute RMS/max gaps.

    Undefined cells are written as empty fields. The gap sign convention
    (positive group minus complement) is declared in the header row.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "attribute",
                "positive_group",
                "negative_group",
                "class",
                "tpr_positive",
                "tpr_negative",
                "gap_positive_minus_negative",
                "count_positive",
                "count_negative",
            ]
        )
        for attr in report.attributes:
            for c in range(report.num_classes):
                writer.writerow(
                    [
                        attr.name,
                        attr.positive_label,
                        attr.negative_label,
                        report.class_names[c],
                        csv_cell(attr.tpr_pos[c]),
                        csv_cell(attr.tpr_neg[c]),
                        csv_cell(attr.gaps[c]),
                        attr.counts_pos[c],
                        attr.counts_neg[c],
                    ]
                )
        writer.writerow([])
        writer.writerow(summary_header(report))
        writer.writerow([csv_cell(v) for v in summary_values(report)])
