import csv

import numpy as np
import pytest

from nameblind.metrics import (
    GroupAttribute,
    GroupLabels,
    balanced_tpr,
    bias_report,
    gap_max,
    gap_rms,
    summary_header,
    summary_values,
    write_bias_report_csv,
)

from oracles import count_bias_report


def attr(name, values, pos="a", neg="b"):
    return GroupAttribute(
        name=name, positive_label=pos, negative_label=neg,
        values=np.asarray(values, dtype=np.int8),
    )


def random_instance(rng, n=200, num_classes=4):
    labels = rng.integers(0, num_classes, size=n)
    predictions = np.where(
        rng.random(n) < 0.7, labels, rng.integers(0, num_classes, size=n)
    )
    groups = GroupLabels(
        [
            attr("gender", rng.choice([1, 0], size=n)),
            attr("race", rng.choice([1, 0, -1], size=n, p=[0.45, 0.45, 0.1])),
        ]
    )
    return predictions, labels, groups, num_classes


def test_tpr_basic_counting():
    labels = [1, 1, 1, 1, 0, 1, 0]
    preds = [1, 1, 1, 0, 0, 1, 0]
    report = bias_report(preds, labels,
                         GroupLabels([attr("g", [1, 1, 1, 1, 1, 0, 0])]),
                         num_classes=2)
    (g,) = report.attributes
    assert g.tpr_pos == [1.0, 0.75] and g.counts_pos == [1, 4]
    assert g.tpr_neg == [1.0, 1.0] and g.counts_neg == [1, 1]
    assert g.gaps == [0.0, -0.25]
    # Python numbers, so the CSVs hold their reprs
    assert all(type(v) is float for v in g.tpr_pos + g.tpr_neg)
    assert all(type(v) is int for v in g.counts_pos + g.counts_neg)
    assert balanced_tpr([1, 1], [1, 1], num_classes=2) == 1.0


def test_tpr_empty_support_is_undefined():
    # no positive-group record has label 1, and a missing (-1) record
    # counts in neither group
    report = bias_report([0, 1, 1, 0, 1], [0, 0, 1, 0, 1],
                         GroupLabels([attr("g", [1, 1, 0, 0, -1])]),
                         num_classes=2)
    (g,) = report.attributes
    assert g.tpr_pos == [0.5, None] and g.counts_pos == [2, 0]
    assert g.tpr_neg == [1.0, 1.0] and g.counts_neg == [1, 1]
    assert g.gaps == [-0.5, None]


def test_gap_rms_values():
    assert gap_rms([0.3, 0.1]) == pytest.approx(np.sqrt(0.05), abs=1e-12)
    assert gap_rms([0.0, 0.0, 0.0]) == 0.0
    assert gap_rms([-0.4]) == pytest.approx(0.4, abs=1e-15)
    assert gap_rms([None, 0.2]) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        gap_rms([None, None])


def test_balanced_tpr_values():
    assert balanced_tpr([0, 1, 0, 1], [0, 1, 0, 1], num_classes=2) == 1.0
    # two classes with TPRs 0.9 and 0.5
    labels = [0] * 10 + [1] * 10
    preds = [0] * 9 + [1] + [1] * 5 + [0] * 5
    assert balanced_tpr(preds, labels, num_classes=2) == pytest.approx(
        0.7, abs=1e-12)


def test_balanced_tpr_majority_classifier():
    # always predicting the majority class on 90/10 data: TPRs 1.0 and 0.0
    labels = np.array([0] * 90 + [1] * 10)
    preds = np.zeros(100, dtype=int)
    assert balanced_tpr(preds, labels, num_classes=2) == 0.5


def test_balanced_tpr_missing_class():
    # class 1 has no records: it is skipped, not counted as a TPR of 0
    assert balanced_tpr([0, 0], [0, 0], num_classes=2) == 1.0


def test_report_all_equal_tprs_gives_zero_gaps():
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    preds = np.array([0, 1, 1, 0, 0, 1, 1, 0])
    groups = GroupLabels([attr("g", [1, 1, 1, 1, 0, 0, 0, 0])])
    report = bias_report(preds, labels, groups, num_classes=2)
    a = report.attributes[0]
    assert a.gaps == [0.0, 0.0]
    assert a.gap_rms == 0.0
    assert a.gap_max == 0.0


def test_report_keeps_the_classes_a_split_lacks():
    # the highest class has no record here, as on a small test split: it
    # keeps its row, name and undefined TPRs
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 2, 1, 1])
    groups = GroupLabels([attr("g", [1, 0, 1, 0])])
    report = bias_report(preds, labels, groups, num_classes=3,
                         class_names=["x", "y", "z"])
    (g,) = report.attributes
    assert report.num_classes == 3 and report.class_names == ["x", "y", "z"]
    assert g.tpr_pos == [1.0, 1.0, None] and g.counts_pos == [1, 1, 0]
    assert g.gaps == [1.0, 0.0, None]
    assert report.balanced_tpr == 0.75


def test_report_single_class_collapse():
    labels = np.zeros(30, dtype=int)
    # positive group: 8/10 correct; negative group: 10/20 correct
    preds = np.array([0] * 8 + [1] * 2 + [0] * 10 + [1] * 10)
    groups = GroupLabels([attr("g", [1] * 10 + [0] * 20)])
    report = bias_report(preds, labels, groups, num_classes=1)
    a = report.attributes[0]
    assert a.gaps[0] == pytest.approx(0.3, abs=1e-12)
    assert a.gap_rms == pytest.approx(0.3, abs=1e-12)
    assert a.gap_max == pytest.approx(0.3, abs=1e-12)


def test_report_matches_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        preds, labels, groups, num_classes = random_instance(rng)
        report = bias_report(preds, labels, groups, num_classes=num_classes)
        oracle = count_bias_report(
            preds, labels,
            [(a.name, a.values.tolist()) for a in groups.attributes],
            num_classes,
        )
        assert report.balanced_tpr == oracle["balanced_tpr"]
        for a in report.attributes:
            want = oracle[a.name]
            assert a.tpr_pos == want["tpr_pos"]
            assert a.tpr_neg == want["tpr_neg"]
            assert a.gaps == want["gaps"]
            assert a.gap_rms == want["rms"]
            assert a.gap_max == want["max"]


def test_gap_antisymmetry_under_group_swap():
    rng = np.random.default_rng(1)
    preds, labels, groups, num_classes = random_instance(rng)
    report = bias_report(preds, labels, groups, num_classes=num_classes)
    swapped_groups = GroupLabels(
        [
            GroupAttribute(
                name=a.name,
                positive_label=a.negative_label,
                negative_label=a.positive_label,
                values=np.where(a.values == -1, -1, 1 - a.values),
            )
            for a in groups.attributes
        ]
    )
    swapped = bias_report(preds, labels, swapped_groups, num_classes=num_classes)
    for a, s in zip(report.attributes, swapped.attributes):
        for g, h in zip(a.gaps, s.gaps):
            if g is None:
                assert h is None
            else:
                assert h == -g
        assert s.gap_rms == pytest.approx(a.gap_rms, rel=1e-12)
        assert s.gap_max == a.gap_max


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    preds, labels, groups, num_classes = random_instance(rng, n=120)
    perm = rng.permutation(120)
    permuted_groups = GroupLabels(
        [
            GroupAttribute(a.name, a.positive_label, a.negative_label,
                           a.values[perm])
            for a in groups.attributes
        ]
    )
    a = bias_report(preds, labels, groups, num_classes=num_classes)
    b = bias_report(preds[perm], labels[perm], permuted_groups,
                    num_classes=num_classes)
    assert a.balanced_tpr == b.balanced_tpr
    for x, y in zip(a.attributes, b.attributes):
        assert x.gaps == y.gaps
        assert x.gap_rms == y.gap_rms


def test_rms_at_most_max_with_equality_iff_all_equal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gaps = rng.uniform(-1, 1, size=rng.integers(1, 6)).tolist()
        assert gap_rms(gaps) <= gap_max(gaps) + 1e-12
    equal = [0.25, -0.25, 0.25]
    assert gap_rms(equal) == pytest.approx(gap_max(equal), abs=1e-12)
    unequal = [0.5, 0.1]
    assert gap_rms(unequal) < gap_max(unequal)


def test_self_concatenation_changes_nothing():
    rng = np.random.default_rng(4)
    preds, labels, groups, num_classes = random_instance(rng, n=80)
    doubled_groups = GroupLabels(
        [
            GroupAttribute(a.name, a.positive_label, a.negative_label,
                           np.concatenate([a.values, a.values]))
            for a in groups.attributes
        ]
    )
    a = bias_report(preds, labels, groups, num_classes=num_classes)
    b = bias_report(
        np.concatenate([preds, preds]),
        np.concatenate([labels, labels]),
        doubled_groups,
        num_classes=num_classes,
    )
    assert a.balanced_tpr == b.balanced_tpr
    for x, y in zip(a.attributes, b.attributes):
        assert x.gaps == y.gaps
        assert x.gap_rms == y.gap_rms
        assert x.gap_max == y.gap_max


def test_no_defined_gap_raises():
    labels = np.zeros(4, dtype=int)
    preds = np.zeros(4, dtype=int)
    groups = GroupLabels([attr("g", [1, 1, 1, 1])])  # no negative support
    with pytest.raises(ValueError, match="defined gap"):
        bias_report(preds, labels, groups, num_classes=1)


def test_csv_layout_and_summary_ordering(tmp_path):
    rng = np.random.default_rng(5)
    preds, labels, groups, num_classes = random_instance(rng, n=150)
    report = bias_report(preds, labels, groups, num_classes=num_classes)
    path = tmp_path / "report.csv"
    write_bias_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "attribute"
    cell_rows = [r for r in rows[1:] if r and r[0] in ("gender", "race")]
    assert len(cell_rows) == 2 * num_classes
    # summary block mirrors the balanced-TPR-then-RMS-then-max ordering
    header = summary_header(report)
    assert header == [
        "balanced_tpr",
        "gap_rms_gender",
        "gap_rms_race",
        "gap_max_gender",
        "gap_max_race",
    ]
    assert rows[-2] == header
    values = summary_values(report)
    parsed = [float(v) if v else None for v in rows[-1]]
    assert parsed == values


def test_group_labels_unique_names():
    with pytest.raises(ValueError, match="unique"):
        GroupLabels([attr("g", [1]), attr("g", [0])])
    groups = GroupLabels([attr("g", [1]), attr("h", [0])])
    assert groups.get("h").name == "h"
    with pytest.raises(KeyError):
        groups.get("missing")


@pytest.mark.parametrize("labels", [[0, 0, 2, 2, 1, 1], [0, 0, -1, 1, 1, 1]])
def test_a_label_outside_the_classes_raises(labels):
    # a class-2 record under num_classes=2 would be missing from every count
    preds = [0, 0, 2, 2, 1, 0]
    groups = GroupLabels([attr("g", [1, 0, 1, 0, 1, 0])])
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        bias_report(preds, labels, groups, num_classes=2)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        balanced_tpr(preds, labels, num_classes=2)
