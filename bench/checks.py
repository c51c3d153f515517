"""Output checks, computed apart from nameblind's own code.

Nothing here imports nameblind. The train check re-derives the split, the
race labels, the features and the predictions from the input files and the
saved model with plain numpy, following the documented formats. The sweep
and k-means checks test properties the method must have. Every check
raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

TOL = 1e-12          # ratios and means recomputed in another order
TIE_TOL = 1e-9       # squared distances summed in another order

_WORD_RE = re.compile(r"[a-z0-9']+")


class CheckFailed(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the command wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def _split(n: int, seed: int):
    """The documented seeded 80/10/10 split; the remainder goes to test."""
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(n * 0.8), int(n * 0.1)
    return np.sort(order[:n_train]), np.sort(order[n_train + n_val:])


# --- sweep ----------------------------------------------------------------

def check_sweep(out_dir: Path, lambdas, seeds, attributes, num_classes: int):
    """Every (lambda, seed) row finite; the penalty cuts every gap; the
    unpenalized model is well above chance. Returns the mean rows."""
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = (["lambda", "seed", "balanced_tpr"]
              + [f"gap_rms_{a}" for a in attributes]
              + [f"gap_max_{a}" for a in attributes])
    _require(rows[0] == header, f"sweep.csv header {rows[0]} != {header}")
    table = {(r[0], r[1]): r[2:] for r in rows[1:]}
    _require(len(table) == len(rows) - 1, "duplicate rows in sweep.csv")
    expected = {(repr(float(l)), str(s)) for l in lambdas for s in seeds}
    expected |= {(repr(float(l)), "mean") for l in lambdas}
    _require(set(table) == expected,
             f"sweep.csv rows {sorted(set(table) ^ expected)} missing or extra")
    means = {}
    for lam in lambdas:
        key = repr(float(lam))
        per_seed = np.array([[float(v) for v in table[key, str(s)]] for s in seeds])
        _require(bool(np.isfinite(per_seed).all()), f"non-finite value at lambda {key}")
        mean = [float(v) for v in table[key, "mean"]]
        for j, value in enumerate(mean):
            _require(_close(value, float(np.mean(per_seed[:, j]))),
                     f"mean row of lambda {key}, column {header[j + 2]}")
        means[float(lam)] = dict(zip(header[2:], mean))
    top, zero = means[float(max(lambdas))], means[0.0]
    for a in attributes:
        _require(top[f"gap_rms_{a}"] < zero[f"gap_rms_{a}"],
                 f"gap_rms_{a} at lambda {max(lambdas)} ({top[f'gap_rms_{a}']:.4f}) "
                 f"not below lambda 0 ({zero[f'gap_rms_{a}']:.4f})")
    floor = 1.0 / num_classes + 0.25 * (1.0 - 1.0 / num_classes)
    _require(zero["balanced_tpr"] >= floor,
             f"lambda-0 balanced TPR {zero['balanced_tpr']:.4f} below {floor:.4f}")
    return top


# --- train ----------------------------------------------------------------

def _read_records(path: Path):
    labels, firsts, lasts, docs = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            label, first, last, doc = line.rstrip("\n").split("\t")
            labels.append(label.strip())
            firsts.append(first.strip() or None)
            lasts.append(last.strip() or None)
            docs.append(doc)
    return labels, firsts, lasts, docs


def _read_table(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        return {name: float(p) for name, p in (line.split() for line in fh if line.strip())}


def _race_labels(firsts, lasts, first_white, last_white, seed: int) -> np.ndarray:
    """Seeded Bernoulli draw from the mean of the known white proportions."""
    rng = np.random.default_rng(seed)
    values = np.full(len(firsts), -1, dtype=np.int8)
    for i, (first, last) in enumerate(zip(firsts, lasts)):
        probs = [t[name] for name, t in ((first, first_white), (last, last_white))
                 if name is not None and name in t]
        if probs:
            values[i] = 1 if rng.random() < float(np.mean(probs)) else 0
    return values


def _read_model(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[0] == "nameblind-model v1", f"{path.name}: bad tag")
    n_classes, n_features = int(lines[1].split()[1]), int(lines[2].split()[1])
    pos = 3
    classes = [l[len("class "):] for l in lines[pos:pos + n_classes]]
    pos += n_classes
    features = [l[len("feature "):] for l in lines[pos:pos + n_features]]
    pos += n_features
    W = np.array([[float(v) for v in l.split()[1:]] for l in lines[pos:pos + n_classes]])
    b = np.array([float(v) for v in lines[pos + n_classes].split()[1:]])
    _require(W.shape == (n_classes, n_features) and b.shape == (n_classes,),
             f"{path.name}: malformed weights")
    return classes, features, W, b


def _read_bias_report(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    blank = rows.index([])
    cells = {(r[0], r[3]): r for r in rows[1:blank]}
    summary = dict(zip(rows[blank + 1], rows[blank + 2]))
    return cells, summary


def _opt(cell: str):
    return None if cell == "" else float(cell)


def check_train_text(out_dir: Path, records: Path, first_white: Path,
                     last_white: Path, seeds, attribute: str = "race"):
    """Recompute each seed's test predictions and bias report from the saved
    model and the raw records; they must match bias_report_seed*.csv and
    summary.csv. Returns the summary's mean row."""
    labels, firsts, lasts, docs = _read_records(records)
    fw, lw = _read_table(first_white), _read_table(last_white)
    n = len(labels)
    summaries = []
    for seed in seeds:
        classes, features, W, b = _read_model(out_dir / f"model_seed{seed}.txt")
        _, test = _split(n, seed)
        race = _race_labels(firsts, lasts, fw, lw, seed)[test]
        column = {f: j for j, f in enumerate(features)}
        X = np.zeros((len(test), len(features)))
        for row, i in enumerate(test):
            for token in set(_WORD_RE.findall(docs[i].lower())):
                j = column.get(token)
                if j is not None:
                    X[row, j] = 1.0
        pred = np.argmax(X @ W.T + b, axis=1)
        class_index = {c: k for k, c in enumerate(classes)}
        y = np.array([class_index[labels[i]] for i in test])
        cells, summary = _read_bias_report(out_dir / f"bias_report_seed{seed}.csv")
        gaps, tprs_all = [], []
        for c, name in enumerate(classes):
            cell = cells[attribute, name]
            tpr = {}
            for group, col in ((1, 4), (0, 5)):
                support = (race == group) & (y == c)
                count = int(support.sum())
                _require(int(cell[7 if group else 8]) == count,
                         f"seed {seed}, class {name}: group {group} count")
                tpr[group] = (float(np.sum(pred[support] == c)) / count) if count else None
                got = _opt(cell[col])
                _require((got is None) == (tpr[group] is None)
                         and (got is None or _close(got, tpr[group])),
                         f"seed {seed}, class {name}: TPR of group {group} "
                         f"{got} != {tpr[group]}")
            gap = None if None in tpr.values() else tpr[1] - tpr[0]
            got = _opt(cell[6])
            _require((got is None) == (gap is None) and (got is None or _close(got, gap)),
                     f"seed {seed}, class {name}: gap {got} != {gap}")
            if gap is not None:
                gaps.append(gap)
            if (y == c).any():
                tprs_all.append(float(np.sum(pred[y == c] == c)) / int(np.sum(y == c)))
        expect = {
            "balanced_tpr": float(np.mean(tprs_all)),
            f"gap_rms_{attribute}": math.sqrt(float(np.mean(np.square(gaps)))),
            f"gap_max_{attribute}": float(np.max(np.abs(gaps))),
        }
        for key, value in expect.items():
            _require(_close(float(summary[key]), value),
                     f"seed {seed}: {key} {summary[key]} != recomputed {value}")
        summaries.append(expect)
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keys = rows[0][3:]
    for seed, expect in zip(seeds, summaries):
        row = next(r for r in rows[1:] if r[2] == str(seed))
        for key, cell in zip(keys, row[3:]):
            _require(_close(float(cell), expect[key]), f"summary.csv seed {seed} {key}")
    mean_row = next(r for r in rows[1:] if r[2] == "mean")
    mean = {k: float(v) for k, v in zip(keys, mean_row[3:])}
    for key in keys:
        _require(_close(mean[key], float(np.mean([e[key] for e in summaries]))),
                 f"summary.csv mean {key}")
    return mean


# --- k-means ----------------------------------------------------------------

def _read_vectors(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        return {f[0]: np.array([float(v) for v in f[1:]])
                for f in (line.split() for line in fh) if f}


def check_kmeans(capture: Path, records: Path, name_vectors: Path, seeds):
    """Per fit: the points are the training records' name vectors; every
    assignment is a nearest centroid; all k clusters are populated; inertia
    is the recomputed sum; inertia_history never increases."""
    data = np.load(capture)
    _require(f"points{len(seeds) - 1}" in data and f"points{len(seeds)}" not in data,
             f"expected one k-means call per seed, got {len(data.files) // 6}")
    _, firsts, lasts, _ = _read_records(records)
    vectors = _read_vectors(name_vectors)
    n = len(firsts)
    for i, seed in enumerate(seeds):
        order = np.random.default_rng(seed).permutation(n)
        train = np.sort(order[:int(n * 0.8)])
        expected = []
        for r in train:
            found = [vectors[t] for t in (firsts[r], lasts[r]) if t in vectors]
            if len(found) == 2:
                expected.append(0.5 * (found[0] + found[1]))
            elif found:
                expected.append(found[0])
        P = data[f"points{i}"]
        _require(P.shape == (len(expected), len(expected[0]))
                 and bool(np.array_equal(P, np.array(expected))),
                 f"seed {seed}: k-means points are not the covered name vectors")
        C, a, k = data[f"centroids{i}"], data[f"assignments{i}"], int(data[f"k{i}"])
        d2 = np.stack([((P - C[j]) ** 2).sum(axis=1) for j in range(k)], axis=1)
        own = d2[np.arange(len(P)), a]
        best = d2.min(axis=1)
        _require(bool(np.all(own - best <= TIE_TOL * np.maximum(1.0, best))),
                 f"seed {seed}: {int(np.sum(own - best > TIE_TOL * np.maximum(1.0, best)))} "
                 "points not assigned to their nearest centroid")
        _require(int(np.bincount(a, minlength=k).min()) > 0,
                 f"seed {seed}: empty cluster")
        inertia = float(data[f"inertia{i}"])
        _require(_close(float(own.sum()), inertia, TIE_TOL),
                 f"seed {seed}: inertia {inertia} != recomputed {own.sum()}")
        h = data[f"history{i}"]
        _require(bool(np.all(h[1:] <= h[:-1] * (1 + TOL))),
                 f"seed {seed}: inertia_history increases")
