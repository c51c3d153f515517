"""Independent oracles used to verify library outputs.

Nothing here imports the package under test: every check is a from-scratch
implementation (finite differences, brute-force enumeration, plain
counting loops), deliberately written in the most obvious way.
"""

import csv
import itertools
import math
import re
import string
from collections import Counter

import numpy as np


def central_diff_grad(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_grad = grad.ravel()
    flat_x = x.copy().ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        hi = f(flat_x.reshape(x.shape))
        flat_x[i] = orig - step
        lo = f(flat_x.reshape(x.shape))
        flat_x[i] = orig
        flat_grad[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_error(a, b):
    """Norm-based relative error between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def lloyd_oracle_best(points, k, seed, restarts=50):
    """Best inertia over seeded random restarts of plain Lloyd iterations."""
    pts = [tuple(float(v) for v in p) for p in points]
    distinct = sorted(set(pts))
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        chosen = rng.choice(len(distinct), size=k, replace=False)
        centroids = [distinct[int(i)] for i in chosen]
        assignment = None
        for _ in range(200):
            new_assignment = []
            for p in pts:
                dists = [
                    sum((a - b) ** 2 for a, b in zip(p, c)) for c in centroids
                ]
                new_assignment.append(dists.index(min(dists)))
            if new_assignment == assignment:
                break
            assignment = new_assignment
            for j in range(k):
                members = [p for p, a in zip(pts, assignment) if a == j]
                if members:
                    centroids[j] = tuple(
                        sum(vals) / len(members) for vals in zip(*members)
                    )
        inertia = sum(
            sum((a - b) ** 2 for a, b in zip(p, centroids[asg]))
            for p, asg in zip(pts, assignment)
        )
        best = min(best, inertia)
    return best


def optimal_partition_inertia(points, k):
    """Exact optimum of the k-means objective by enumerating assignments."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    best = math.inf
    for assignment in itertools.product(range(k), repeat=n):
        inertia = 0.0
        for j in range(k):
            members = pts[[i for i in range(n) if assignment[i] == j]]
            if len(members):
                center = members.mean(axis=0)
                inertia += float(((members - center) ** 2).sum())
        best = min(best, inertia)
    return best


def clucl_loop_penalty(probs, labels, cluster_ids, mask, k, num_classes):
    """Cluster penalty by per-class, per-cluster loops."""
    if k == 1:
        return 0.0
    total = 0.0
    for c in range(num_classes):
        sel = mask & (labels == c)
        if not np.any(sel):
            continue
        p = probs[sel]
        ids = cluster_ids[sel]
        means = np.array(
            [p[ids == u].mean() for u in range(k) if np.any(ids == u)]
        )
        v = len(means)
        if v < 2:
            continue
        diffs = means[:, None] - means[None, :]
        total += float(np.sum(diffs**2)) / (v * (v - 1))
    return total / num_classes


def clucl_loop_gradient(probs, labels, cluster_ids, mask, k, num_classes):
    """Cluster-penalty gradient by per-class, per-cluster loops."""
    grad = np.zeros(len(probs))
    if k == 1:
        return grad
    for c in range(num_classes):
        sel = mask & (labels == c)
        if not np.any(sel):
            continue
        p = probs[sel]
        ids = cluster_ids[sel]
        valid = [u for u in range(k) if np.any(ids == u)]
        v = len(valid)
        if v < 2:
            continue
        means = np.array([p[ids == u].mean() for u in valid])
        counts = np.array([np.count_nonzero(ids == u) for u in valid])
        pairs = v * (v - 1)
        mean_grads = 4.0 * (v * means - means.sum()) / pairs
        sel_idx = np.flatnonzero(sel)
        for u, mg, cnt in zip(valid, mean_grads, counts):
            grad[sel_idx[ids == u]] = mg / (cnt * num_classes)
    return grad


def cocl_loop_penalty(probs, labels, vectors, mask, num_classes):
    """Covariance penalty by a per-class loop."""
    total = 0.0
    for c in range(num_classes):
        sel = mask & (labels == c)
        if np.count_nonzero(sel) < 2:
            continue
        p = probs[sel]
        nv = vectors[sel]
        cov = ((p - p.mean())[:, None] * (nv - nv.mean(axis=0))).mean(axis=0)
        total += float(np.linalg.norm(cov))
    return total / num_classes


def cocl_loop_gradient(probs, labels, vectors, mask, num_classes):
    """Covariance-penalty gradient by a per-class loop."""
    grad = np.zeros(len(probs))
    for c in range(num_classes):
        sel = mask & (labels == c)
        n_c = int(np.count_nonzero(sel))
        if n_c < 2:
            continue
        p = probs[sel]
        nv = vectors[sel]
        centered = nv - nv.mean(axis=0)
        cov = ((p - p.mean())[:, None] * centered).mean(axis=0)
        norm = float(np.linalg.norm(cov))
        if norm == 0.0:
            continue
        grad[np.flatnonzero(sel)] = centered @ (cov / norm) / (n_c * num_classes)
    return grad


def count_tpr(predictions, labels, mask, c):
    """Loop-counted TPR; None when the group has no label-c records."""
    total = 0
    hits = 0
    for p, y, m in zip(predictions, labels, mask):
        if m and y == c:
            total += 1
            if p == c:
                hits += 1
    if total == 0:
        return None
    return hits / total


def count_bias_report(predictions, labels, attributes, num_classes):
    """Loop-counted bias report.

    attributes: list of (name, values) with values 1/0/-1 per record.
    Returns a dict per attribute with per-class TPRs, gaps, rms and max,
    plus the overall balanced TPR over classes that have records.
    """
    out = {}
    for name, values in attributes:
        tpr_pos, tpr_neg, gaps = [], [], []
        for c in range(num_classes):
            tp = count_tpr(predictions, labels, [v == 1 for v in values], c)
            tn = count_tpr(predictions, labels, [v == 0 for v in values], c)
            tpr_pos.append(tp)
            tpr_neg.append(tn)
            gaps.append(None if tp is None or tn is None else tp - tn)
        defined = [g for g in gaps if g is not None]
        out[name] = {
            "tpr_pos": tpr_pos,
            "tpr_neg": tpr_neg,
            "gaps": gaps,
            "rms": math.sqrt(sum(g * g for g in defined) / len(defined))
            if defined
            else None,
            "max": max(abs(g) for g in defined) if defined else None,
        }
    per_class = []
    everyone = [True] * len(labels)
    for c in range(num_classes):
        t = count_tpr(predictions, labels, everyone, c)
        if t is not None:
            per_class.append(t)
    out["balanced_tpr"] = sum(per_class) / len(per_class)
    return out


def dense_bag_of_words(token_lists, vocabulary):
    """Dense binary (documents x vocabulary) matrix: 1 where the document
    holds the type (the original dense fill loop)."""
    index = {t: j for j, t in enumerate(vocabulary)}
    features = np.zeros((len(token_lists), len(vocabulary)))
    for i, tokens in enumerate(token_lists):
        features[i, [index[t] for t in set(tokens) if t in index]] = 1.0
    return features


def densify(rows):
    """The dense float64 matrix of a CSR binary store (indptr, indices and
    num_columns, as data.BinaryRows holds them): 1.0 at each row's listed
    columns, filled row by row."""
    dense = np.zeros((len(rows.indptr) - 1, rows.num_columns))
    for i, (start, end) in enumerate(zip(rows.indptr[:-1], rows.indptr[1:])):
        dense[i, rows.indices[start:end]] = 1.0
    return dense


# ------------------------------------------------------- ingest reference loops
#
# The record-at-a-time ingest code the package used before parsing moved
# to one pass per file: every function reads its inputs from scratch.

_STRIP_CHARS = string.punctuation + string.whitespace
_PRONOUNS = {"he", "she", "her", "his", "him", "hers", "himself", "herself",
             "mr", "mrs", "ms"}


def _normalize(token):
    return token.strip(_STRIP_CHARS).lower()


def race_labels_loop(first_names, last_names, first_white, last_white, seed):
    """One Bernoulli draw per record whose first or last name is in its
    table, at the mean of the found proportions; -1 elsewhere."""
    rng = np.random.default_rng(seed)
    values = np.full(len(first_names), -1, dtype=np.int8)
    for i, (first, last) in enumerate(zip(first_names, last_names)):
        probs = []
        if first is not None:
            p = first_white.get(_normalize(first))
            if p is not None:
                probs.append(p)
        if last is not None:
            p = last_white.get(_normalize(last))
            if p is not None:
                probs.append(p)
        if not probs:
            continue
        values[i] = 1 if rng.random() < float(np.mean(probs)) else 0
    return values


def synthetic_names_loop(race, gender, pools, seed):
    """One uniform draw per record from pools[(white, male)] (sorted lists)."""
    rng = np.random.default_rng(seed)
    names = []
    for w, m in zip(race, gender):
        pool = pools[(int(w), int(m))]
        names.append(pool[rng.integers(len(pool))])
    return names


def name_vectors_loop(entries, dimension, first_names, last_names):
    """(vectors, coverages, include): mean of the found name vectors."""
    vectors = np.zeros((len(first_names), dimension))
    coverages = []
    for i, (first, last) in enumerate(zip(first_names, last_names)):
        fv = None if first is None else entries.get(_normalize(first) or None)
        lv = None if last is None else entries.get(_normalize(last) or None)
        if fv is not None and lv is not None:
            vectors[i] = 0.5 * (fv + lv)
            coverages.append("both-found")
        elif fv is not None:
            vectors[i] = fv
            coverages.append("first-only")
        elif lv is not None:
            vectors[i] = lv
            coverages.append("last-only")
        else:
            coverages.append("none")
    include = np.array([c != "none" for c in coverages], dtype=bool)
    return vectors, coverages, include


def load_embeddings_split(path, allowlist):
    """(dimension, {token: vector}) splitting every line; raises ValueError
    naming the line of a vector of the wrong length."""
    wanted = {_normalize(t) for t in allowlist}
    entries = {}
    with open(path, encoding="utf-8") as fh:
        dimension = int(fh.readline().split()[1])
        for line_no, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) - 1 != dimension:
                raise ValueError(f"line {line_no}")
            token = _normalize(fields[0])
            if token and token in wanted:
                entries[token] = np.array(fields[1:], dtype=np.float64)
    return dimension, entries


def regex_tokens(document):
    """The word tokens of a document, by regular expression: the maximal
    runs of [a-z0-9'] in the lowercased text."""
    return re.findall(r"[a-z0-9']+", document.lower())


def _scrub(document, first_name):
    remove = set(_PRONOUNS)
    if first_name is not None and _normalize(first_name):
        remove.add(_normalize(first_name))
    return " ".join(t for t in document.split() if _normalize(t) not in remove)


def load_text_loop(path, min_count, top_fraction, scrub_names, fit_indices):
    """Text records with a vocabulary pruned on the fit rows: a dict of
    labels, class_names, first/last names, vocabulary and, per record, its
    sorted vocabulary columns."""
    labels_raw, first_names, last_names, documents = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            label, first, last, document = line.rstrip("\n").split("\t")
            labels_raw.append(label.strip())
            first_names.append(first.strip() or None)
            last_names.append(last.strip() or None)
            documents.append(document)
    if scrub_names:
        documents = [_scrub(d, f) for d, f in zip(documents, first_names)]
    token_lists = [regex_tokens(d) for d in documents]
    fit = (token_lists if fit_indices is None
           else [token_lists[i] for i in fit_indices])
    occurrences, doc_freq = Counter(), Counter()
    for tokens in fit:
        occurrences.update(tokens)
        doc_freq.update(set(tokens))
    types = sorted(doc_freq, key=lambda t: (-doc_freq[t], t))
    n_drop = int(top_fraction * len(types))
    vocabulary = sorted(t for t in types[n_drop:] if occurrences[t] >= min_count)
    index = {t: j for j, t in enumerate(vocabulary)}
    class_names = sorted(set(labels_raw))
    return {
        "labels": [class_names.index(v) for v in labels_raw],
        "class_names": class_names,
        "first_names": first_names,
        "last_names": last_names,
        "vocabulary": vocabulary,
        "rows": [sorted({index[t] for t in tokens if t in index})
                 for tokens in token_lists],
    }


def load_tabular_loop(path, roles, fit_indices):
    """CSV records preprocessed on the fit rows, cell by cell.

    roles maps each column to (role, group positive value or None).
    Returns a dict of dense features, feature_names, labels, class_names,
    first/last names, attributes [(name, positive, negative, values)] and
    warnings [(column, value)] for categories unseen in the fit rows.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [[c.strip() for c in row] for row in reader if row]
    fit_rows = rows if fit_indices is None else [rows[i] for i in fit_indices]
    n = len(rows)
    blocks, names, warnings, attributes = [], [], [], []
    first_names = last_names = [None] * n
    label_column = None
    for j, name in enumerate(header):
        role, positive = roles[name]
        cells = [row[j] for row in rows]
        fit_cells = [row[j] for row in fit_rows]
        if role == "continuous":
            values = [float(v) for v in cells]
            lo = min(float(v) for v in fit_cells)
            hi = max(float(v) for v in fit_cells)
            column = np.zeros((n, 1))
            for i, v in enumerate(values):
                if hi > lo:
                    column[i, 0] = min(max((v - lo) / (hi - lo), 0.0), 1.0)
            blocks.append(column)
            names.append(name)
        elif role == "categorical":
            categories = sorted(set(fit_cells))
            column = np.zeros((n, len(categories)))
            for i, cell in enumerate(cells):
                if cell in categories:
                    column[i, categories.index(cell)] = 1.0
            warnings.extend((name, v) for v in sorted(set(cells) - set(categories)))
            blocks.append(column)
            names.extend(f"{name}={c}" for c in categories)
        elif role == "label":
            label_column = cells
        elif role == "first_name":
            first_names = [c or None for c in cells]
        elif role == "last_name":
            last_names = [c or None for c in cells]
        if positive is not None:
            others = sorted({c for c in cells if c and c != positive})
            negative = others[0] if len(others) == 1 else f"not-{positive}"
            values = [-1 if not c else int(c == positive) for c in cells]
            attributes.append((name, positive, negative, values))
    class_names = sorted(set(label_column))
    return {
        "features": np.hstack(blocks) if blocks else np.zeros((n, 0)),
        "feature_names": names,
        "labels": [class_names.index(v) for v in label_column],
        "class_names": class_names,
        "first_names": first_names,
        "last_names": last_names,
        "attributes": attributes,
        "warnings": warnings,
    }


# Per-point k-means: the library's algorithm with every distance measured
# for every point, duplicates included. The library measures each distinct
# row once; tests/test_clustering.py requires equal bytes, not a tolerance.

def _oracle_sq_dists_to(pts, centroids, index):
    out = np.empty(len(pts))
    for start in range(0, len(pts), 256):
        rows = slice(start, start + 256)
        diff = centroids[index[rows]] - pts[rows]
        out[rows] = np.einsum("nd,nd->n", diff, diff)
    return out


def _oracle_nearest(pts, sq_norms, centroids):
    d2 = pts @ centroids.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += np.einsum("kd,kd->k", centroids, centroids)
    np.maximum(d2, 0.0, out=d2)
    return np.argmin(d2, axis=1)


def kmeans_pp_init_per_point(pts, k, seed):
    """k-means++ seeding with distances to every point, duplicates included."""
    pts = np.asarray(pts, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[rng.integers(len(pts))]
    if k == 1:
        return centroids
    row0 = np.zeros(len(pts), dtype=np.intp)
    d2 = _oracle_sq_dists_to(pts, centroids[:1], row0)
    for j in range(1, k):
        probs = d2 / d2.sum()
        idx = rng.choice(len(pts), p=probs)
        centroids[j] = pts[idx]
        d2 = np.minimum(d2, _oracle_sq_dists_to(pts, centroids[j:j + 1], row0))
    return centroids


def lloyd_per_point(pts, sq_norms, centroids, max_iters, tol):
    k = len(centroids)
    history = []
    iterations_run = 0
    for _ in range(max_iters):
        iterations_run += 1
        assignments = _oracle_nearest(pts, sq_norms, centroids)
        per_point = _oracle_sq_dists_to(pts, centroids, assignments)
        for _sweep in range(k):
            empty = np.flatnonzero(np.bincount(assignments, minlength=k) == 0)
            if len(empty) == 0:
                break
            for j in empty:
                idx = int(np.argmax(per_point))
                if per_point[idx] == 0.0:
                    break
                centroids[j] = pts[idx]
                assignments[idx] = j
                per_point[idx] = 0.0
        history.append(float(per_point.sum()))
        counts = np.bincount(assignments, minlength=k)
        alive = counts > 0
        onehot = np.zeros((k, len(pts)))
        onehot[assignments, np.arange(len(pts))] = 1.0
        new_centroids = centroids.copy()
        new_centroids[alive] = (onehot @ pts)[alive] / counts[alive, None]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tol:
            break
    assignments = _oracle_nearest(pts, sq_norms, centroids)
    inertia = float(_oracle_sq_dists_to(pts, centroids, assignments).sum())
    history.append(inertia)
    return {"centroids": centroids, "assignments": assignments,
            "inertia": inertia, "iterations_run": iterations_run,
            "inertia_history": history}


def kmeans_per_point(points, k, seed, max_iters=100, tol=1e-4, n_init=10):
    """Best of n_init k-means++ runs, every distance taken per point.

    Same contract as the library's kmeans (including the exhaustive
    k-subset inits over np.unique's rows on tiny instances); returns a
    dict of the ClusterModel fields.
    """
    pts = np.asarray(points, dtype=np.float64)
    distinct = np.unique(pts, axis=0)
    sq_norms = np.einsum("nd,nd->n", pts, pts)
    best = None
    for i in range(n_init):
        init = kmeans_pp_init_per_point(pts, k, seed + i)
        model = lloyd_per_point(pts, sq_norms, init, max_iters, tol)
        if best is None or model["inertia"] < best["inertia"]:
            best = model
    if len(distinct) >= k and math.comb(len(distinct), k) <= 200:
        for subset in itertools.combinations(range(len(distinct)), k):
            model = lloyd_per_point(pts, sq_norms, distinct[list(subset)],
                                     max_iters, tol)
            if model["inertia"] < best["inertia"]:
                best = model
    return best
