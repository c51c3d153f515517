"""Independent oracles used to verify library outputs.

Nothing here imports the package under test: every check is a from-scratch
implementation (finite differences, brute-force enumeration, plain
counting loops), deliberately written in the most obvious way.
"""

import itertools
import math

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
