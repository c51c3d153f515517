"""Constructed fairness benchmark.

2,000 records, 2 classes, 20 features. A latent binary attribute
(a) shifts the distribution of one feature (the "proxy" feature) and
(b) decides which of two well-separated 16-dimensional name-embedding
blobs the record's name vectors are drawn from. Attribute-correlated
label noise (true-class-1 records in group one are relabeled with a fixed
probability) makes the unpenalized classifier lean on the proxy feature,
which opens a true-positive-rate gap between the groups. The penalties
see the attribute only through the name embeddings.
"""

import csv

import numpy as np

from nameblind.data import Dataset
from nameblind.embeddings import EmbeddingTable
from nameblind.metrics import GroupAttribute, GroupLabels, bias_report
from nameblind.model import predict_batch
from nameblind.training import TrainConfig, train

N_RECORDS = 2000
N_FEATURES = 20
EMBEDDING_DIM = 16
PROXY_FEATURE = "x00"
SIGNAL_SHIFTS = (1.2, 0.9, 0.7)   # class shift of features x01..x03
PROXY_SHIFT = 2.0                 # attribute shift of feature x00
FLIP_RATE = 0.45                  # P(relabel | group one, true class one)
NAMES_PER_GROUP = 40
BLOB_OFFSET = 1.2                 # +/- per coordinate on 4 of 16 dims
BLOB_SPREAD = 0.3

TRAIN_KW = dict(learning_rate=0.02, batch_size=256, epochs=40)
ATTRIBUTE = "grp"


def _name_pools(rng):
    """Per-group first/last name pools and their embedding entries."""
    entries = {}
    pools = {}
    center = np.zeros(EMBEDDING_DIM)
    center[:4] = BLOB_OFFSET
    for group, sign in ((0, -1.0), (1, 1.0)):
        firsts, lasts = [], []
        for i in range(NAMES_PER_GROUP):
            first = f"fn{group}x{i:02d}"
            last = f"ln{group}x{i:02d}"
            entries[first] = sign * center + rng.normal(0, BLOB_SPREAD,
                                                        EMBEDDING_DIM)
            entries[last] = sign * center + rng.normal(0, BLOB_SPREAD,
                                                       EMBEDDING_DIM)
            firsts.append(first)
            lasts.append(last)
        pools[group] = (firsts, lasts)
    return pools, entries


def make_benchmark(seed, n=N_RECORDS):
    """Build the benchmark.

    Returns (dataset, table, clean_labels): the dataset's labels carry the
    attribute-correlated noise and are what training sees; clean_labels
    are the noise-free ground truth that bias measurement runs against.
    """
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 2, size=n)
    true_class = rng.integers(0, 2, size=n)
    X = rng.normal(0.0, 1.0, size=(n, N_FEATURES))
    X[:, 0] = PROXY_SHIFT * group + rng.normal(0.0, 0.5, size=n)
    for j, shift in enumerate(SIGNAL_SHIFTS, start=1):
        X[:, j] += shift * true_class
    labels = true_class.copy()
    flip = (group == 1) & (true_class == 1) & (rng.random(n) < FLIP_RATE)
    labels[flip] = 0

    pools, entries = _name_pools(rng)
    first_names = []
    last_names = []
    for g in group:
        firsts, lasts = pools[int(g)]
        first_names.append(firsts[rng.integers(len(firsts))])
        last_names.append(lasts[rng.integers(len(lasts))])

    dataset = Dataset(
        features=X,
        labels=labels,
        first_names=first_names,
        last_names=last_names,
        feature_names=[f"x{j:02d}" for j in range(N_FEATURES)],
        class_names=["lo", "hi"],
        eval_groups=GroupLabels(
            [GroupAttribute(ATTRIBUTE, "one", "zero",
                            group.astype(np.int8))]
        ),
    )
    table = EmbeddingTable(dimension=EMBEDDING_DIM, entries=entries)
    return dataset, table, true_class


def run_benchmark(variant, lam, seeds, k=2, **train_overrides):
    """Train per seed; mean (rms_gap, balanced_tpr) vs the clean labels."""
    kw = dict(TRAIN_KW)
    kw.update(train_overrides)
    gaps, balanced = [], []
    for seed in seeds:
        dataset, table, clean = make_benchmark(seed)
        config = TrainConfig(lam=lam, variant=variant, k=k, seed=seed, **kw)
        result = train(dataset, table, config)
        preds = predict_batch(result.params, dataset.features)
        report = bias_report(
            preds, clean, dataset.eval_groups,
            num_classes=2, class_names=dataset.class_names,
        )
        gaps.append(report.get(ATTRIBUTE).gap_rms)
        balanced.append(report.balanced_tpr)
    return float(np.mean(gaps)), float(np.mean(balanced))


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write the table in the vector-file text format (exact round-trip)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.entries)} {table.dimension}\n")
        for token, vector in table.entries.items():
            values = " ".join(repr(float(v)) for v in vector)
            fh.write(f"{token} {values}\n")


def write_benchmark_files(directory, seed):
    """Materialize one benchmark instance as CLI-consumable files."""
    dataset, table, _ = make_benchmark(seed)
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / "data.csv"
    grp = dataset.eval_groups.get(ATTRIBUTE).values
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            dataset.feature_names + ["label", "first_name", "last_name",
                                     ATTRIBUTE]
        )
        for i in range(len(dataset)):
            writer.writerow(
                [repr(float(v)) for v in dataset.features[i]]
                + [
                    dataset.class_names[dataset.labels[i]],
                    dataset.first_names[i],
                    dataset.last_names[i],
                    "one" if grp[i] == 1 else "zero",
                ]
            )
    schema_path = directory / "schema.txt"
    lines = [f"{name} continuous" for name in dataset.feature_names]
    lines += [
        "label label",
        "first_name first_name",
        "last_name last_name",
        f"{ATTRIBUTE} group=one",
    ]
    schema_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    embeddings_path = directory / "embeddings.txt"
    save_embeddings(table, embeddings_path)
    return data_path, schema_path, embeddings_path
