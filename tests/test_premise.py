"""The paper's premise: the penalties cut the gap through the names.

On the constructed benchmark (tests/synth_benchmark.py) each variant at
lambda = 2, averaged over seeds 0-3, must cut the RMS TPR gap far more with
the benchmark's name vectors than with the same vectors permuted among
the names (np.random.default_rng(12345).permutation over the table's
tokens). A penalty that stopped reading which name goes with which record
would cut both alike, however it moved the gap.

Measured (numpy 2.4, one BLAS thread): the lambda = 0 gap is 0.234; the
real cuts are 0.137 (cocl) and 0.102 (clucl); the shuffled cuts are 0.020
and -0.002; the 20 fits (5 runs of 4 seeds) take about 1.8 s on one core
of a 2-vCPU VM. Required: a real cut of at least 2.5 times the shuffled
cut clipped at 0, and of at least 0.05.
"""

import numpy as np
import pytest

import synth_benchmark as bench
from nameblind.embeddings import EmbeddingTable
from nameblind.metrics import bias_report
from nameblind.model import predict_batch
from nameblind.training import TrainConfig, train

SEEDS = (0, 1, 2, 3)
SHUFFLE_SEED = 12345
RATIO = 2.5
MIN_CUT = 0.05


def shuffled(table: EmbeddingTable) -> EmbeddingTable:
    """table's vectors permuted among its tokens."""
    tokens = list(table.entries)
    order = np.random.default_rng(SHUFFLE_SEED).permutation(len(tokens))
    return EmbeddingTable(table.dimension, {
        token: table.entries[tokens[j]] for token, j in zip(tokens, order)})


def mean_gap(variant, lam, shuffle=False):
    """The benchmark's RMS TPR gap against the clean labels, averaged over
    SEEDS (bench.run_benchmark's, with the table optionally shuffled)."""
    gaps = []
    for seed in SEEDS:
        dataset, table, clean = bench.make_benchmark(seed)
        if shuffle:
            table = shuffled(table)
        config = TrainConfig(lam=lam, variant=variant, k=2, seed=seed,
                             **bench.TRAIN_KW)
        params = train(dataset, table, config).params
        report = bias_report(predict_batch(params, dataset.features), clean,
                             dataset.eval_groups, num_classes=2,
                             class_names=dataset.class_names)
        gaps.append(report.get(bench.ATTRIBUTE).gap_rms)
    return float(np.mean(gaps))


@pytest.fixture(scope="module")
def baseline_gap():
    return mean_gap("none", 0.0)


@pytest.mark.parametrize("variant", ["cocl", "clucl"])
def test_names_beat_shuffled_names(variant, baseline_gap):
    real = baseline_gap - mean_gap(variant, 2.0)
    fake = baseline_gap - mean_gap(variant, 2.0, shuffle=True)
    print(f"{variant}: lambda=0 gap {baseline_gap:.3f}, cut {real:.3f} "
          f"with the names, {fake:.3f} with shuffled names")
    assert real >= MIN_CUT
    assert real >= RATIO * max(fake, 0.0)
