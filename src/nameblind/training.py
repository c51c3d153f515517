"""Mini-batch Adam training combining the base loss with a fairness penalty.

Names enter only through the loss: the trained classifier's inputs contain
no name-derived features, so it can be deployed without access to names.
Runs are deterministic given a config seed.
"""

from __future__ import annotations

import csv
import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .clustering import ClusterModel, kmeans
from .embeddings import EmbeddingTable, NameTable, batch_name_vectors
from .model import (
    ModelParams,
    class_weights,
    forward_batch,
    loss_and_gradient,
    objective,
)
from .metrics import balanced_tpr

# most rows a full-set pass gathers at once (forward_rows). Over 19,200 x
# 1,818 binary features and 28 classes (one BLAS thread, 2-vCPU VM) a pass
# took 53-68 ms in blocks of 256 rows against 89-99 ms in blocks of 1,024
# and 166-176 ms in blocks of 8,192 (best of 5, three runs), with
# bit-identical probabilities.
BLOCK_ROWS = 256
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericalError(RuntimeError):
    """Training produced a non-finite loss or gradient.

    When train's loop raised it, at is where: (epoch, batch, 0) for a
    batch's loss check, (epoch, batch, 1) for its gradient check, and
    (epoch, number of batches + 1, 0) for the epoch's history.
    """

    at = None


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    lam scales the fairness penalty selected by variant ("none" disables
    it); k is the cluster count used by the cluster penalty.
    """

    lam: float = 0.0
    variant: str = "none"
    k: int = 12
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 50
    seed: int = 0
    l2_coeff: float = 0.0

    def __post_init__(self):
        for name in ("lam", "learning_rate", "l2_coeff"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.variant not in losses.VARIANTS:
            raise ValueError(
                f"variant must be one of {losses.VARIANTS}, got {self.variant!r}"
            )
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if self.l2_coeff < 0:
            raise ValueError("l2_coeff must be nonnegative")


@dataclass
class AdamState:
    """First/second moment accumulators and the shared timestep, of the
    shapes of W and b (with their model axis for a stack of models)."""

    m_W: np.ndarray
    v_W: np.ndarray
    m_b: np.ndarray
    v_b: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, *shape: int) -> "AdamState":
        """The state of a W of this shape, (num_classes, num_features) or
        (L, num_classes, num_features), and of its b."""
        return cls(
            m_W=np.zeros(shape),
            v_W=np.zeros(shape),
            m_b=np.zeros(shape[:-1]),
            v_b=np.zeros(shape[:-1]),
        )


@dataclass
class EpochRecord:
    epoch: int
    base_loss: float
    penalty: float
    total_loss: float
    val_balanced_tpr: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochRecord]
    cluster_model: ClusterModel | None
    split: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class GridResult:
    """The fits of one train call over a grid of penalty strengths: one
    TrainResult per lambda, in grid order, all on this split."""

    fits: list[TrainResult]
    split: tuple[np.ndarray, np.ndarray, np.ndarray]


def train_val_test_split(n: int, seed: int):
    """Seeded disjoint 80/10/10 index split; remainder rows land in the
    test part."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train:n_train + n_val]),
        np.sort(order[n_train + n_val:]),
    )


def adam_step(params: ModelParams, grad_W, grad_b, state: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update (Kingma & Ba 2015), applied in place
    to W and to b as whole arrays."""
    grad_W = np.asarray(grad_W, dtype=np.float64)
    grad_b = np.asarray(grad_b, dtype=np.float64)
    if not (np.isfinite(grad_W).all() and np.isfinite(grad_b).all()):
        raise NumericalError("non-finite gradients")
    state.t += 1
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, config.learning_rate
    for p, g, m, v in ((params.W, grad_W, state.m_W, state.v_W),
                       (params.b, grad_b, state.m_b, state.v_b)):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += g**2 * (1 - b2)
        p -= (m / (1 - b1**state.t)) * lr / (
            np.sqrt(v / (1 - b2**state.t)) + ADAM_EPS)


def train(dataset, embeddings: EmbeddingTable | None, config: TrainConfig,
          split=None, lams=None, history: bool = True):
    """Train the classifier with the configured penalty.

    Pipeline: when a penalty is on, the embeddings.NameTable of every
    record of the dataset is built from embeddings once per call (records
    whose names have no embedding coverage are excluded from penalty
    statistics); the cluster penalty clusters the included training
    records' name vectors once per call and freezes the assignments; each
    penalty is a table over fixed records (losses.CluclTable over the
    cluster ids, losses.CoclTable over the name-table rows of the records'
    names, never gathering a per-record vector), built per batch and, with
    history, once per call; class weights come from the training labels;
    each epoch shuffles with the seeded RNG and applies Adam per batch,
    checking every batch's objective for a non-finite total. With history
    each epoch then records each model's model.objective over the whole
    training split (the function loss_and_gradient differentiates) and
    its balanced TPR on the validation split in its history. Without it
    no epoch table is built and no full-set pass runs; each fit's history
    is [] and its parameters are the same bytes, since the history reads
    neither the RNG nor the optimizer state. Each batch gathers its rows
    with dataset.features.take, which keeps a sparse (BinaryRows) feature
    store sparse, and full-set passes go through forward_rows, so text
    features are never densified.
    Identical configs and seeds produce bitwise-identical parameters.

    lams, a sequence of penalty strengths, trains one model per strength
    in place of config.lam and returns a GridResult. After the setup
    above, the strengths are split into min(len(lams), usable_cpus())
    contiguous near-equal groups; the first is fitted in this process and
    each other one in a forked worker (_fit_groups), every group from the
    same RNG state and so over the same shuffles. A group's models run in
    lockstep: each batch is gathered, checked and given its penalty table
    once (none when all the group's strengths are 0), then one
    loss_and_gradient and one Adam step serve the stack, and each epoch's
    full-set passes gather each block once. A model's penalty is computed
    only when its strength is positive, and each fit is bitwise the
    TrainResult of train with config.lam set to its strength (and the
    same history), whatever the number of groups. A one-strength call
    never forks.
    """
    grid = lams is not None
    # replace re-runs TrainConfig's checks on each strength
    lams = ([replace(config, lam=lam).lam for lam in lams] if grid
            else [config.lam])
    if not lams:
        raise ValueError("lams must hold at least one penalty strength")
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    num_classes = len(dataset.class_names)
    if split is None:
        split = train_val_test_split(n, config.seed)
    train_idx, val_idx, _ = split
    features = dataset.features
    y = dataset.labels[train_idx]

    cluster_model = table = epoch_penalty = None
    if config.variant != "none" and max(lams) > 0:
        if embeddings is None:
            raise ValueError("the selected penalty needs an embedding table")
        names: NameTable = batch_name_vectors(
            embeddings, dataset.first_names, dataset.last_names)
        include = names.include[train_idx]
        if not include.any():
            raise ValueError(
                f"the {config.variant} penalty needs embedded names, but 0 of "
                f"{len(train_idx)} training records have a name in the "
                "embedding table"
            )
        if config.variant == "clucl":  # reads only the cluster ids
            cluster_model = kmeans(names.take(train_idx[include]), config.k,
                                   seed=config.seed)
            cluster_ids = np.zeros(len(train_idx), dtype=np.int64)
            cluster_ids[include] = cluster_model.assignments

            def table(rows):
                return losses.CluclTable(y[rows], cluster_ids[rows],
                                         include[rows], config.k, num_classes)
        else:  # cocl reads the name-table rows of the records' names
            first, last = names.first[train_idx], names.last[train_idx]

            def table(rows):
                return losses.CoclTable(y[rows], names.vectors, first[rows],
                                        last[rows], num_classes)
        if history:
            epoch_penalty = table(slice(None)).penalty
    weights = class_weights(np.bincount(y, minlength=num_classes))
    rng = np.random.default_rng(config.seed)
    n_train = len(train_idx)
    num_batches = -(-n_train // config.batch_size)

    def fit_lockstep(group):
        """The stacked W and b and the histories of group's models."""
        shape = (len(group), num_classes, features.shape[1])
        params = ModelParams(W=np.zeros(shape), b=np.zeros(shape[:-1]))
        state = AdamState.zeros(*shape)
        group_table = table if max(group) > 0 else None
        histories: list[list[EpochRecord]] = [[] for _ in group]
        try:
            for epoch in range(1, config.epochs + 1):
                order = rng.permutation(n_train)
                for batch_no, start in enumerate(
                        range(0, n_train, config.batch_size), 1):
                    where = (epoch, batch_no, 0)
                    batch = order[start:start + config.batch_size]
                    batch_penalty = (None if group_table is None
                                     else group_table(batch).penalty)
                    totals, grad_W, grad_b = loss_and_gradient(
                        params, features.take(train_idx[batch], axis=0),
                        y[batch], weights, config.l2_coeff,
                        [batch_penalty if lam > 0 else None for lam in group],
                        group,
                    )
                    # an overflowing penalty value can come with a zero
                    # gradient, which adam_step's own check lets pass
                    if not np.isfinite(totals).all():
                        i = int(np.flatnonzero(~np.isfinite(totals))[0])
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch}, batch "
                            f"{batch_no}: lambda={group[i]!r}, "
                            f"total={float(totals[i])!r}"
                        )
                    where = (epoch, batch_no, 1)
                    adam_step(params, grad_W, grad_b, state, config)
                if not history:
                    continue

                # each model's objective over the whole training split
                where = (epoch, num_batches + 1, 0)
                totals, bases, penalties, _, _ = objective(
                    params.W, forward_rows(params, features, train_idx), y,
                    weights, config.l2_coeff,
                    [epoch_penalty if lam > 0 else None for lam in group],
                    group)
                records = []
                for total, base, penalty in zip(totals, bases, penalties):
                    if not np.isfinite(total):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch}: base={base}, "
                            f"penalty={penalty}"
                        )
                    records.append((epoch, base, penalty, total))
                if len(val_idx):
                    val_preds = forward_rows(
                        params, features, val_idx).argmax(axis=-1)
                    val_tprs = [balanced_tpr(preds, dataset.labels[val_idx],
                                             num_classes)
                                for preds in val_preds]
                else:
                    val_tprs = [float("nan")] * len(group)
                for fit_history, record, val_tpr in zip(histories, records,
                                                        val_tprs):
                    fit_history.append(EpochRecord(*record, val_tpr))
        except NumericalError as exc:
            exc.at = where
            raise
        return params.W, params.b, histories

    parts = np.array_split(np.arange(len(lams)),
                           min(len(lams), usable_cpus()))
    fits = [TrainResult(params=ModelParams(W, b), history=fit_history,
                        cluster_model=cluster_model, split=split)
            for stack_W, stack_b, group_histories in _fit_groups(
                fit_lockstep, [[lams[i] for i in part] for part in parts])
            for W, b, fit_history in zip(stack_W, stack_b, group_histories)]
    if grid:
        return GridResult(fits=fits, split=split)
    return fits[0]


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where os.fork is missing, so
    that train fits its whole grid in the calling process."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fit_groups(fit, groups) -> list:
    """[fit(group) for group in groups], each group after the first fitted
    in a worker process forked from this one while this process fits the
    first.

    A worker is a copy of this process, its pages shared copy-on-write,
    so fit may close over anything the setup built. It pickles fit's
    result, or whatever fit raised, into a pipe and leaves by os._exit:
    it never returns into the caller. Every worker is waited for on every
    path. Once this process's group is done, or has raised a
    NumericalError, each worker's outcome is read and the worker reaped;
    any other exception here (KeyboardInterrupt too) terminates and reaps
    them before it propagates. Failures are raised whole, never as a
    partial grid: first any failure other than a NumericalError, in group
    order (a worker's own exception, or RuntimeError for a worker that
    ended without sending an outcome), else the NumericalError of the
    earliest at, ties going to group order, so that a rerun, whatever the
    number of groups, raises the same message.
    """
    workers = []  # [pid, read end of its pipe, group]; pid None once reaped
    try:
        for group in groups[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fit, group, write_fd,
                           [read_fd, *(worker[1] for worker in workers)])
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            workers.append([pid, read_fd, group])
        try:
            outcomes = [(True, fit(groups[0]))]
        except NumericalError as exc:
            outcomes = [(False, exc)]
        for worker in workers:
            pid, read_fd, group = worker
            with open(read_fd, "rb", closefd=False) as fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            worker[0] = None
            if code != 0:
                outcomes.append((False, RuntimeError(
                    f"the training worker for lambdas {group} ended without "
                    f"a result ({'exit code' if code > 0 else 'signal'} "
                    f"{abs(code)})")))
            else:
                outcomes.append(pickle.loads(payload))
    finally:
        for pid, read_fd, _ in workers:
            if pid is not None:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            os.close(read_fd)
    failures = [(i, value) for i, (ok, value) in enumerate(outcomes)
                if not ok]
    for _, exc in failures:
        if not isinstance(exc, NumericalError):
            raise exc
    if failures:
        raise min(failures, key=lambda failure: (failure[1].at, failure[0]))[1]
    return [value for _, value in outcomes]


def _serve(fit, group, write_fd, inherited):
    """A worker's whole life: write the pickle of (True, fit(group)), or
    of (False, what it raised), to write_fd and exit 0; exit 1 when that
    fails. inherited are the caller's pipe ends this copy does not use."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            outcome = (True, fit(group))
        # the caller raises it: a KeyboardInterrupt here must reach it too
        except BaseException as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def forward_rows(params, features, rows) -> np.ndarray:
    """forward_batch(params, features.take(rows, axis=0)) for any number
    of rows, and for one model or a stack.

    The rows are walked in near-equal blocks of at most BLOCK_ROWS, so no
    more than one block of gathered rows exists at a time (one gather
    serves every model of a stack). A BinaryRows store's logits are row
    by row sums, the same bytes whatever the blocks. For dense rows the
    blocks are near-equal so that every block has at least BLOCK_ROWS / 2
    rows when there is more than one: BLAS multiplies a product of a few
    rows (under about 32 with OpenBLAS 0.3.31 on a Haswell-class CPU)
    through other kernels, whose rounding can differ from the one product
    over all rows.
    """
    rows = np.asarray(rows)
    blocks = np.array_split(rows, max(1, -(-len(rows) // BLOCK_ROWS)))
    return np.concatenate([forward_batch(params, features.take(b, axis=0))
                           for b in blocks], axis=-2)


def write_history_csv(history: list[EpochRecord], path) -> None:
    """Emit the per-epoch training record as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "base_loss", "penalty", "total_loss", "val_balanced_tpr"]
        )
        for rec in history:
            writer.writerow(
                [
                    rec.epoch,
                    repr(rec.base_loss),
                    repr(rec.penalty),
                    repr(rec.total_loss),
                    repr(rec.val_balanced_tpr),
                ]
            )
