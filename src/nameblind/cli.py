"""Command-line entry points.

Subcommands: train, evaluate, sweep, cluster-report, weights-report.
Every run is driven by an ExperimentSpec that can come from flags, from a
JSON config file, or both (flags override the file). All randomness is
controlled by the explicit seeds in the spec, and outputs carry no
timestamps, so reruns with an identical spec overwrite identically.

Exit codes: 0 success, 1 validation error, 2 missing/unreadable input,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import re
import sys
import types
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import kmeans, write_assignments, write_centroids
from .data import (
    NameDemographics,
    TabularSchema,
    assign_synthetic_names,
    check_pruning,
    draw_race_labels,
    fit_tabular,
    fit_text,
    load_name_probabilities,
    parse_tabular,
    parse_text,
    partition_names,
    white_probabilities,
)
from .embeddings import batch_name_vectors, load_embeddings
from .losses import VARIANTS
from .metrics import (
    GroupAttribute,
    GroupLabels,
    bias_report,
    csv_cell,
    summary_header,
    summary_values,
    write_bias_report_csv,
)
from .model import load_model, model_text
from .training import (
    FitQueue,
    NumericalError,
    TrainConfig,
    forward_rows,
    train,
    train_val_test_split,
    write_history_csv,
)


@dataclass
class ExperimentSpec:
    """Everything one run needs; the manifest echoes what the run takes."""

    data: str | None = None
    format: str = "tabular"
    schema: str | None = None
    embeddings: str | None = None
    names_demographics: list[str] = field(default_factory=list)
    variant: str = "none"
    lam: float = 0.0
    lambdas: list[float] = field(default_factory=list)
    k: int = 12
    # reports average over four seeded runs unless told otherwise
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3])
    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    l2: float = 0.0
    scrub: bool = False
    min_count: int = 20
    top_fraction: float = 0.10
    race_attr: str = "race"
    gender_attr: str = "gender"
    out: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("at least one seed is required")
        bad = [s for s in self.seeds if s < 0]
        if bad:
            raise ValueError(f"--seeds values must be nonnegative, got {bad[0]}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("--seeds values must be distinct")
        for option, values in (("--lambda", [self.lam]),
                               ("--lambdas", self.lambdas),
                               ("--lr", [self.lr]), ("--l2", [self.l2])):
            bad = [v for v in values if not np.isfinite(v)]
            if bad:
                raise ValueError(f"{option} values must be finite, got {bad[0]!r}")
        if any(l < 0 for l in self.lambdas) or self.lam < 0:
            raise ValueError("lambda values must be nonnegative")
        if self.format not in ("tabular", "text"):
            raise ValueError(f"unknown data format {self.format!r}")
        if self.format == "text":  # fit_text's check, before any input is read
            check_pruning(self.min_count, self.top_fraction)
        last = "[, last-name-white]" if self.format == "text" else ""
        tables = len(self.names_demographics)
        if tables and not 2 <= tables <= 2 + bool(last):
            raise ValueError(f"--names-demographics on {self.format} data "
                             f"takes first-name-white, first-name-male{last}")


def _require_file(path, what: str) -> str:
    if path is None:
        raise ValueError(f"{what} is required for this command")
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a spec field type; bools are not numbers,
    and an int fits a float field."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _as_float_fields(value, hint):
    """A JSON value that fits hint, its ints made floats where hint wants
    floats, so a config file gives the same spec as the same flags."""
    if hint is float:
        return float(value)
    if hint == list[float]:
        return [float(v) for v in value]
    return value


def _spec_from_args(args) -> tuple[ExperimentSpec, set[str]]:
    """The run's spec, and the settings it takes: the command's options
    that its data format, name tables, variant and penalty strengths read
    (--embeddings only with a penalty on, --k only with clucl's). Any other
    setting, from a flag or the config file, is a ValueError before any
    input is read."""
    values: dict = {}
    fields = ExperimentSpec.__dataclass_fields__
    if getattr(args, "config", None):
        config_path = _require_file(args.config, "config file")
        with open(config_path, encoding="utf-8-sig") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(ExperimentSpec)
        for key, value in loaded.items():
            if not _has_type(value, hints[key]):
                raise ValueError(f"config key {key!r} must be "
                                 f"{fields[key].type}, got {value!r}")
            values[key] = _as_float_fields(value, hints[key])
    for name in fields:
        arg = getattr(args, name, None)
        if arg is not None:
            values[name] = arg
    fmt = values.get("format", "tabular")
    unread = {"schema"} if fmt == "text" else {"min_count", "top_fraction", "scrub"}
    # the attribute names' one reader is a tabular run's synthetic-name
    # draw; a text record's one attribute is "race"
    if fmt == "text" or not values.get("names_demographics"):
        unread |= {"race_attr", "gender_attr"}
    if fmt == "tabular" and args.command == "evaluate":  # reads group columns
        unread.add("names_demographics")
    variant = values.get("variant", "none")
    if args.command in ("train", "sweep") and variant in VARIANTS:
        lams = (values.get("lambdas", []) if args.command == "sweep"
                else [values.get("lam", 0.0)])
        # the name vectors are read only with a penalty on, k by clucl's
        if variant == "none" or (lams and all(lam == 0 for lam in lams)):
            unread |= {"embeddings", "k"}
        elif variant == "cocl":
            unread.add("k")
    settings = (set(vars(args)) - unread).intersection(fields)
    refused = sorted(set(values) - settings)
    if refused:
        raise ValueError(f"a {fmt} {args.command} takes no "
                         f"{', '.join(map(repr, refused))}")
    return ExperimentSpec(**values), settings


def _train_config(spec: ExperimentSpec, seed: int) -> TrainConfig:
    return TrainConfig(
        lam=spec.lam,
        variant=spec.variant,
        k=spec.k,
        learning_rate=spec.lr,
        batch_size=spec.batch_size,
        epochs=spec.epochs,
        seed=seed,
        l2_coeff=spec.l2,
    )


class _Pipeline:
    """Per-command context: the data file's records (parsed once, or read
    from the records cache), the name tables' partition (tabular: the
    synthetic first names) or white probabilities (text: the race
    labels), and the embedding table every seed shares; for evaluate,
    the model too.

    Inputs are checked in a fixed order: every input file must exist
    (exit 2) before any is parsed; then the model file, the schema and the
    name tables are parsed (no name pool may be empty), then the data
    file (a malformed record is exit 1), whose group labels must exist
    and hold a known value, and every record both synthetic-name labels
    (exit 1 before any fit). Only then is the embedding file read, when
    need_embeddings (table is None otherwise), for the names the seeds
    look up.
    """

    def __init__(self, spec: ExperimentSpec, need_embeddings: bool,
                 model_path=None):
        self.spec = spec
        tabular = spec.format == "tabular"
        _require_file(spec.data, "data file")
        if tabular:
            _require_file(spec.schema, "schema file")
        demographics = [_require_file(p, "name-demographics table")
                        for p in spec.names_demographics]
        if need_embeddings:
            _require_file(spec.embeddings, "embeddings file")
        self.model = load_model(model_path) if model_path else None
        schema = TabularSchema.load(spec.schema) if tabular else None
        tables = (NameDemographics(*map(load_name_probabilities, demographics))
                  if demographics else None)
        self.partition = partition_names(tables) if tables and tabular else None
        self.p_white = None
        if tabular:
            self.records = parse_tabular(spec.data, schema)
            known = {a.name: a.values >= 0 for a in self.records.attributes}
            if self.partition is not None:  # its draw reads both labels
                for name in (spec.race_attr, spec.gender_attr):
                    if name not in known:
                        raise ValueError(f"no group column named {name!r} "
                                         "(--race-attr, --gender-attr)")
                    if not known[name].all():
                        raise ValueError("synthetic first names need a "
                                         f"{name!r} value on every record")
        else:
            self.records = parse_text(spec.data, scrub_names=spec.scrub)
            known = {}
            if tables:
                self.p_white = white_probabilities(
                    self.records.first_names, self.records.last_names, tables)
                known["race"] = ~np.isnan(self.p_white)
        if not known:
            raise ValueError(
                "the data has no evaluation group labels; declare a group= "
                "column or pass --names-demographics"
            )
        if not any(map(np.any, known.values())):
            raise ValueError(
                "no record has a known value of any evaluation attribute "
                f"({', '.join(known)})")
        self.table = None
        if need_embeddings:
            names = (self.partition.all_names() if self.partition is not None
                     else {*self.records.first_names,
                           *self.records.last_names} - {None})
            self.table = load_embeddings(spec.embeddings, allowlist=names)

    def dataset_for_seed(self, seed: int):
        """Seeded split, preprocessing, and name/group assignment."""
        split = train_val_test_split(len(self.records), seed)
        if self.spec.format == "tabular":
            dataset = fit_tabular(self.records, fit_indices=split[0])
            if self.partition is not None:
                assign_synthetic_names(
                    dataset, self.partition, seed,
                    race_attr=self.spec.race_attr,
                    gender_attr=self.spec.gender_attr,
                )
        else:
            dataset = fit_text(self.records, self.spec.min_count,
                               self.spec.top_fraction, split[0])
            if self.p_white is not None:
                dataset.eval_groups = GroupLabels(
                    [draw_race_labels(self.p_white, seed)])
        return dataset, split


def _write_manifest(manifest: dict, out: Path) -> None:
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _out_dir(path):
    """The output directory path, made (parents too) once every input has
    been read. When the with block raises, the directories made here are
    removed again if they are still empty, so a run that fails before it
    writes a file leaves none of them, and never removes one that was
    already there."""
    out = Path(path)
    made = list(itertools.takewhile(lambda p: not p.exists(),
                                    (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        for directory in made:  # the deepest first
            try:
                directory.rmdir()
            except OSError:  # not empty: the run wrote into it
                break
        raise


def _mean_or_none(values):
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return float(np.mean(defined))


def cmd_train(spec: ExperimentSpec, manifest: dict) -> int:
    pipeline = _fit_setup(spec, [spec.lam])
    with _out_dir(spec.out) as out:
        reports = _fit_seeds(pipeline, [spec.lam], out)
        _write_summary(out / "summary.csv", {"variant": spec.variant},
                       spec.seeds, [spec.lam], reports)
        _write_manifest(manifest, out)
    written = [name for seed in spec.seeds for name in _seed_files(seed)]
    for name in sorted([*written, "summary.csv", "manifest.json"]):
        print(f"wrote {out / name}")
    return 0


def _fit_setup(spec: ExperimentSpec, lams) -> _Pipeline:
    """The pipeline of a command that fits lams.

    The hyperparameters are checked (TrainConfig's own checks; the spec
    has already checked every lambda) before any input is read; the
    embedding file is read only when a penalty is on.
    """
    _train_config(spec, spec.seeds[0])
    penalty_on = spec.variant != "none" and max(lams) > 0
    return _Pipeline(spec, need_embeddings=penalty_on)


def _fit_seeds(pipeline: _Pipeline, lams, out: Path | None = None):
    """The bias reports of every seed's fits: reports[i][j] is that of
    lams[j] at the i-th seed.

    Seed by seed, this process builds the seed's dataset and calls train,
    whose setup (name table, k-means, class weights) runs here; a
    FitQueue then fits the seed's lambdas in lockstep, in a forked worker
    while this process goes on to the next seed, the last seed here
    (training.FitQueue). The process that fits a seed also computes its
    bias reports and, with out, its model file's text (model.model_text).
    With out (cmd_train, one lambda), each seed's model, history and bias
    report files are written there, by this process, in seed order as the
    seeds are collected; without it (cmd_sweep) train records no
    per-epoch history. A failure is the earliest failing seed's, after
    the files of every seed before it are written, as in a run that fits
    one seed after another. Each seed's dataset is freed here before the
    next seed's is built.
    """
    spec = pipeline.spec
    reports = []

    def finish(dataset, fit):  # in the process that fitted the seed
        report = _bias_report(fit.params, dataset, fit.split[2])
        if out is None:
            return report
        return (report, model_text(fit.params, dataset.feature_names,
                                   dataset.class_names), fit.history)

    def collect(index, values):  # here, in seed order
        if out is None:
            reports.append(values)
            return
        ((report, text, history),) = values
        model, history_csv, bias = (out / name
                                    for name in _seed_files(spec.seeds[index]))
        model.write_text(text, encoding="utf-8")
        write_history_csv(history, history_csv)
        write_bias_report_csv(report, bias)
        reports.append([report])

    with FitQueue(len(spec.seeds), finish, collect) as queue:
        for seed in spec.seeds:
            dataset, split = pipeline.dataset_for_seed(seed)
            train(dataset, pipeline.table, _train_config(spec, seed),
                  split=split, lams=lams, history=out is not None,
                  queue=queue)
            del dataset, split
    return reports


def _seed_files(seed: int) -> tuple[str, str, str]:
    """The names of the model, history and bias report files that train
    writes for seed."""
    return (f"model_seed{seed}.txt", f"history_seed{seed}.csv",
            f"bias_report_seed{seed}.csv")


def _write_summary(path: Path, lead: dict, seeds, lams, reports) -> None:
    """The summary of reports[i][j], the bias report of lams[j] at
    seeds[i]: a row per lambda and seed, lambda by lambda, then each
    lambda's mean row (the mean of its seeds' defined values). Each row
    starts with lead's values, under lead's keys."""
    values = [[summary_values(report) for report in row] for row in reports]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*lead, "lambda", "seed"]
                        + summary_header(reports[0][0]))
        for j, lam in enumerate(lams):
            for seed, row in zip(seeds, values):
                writer.writerow([*lead.values(), repr(lam), seed]
                                + [csv_cell(v) for v in row[j]])
        for j, lam in enumerate(lams):
            means = [_mean_or_none(col) for col in zip(*(row[j] for row in values))]
            writer.writerow([*lead.values(), repr(lam), "mean"]
                            + [csv_cell(v) for v in means])


def _bias_report(params, dataset, rows):
    """The bias report of params' predictions on dataset's records rows."""
    groups = GroupLabels([
        GroupAttribute(a.name, a.positive_label, a.negative_label,
                       a.values[rows])
        for a in dataset.eval_groups.attributes
    ])
    probs = forward_rows(params, dataset.features, rows)
    # a diverged last step reaches no batch's loss check: its nan
    # probabilities would argmax to garbage predictions
    if not np.isfinite(probs).all():
        raise NumericalError("the model's probabilities on the reported "
                             "records are not finite")
    return bias_report(probs.argmax(axis=1), dataset.labels[rows], groups,
                       num_classes=len(dataset.class_names),
                       class_names=dataset.class_names)


def cmd_evaluate(spec: ExperimentSpec, manifest: dict, model_path: str,
                 subset: str) -> int:
    pipeline = _Pipeline(spec, need_embeddings=False,
                         model_path=_require_file(model_path, "model file"))
    params, feature_names, class_names = pipeline.model
    seed = spec.seeds[0]
    dataset, split = pipeline.dataset_for_seed(seed)
    if dataset.feature_names != feature_names:
        raise ValueError(
            "dataset features do not match the model's feature list; "
            "evaluate with the same data, schema and seed used in training"
        )
    if dataset.class_names != class_names:
        raise ValueError("dataset classes do not match the model's class list")
    if subset == "all":
        indices = np.arange(len(dataset))
    else:
        indices = dict(zip(("train", "val", "test"), split))[subset]
    report = _bias_report(params, dataset, indices)
    with _out_dir(spec.out) as out:
        write_bias_report_csv(report, out / "evaluation.csv")
        _write_manifest(manifest, out)
    print(f"wrote {out / 'evaluation.csv'}")
    return 0


def cmd_sweep(spec: ExperimentSpec, manifest: dict) -> int:
    if len(spec.lambdas) < 2:
        raise ValueError("sweep needs at least two --lambdas values")
    if len(set(spec.lambdas)) < len(spec.lambdas):
        raise ValueError("--lambdas values must be distinct")
    pipeline = _fit_setup(spec, spec.lambdas)
    with _out_dir(spec.out) as out:
        reports = _fit_seeds(pipeline, spec.lambdas)
        _write_summary(out / "sweep.csv", {}, spec.seeds, spec.lambdas,
                       reports)
        _write_manifest(manifest, out)
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_cluster_report(spec: ExperimentSpec, manifest: dict) -> int:
    if spec.k < 1:  # kmeans's own check, before any input is read
        raise ValueError("k must be positive")
    pipeline = _Pipeline(spec, need_embeddings=True)
    seed = spec.seeds[0]
    dataset, _ = pipeline.dataset_for_seed(seed)
    groups = dataset.eval_groups
    names = batch_name_vectors(pipeline.table, dataset.first_names,
                               dataset.last_names)
    include = names.include
    covered_idx = np.flatnonzero(include)
    if not len(covered_idx):
        raise ValueError(f"cluster-report needs embedded names, but 0 of "
                         f"{len(dataset)} records have a name in the "
                         "embedding table")
    model = kmeans(names.take(covered_idx), spec.k, seed=seed)
    with _out_dir(spec.out) as out:
        write_centroids(model, out / "clusters.txt")
        write_assignments(covered_idx, model.assignments, out / "cluster_assignments.txt")
        with open(out / "cluster_report.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "attribute", "value", "count"])
            clusters = [
                (str(j), covered_idx[model.assignments == j]) for j in range(spec.k)
            ]
            unassigned = np.flatnonzero(~include)
            if len(unassigned):
                clusters.append(("unassigned", unassigned))
            for cluster_name, members in clusters:
                for attr in groups.attributes:
                    vals = attr.values[members]
                    for value_name, code in (
                        (attr.positive_label, 1),
                        (attr.negative_label, 0),
                        ("missing", -1),
                    ):
                        count = int(np.count_nonzero(vals == code))
                        if code == -1 and count == 0:
                            continue
                        writer.writerow([cluster_name, attr.name, value_name, count])
        _write_manifest(manifest, out)
    print(f"wrote {out / 'cluster_report.csv'}")
    return 0


def cmd_weights_report(model_path: str, class_name: str, feature_filter,
                       out_dir: str) -> int:
    model_path = _require_file(model_path, "model file")
    params, feature_names, class_names = load_model(model_path)
    if class_name not in class_names:
        raise ValueError(f"unknown class {class_name!r}; "
                         f"model classes: {class_names}")
    row = params.W[class_names.index(class_name)]
    pairs = list(zip(feature_names, row))
    if feature_filter:
        known = set(feature_names)
        for feature in feature_filter:
            if feature not in known:
                raise ValueError(f"unknown feature {feature!r}")
        wanted = set(feature_filter)
        pairs = [(f, w) for f, w in pairs if f in wanted]
    pairs.sort(key=lambda fw: -fw[1])
    with _out_dir(out_dir) as out:
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", class_name)
        path = out / f"weights_{safe}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "weight"])
            for feature, weight in pairs:
                writer.writerow([feature, repr(float(weight))])
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # whole flags only: --lambda != --lambdas
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # route usage problems to exit code 1
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nameblind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--config", help="JSON spec file; flags override it")
        p.add_argument("--data", help="dataset file (CSV or tab-separated text)")
        p.add_argument("--format", choices=("tabular", "text"))
        p.add_argument("--schema", help="schema file for tabular data")
        p.add_argument(
            "--names-demographics", dest="names_demographics", nargs="+",
            help="first-name-white, first-name-male[, last-name-white] tables",
        )
        p.add_argument("--min-count", dest="min_count", type=int)
        p.add_argument("--top-fraction", dest="top_fraction", type=float)
        p.add_argument("--scrub", action=argparse.BooleanOptionalAction)
        p.add_argument("--out", help="output directory")

    def add_names(p):  # the name vectors and the synthetic-name attributes
        p.add_argument("--embeddings", help="word-vector text file")
        p.add_argument("--race-attr", dest="race_attr")
        p.add_argument("--gender-attr", dest="gender_attr")

    def add_train(p):
        add_names(p)
        p.add_argument("--variant", choices=("none", "clucl", "cocl"))
        p.add_argument("--k", type=int, help="clusters for the cluster penalty")
        p.add_argument("--seeds", nargs="+", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--l2", type=float)

    p_train = sub.add_parser("train", help="train, save model, report bias")
    add_io(p_train)
    add_train(p_train)
    p_train.add_argument("--lambda", dest="lam", type=float,
                         help="penalty strength")

    p_eval = sub.add_parser("evaluate", help="bias report for a saved model")
    add_io(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--seeds", nargs="+", type=int,
                        help="only the first seed is used (split and name draws)")
    p_eval.add_argument("--split", choices=("all", "train", "val", "test"),
                        default="all")

    p_sweep = sub.add_parser("sweep", help="train across a lambda grid")
    add_io(p_sweep)
    add_train(p_sweep)
    p_sweep.add_argument("--lambdas", nargs="+", type=float)

    p_cluster = sub.add_parser(
        "cluster-report", help="cluster name vectors, count groups per cluster"
    )
    add_io(p_cluster)
    add_names(p_cluster)
    p_cluster.add_argument("--k", type=int)
    p_cluster.add_argument("--seeds", nargs="+", type=int,
                           help="only the first seed is used (split, name draws, "
                           "k-means)")

    p_weights = sub.add_parser(
        "weights-report", help="ranked weight table for one class"
    )
    p_weights.add_argument("--model", required=True)
    p_weights.add_argument("--class", dest="class_name", required=True)
    p_weights.add_argument("--features", nargs="+",
                           help="restrict the report to these features")
    p_weights.add_argument("--out", required=True)
    return parser


def run(args) -> int:
    if args.command == "weights-report":
        return cmd_weights_report(args.model, args.class_name, args.features,
                                  args.out)
    spec, settings = _spec_from_args(args)
    if spec.out is None:  # before any input is read
        raise ValueError("--out is required")
    # only the settings the run takes, so its spec reruns as --config
    manifest = {"command": args.command, "toolkit_version": __version__,
                "spec": {k: v for k, v in asdict(spec).items() if k in settings}}
    if args.command == "train":
        return cmd_train(spec, manifest)
    if args.command == "evaluate":
        return cmd_evaluate(spec, manifest, args.model, args.split)
    if args.command == "sweep":
        return cmd_sweep(spec, manifest)
    if args.command == "cluster-report":
        return cmd_cluster_report(spec, manifest)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
