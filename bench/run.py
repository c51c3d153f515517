"""Benchmark of nameblind's train and sweep commands at the Adult and Bios shapes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from --seed (cached under .bench_cache/),
then runs the command in fresh processes, one after another, until S
seconds have passed and at least two processes (with --trace 1, two
untraced/traced pairs) have run. Every process's
outputs are checked (checks.py) and must be byte-identical to the first
one's and to any earlier run of the same code and seed. The last line of
stdout is one JSON object: correct, attempted and failed operations (an
operation is one (seed, lambda) training fit) and the metrics.

--trace 0 reports the end-to-end metrics, medians over the processes:
wall_s, setup_s, peak_rss_mb, and the result metrics balanced_tpr and
gap_rms. --trace 1 runs each round twice, untraced and traced, and reports
the per-layer metrics of tracing.py (medians over traced processes).

BLAS runs single-threaded (OPENBLAS_NUM_THREADS=1 and friends) so that
runs on a small shared machine do not contend with themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = ROOT / ".bench_cache"
MAX_RUN_S = 150          # start no new round past this; the run must end by 180 s

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    family: str          # "adult" or "bios": the records
    world: str           # name tables and vectors: "adult" or a BIOS_COVERAGE key
    command: str         # "sweep" or "train"
    variant: str
    lambdas: tuple[float, ...]
    seeds: tuple[int, ...]
    epochs: int
    lr: float
    k: int = 12

    @property
    def fits(self) -> int:
        return len(self.lambdas) * len(self.seeds)


WORKLOADS = {
    "adult-cocl-sweep": Workload("adult", "adult", "sweep", "cocl",
                                 (0.0, 0.1, 0.3), (0, 1, 2), epochs=4, lr=0.01),
    "bios-cocl-sweep": Workload("bios", "bios", "sweep", "cocl", (0.0, 2.0),
                                (0, 1), epochs=2, lr=0.03),
    "bios-clucl-train": Workload("bios", "bios-low-coverage", "train", "clucl",
                                 (2.0,), (0, 1), epochs=2, lr=0.03),
}

def _version() -> str:
    """Inputs change when the generator does."""
    return hashlib.sha256((BENCH / "generate.py").read_bytes()).hexdigest()[:10]


def _run_key(w: Workload, files) -> str:
    """Identifies the program sources and the exact command (inputs included)."""
    h = hashlib.sha256(json.dumps(command_argv(w, files, Path("out"))).encode())
    for p in sorted((ROOT / "src" / "nameblind").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def prepare_inputs(family: str, world_name: str, seed: int) -> dict[str, Path]:
    """World files (once per checkout) and this seed's records."""
    version = _version()
    world = CACHE / f"world-{world_name}-{version}"
    if not (world / "done").is_file():
        shutil.rmtree(world, ignore_errors=True)
        if family == "adult":
            generate.make_adult_world(world)
        else:
            generate.make_bios_world(world, world_name)
        (world / "done").write_text("", encoding="utf-8")
    suffix = "csv" if family == "adult" else "txt"
    records = CACHE / f"{family}-{version}-seed{seed}.{suffix}"
    if not records.is_file():
        make = generate.make_adult_records if family == "adult" else generate.make_bios_records
        make(records, seed)
    files = {name: world / name for name in
             ("vectors.txt", "first_white.tsv", "first_male.tsv", "last_white.tsv",
              "schema.txt", "name_vectors.txt")}
    files["records"] = records
    return files


def command_argv(w: Workload, files: dict[str, Path], out: Path) -> list[str]:
    argv = [w.command, "--data", str(files["records"]),
            "--embeddings", str(files["vectors.txt"])]
    if w.family == "adult":
        argv += ["--schema", str(files["schema.txt"]),
                 "--names-demographics", str(files["first_white.tsv"]),
                 str(files["first_male.tsv"]),
                 "--race-attr", "race", "--gender-attr", "sex"]
    else:
        argv += ["--format", "text", "--names-demographics",
                 str(files["first_white.tsv"]), str(files["first_male.tsv"]),
                 str(files["last_white.tsv"])]
    argv += ["--variant", w.variant, "--seeds", *map(str, w.seeds),
             "--epochs", str(w.epochs), "--lr", repr(w.lr), "--out", str(out)]
    if w.command == "sweep":
        argv += ["--lambdas", *map(repr, w.lambdas)]
    else:
        argv += ["--lambda", repr(w.lambdas[0]), "--k", str(w.k)]
    return argv


def run_process(w: Workload, files, workdir: Path, traced: bool) -> dict:
    """One fresh process running the command; returns child.py's result.

    Clears workdir first, so only the outputs of this process are there.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    capture = workdir / "kmeans.npz" if w.variant == "clucl" else None
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path),
           "1" if traced else "0", str(capture) if capture else "-", "--",
           *command_argv(w, files, workdir / "out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=MAX_RUN_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"the command ran past {MAX_RUN_S} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        raise RuntimeError(f"nameblind exited {result['rc']}: {proc.stderr[-2000:]}")
    if result["setup_s"] is None:
        raise RuntimeError("the command never reached a train fit")
    result["out"] = workdir / "out"
    result["capture"] = capture
    return result


def check_outputs(w: Workload, files, result) -> dict[str, float]:
    """Content checks of one process's outputs; returns the result metrics."""
    out = result["out"]
    if w.command == "sweep":
        attrs = ("race", "sex") if w.family == "adult" else ("race",)
        top = checks.check_sweep(out, w.lambdas, w.seeds, attrs,
                                 num_classes=2 if w.family == "adult" else 28)
    else:
        top = checks.check_train_text(out, files["records"], files["first_white.tsv"],
                                      files["last_white.tsv"], w.seeds)
        attrs = ("race",)
    if result["capture"] is not None:
        checks.check_kmeans(result["capture"], files["records"],
                            files["name_vectors.txt"], w.seeds)
    return {"balanced_tpr": top["balanced_tpr"],
            "gap_rms": statistics.fmean(top[f"gap_rms_{a}"] for a in attrs)}


def _digest(result) -> dict[str, str]:
    d = checks.digests(result["out"])
    if result["capture"] is not None:
        with np.load(result["capture"]) as data:
            for key in sorted(data.files):
                d[f"kmeans:{key}"] = hashlib.sha256(data[key].tobytes()).hexdigest()
    return d


def count_vector_lines(paths) -> int:
    """Non-empty lines after the header, summed over every load."""
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            next(fh)
            total += sum(1 for line in fh if line.strip())
    return total


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    files = prepare_inputs(w.family, w.world, seed)
    runs = CACHE / "runs" / name
    digest_file = CACHE / "digests" / f"{name}-seed{seed}-{_run_key(w, files)}.json"
    start = time.perf_counter()
    untraced, traced = [], []
    reference = None
    results = None
    while True:
        elapsed = time.perf_counter() - start
        # medians over two processes at least: two untraced, or two pairs
        if len(traced if trace else untraced) >= 2 and (
                elapsed >= seconds or elapsed > MAX_RUN_S / 2):
            break
        for is_traced in ((False, True) if trace else (False,)):
            # one output path for every process: the manifest records it
            r = run_process(w, files, runs, is_traced)
            result_metrics = check_outputs(w, files, r)
            digest = _digest(r)
            if reference is None:
                reference, results = digest, result_metrics
                if digest_file.is_file():
                    earlier = json.loads(digest_file.read_text(encoding="utf-8"))
                    if earlier != digest:
                        raise checks.CheckFailed(
                            "outputs differ from an earlier run of this code and seed: "
                            f"{sorted(k for k in digest if digest[k] != earlier.get(k))}")
                else:
                    digest_file.parent.mkdir(parents=True, exist_ok=True)
                    digest_file.write_text(json.dumps(digest), encoding="utf-8")
            elif digest != reference:
                raise checks.CheckFailed(
                    "outputs differ between processes: "
                    f"{sorted(k for k in digest if digest[k] != reference.get(k))}")
            (traced if is_traced else untraced).append(r)
    if trace:
        lines = count_vector_lines(traced[0]["trace"]["embedding_files"])
        per_process = [
            tracing.layer_metrics(t["trace"], lines, t["wall_s"], u["wall_s"])
            for u, t in zip(untraced, traced)
        ]
        metrics = {k: (statistics.median(p[k] for p in per_process), unit)
                   for k, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
            "balanced_tpr": (results["balanced_tpr"], "ratio"),
            "gap_rms": (results["gap_rms"], "ratio"),
        }
    return {
        "correct": True,
        "attempted": (len(untraced) + len(traced)) * w.fits,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nameblind" / "cli.py").is_file():
        print(f"error: no nameblind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
