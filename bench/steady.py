"""Steadiness check: two interleaved sets of benchmark runs per workload.

    python3 bench/steady.py

For each workload of BENCHMARK.json, runs bench/run.py RUNS times for set A
and RUNS times for set B, alternating A and B, each run with its own seed
(seeds 1 to 2*RUNS; set A takes the odd ones, set B the even ones). Then
reports, for every end-to-end metric, each set's median and quartiles, the
spread (interquartile distance over median) of each set and of all runs
together, and the shift of B's median from A's, each against the metric's
bound. It also compares the share of failed operations between the sets.
Exit code 0 when, for every metric, setup_s included, both sets' spreads
and the size of the median shift (in either direction) are within the
bound, and the failed shares agree; the full table is printed either way,
and the raw runs are written to .bench_cache/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # runs per set


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    raw: dict[str, dict[str, list]] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for offset, name in ((0, "A"), (1, "B")):
                seed = 1 + 2 * i + offset
                result = run_once(spec, workload, seed)
                sets[name].append(result)
                print(f"{workload} set {name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                    flush=True)
        raw[workload] = sets
        shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for n, rs in sets.items()}
        if shares["A"] != shares["B"]:
            ok = False
        print(f"\n{workload}: failed share A={shares['A']} B={shares['B']}")
        print(f"{'metric':14} {'bound':>6} {'A q1/med/q3':>32} {'A spr':>6} "
              f"{'B spr':>6} {'all spr':>7} {'shift':>7}")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            a = [r["metrics"][m]["value"] for r in sets["A"]]
            b = [r["metrics"][m]["value"] for r in sets["B"]]
            qa, qb, qall = spread(a), spread(b), spread(a + b)
            worse = (qb[1] - qa[1]) / qa[1]
            if metric["better"] == "higher":
                worse = -worse
            good = abs(worse) <= bound and max(qa[3], qb[3]) <= bound
            ok = ok and good
            print(f"{m:14} {bound:6.3f} {qa[0]:10.4g}/{qa[1]:10.4g}/{qa[2]:10.4g} "
                  f"{qa[3]:6.3f} {qb[3]:6.3f} {qall[3]:7.3f} {worse:+7.3f}"
                  f"{'' if good else '  OUT OF BOUND'}")
        print(flush=True)
    out = ROOT / ".bench_cache" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
