"""Run one nameblind command in this (fresh) process and time it.

    python3 bench/child.py RESULT_JSON TRACE(0|1) CAPTURE_NPZ|- -- ARGV...

Imports nameblind from the checkout's src/ only, then calls
``nameblind.cli.main(ARGV)``. Writes RESULT_JSON with the exit code,
``wall_s`` (main from call to return), ``setup_s`` (call to the entry of
the first ``train`` fit), ``peak_rss_mb`` (this process's ru_maxrss) and,
with TRACE=1, the spans and counters of tracing.Tracer. With a CAPTURE_NPZ
path, the points and ClusterModel of every ``kmeans`` call are saved
there for the output checks.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    result_path, trace_flag, capture_path = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py RESULT TRACE CAPTURE -- ARGV...")
    argv = sys.argv[5:]
    if not (SRC / "nameblind" / "cli.py").is_file():
        print(f"no nameblind sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import nameblind
    import nameblind.cli
    import nameblind.training

    if Path(nameblind.__file__).resolve().parent != (SRC / "nameblind").resolve():
        print(f"imported {nameblind.__file__}, not the checkout's", file=sys.stderr)
        return 2

    from tracing import Tracer, replace_functions

    tracer = None
    if trace_flag == "1":
        tracer = Tracer()
        tracer.install()

    first_fit = []
    train = nameblind.training.train

    def timed_train(*args, **kwargs):
        if not first_fit:
            first_fit.append(time.perf_counter())
        return train(*args, **kwargs)

    replace = {train: timed_train}
    captured = []
    if capture_path != "-":
        kmeans = nameblind.training.kmeans

        def capturing_kmeans(points, *args, **kwargs):
            model = kmeans(points, *args, **kwargs)
            captured.append((points, model))
            return model

        replace[kmeans] = capturing_kmeans
    replace_functions(replace)

    start = time.perf_counter()
    rc = nameblind.cli.main(argv)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rc": rc,
        "wall_s": end - start,
        "setup_s": (first_fit[0] - start) if first_fit else None,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    if captured:
        import numpy as np

        arrays = {}
        for i, (points, model) in enumerate(captured):
            arrays[f"points{i}"] = points
            arrays[f"centroids{i}"] = model.centroids
            arrays[f"assignments{i}"] = model.assignments
            arrays[f"inertia{i}"] = np.array(model.inertia)
            arrays[f"history{i}"] = np.array(model.inertia_history)
            arrays[f"k{i}"] = np.array(model.k)
        np.savez(capture_path, **arrays)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
