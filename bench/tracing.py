"""Span tracing of nameblind's public functions, and the per-layer metrics.

Tracer.install wraps every public function of the traced modules and,
through replace_functions, puts each wrapper at every name where a caller
looks the function up: the module that defines it and every module that
imported it (``nameblind.training.kmeans`` as well as
``nameblind.clustering.kmeans``). A wrapper appends one span (name, start,
end, parent) to an in-memory list; the list is written out once, after the
command returns. A few functions also feed counters from their arguments or
results (points clustered, rows trained, vectors kept); the private
``clustering._lloyd`` is wrapped only to count Lloyd iterations.

Per-record helpers (NOT_TRACED) are left alone: they run once per token or
per record, so a wrapper would cost more than their work. Their time shows
as self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "data", "embeddings", "clustering", "losses", "model",
           "training", "metrics")
NOT_TRACED = frozenset(
    {"normalize_token", "tokenize", "name_vector", "scrub", "tpr"}
)

_TIMED = ("data.read_csv_rows", "data.load_tabular", "data.assign_synthetic_names",
          "data.load_text", "data.vectorize_text", "data.infer_race_labels",
          "embeddings.load_embeddings", "embeddings.batch_name_vectors",
          "clustering.kmeans", "losses.penalty_gradient", "losses.penalty_value",
          "training.evaluate_losses", "model.forward_batch", "model.predict_batch",
          "training.train", "training.adam_step", "metrics.bias_report",
          "metrics.balanced_tpr")
# per-layer metric -> unit; busy seconds of the functions above, then counts
PER_LAYER = {f"{name}_s": "s" for name in _TIMED}
PER_LAYER.update({
    "data.read_csv_rows_calls": "count",
    "embeddings.lines_scanned": "count",
    "embeddings.keep_ratio": "ratio",
    "embeddings.batch_name_vectors_calls": "count",
    "clustering.kmeans_calls": "count",
    "clustering.kmeans_points": "count",
    "clustering.iterations": "count",
    "losses.penalty_gradient_calls": "count",
    "model.forward_batch_calls": "count",
    "training.train_calls": "count",
    "training.row_epochs": "count",
    "training.rows_per_s": "rows/s",
    "training.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
})


def replace_functions(replace: dict) -> None:
    """Put replace[fn] in place of fn at every nameblind name that holds fn."""
    package = importlib.import_module("nameblind")
    for module in (package, *(importlib.import_module(f"nameblind.{m}") for m in MODULES)):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replace:
                setattr(module, attr, replace[obj])


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.embedding_files: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observers(self):
        def kmeans(args, kwargs, model):
            self._add("clustering.kmeans_points", len(args[0]))

        def lloyd(args, kwargs, model):
            self._add("clustering.iterations", model.iterations_run)

        def train(args, kwargs, result):
            config = args[2] if len(args) > 2 else kwargs["config"]
            self._add("training.row_epochs", len(result.split[0]) * config.epochs)

        def load_embeddings(args, kwargs, table):
            self.embedding_files.append(str(args[0]))
            self._add("embeddings.lines_kept", len(table))

        return {"clustering.kmeans": kmeans, "clustering._lloyd": lloyd,
                "training.train": train,
                "embeddings.load_embeddings": load_embeddings}

    def install(self) -> None:
        """Replace every traced function in every nameblind module."""
        modules = {m: importlib.import_module(f"nameblind.{m}") for m in MODULES}
        observers = self._observers()
        replace = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                # private functions only where a counter needs them
                public = not attr.startswith("_") and attr not in NOT_TRACED
                if public or name in observers:
                    replace[obj] = self._wrap(name, obj, observers.get(name))
        replace_functions(replace)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "embedding_files": self.embedding_files}


def busy_and_calls(spans):
    """Per-name busy seconds (outermost spans only) and call counts."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, parent in spans:
        calls[name] = calls.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # not nested in a span of the same function
            busy[name] = busy.get(name, 0.0) + (end - start)
    return busy, calls


def self_seconds(spans, select) -> float:
    """Time inside spans chosen by select(name) and outside their children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return sum(end - start - child_time[i]
               for i, (name, start, end, parent) in enumerate(spans) if select(name))


def _nested_under(spans, index, name) -> bool:
    p = spans[index][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(trace: dict, lines_scanned: int, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced process."""
    spans, counts = trace["spans"], trace["counts"]
    busy, calls = busy_and_calls(spans)
    train_s = busy.get("training.train", 0.0)
    # the epoch loop: train time outside one-off name vectors and k-means
    one_off = sum(
        end - start for i, (name, start, end, _) in enumerate(spans)
        if name in ("embeddings.batch_name_vectors", "clustering.kmeans")
        and _nested_under(spans, i, "training.train")
    )
    row_epochs = counts.get("training.row_epochs", 0)
    kept = counts.get("embeddings.lines_kept", 0)
    m = {
        "data.read_csv_rows_calls": calls.get("data.read_csv_rows", 0),
        "embeddings.lines_scanned": lines_scanned,
        "embeddings.keep_ratio": kept / lines_scanned if lines_scanned else 0.0,
        "embeddings.batch_name_vectors_calls":
            calls.get("embeddings.batch_name_vectors", 0),
        "clustering.kmeans_calls": calls.get("clustering.kmeans", 0),
        "clustering.kmeans_points": counts.get("clustering.kmeans_points", 0),
        "clustering.iterations": counts.get("clustering.iterations", 0),
        "losses.penalty_gradient_calls": calls.get("losses.penalty_gradient", 0),
        "model.forward_batch_calls": calls.get("model.forward_batch", 0),
        "training.train_calls": calls.get("training.train", 0),
        "training.row_epochs": row_epochs,
        "training.rows_per_s":
            row_epochs / (train_s - one_off) if train_s > one_off else 0.0,
        "training.self_s": self_seconds(spans, lambda n: n == "training.train"),
        "cli.self_s": self_seconds(spans, lambda n: n.startswith("cli.")),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for name in _TIMED:
        m[f"{name}_s"] = busy.get(name, 0.0)
    return m
