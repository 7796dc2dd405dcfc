"""In-process span tracer for the wristfall layers.

`Tracer.install()` rebinds every public module-level function of the traced
layers to a wrapper that records a span, and does so at every `wristfall.*`
module that holds a reference to it (so `cli.read_canonical` and
`datasets.read_canonical` both record). Nothing under `src/` is edited;
`uninstall()` puts the original functions back.

A span is `(span_id, parent_id, name, start_ns, end_ns, child_ns, count)`.
`child_ns` is the time covered by its direct children, so a span's self time
is `end_ns - start_ns - child_ns`. `count` is the work unit recorded at the
same boundary (samples, windows), or 0. A call that raises records no span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "datasets", "core", "signals", "features", "threshold", "ml", "evaluation")


def _samples(trials) -> int:
    return sum(t.n_samples for t in trials)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work recorded at a span's boundary: span name -> (args, kwargs, result) -> count.
COUNTERS = {
    "datasets.ingest": lambda a, kw, r: _samples(r[0]),
    "datasets.write_canonical": lambda a, kw, r: _samples(_arg(a, kw, 0, "trials")),
    "datasets.read_canonical": lambda a, kw, r: _samples(r),
    "core.segment": lambda a, kw, r: len(r),
}

# Span names that carry the classifier kind, so rf/svm/knn are timed apart.
KIND_OF = {
    "ml.train": lambda a, kw: _arg(a, kw, 0, "kind"),
    "ml.predict": lambda a, kw: _arg(a, kw, 0, "model").kind,
}

# Functions whose first argument is a window: their refs count the distinct
# windows a command processed (the base of the calls_per_window ratios).
WINDOW_ARG = ("signals.derive_all", "features.extract")


class Tracer:
    """Records spans into flat columns of ints and strs, so tracing allocates no
    objects the garbage collector has to scan while the traced code runs."""

    def __init__(self):
        self.traces: list[dict] = []  # one per command: {"argv", "wall_s", "spans"}
        self.window_refs: set[str] = set()
        self._columns: tuple[list, ...] = tuple([] for _ in range(7))  # one per span field
        self._open_ids: list[int] = []  # the stack of open spans, one list per field
        self._open_child_ns: list[int] = []
        self._next_id = 1
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        kind_of = KIND_OF.get(name)
        takes_window = name in WINDOW_ARG
        ids, parents, names, starts, ends, child_nss, counts = self._columns
        open_ids, open_child_ns, perf = self._open_ids, self._open_child_ns, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}.{kind_of(args, kwargs)}" if kind_of else name
            if takes_window:
                self.window_refs.add(args[0].window_ref)
            span_id = self._next_id
            self._next_id += 1
            parent_id = open_ids[-1] if open_ids else 0
            open_ids.append(span_id)
            open_child_ns.append(0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                open_ids.pop()
                child_ns = open_child_ns.pop()
                if open_child_ns:
                    open_child_ns[-1] += end - start
            ids.append(span_id)
            parents.append(parent_id)
            names.append(span_name)
            starts.append(start)
            ends.append(end)
            child_nss.append(child_ns)
            counts.append(counter(args, kwargs, result) if counter else 0)
            return result

        return traced

    def install(self) -> None:
        import wristfall.cli  # noqa: F401  (imports every traced layer)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "wristfall" or n.startswith("wristfall.")]
        for layer in LAYERS:
            module = sys.modules[f"wristfall.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for holder in modules:
                    for held_name, held in list(vars(holder).items()):
                        if held is obj:
                            self._rebound.append((holder, held_name, obj))
                            setattr(holder, held_name, wrapped)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._rebound):
            setattr(holder, name, original)
        self._rebound.clear()

    @contextlib.contextmanager
    def command(self, argv: list[str]):
        """Collect the spans recorded inside the block as the trace of one CLI command."""
        for column in self._columns:
            column.clear()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            wall_s = (time.perf_counter_ns() - start) / 1e9
            self.traces.append({"argv": argv, "wall_s": wall_s, "spans": list(zip(*self._columns))})


def self_time_check(trace: dict) -> tuple[float, float]:
    """(sum of the self times of every span, command wall time), both in s."""
    total_self = sum(end - start - child for _, _, _, start, end, child, _ in trace["spans"])
    return total_self / 1e9, trace["wall_s"]


def layer_totals(traces: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive s, self s and recorded count, over all commands."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
    for trace in traces:
        for _, _, name, start, end, child, count in trace["spans"]:
            row = totals[name]
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child) / 1e9
            row["count"] += count
    return totals


def layer_metrics(traces: list[dict], n_windows: int, startup_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the spans of one traced chain."""
    totals = layer_totals(traces)

    def get(name, key):
        return totals[name][key] if name in totals else 0

    def per_s(name):
        return get(name, "count") / get(name, "s") if get(name, "s") else 0.0

    def us_per_call(name):
        return 1e6 * get(name, "s") / get(name, "calls") if get(name, "calls") else 0.0

    def per_window(name):
        return get(name, "calls") / n_windows if n_windows else 0.0

    metrics = {
        "datasets.ingest.self_s": get("datasets.ingest", "self_s"),
        "datasets.ingest.samples_per_s": per_s("datasets.ingest"),
        "datasets.parse_trial_file.s": get("datasets.parse_trial_file", "s"),
        "datasets.write_canonical.s": get("datasets.write_canonical", "s"),
        "datasets.write_canonical.samples_per_s": per_s("datasets.write_canonical"),
        "datasets.read_canonical.s": get("datasets.read_canonical", "s"),
        "datasets.read_canonical.calls": get("datasets.read_canonical", "calls"),
        "datasets.read_canonical.samples_per_s": per_s("datasets.read_canonical"),
        "core.segment.s": get("core.segment", "s"),
        "core.segment.windows": get("core.segment", "count"),
        "signals.derive_all.s": get("signals.derive_all", "s"),
        "signals.derive_all.calls_per_window": per_window("signals.derive_all"),
        "signals.derive_all.us_per_call": us_per_call("signals.derive_all"),
        "features.extract.s": get("features.extract", "s"),
        "features.extract.calls_per_window": per_window("features.extract"),
        "features.extract.us_per_call": us_per_call("features.extract"),
        "threshold.calibrate.s": get("threshold.calibrate", "s"),
        "threshold.detect.us_per_call": us_per_call("threshold.detect"),
        "threshold.fall_score.us_per_call": us_per_call("threshold.fall_score"),
        "ml.save_model.s": get("ml.save_model", "s"),
        "evaluation.run_experiment.self_s": get("evaluation.run_experiment", "self_s"),
        "evaluation.run_experiment.calls": get("evaluation.run_experiment", "calls"),
        "cli.startup_s": startup_s,
        "cli.self_s": sum(row["self_s"] for name, row in totals.items() if name.startswith("cli.")),
    }
    for kind in ("rf", "svm", "knn"):
        metrics[f"ml.train.{kind}.s"] = get(f"ml.train.{kind}", "s")
        metrics[f"ml.predict.{kind}.us_per_call"] = us_per_call(f"ml.predict.{kind}")
    return metrics
