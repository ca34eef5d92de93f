"""Spans and counts around pushsumlab's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
pushsumlab module namespace that holds it, so calls through names that
`cli`, `config`, `optim` and the other modules imported are recorded
too. Methods are wrapped on their class. Nothing under `src/` changes.

A span is `[name, start, end, parent]`, where `parent` is the index of
the enclosing span or -1. Hot leaf functions (`Objective.subgradient`,
`Objective.value`, `s_matrix`, `default_weights`) are only counted, so
their time stays in the caller's self time and tracing stays cheap.

`layer_metrics()` turns one process's spans and counts into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from time import perf_counter

MODULES = ("cli", "config", "graphs", "weights", "pushsum", "optim", "analysis", "report")

# (module, attribute path) of every function recorded as a span
SPANNED = (
    ("config", "load_config"),
    ("config", "parse_config"),
    ("graphs", "generate_sequence"),
    ("graphs", "load_sequence"),
    ("graphs", "is_uniformly_strongly_connected"),
    ("pushsum", "resolve_weight_sequence"),
    ("pushsum", "run_pushsum"),
    ("pushsum", "run_weighted_pushsum"),
    ("optim", "run_optimizer"),
    ("optim", "GradientOracle.noise"),
    ("optim", "SwitchingSignal.row"),
    ("analysis", "compute_metrics"),
    ("analysis", "bound_inputs_from_trace"),
    ("analysis", "bound_heterogeneous"),
    ("analysis", "bound_per_agent"),
    ("analysis", "bound_subgradient_push_fixed"),
    ("analysis", "bound_subgradient_push_varying"),
    ("report", "write_trace_csv"),
    ("report", "write_metrics_csv"),
    ("report", "write_s_matrices_csv"),
    ("report", "write_summary_json"),
    ("cli", "execute_run"),
    ("cli", "cmd_run"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_sweep"),
)

# (module, attribute path) of every function that is only counted
COUNTED = (
    ("optim", "Objective.subgradient"),
    ("optim", "Objective.value"),
    ("pushsum", "s_matrix"),
    ("weights", "default_weights"),
)

# per-layer time metrics: the summed self time of these spans
SELF_TIME = {
    "config.parse_s": ("config.load_config", "config.parse_config"),
    "graphs.generate_s": ("graphs.generate_sequence", "graphs.load_sequence"),
    "graphs.connectivity_s": ("graphs.is_uniformly_strongly_connected",),
    "weights.resolve_s": ("pushsum.resolve_weight_sequence",),
    "pushsum.loop_s": ("pushsum.run_pushsum", "pushsum.run_weighted_pushsum"),
    "optim.loop_s": ("optim.run_optimizer",),
    "optim.oracle_s": ("optim.GradientOracle.noise",),
    "optim.sigma_s": ("optim.SwitchingSignal.row",),
    "analysis.metrics_s": ("analysis.compute_metrics",),
    "analysis.bounds_s": (
        "analysis.bound_inputs_from_trace",
        "analysis.bound_heterogeneous",
        "analysis.bound_per_agent",
        "analysis.bound_subgradient_push_fixed",
        "analysis.bound_subgradient_push_varying",
    ),
    "report.write_s": (
        "report.write_trace_csv",
        "report.write_metrics_csv",
        "report.write_s_matrices_csv",
        "report.write_summary_json",
    ),
}

# per-layer time metrics: the summed whole duration of these spans
DURATION = {
    "cli.run_s": "cli.cmd_run",
    "cli.verify_s": "cli.cmd_verify",
    "cli.sweep_s": "cli.cmd_sweep",
}

# per-layer counts: calls of one function
CALLS = {
    "graphs.connectivity_calls": "graphs.is_uniformly_strongly_connected",
    "weights.default_built": "weights.default_weights",
    "pushsum.s_builds": "pushsum.s_matrix",
    "optim.oracle_draws": "optim.GradientOracle.noise",
    "optim.sigma_rows": "optim.SwitchingSignal.row",
    "optim.subgradient_calls": "optim.Objective.subgradient",
    "analysis.value_calls": "optim.Objective.value",
}

# per-layer counts that the result hooks below accumulate
TALLIES = ("graphs.steps", "graphs.distinct", "graphs.windows_checked", "optim.agent_steps", "report.bytes")

# the one per-layer metric that is a maximum over processes, not a sum
PEAK = "pushsum.trace_mb"

UNITS = {name: "s" for name in (*SELF_TIME, *DURATION, "cli.verify_checks_s")}
UNITS.update({name: "count" for name in (*CALLS, *TALLIES)})
UNITS["report.bytes"] = "bytes"
UNITS[PEAK] = "MB"


def _sequence_done(tracer: "Tracer", args: tuple, kwargs: dict, seq) -> None:
    tracer.counts["graphs.steps"] += len(seq)
    tracer.counts["graphs.distinct"] += len(set(seq.graphs))


def _connectivity_done(tracer: "Tracer", args: tuple, kwargs: dict, ok) -> None:
    seq = args[0] if args else kwargs["seq"]
    window = args[1] if len(args) > 1 else kwargs["window"]
    tracer.counts["graphs.windows_checked"] += len(seq) - window + 1


def _trace_done(tracer: "Tracer", args: tuple, kwargs: dict, trace) -> None:
    arrays = (trace.xs, trace.ys, trace.w_mats, trace.alphas, trace.gs, trace.sigmas)
    mb = sum(a.nbytes for a in arrays if a is not None) / 1e6
    tracer.peak_trace_mb = max(tracer.peak_trace_mb, mb)


def _optimizer_done(tracer: "Tracer", args: tuple, kwargs: dict, trace) -> None:
    _trace_done(tracer, args, kwargs, trace)
    tracer.counts["optim.agent_steps"] += trace.n * trace.steps


def _written(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counts["report.bytes"] += os.path.getsize(path)


HOOKS = {
    "graphs.generate_sequence": _sequence_done,
    "graphs.load_sequence": _sequence_done,
    "graphs.is_uniformly_strongly_connected": _connectivity_done,
    "pushsum.run_pushsum": _trace_done,
    "pushsum.run_weighted_pushsum": _trace_done,
    "optim.run_optimizer": _optimizer_done,
    **{name: _written for name in SELF_TIME["report.write_s"]},
}


class Tracer:
    """Records spans and counts in memory for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peak_trace_mb = 0.0
        self._open: list[int] = []

    def spanned(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(record)
            self._open.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            self.counts[name] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever pushsumlab refers to it."""
        modules = [importlib.import_module(f"pushsumlab.{m}") for m in MODULES]
        for targets, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for module_name, path in targets:
                name = f"{module_name}.{path}"
                home = importlib.import_module(f"pushsumlab.{module_name}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, make(name, getattr(cls, attr)))
                    continue
                original = getattr(home, path)
                wrapper = make(name, original)
                for module in modules:
                    if getattr(module, path, None) is original:
                        setattr(module, path, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "peak_trace_mb": self.peak_trace_mb},
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], counts: dict, peak_trace_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced process."""
    own = self_times(spans)
    out = {name: 0.0 for name in UNITS}
    layer_of = {span: layer for layer, names in SELF_TIME.items() for span in names}
    duration_of = {span: metric for metric, span in DURATION.items()}
    for (name, start, end, _), self_s in zip(spans, own):
        if name in layer_of:
            out[layer_of[name]] += self_s
        if name in duration_of:
            out[duration_of[name]] += end - start
    # verify's own checking work: cmd_verify minus its run and connectivity spans
    not_checks = Counter()
    for name, start, end, parent in spans:
        if name in ("cli.execute_run", "graphs.is_uniformly_strongly_connected") and parent >= 0:
            not_checks[parent] += end - start
    for index, (name, start, end, _) in enumerate(spans):
        if name == "cli.cmd_verify":
            out["cli.verify_checks_s"] += end - start - not_checks[index]
    for metric, fn_name in CALLS.items():
        out[metric] = counts.get(fn_name, 0)
    for metric in TALLIES:
        out[metric] = counts.get(metric, 0)
    out[PEAK] = peak_trace_mb
    return out
