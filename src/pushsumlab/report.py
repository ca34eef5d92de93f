"""File outputs: trace CSV, metrics CSV, summary JSON.

All writers are deterministic: floats are rendered with repr (shortest
round-trip form), JSON keys are sorted, and nothing date- or
host-dependent is emitted. Rerunning an identical scenario must
reproduce identical bytes.

Every CSV starts with the comment line ``# schema=1`` followed by a
header row; readers skip comment lines.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable

import numpy as np

from .analysis import RunMetrics
from .pushsum import Trace

__all__ = [
    "SCHEMA_LINE",
    "format_float",
    "csv_text",
    "write_csv",
    "trace_csv_text",
    "write_trace_csv",
    "write_s_matrices_csv",
    "metrics_csv_text",
    "write_metrics_csv",
    "write_summary_json",
    "read_csv_columns",
    "sha256_text",
]

SCHEMA_LINE = "# schema=1"


def format_float(v: float) -> str:
    return repr(float(v))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def csv_text(header: str, rows: Iterable[str]) -> str:
    """A schema-1 CSV: the schema line, the header, then one line per row."""
    return "\n".join([SCHEMA_LINE, header, *rows]) + "\n"


def write_csv(path: str, header: str, rows: Iterable[str]) -> str:
    """Write a schema-1 CSV and return the sha256 of the written text."""
    text = csv_text(header, rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return sha256_text(text)


def _trace_table(trace: Trace) -> tuple[str, list[str]]:
    """Rows (t, agent, y, z_0..z_{d-1}) for every recorded state."""
    header = "t,agent,y," + ",".join(f"z_{k}" for k in range(trace.d))
    rows = []
    times = trace.times()
    zs = trace.zs
    for k in range(trace.steps + 1):
        t = int(times[k])
        for i in range(trace.n):
            cells = [str(t), str(i), format_float(trace.ys[k, i])]
            cells.extend(format_float(v) for v in zs[k, i])
            rows.append(",".join(cells))
    return header, rows


def trace_csv_text(trace: Trace) -> str:
    return csv_text(*_trace_table(trace))


def write_trace_csv(path: str, trace: Trace) -> str:
    """Write the trace and return the sha256 of the written text."""
    return write_csv(path, *_trace_table(trace))


def write_s_matrices_csv(path: str, trace: Trace) -> None:
    """Sidecar with the induced row-stochastic matrix of every step:
    rows (t, row, s_0..s_{n-1}), t being the step's start time."""
    n = trace.n
    header = "t,row," + ",".join(f"s_{j}" for j in range(n))
    rows = []
    times = trace.times()
    for k in range(trace.steps):
        s = trace.s_mat(k)
        t = int(times[k])
        for i in range(n):
            cells = [str(t), str(i)]
            cells.extend(format_float(v) for v in s[i])
            rows.append(",".join(cells))
    write_csv(path, header, rows)


def _metrics_table(metrics: RunMetrics) -> tuple[str, list[str]]:
    """Per-time metric table; cells that do not apply stay empty (the
    final state has no step attached, pure mixing runs have no f-gaps)."""
    header = "t,consensus_error,lyapunov,f_gap_avg,f_gap_agent_k,bound_fixed,bound_varying"
    rows = []
    steps = len(metrics.consensus) - 1

    def cell(series: Any, k: int) -> str:
        if series is None:
            return ""
        if k >= len(series):
            return ""
        return format_float(series[k])

    for k in range(steps + 1):
        cells = [
            str(int(metrics.times[k])),
            format_float(metrics.consensus[k]),
            cell(metrics.lyapunov, k),
            cell(metrics.f_gap_avg, k),
            cell(metrics.f_gap_agent, k),
            "" if metrics.bound_fixed is None else format_float(metrics.bound_fixed),
            cell(metrics.bound_varying, k),
        ]
        rows.append(",".join(cells))
    return header, rows


def metrics_csv_text(metrics: RunMetrics) -> str:
    return csv_text(*_metrics_table(metrics))


def write_metrics_csv(path: str, metrics: RunMetrics) -> str:
    return write_csv(path, *_metrics_table(metrics))


def _jsonable(value: Any, path: str, non_finite: list[str]) -> Any:
    """Plain JSON values; a non-finite float becomes None and its dotted
    path is appended to ``non_finite``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v, f"{path}{k}.", non_finite) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, f"{path}{i}.", non_finite) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.append(path[:-1])
        return None
    return value


def write_summary_json(path: str, summary: dict) -> None:
    """Strict JSON: non-finite floats are written as null, and their
    dotted paths are listed under a top-level ``non_finite`` key, which
    is present only when some value was not finite."""
    non_finite: list[str] = []
    data = _jsonable(summary, "", non_finite)
    if non_finite:
        data["non_finite"] = sorted(non_finite)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Read a schema-1 CSV into float columns; empty cells become NaN."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no rows")
    names = rows[0].split(",")
    data: list[list[float]] = [[] for _ in names]
    for ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}: row width {len(cells)} != header width {len(names)}")
        for j, cell in enumerate(cells):
            data[j].append(float(cell) if cell != "" else float("nan"))
    return {name: np.asarray(col) for name, col in zip(names, data)}
