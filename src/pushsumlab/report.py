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
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .analysis import RunMetrics
from .pushsum import Trace, induced_chunks

__all__ = [
    "SCHEMA_LINE",
    "csv_blocks",
    "csv_text",
    "write_csv",
    "trace_csv_text",
    "write_trace_csv",
    "write_s_matrices_csv",
    "write_metrics_csv",
    "write_summary_json",
    "read_csv_columns",
]

SCHEMA_LINE = "# schema=1"


# Tables are formatted in blocks of at most this many lines, so the
# per-column lists of Python numbers and the block's text stay small.
BLOCK_ROWS = 1024


def csv_blocks(columns: Sequence[Any]) -> Iterator[list[str]]:
    """The lines of a table, in blocks of at most ``BLOCK_ROWS``.

    Each column is None (an empty cell on every line), a float or numpy
    floating scalar (the repr of its Python float on every line) or a 1-D
    array or list of numbers, whose ints print as ints and floats by
    repr; lines past its end get an empty cell. The longest column sets
    the number of lines.
    """
    constant = (float, np.floating)
    rows = max(len(c) for c in columns if c is not None and not isinstance(c, constant))
    for a in range(0, rows, BLOCK_ROWS):
        size = min(BLOCK_ROWS, rows - a)
        cells = []
        for c in columns:
            if c is None:
                cells.append(repeat("", size))
            elif isinstance(c, constant):
                cells.append(repeat(repr(float(c)), size))
            else:
                part = np.asarray(c[a : a + size]).tolist()
                cells.append(chain(map(repr, part), repeat("", size - len(part))))
        yield list(map(",".join, zip(*cells)))


def _texts(header: str, blocks: Iterable[list[str]]) -> Iterator[str]:
    for block in chain([[SCHEMA_LINE, header]], blocks):
        yield "\n".join(block) + "\n"


def csv_text(header: str, blocks: Iterable[list[str]]) -> str:
    """A schema-1 CSV: the schema line, the header, then the lines of
    ``blocks`` (see :func:`csv_blocks`)."""
    return "".join(_texts(header, blocks))


def write_csv(path: str, header: str, blocks: Iterable[list[str]]) -> str:
    """Write :func:`csv_text` block by block and return its sha256; the
    whole text is never held."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _texts(header, blocks):
            data = text.encode("ascii")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _per_step(
    times: np.ndarray, n: int, chunks: Iterable[tuple[int, np.ndarray]]
) -> Iterator[list[str]]:
    """Lines (t, index, cells...), n per step, from chunks (k0, cells) of
    the steps from k0 on; ``cells`` has shape (steps, n, columns)."""
    for k0, cells in chunks:
        steps = times[k0 : k0 + len(cells)]
        columns = [np.repeat(steps, n), np.tile(np.arange(n), len(steps))]
        yield from csv_blocks(columns + [cells[:, :, j].ravel() for j in range(cells.shape[2])])


def _trace_table(trace: Trace) -> tuple[str, Iterator[list[str]]]:
    """Rows (t, agent, y, z_0..z_{d-1}) for every recorded state."""
    header = "t,agent,y," + ",".join(f"z_{k}" for k in range(trace.d))
    size = max(1, BLOCK_ROWS // trace.n)

    def chunk(k0: int) -> tuple[int, np.ndarray]:
        ys = trace.ys[k0 : k0 + size, :, np.newaxis]
        return k0, np.concatenate([ys, trace.xs[k0 : k0 + size] / ys], axis=2)  # z as in Trace.zs

    return header, _per_step(trace.times(), trace.n, map(chunk, range(0, trace.steps + 1, size)))


def trace_csv_text(trace: Trace) -> str:
    return csv_text(*_trace_table(trace))


def write_trace_csv(path: str, trace: Trace) -> str:
    """Write the trace and return the sha256 of the written text."""
    return write_csv(path, *_trace_table(trace))


def write_s_matrices_csv(path: str, trace: Trace) -> None:
    """Sidecar with the induced row-stochastic matrix of every step:
    rows (t, row, s_0..s_{n-1}), t being the step's start time."""
    header = "t,row," + ",".join(f"s_{j}" for j in range(trace.n))
    chunks = ((k0, s) for k0, _, s in induced_chunks(trace))
    write_csv(path, header, _per_step(trace.times(), trace.n, chunks))


def _metrics_table(metrics: RunMetrics) -> tuple[str, Iterator[list[str]]]:
    """Per-time metric table; cells that do not apply stay empty (the
    final state has no step attached, pure mixing runs have no f-gaps)."""
    header = "t,consensus_error,lyapunov,f_gap_avg,f_gap_agent_k,bound_fixed,bound_varying"
    columns = [metrics.times, metrics.consensus, metrics.lyapunov, metrics.f_gap_avg]
    columns += [metrics.f_gap_agent, metrics.bound_fixed, metrics.bound_varying]
    return header, csv_blocks(columns)


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
