"""Column-stochastic mixing weights over a directed graph.

Entry (i, j) is the weight receiver i applies to sender j's message, so
the sparsity pattern of column j is the out-neighborhood of j, and
column-stochasticity means every sender splits its mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import DirectedGraph

__all__ = [
    "WeightMatrix",
    "WeightReport",
    "default_weights",
    "equal_split",
    "validate_weights",
    "save_weights",
    "load_weights",
    "COLUMN_SUM_TOL",
]

# Stochasticity tolerance used everywhere a column or row sum is checked.
COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """A dense mixing matrix together with its declared entry floor beta."""

    matrix: np.ndarray
    beta: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("weight matrix contains non-finite entries")
        if np.any(m < 0.0):
            raise ValueError("weight matrix contains negative entries")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def default_weights(g: DirectedGraph) -> WeightMatrix:
    """Equal-split weights: sender j gives 1/|out(j)| to each receiver.

    Out-degrees count the mandatory self-loop, so every denominator is
    at least 1 and the diagonal is positive. Entries are exact binary
    renderings of the rationals 1/k. The declared floor is 1/n, the
    smallest value an entry can take.
    """
    return WeightMatrix(equal_split(g.adj), beta=1.0 / g.n)


def equal_split(adj: np.ndarray) -> np.ndarray:
    """The equal-split matrix of a boolean receive matrix (n, n), or of
    each one in a stack (m, n, n): column j holds 1/|out(j)| at every
    receiver of j. Out-degrees count the self-loop, so none is zero;
    they are exact small integers, so the entries do not depend on how
    many matrices are built at once."""
    a = adj.astype(float)
    return a / a.sum(axis=-2, keepdims=True)


@dataclass(frozen=True)
class WeightReport:
    """Validation outcome; empty violation lists mean the matrix is
    column stochastic, graph compliant, and floor compliant."""

    column_sum_violations: tuple[tuple[int, float], ...] = ()
    sparsity_violations: tuple[tuple[int, int, float], ...] = ()
    diagonal_violations: tuple[tuple[int, float], ...] = ()
    beta_violations: tuple[tuple[int, int, float], ...] = ()

    @property
    def ok(self) -> bool:
        return not (
            self.column_sum_violations
            or self.sparsity_violations
            or self.diagonal_violations
            or self.beta_violations
        )

    def describe(self) -> str:
        if self.ok:
            return "weights ok"
        parts = []
        if self.column_sum_violations:
            parts.append(f"column sums off at {[j for j, _ in self.column_sum_violations]}")
        if self.sparsity_violations:
            parts.append(
                f"positive entries off the graph at {[(i, j) for i, j, _ in self.sparsity_violations]}"
            )
        if self.diagonal_violations:
            parts.append(f"non-positive diagonal at {[i for i, _ in self.diagonal_violations]}")
        if self.beta_violations:
            parts.append(
                f"edge weights below beta at {[(i, j) for i, j, _ in self.beta_violations]}"
            )
        return "; ".join(parts)


def validate_weights(w: WeightMatrix, g: DirectedGraph, beta: float | None = None) -> WeightReport:
    """Check a weight matrix against its graph and entry floor.

    Violation categories:

    * column sums further than ``COLUMN_SUM_TOL`` from 1,
    * positive entries where the graph has no arc,
    * non-positive diagonal entries,
    * entries below ``beta`` (including zeros) where the graph has an arc.
    """
    if beta is None:
        beta = w.beta
    m = w.matrix
    if m.shape[0] != g.n:
        raise ValueError(f"matrix size {m.shape[0]} does not match graph n={g.n}")

    def found(mask: np.ndarray, values: np.ndarray) -> tuple:
        # (index..., value) of every flagged entry, in row-major order
        where = np.nonzero(mask)
        return tuple(zip(*(a.tolist() for a in where), values[where].tolist()))

    sums = m.sum(axis=0)
    return WeightReport(
        column_sum_violations=found(np.abs(sums - 1.0) > COLUMN_SUM_TOL, sums),
        sparsity_violations=found(~g.adj & (m > 0.0), m),
        diagonal_violations=found(m.diagonal() <= 0.0, m.diagonal()),
        beta_violations=found(g.adj & (m < beta), m),
    )


def save_weights(path: str, w: WeightMatrix | np.ndarray) -> None:
    """Write ``n`` then n rows of n entries. repr floats round-trip."""
    m = w.matrix if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weights(path: str) -> np.ndarray:
    """Read a matrix written by :func:`save_weights`; returns the bare
    array (the entry floor is declared by the caller, not the file)."""
    with open(path, "r", encoding="ascii") as fh:
        raw = [ln.strip() for ln in fh]
    rows = [ln for ln in raw if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty weight file")
    try:
        n = int(rows[0])
    except ValueError:
        raise ValueError(f"{path}: header must be the matrix size, got {rows[0]!r}") from None
    if n < 1:
        raise ValueError(f"{path}: matrix size must be positive, got {n}")
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} rows after the header, got {len(rows) - 1}")
    m = np.empty((n, n))
    for i, ln in enumerate(rows[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"{path}: row {i} has {len(parts)} entries, expected {n}")
        m[i] = [float(p) for p in parts]
    return m
