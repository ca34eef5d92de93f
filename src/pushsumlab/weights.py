"""Column-stochastic mixing weights over a directed graph.

Entry (i, j) is the weight receiver i applies to sender j's message, so
the sparsity pattern of column j is the out-neighborhood of j, and
column-stochasticity means every sender splits its mass exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph

__all__ = [
    "WeightMatrix",
    "default_weights",
    "equal_split",
    "save_weights",
    "load_weights",
    "COLUMN_SUM_TOL",
]

# Stochasticity tolerance used everywhere a column or row sum is checked.
COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightMatrix:
    """A dense column-stochastic mixing matrix together with its declared
    entry floor beta: every column sums to 1 within ``COLUMN_SUM_TOL`` and
    every positive entry is at least beta. Whether the positive entries
    are exactly the arcs of a graph is checked where the matrix meets
    its graphs (``pushsum.resolve_weight_sequence``)."""

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
        sums = m.sum(axis=0)
        off = np.flatnonzero(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
        if off.size:
            j = int(off[0])
            raise ValueError(f"weight column {j} sums to {float(sums[j])}, not 1")
        low = np.argwhere((m > 0.0) & (m < self.beta))
        if low.size:
            i, j = low[0].tolist()
            v, beta = float(m[i, j]), float(self.beta)
            raise ValueError(f"weight entry (row {i}, column {j}) = {v} is below beta = {beta}")
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
        try:
            m[i] = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{path}: row {i} must hold numbers, got {ln!r}") from None
    return m
