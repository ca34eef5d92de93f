"""Directed communication graphs and time-varying graph sequences.

An arc (j, i) means agent j sends to agent i. Every vertex keeps a
self-loop: agents always hear themselves, and the update matrices built
on top of these graphs need a positive diagonal. Self-loops are added at
construction time and their absence is treated as a validation error.

A graph is stored as one read-only boolean receive matrix ``adj``
(``adj[i, j]`` is true iff j sends to i); its arc set is derived from it
on first use. A sequence stores one read-only (m, n, n) bool array
``table``, the receive matrix of each distinct graph once, and the table
index of every step in ``ids``.
"""

from __future__ import annotations

import numbers
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Arc",
    "DirectedGraph",
    "GraphSequence",
    "complete_graph",
    "directed_ring",
    "undirected_ring",
    "is_strongly_connected",
    "first_failing_window",
    "is_uniformly_strongly_connected",
    "generate_sequence",
    "save_sequence",
    "load_sequence",
    "GENERATOR_KINDS",
]

Arc = tuple[int, int]


class DirectedGraph:
    """Fixed vertex set {0..n-1} plus a set of arcs (sender, receiver).

    Equal graphs (same n, same arcs) compare and hash equal.
    """

    def __init__(self, n: int, arcs: Iterable[Arc]) -> None:
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        pairs = np.array([(j, i) for j, i in arcs], dtype=np.int64).reshape(-1, 2)
        outside = ~np.all((pairs >= 0) & (pairs < n), axis=1)
        if outside.any():
            j, i = pairs[np.argmax(outside)].tolist()
            raise ValueError(f"arc ({j}, {i}) out of range for n={n}")
        adj = np.zeros((n, n), dtype=bool)
        adj[pairs[:, 1], pairs[:, 0]] = True
        missing = np.flatnonzero(~adj.diagonal()).tolist()
        if missing:
            raise ValueError(f"missing self-loops at vertices {missing}")
        self._set(adj)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[Arc]) -> "DirectedGraph":
        """Build a graph, silently adding the required self-loops."""
        return cls(n, chain(arcs, ((v, v) for v in range(n))))

    @classmethod
    def _wrap(cls, adj: np.ndarray) -> "DirectedGraph":
        """Graph over a receive matrix that already holds every self-loop.
        The matrix is frozen and kept, not copied."""
        g = object.__new__(cls)
        g._set(adj)
        return g

    def _set(self, adj: np.ndarray) -> None:
        adj.setflags(write=False)
        self.n = adj.shape[0]
        self.adj = adj

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        receivers, senders = np.nonzero(self.adj)
        return frozenset(zip(senders.tolist(), receivers.tolist()))

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.adj.tobytes()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self.adj, other.adj))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, arcs={int(self.adj.sum())})"


class GraphSequence:
    """A finite run of graphs on a common vertex set, one per step.

    ``table`` is one read-only (m, n, n) bool array, the receive matrix
    of each distinct graph once; step t uses ``table[ids[t]]``. Built
    from a list of graphs or a bool stack with one entry per step, equal
    steps are interned (a stack of distinct steps is kept, not copied);
    with ``ids`` given, the list or stack is the table. ``seq[t]`` and
    ``graphs`` are graph views of the table, one per id.

    ``claimed_window`` is the generator's (or caller's) assertion about
    uniform strong connectivity: every window of that many consecutive
    steps should have a strongly connected union. The claim is checkable
    with :func:`is_uniformly_strongly_connected`; it is not trusted.
    """

    def __init__(
        self,
        graphs: Iterable[DirectedGraph] | np.ndarray,
        claimed_window: int | None = None,
        ids: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        if not isinstance(graphs, np.ndarray):
            graphs = tuple(graphs)
            sizes = {g.n for g in graphs}
            if len(sizes) > 1:
                raise ValueError(f"all graphs must share one vertex set, got sizes {sorted(sizes)}")
            graphs = np.array([g.adj for g in graphs], dtype=bool)
        table = graphs
        if table.size == 0:
            raise ValueError("graph sequence must contain at least one step")
        if table.dtype != bool or table.ndim != 3 or table.shape[1] != table.shape[2]:
            got = f"{table.dtype} {table.shape}"
            raise ValueError(f"a graph table must be a bool (m, n, n) stack, got {got}")
        missing = np.argwhere(~table.diagonal(axis1=1, axis2=2))
        if missing.size:
            k, v = missing[0].tolist()
            raise ValueError(f"graph {k} of the table is missing the self-loop at vertex {v}")
        if ids is None:  # intern through the graphs' hash, not kept byte keys
            index: dict[DirectedGraph, int] = {}
            ids = [index.setdefault(g, len(index)) for g in map(DirectedGraph._wrap, table)]
            if len(index) < len(table):
                table = table[np.unique(ids, return_index=True)[1]]
        step_ids = np.array(ids, dtype=np.intp)
        if step_ids.ndim != 1 or step_ids.size == 0:
            raise ValueError("graph sequence must contain at least one step")
        if step_ids.min() < 0 or step_ids.max() >= len(table):
            raise ValueError(f"graph ids must index a table of {len(table)} graphs")
        if claimed_window is not None and claimed_window < 1:
            raise ValueError(f"claimed_window must be >= 1, got {claimed_window}")
        table.setflags(write=False)
        step_ids.setflags(write=False)
        self.table = table
        self.ids = step_ids
        self.claimed_window = claimed_window

    @cached_property
    def _views(self) -> tuple[DirectedGraph, ...]:
        return tuple(map(DirectedGraph._wrap, self.table))

    @property
    def n(self) -> int:
        return self.table.shape[1]

    @property
    def graphs(self) -> tuple[DirectedGraph, ...]:
        """The graph of every step, in order."""
        return tuple(map(self._views.__getitem__, self.ids.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, t: int) -> DirectedGraph:
        return self._views[self.ids[t]]


def complete_graph(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, ((j, i) for j in range(n) for i in range(n)))


def directed_ring(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, ((v, (v + 1) % n) for v in range(n)))


def undirected_ring(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, ((v, (v + d) % n) for v in range(n) for d in (1, -1)))


def _reaches_all(adj: np.ndarray) -> bool:
    """Whether every vertex is reachable from vertex 0 along the arcs
    j -> i with adj[i, j]. Frontier search: each vertex is expanded once,
    so the work is O(n^2) whatever the depth."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        new = adj[:, frontier].any(axis=1) & ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return bool(seen.all())


def is_strongly_connected(g: DirectedGraph) -> bool:
    # every vertex reachable from 0, and 0 reachable from every vertex
    return _reaches_all(g.adj) and _reaches_all(g.adj.T)


def first_failing_window(seq: GraphSequence, window: int) -> int | None:
    """Offset of the first ``window`` consecutive steps whose union is
    not strongly connected, or None when every window passes.

    This is a finite-prefix check over every sliding offset of the
    stored steps. A window's union depends only on the set of distinct
    graphs in it, and distinct sets can share a union (few graphs exist
    on a few vertices), so each set and each union is checked once.
    """
    if not 1 <= window <= len(seq):
        raise ValueError(f"window must lie in 1..{len(seq)} (the sequence length), got {window}")
    ids = seq.ids.tolist()
    passed_ids: set[frozenset[int]] = set()
    passed_unions: set[bytes] = set()  # packed adjacency bits, n*n/8 bytes each
    for start in range(len(ids) - window + 1):
        if start and ids[start - 1] == ids[start + window - 1]:
            continue  # the same graphs as the window before, which passed
        members = frozenset(ids[start : start + window])
        if members in passed_ids:
            continue
        union = seq.table[list(members)].any(axis=0)
        key = np.packbits(union).tobytes()
        if key not in passed_unions:
            if not is_strongly_connected(DirectedGraph._wrap(union)):
                return start
            passed_unions.add(key)
        passed_ids.add(members)
    return None


def is_uniformly_strongly_connected(seq: GraphSequence, window: int) -> bool:
    """Whether every ``window`` consecutive steps have a strongly connected union."""
    return first_failing_window(seq, window) is None


GENERATOR_KINDS = (
    "static-complete",
    "static-ring",
    "rotating-single-edge",
    "random-spanning",
    "doubly-stochastic-compatible",
)


def generate_sequence(
    kind: str,
    n: int,
    horizon: int,
    seed: int = 0,
    params: dict | None = None,
) -> GraphSequence:
    """Deterministically generate a graph sequence of the given kind.

    Parameters
    ----------
    kind : str
        One of ``GENERATOR_KINDS``.
    n, horizon : int
        Number of agents and number of steps.
    seed : int
        Only the random kinds consume it; identical inputs give an
        identical sequence.
    params : dict, optional
        Kind-specific knobs. Unknown keys raise.

    Notes
    -----
    * ``rotating-single-edge``: each step has self-loops plus the single
      arc (t mod n) -> (t+1 mod n); any n consecutive steps cover the
      whole ring, so the claimed window is n.
    * ``random-spanning``: the horizon is split into aligned blocks of
      ``window`` steps; each block scatters the arcs of one random
      spanning cycle over random slots. Any 2*window-1 consecutive steps
      contain a whole block, hence the claimed window.
    * ``doubly-stochastic-compatible``: a static regular undirected
      topology (ring or complete), so equal out-degrees make the default
      weights doubly stochastic.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    params = dict(params) if params else {}

    def reject_unknown(allowed: set[str]) -> None:
        unknown = set(params) - allowed
        if unknown:
            raise ValueError(f"unknown params for kind {kind!r}: {sorted(unknown)}")

    def static(g: DirectedGraph) -> GraphSequence:
        return GraphSequence((g,), claimed_window=1, ids=np.zeros(horizon, dtype=np.intp))

    if kind in ("static-complete", "static-ring"):
        reject_unknown(set())
        return static(complete_graph(n) if kind == "static-complete" else directed_ring(n))

    if kind == "rotating-single-edge":
        reject_unknown(set())
        table = _self_loops(min(n, horizon), n)
        j = np.arange(len(table))
        table[j, (j + 1) % n, j] = True  # arc j -> j+1, in receiver row, sender column
        return GraphSequence(table, claimed_window=n, ids=np.arange(horizon) % n)

    if kind == "random-spanning":
        reject_unknown({"window", "extra_arc_prob"})
        window = params.get("window", n)
        if isinstance(window, bool) or not isinstance(window, numbers.Integral) or window < 1:
            raise ValueError(f"window must be an integer >= 1, got {window!r}")
        p_extra = params.get("extra_arc_prob", 0.0)
        real = isinstance(p_extra, numbers.Real) and not isinstance(p_extra, bool)
        if not (real and 0.0 <= p_extra <= 1.0):
            raise ValueError(f"extra_arc_prob must be a number in [0, 1], got {p_extra!r}")
        window, p_extra = int(window), float(p_extra)
        rng = np.random.default_rng(seed)
        adj = _self_loops(horizon, n)
        n_blocks = -(-horizon // window)
        for b in range(n_blocks):
            perm = rng.permutation(n)
            steps = b * window + rng.integers(0, window, size=n)
            keep = steps < horizon
            # cycle arc perm[k] -> perm[k+1], set in receiver row, sender column
            adj[steps[keep], np.roll(perm, -1)[keep], perm[keep]] = True
            if p_extra > 0.0:
                for t in range(b * window, min((b + 1) * window, horizon)):
                    # draws[j, i] < p adds the arc j -> i
                    adj[t] |= (rng.random((n, n)) < p_extra).T
        return GraphSequence(adj, claimed_window=2 * window - 1)

    if kind == "doubly-stochastic-compatible":
        reject_unknown({"topology"})
        topology = params.get("topology", "ring")
        if topology not in ("ring", "complete"):
            raise ValueError(f"unknown topology {topology!r}")
        return static(undirected_ring(n) if topology == "ring" else complete_graph(n))

    raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


def _self_loops(horizon: int, n: int) -> np.ndarray:
    """A (horizon, n, n) stack of receive matrices holding only self-loops."""
    adj = np.zeros((horizon, n, n), dtype=bool)
    adj[:, np.arange(n), np.arange(n)] = True
    return adj


def save_sequence(path: str, seq: GraphSequence) -> None:
    """Write a sequence as ``n horizon`` followed by one ``t j i`` line
    per non-loop arc. Self-loops are implied and omitted on disk."""
    lines = [f"{seq.n} {len(seq)}"]
    lines += [f"{t} {j} {i}" for t, g in enumerate(seq.graphs) for j, i in sorted(g.arcs) if j != i]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_sequence(path: str) -> GraphSequence:
    """Inverse of :func:`save_sequence`; self-loops are re-added. An
    error names the file and the line, blank and ``#`` lines counted."""
    with open(path, "r", encoding="ascii") as fh:
        numbered = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1)]
    rows = [(lineno, ln) for lineno, ln in numbered if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty graph sequence file")
    (head_no, head), *arcs = rows
    try:
        n, horizon = map(int, head.split())
    except ValueError:
        raise ValueError(f"{path}:{head_no}: header must be 'n horizon', got {head!r}") from None
    if n < 1 or horizon < 1:
        raise ValueError(f"{path}:{head_no}: header values must be positive, got {head!r}")
    adj = _self_loops(horizon, n)
    for lineno, ln in arcs:
        try:
            t, j, i = map(int, ln.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected integers 't j i', got {ln!r}") from None
        if not (0 <= t < horizon):
            raise ValueError(f"{path}:{lineno}: step {t} outside horizon {horizon}")
        if not (0 <= j < n and 0 <= i < n):
            raise ValueError(f"{path}:{lineno}: arc ({j}, {i}) out of range for n={n}")
        adj[t, i, j] = True
    return GraphSequence(adj)
