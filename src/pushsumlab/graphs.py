"""Directed communication graphs and time-varying graph sequences.

An arc (j, i) means agent j sends to agent i. Every vertex keeps a
self-loop: agents always hear themselves, and the update matrices built
on top of these graphs need a positive diagonal. Self-loops are added at
construction time and their absence is treated as a validation error.

A graph is stored as its receive matrix packed to bits: ``bits`` is the
read-only (n, ceil(n/8)) uint8 ``np.packbits`` of the rows of the
boolean receive matrix ``adj`` (``adj[i, j]`` is true iff j sends to i).
``adj`` unpacks it on each read; the arc set is derived on first use. A
sequence stores one read-only (m, n, ceil(n/8)) uint8 array ``table``,
the packed rows of each distinct graph once, and the table index of
every step in ``ids``. Callers unpack only the ids they read
(:func:`receive_matrices`). Equal steps and equal window unions are
found by the 64-bit hash of their packed rows, each hit confirmed by
comparing bytes (:func:`_first_equal`); no byte key is kept.
"""

from __future__ import annotations

import numbers
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Arc",
    "DirectedGraph",
    "GraphSequence",
    "receive_matrices",
    "complete_graph",
    "directed_ring",
    "undirected_ring",
    "is_strongly_connected",
    "first_failing_window",
    "is_uniformly_strongly_connected",
    "generate_sequence",
    "save_sequence",
    "sequence_header",
    "load_sequence",
    "GENERATOR_KINDS",
]

Arc = tuple[int, int]


# The byte budget of the graph layer's transient arrays: random-spanning
# draws whole blocks of steps whose float extra-arc draws and bool receive
# matrices fit this many bytes (at least one block, whose draws then come
# in pieces of at least one step that fit it); _first_equal takes
# blocks of packed rows whose copies fit it; the window check searches as
# many new unions at once as fit this many bytes of bool n x n matrices,
# and save_sequence unpacks as many steps; load_sequence packs its parsed
# arcs each time their intp triples reach about this many bytes.
GENERATE_BYTES = 2**18


def _pack(adj: np.ndarray) -> np.ndarray:
    """The packed rows (..., n, ceil(n/8)) of bool receive matrices (..., n, n)."""
    return np.packbits(adj, axis=-1)


def receive_matrices(bits: np.ndarray) -> np.ndarray:
    """The bool receive matrices (..., n, n) of packed rows (..., n, ceil(n/8))."""
    return np.unpackbits(bits, axis=-1, count=bits.shape[-2]).view(bool)


# column j of a packed row is the bit _BIT[j & 7] of byte j >> 3
_BIT = np.array([0x80 >> b for b in range(8)], dtype=np.uint8)


def _add_arcs(table: np.ndarray, steps, senders, receivers) -> None:
    """Set the arcs senders[k] -> receivers[k] of steps[k] in a packed table."""
    j = np.asarray(senders, dtype=np.intp)
    np.bitwise_or.at(table, (steps, receivers, j >> 3), _BIT[j & 7])


def _self_loops(m: int, n: int) -> np.ndarray:
    """A (m, n, ceil(n/8)) packed table of m graphs holding only self-loops."""
    return np.repeat(_pack(np.eye(n, dtype=bool))[np.newaxis], m, axis=0)


def _has_loops(table: np.ndarray) -> np.ndarray:
    """(m, n) bool: whether graph k of a packed table holds the self-loop at v."""
    v = np.arange(table.shape[1])
    return (table[:, v, v >> 3] & _BIT[v & 7]) != 0


def _digests(rows: np.ndarray) -> list[int]:
    """The 64-bit hash of each item's bytes of a (k, ...) stack."""
    return [hash(r.tobytes()) for r in rows]


def _first_equal(rows_at, positions: np.ndarray, row_bytes: int):
    """(at, rows, reps) for each block ``at`` of the ascending ``positions``
    (about GENERATE_BYTES // (4 * row_bytes) of them): its (k, n, ceil(n/8))
    rows ``rows_at(at)`` and, for each, the first position, in this block
    or an earlier one, whose rows hold the same bytes. A digest maps to
    the first position that had it and every hit is confirmed by comparing
    bytes; only an item whose hit holds other bytes is keyed by its bytes."""
    first: dict = {}
    size = max(1, GENERATE_BYTES // (4 * row_bytes))  # rows, rebuilt rows, temporaries
    for at in np.split(positions, range(size, len(positions), size)):
        rows = rows_at(at)
        digests = _digests(rows)
        reps = np.array([first.setdefault(h, p) for h, p in zip(digests, at.tolist())])
        hit = np.flatnonzero(reps != at)
        for k in hit[np.any(rows[hit] != rows_at(reps[hit]), axis=(1, 2))].tolist():
            reps[k] = first.setdefault((digests[k], rows[k].tobytes()), at[k])
        yield at, rows, reps


def _transpose(bits: np.ndarray) -> np.ndarray:
    """The packed rows (k, n, ceil(n/8)) of the transposes of packed bit
    matrices, by 8 x 8 bit blocks. A block of 8 rows and one byte column,
    read as a little-endian uint64, holds row r, column c at bit 8r + 7 - c,
    so its transpose moves bit 8r + c to bit 63 - (8c + r): three delta
    swaps (Warren, Hacker's Delight, 7-3). The blocks then swap places."""
    k, n, w = bits.shape
    rows = np.zeros((k, w, 8, w), dtype=np.uint8)  # the rows padded to 8w
    rows.reshape(k, 8 * w, w)[:, :n] = bits
    x = np.ascontiguousarray(rows.transpose(0, 1, 3, 2)).view("<u8")[..., 0]
    for shift, mask in ((36, 0xF0F0F0F000000000), (18, 0xCCCC0000CCCC0000), (9, 0xAA00AA00AA00AA00)):
        t = (x ^ (x << shift)) & np.uint64(mask)
        x ^= t ^ (t >> shift)
    blocks = np.ascontiguousarray(x.swapaxes(1, 2))[..., np.newaxis].view(np.uint8)
    return blocks.transpose(0, 1, 3, 2).reshape(k, 8 * w, w)[:, :n]


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
        self._set(_pack(adj))

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[Arc]) -> "DirectedGraph":
        """Build a graph, silently adding the required self-loops."""
        return cls(n, chain(arcs, ((v, v) for v in range(n))))

    @classmethod
    def _wrap(cls, bits: np.ndarray) -> "DirectedGraph":
        """Graph over packed receive rows that already hold every
        self-loop. The rows are frozen and kept, not copied."""
        g = object.__new__(cls)
        g._set(bits)
        return g

    def _set(self, bits: np.ndarray) -> None:
        bits.setflags(write=False)
        self.n = bits.shape[0]
        self.bits = bits

    @property
    def adj(self) -> np.ndarray:
        """The read-only bool receive matrix, unpacked on each read."""
        adj = receive_matrices(self.bits)
        adj.setflags(write=False)
        return adj

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        receivers, senders = np.nonzero(self.adj)
        return frozenset(zip(senders.tolist(), receivers.tolist()))

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return self is other or (self.n == other.n and np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, arcs={int(self.adj.sum())})"


class GraphSequence:
    """A finite run of graphs on a common vertex set, one per step.

    ``table`` is one read-only (m, n, ceil(n/8)) uint8 array, the packed
    receive rows of each distinct graph once; step t uses
    ``table[ids[t]]``. It is built from a list of graphs or a packed
    (steps, n, ceil(n/8)) uint8 table, with one entry per step; equal
    steps are interned by the digest of their packed rows, each hit
    confirmed by comparing bytes (a packed table of distinct steps is
    kept, not copied). With ``ids`` given, the entries are the table.
    ``seq[t]`` and ``graphs`` are graph views of the table rows, one per
    id, made when first read.

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
            graphs = np.array([g.bits for g in graphs], dtype=np.uint8)
        table = graphs
        if table.size == 0:
            raise ValueError("graph sequence must contain at least one step")
        packed = table.ndim == 3 and table.shape[2] == -(-table.shape[1] // 8)
        if table.dtype != np.uint8 or not packed:
            got = f"{table.dtype} {table.shape}"
            raise ValueError(f"a graph table must be a packed uint8 (m, n, ceil(n/8)) table, got {got}")
        padding = (1 << (8 * table.shape[2] - table.shape[1])) - 1  # low bits of the last byte
        if np.any(table[:, :, -1] & padding):
            raise ValueError("a packed graph table must leave the bits past column n-1 clear")
        missing = np.argwhere(~_has_loops(table))
        if missing.size:
            k, v = missing[0].tolist()
            raise ValueError(f"graph {k} of the table is missing the self-loop at vertex {v}")
        if ids is None:  # each step's id: the rank of the first step equal to it
            steps = np.arange(len(table))
            blocks = _first_equal(table.__getitem__, steps, table[0].nbytes)
            reps = np.concatenate([r for _, _, r in blocks])
            distinct = np.flatnonzero(reps == steps)
            ids = np.searchsorted(distinct, reps)
            if len(distinct) < len(table):
                table = table[distinct]
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
        self._views: dict[int, DirectedGraph] = {}

    def _view(self, i: int) -> DirectedGraph:
        """The one graph view of table id i."""
        g = self._views.get(i)
        if g is None:
            g = self._views[i] = DirectedGraph._wrap(self.table[i])
        return g

    @property
    def n(self) -> int:
        return self.table.shape[1]

    @property
    def graphs(self) -> tuple[DirectedGraph, ...]:
        """The graph of every step, in order."""
        return tuple(map(self._view, self.ids.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, t: int) -> DirectedGraph:
        return self._view(int(self.ids[t]))


def complete_graph(n: int) -> DirectedGraph:
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    return DirectedGraph._wrap(_pack(np.ones((n, n), dtype=bool)))


def directed_ring(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, ((v, (v + 1) % n) for v in range(n)))


def undirected_ring(n: int) -> DirectedGraph:
    return DirectedGraph.from_arcs(n, ((v, (v + d) % n) for v in range(n) for d in (1, -1)))


def _strongly_connected(bits: np.ndarray) -> np.ndarray:
    """Whether each graph of a stack of packed receive rows
    (..., n, ceil(n/8)) is strongly connected, one bool per graph: vertex
    0 reaches every vertex, and every vertex reaches 0.

    One frontier search covers both directions of every graph. Its rows
    are the send rows of each graph (row v holds the vertices v sends
    to), the receive rows transposed by 8 x 8 bit blocks, then the
    receive rows. At each level one ``np.bitwise_or.reduceat`` ORs the
    rows of every search's frontier vertices. Each vertex of each search
    is expanded once, so the work is O(n^2) per graph whatever the depth.
    """
    n, width = bits.shape[-2:]
    receive = bits.reshape(-1, n, width)
    k = len(receive)
    rows = np.concatenate((_transpose(receive), receive)).reshape(-1, width)  # search s, vertex v: row s*n + v
    seen = np.zeros((2 * k, n), dtype=bool)
    seen[:, 0] = True
    search = np.arange(2 * k)
    frontier = search * n
    while frontier.size:
        # the frontier rows come in search order; first: where each search begins
        first = np.flatnonzero(np.concatenate(([True], search[1:] != search[:-1])))
        active = search[first]
        reached = np.unpackbits(np.bitwise_or.reduceat(rows[frontier], first), axis=1, count=n)
        new = reached.view(bool) & ~seen[active]
        seen[active] |= new
        a, v = np.nonzero(new)
        search = active[a]
        frontier = search * n + v
    return seen.all(axis=1).reshape(2, k).all(axis=0).reshape(bits.shape[:-2])


def is_strongly_connected(g: DirectedGraph) -> bool:
    return bool(_strongly_connected(g.bits))


def _new_unions(seq: GraphSequence, window: int):
    """(start, union) of each window whose union's packed rows no earlier
    window had, in order of start. A window holding the same graphs as
    the one before is skipped; the others' unions are formed a block at a
    time, one ``|=`` of table rows per window offset."""

    def unions(starts: np.ndarray) -> np.ndarray:
        rows = seq.table[seq.ids[starts]]
        for k in range(1, window):
            rows |= seq.table[seq.ids[starts + k]]
        return rows

    ids = seq.ids
    starts = np.flatnonzero(np.concatenate(([True], ids[:-window] != ids[window:])))
    for at, rows, reps in _first_equal(unions, starts, seq.table[0].nbytes):
        yield from zip(at[reps == at].tolist(), rows[reps == at])


def first_failing_window(seq: GraphSequence, window: int) -> int | None:
    """Offset of the first ``window`` consecutive steps whose union is
    not strongly connected, or None when every window passes.

    This is a finite-prefix check over every sliding offset of the
    stored steps: a window's union is the OR of its graphs' packed rows.
    Distinct windows can share a union (few graphs exist on a few
    vertices), so only a union with new bytes is searched: a digest maps
    to the start of its first window, whose union a hit rebuilds to
    compare bytes, so the answer never depends on the digest. New unions
    are searched in order of start, in batches of as many as fit
    ``GENERATE_BYTES`` of bool n x n matrices (at least one), one search
    call per batch.
    """
    if not 1 <= window <= len(seq):
        raise ValueError(f"window must lie in 1..{len(seq)} (the sequence length), got {window}")
    new = _new_unions(seq, window)
    size = max(1, GENERATE_BYTES // seq.n**2)
    while batch := list(islice(new, size)):
        starts, unions = zip(*batch)
        failing = np.flatnonzero(~_strongly_connected(np.stack(unions)))
        if failing.size:
            return starts[failing[0]]
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
        _add_arcs(table, j, j, (j + 1) % n)
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
        table = np.empty((horizon, n, -(-n // 8)), dtype=np.uint8)
        # whole blocks at a time, as many as fit in GENERATE_BYTES of bool
        # receive matrices plus their float extra-arc draws (at least one
        # block); the draws of a block past that budget are held and
        # compared a piece of as many steps as fit it at a time (at least one)
        size = window * max(1, GENERATE_BYTES // (window * n * n * (9 if p_extra > 0.0 else 1)))
        piece = min(size, max(1, GENERATE_BYTES // (9 * n * n)))
        adj, v = np.empty((min(size, horizon), n, n), dtype=bool), np.arange(n)
        draws = np.empty((min(piece, horizon), n, n)) if p_extra > 0.0 else None
        for c0 in range(0, horizon, size):
            block = adj[: min(size, horizon - c0)]
            block[...] = False
            # per block, in stream order: cycle, slots, extra-arc draws; the
            # draws of steps from ``done`` on wait in ``draws`` to be compared
            cycles, slots, done = [], [], 0
            for b0 in range(0, len(block), window):
                cycles.append(rng.permutation(n))
                slots.append(b0 + rng.integers(0, window, size=n))
                for s0 in range(b0, min(b0 + window, len(block)), piece) if draws is not None else ():
                    s1 = min(s0 + piece, b0 + window, len(block))
                    rng.random(out=draws[s0 - done : s1 - done])
                    if s1 - done == piece or s1 == len(block):  # draws[t, j, i] < p adds the arc j -> i
                        np.less(draws[: s1 - done].swapaxes(1, 2), p_extra, out=block[done:s1])
                        done = s1
            block[:, v, v] = True
            # cycle arc perm[k] -> perm[k+1], set in receiver row, sender column
            cycles, slots = np.array(cycles), np.array(slots)
            keep = slots < len(block)
            block[slots[keep], cycles[:, (v + 1) % n][keep], cycles[keep]] = True
            table[c0 : c0 + len(block)] = _pack(block)
        return GraphSequence(table, claimed_window=2 * window - 1)

    if kind == "doubly-stochastic-compatible":
        reject_unknown({"topology"})
        topology = params.get("topology", "ring")
        if topology not in ("ring", "complete"):
            raise ValueError(f"unknown topology {topology!r}")
        return static(undirected_ring(n) if topology == "ring" else complete_graph(n))

    raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


def save_sequence(path: str, seq: GraphSequence) -> None:
    """Write a sequence as ``n horizon`` followed by one ``t j i`` line
    per non-loop arc j -> i, in (t, j, i) order. Self-loops are implied
    and omitted on disk. The steps are unpacked ``GENERATE_BYTES`` of
    bool receive matrices at a time."""
    n, v = seq.n, np.arange(seq.n)
    size = max(1, GENERATE_BYTES // n**2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {len(seq)}\n")
        for t0 in range(0, len(seq), size):
            adj = receive_matrices(seq.table[seq.ids[t0 : t0 + size]])
            adj[:, v, v] = False
            t, j, i = np.nonzero(adj.swapaxes(1, 2))  # sender j, then receiver i
            fh.writelines(f"{a} {b} {c}\n" for a, b, c in zip((t + t0).tolist(), j.tolist(), i.tolist()))


def _rows(fh):
    """(line number, text) of each line of ``fh`` that is not blank or a ``#`` comment."""
    numbered = ((lineno, ln.strip()) for lineno, ln in enumerate(fh, start=1))
    return ((lineno, ln) for lineno, ln in numbered if ln and not ln.startswith("#"))


def sequence_header(path: str) -> tuple[int, int]:
    """The (n, horizon) a :func:`save_sequence` file declares in its header line."""
    with open(path, "r", encoding="ascii") as fh:
        head_no, head = next(_rows(fh), (None, None))
    if head is None:
        raise ValueError(f"{path}: empty graph sequence file")
    try:
        n, horizon = map(int, head.split())
    except ValueError:
        raise ValueError(f"{path}:{head_no}: header must be 'n horizon', got {head!r}") from None
    if n < 1 or horizon < 1:
        raise ValueError(f"{path}:{head_no}: header values must be positive, got {head!r}")
    return n, horizon


def load_sequence(path: str) -> GraphSequence:
    """Inverse of :func:`save_sequence`; self-loops are re-added. An
    error names the file and the line, blank and ``#`` lines counted."""
    n, horizon = sequence_header(path)
    table = _self_loops(horizon, n)
    found = []  # t, j, i of the arc lines since the last flush, flat
    flush = GENERATE_BYTES // np.dtype(np.intp).itemsize  # ints packed at a time
    with open(path, "r", encoding="ascii") as fh:
        for lineno, ln in islice(_rows(fh), 1, None):
            try:
                t, j, i = map(int, ln.split())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected integers 't j i', got {ln!r}") from None
            if not (0 <= t < horizon):
                raise ValueError(f"{path}:{lineno}: step {t} outside horizon {horizon}")
            if not (0 <= j < n and 0 <= i < n):
                raise ValueError(f"{path}:{lineno}: arc ({j}, {i}) out of range for n={n}")
            found += (t, j, i)
            if len(found) >= flush:
                _add_arcs(table, *np.array(found, dtype=np.intp).reshape(-1, 3).T)
                found.clear()
    _add_arcs(table, *np.array(found, dtype=np.intp).reshape(-1, 3).T)
    return GraphSequence(table)
