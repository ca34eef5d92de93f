"""Push-sum (ratio consensus) dynamics over directed graph sequences.

Two coupled linear recursions share one column-stochastic matrix per
step: numerators x(t+1) = W(t) x(t) and weights y(t+1) = W(t) y(t) with
y(0) > 0. Each agent reports the ratio z_i = x_i / y_i. Because every
column of W(t) sums to one, the totals of x and y never change, and
under uniform strong connectivity every ratio converges to the mass
average sum x(0) / sum y(0).

The ratio dynamics are equivalently z(t+1) = S(t) z(t) for the induced
row-stochastic matrix s_ij(t) = w_ij(t) y_j(t) / y_i(t+1); everything
needed to reconstruct S exactly is recorded in the run trace, which is
what the verification helpers consume.

No dense per-step matrix stack is stored: a trace keeps its mixing
matrices as one table plus a step-to-id array (default weights as the
graph sequence's packed table alone), and the dynamics loop and the checks
walk the steps in chunks of bounded size. Runs that differ only in their
gradients and switching rows, such as the seeds of a sweep, share one
loop as replicas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import GraphSequence, receive_matrices
from .weights import WeightMatrix, equal_split

__all__ = [
    "DEGENERATE_Y",
    "CHUNK_BYTES",
    "DegenerateStateError",
    "MixingSequence",
    "Trace",
    "Replicas",
    "TheoreticalConstants",
    "Finding",
    "InducedChecks",
    "s_matrix",
    "absolute_probability",
    "theoretical_constants",
    "induced_chunks",
    "locate",
    "scan_induced",
    "resolve_weight_sequence",
    "run_dynamics",
    "run_pushsum",
    "run_weighted_pushsum",
    "verify_absolute_probability",
    "verify_ratio_identity",
    "verify_product_limit",
]

# Below this the ratio x/y is numerically meaningless; runs abort rather
# than emit garbage. Far below any y reachable under connectivity.
DEGENERATE_Y = 1e-300

# y_next must equal W y this tightly before an induced matrix is built.
S_CONSISTENCY_TOL = 1e-10


class DegenerateStateError(RuntimeError):
    """Raised when the state left the range where x / y means anything:
    some y_i at the floating-point floor, or some x not finite."""


def _induced(w: np.ndarray, y: np.ndarray, y_next: np.ndarray, k0: int = 0) -> np.ndarray:
    """The induced S(k) of steps k0..k0+c-1 from their W(k), y(k) and
    y(k+1), stacked as w (c, n, n), y and y_next (c, n). Each y(k+1) must
    equal W(k) y(k) within ``S_CONSISTENCY_TOL`` at the scale of y(k) (an
    inconsistent pair silently breaks row-stochasticity) and stay above
    ``DEGENERATE_Y``; the first step that fails is named."""
    computed = np.matmul(w, y[:, :, np.newaxis])[:, :, 0]
    scale = np.maximum(1.0, np.max(np.abs(y), axis=1))
    err = np.max(np.abs(y_next - computed), axis=1)
    bad = np.flatnonzero(err > S_CONSISTENCY_TOL * scale)
    if bad.size:
        j = int(bad[0])
        raise ValueError(
            f"y(k+1) is not W(k) y(k) at step {k0 + j}: max deviation {err[j]:.3e} "
            f"exceeds {S_CONSISTENCY_TOL:.0e} at scale {scale[j]:g}"
        )
    low = np.flatnonzero(y_next.min(axis=1) <= DEGENERATE_Y)
    if low.size:
        raise DegenerateStateError(
            f"cannot induce the ratio matrix of step {k0 + int(low[0])}: y(k+1) hits the floor"
        )
    s = w * y[:, np.newaxis, :]
    return np.divide(s, y_next[:, :, np.newaxis], out=s)


def s_matrix(
    w: WeightMatrix | np.ndarray, y: np.ndarray, y_next: np.ndarray | None = None
) -> np.ndarray:
    """Induced row-stochastic matrix s_ij = w_ij y_j / y_next_i, with the
    checks of :func:`induced_chunks`; ``y_next`` defaults to W y."""
    m = w.matrix if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    y_next = m @ y if y_next is None else np.asarray(y_next, dtype=float)
    return _induced(m[np.newaxis], y[np.newaxis], y_next[np.newaxis])[0]


def absolute_probability(y: np.ndarray, kappa: float) -> np.ndarray:
    """The weight vector normalized by the conserved total mass kappa.

    For the induced ratio matrices this is the absolute probability
    sequence: pi(t) = pi(t+1)^T S(t) row by row, with all entries
    positive and summing to one.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return np.asarray(y, dtype=float) / kappa


@dataclass(frozen=True)
class TheoreticalConstants:
    """A-priori contraction constants for n agents and window L.

    eta_lb lower-bounds every y_i(t); mu_ub upper-bounds the geometric
    contraction rate of backward products; c is the leading factor.
    """

    eta_lb: float
    mu_ub: float
    c: float = 4.0


# Saturation limits for theoretical_constants. eta_lb = n^(-nL)
# underflows for modest nL; it is floored at ETA_FLOOR and mu_ub capped
# one ulp below 1 so that 0 < eta_lb and mu_ub < 1 always hold.
ETA_FLOOR = 1e-300
MU_CAP = float(np.nextafter(1.0, 0.0))


def theoretical_constants(n: int, window: int) -> TheoreticalConstants:
    """Worst-case constants eta_lb = n^(-n*window) and
    mu_ub = (1 - eta_lb)^(1/window), computed in log space.

    Values that underflow saturate at documented caps (see ETA_FLOOR and
    MU_CAP); the returned pair stays strictly inside (0, 1] x [0, 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    log_eta = -float(n) * float(window) * math.log(n)
    eta = math.exp(log_eta)
    if eta < ETA_FLOOR:
        eta = ETA_FLOOR
    if eta >= 1.0:
        # single agent: any window contracts immediately
        return TheoreticalConstants(1.0, 0.0)
    if window == 1:
        mu = 1.0 - eta
    else:
        mu = math.exp(math.log1p(-eta) / window)
    mu = min(mu, MU_CAP)
    return TheoreticalConstants(eta, mu)


# Steps are walked in chunks sized so that one dense (steps, n, n) float
# block stays under this many bytes. run and verify hold a few such
# blocks at a time, never one matrix per step of the whole horizon.
CHUNK_BYTES = 2**19


class MixingSequence:
    """The mixing matrix of every step, read-only: a step-to-id array
    plus one table. With a graph sequence's packed (m, n, ceil(n/8))
    uint8 table, id i is the equal-split matrix of graph i, unpacked and
    built only when a chunk needs it, so no float is stored; a float
    (m, n, n) table holds the matrices. ``len``, ``[k]`` (one (n, n)
    matrix) and ``nbytes`` (the stored floats only) read like a
    (steps, n, n) array never formed.
    """

    def __init__(self, ids: Sequence[int] | np.ndarray, table: np.ndarray) -> None:
        packed = table.dtype == np.uint8
        if table.ndim != 3 or table.shape[2] != (
            -(-table.shape[1] // 8) if packed else table.shape[1]
        ):
            raise ValueError("w_mats must be (steps, n, n)")
        self.ids = np.asarray(ids, dtype=np.intp).view()
        self.ids.setflags(write=False)
        self.table = table
        self.n = table.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nbytes(self) -> int:
        return 0 if self.table.dtype == np.uint8 else self.table.nbytes

    def matrices(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The matrices of the given table ids, shape (len(ids), n, n)."""
        mats = self.table[ids]
        return equal_split(receive_matrices(mats)) if mats.dtype == np.uint8 else mats

    def __getitem__(self, k: int) -> np.ndarray:
        m = self.matrices([self.ids[k]])[0]
        m.setflags(write=False)
        return m

    def chunks(self):
        """(k0, mats, local) for consecutive chunks of steps, as many as
        fit in ``CHUNK_BYTES`` of n x n floats (at least one): step
        k0 + j applies mats[local[j]]. A chunk holds only the matrices its
        steps use, and reuses the previous chunk's when they are the same
        (a static graph's equal-split matrix is built once)."""
        size = max(1, CHUNK_BYTES // (8 * self.n * self.n))
        used = mats = None
        for k0 in range(0, len(self.ids), size):
            previous = used
            if size == 1:  # no bookkeeping for one step
                used, local = self.ids[k0 : k0 + 1], np.zeros(1, dtype=np.intp)
            else:
                used, local = np.unique(self.ids[k0 : k0 + size], return_inverse=True)
            if previous is None or not np.array_equal(used, previous):
                mats = self.matrices(used)
            yield k0, mats, local


@dataclass
class _Record:
    """The fields of a run's record, shared by :class:`Trace` (one run)
    and :class:`Replicas` (S runs on a replica axis before the agent
    axis): states indexed t0..t0+steps, w_mats (a MixingSequence) whose
    entry k is the matrix applied between states k and k+1 (list
    position, not time label), and for optimizer runs the step sizes, the
    applied gradients and the switching rows, a read-only view storing
    nothing if constant."""

    algorithm: str
    t0: int
    xs: np.ndarray
    ys: np.ndarray
    w_mats: MixingSequence
    kappa: float
    alphas: np.ndarray | None = None
    gs: np.ndarray | None = None
    sigmas: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return len(self.w_mats)

    @property
    def n(self) -> int:
        return self.xs.shape[-2]


@dataclass
class Trace(_Record):
    """Complete record of one run: xs (steps+1, n, d), ys (steps+1, n),
    gs (steps, n, d) and sigmas (steps, n)."""

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if not isinstance(self.w_mats, MixingSequence):
            raise TypeError(f"w_mats must be a MixingSequence, got {type(self.w_mats).__name__}")
        if self.xs.ndim != 3:
            raise ValueError("xs must be (steps+1, n, d)")
        steps, n = len(self.w_mats), self.xs.shape[1]
        if self.ys.shape != (steps + 1, n) or self.xs.shape[0] != steps + 1:
            raise ValueError("trace arrays disagree on steps or n")
        if self.w_mats.n != n:
            raise ValueError("w_mats must be (steps, n, n)")
        if self.alphas is not None and len(self.alphas) != steps:
            raise ValueError("alphas must have one entry per step")
        if self.gs is not None and self.gs.shape != self.xs[:-1].shape:
            raise ValueError("gs must be (steps, n, d)")
        if self.sigmas is not None and self.sigmas.shape != (steps, n):
            raise ValueError("sigmas must be (steps, n)")

    @property
    def d(self) -> int:
        return self.xs.shape[2]

    def times(self) -> np.ndarray:
        return np.arange(self.t0, self.t0 + self.steps + 1)

    def index_of(self, t: int) -> int:
        k = t - self.t0
        if not (0 <= k <= self.steps):
            raise ValueError(f"time {t} outside recorded range [{self.t0}, {self.t0 + self.steps}]")
        return k

    @property
    def zs(self) -> np.ndarray:
        """Ratios for every recorded state, shape (steps+1, n, d)."""
        return self.xs / self.ys[:, :, np.newaxis]

    @property
    def z_weighted(self) -> np.ndarray:
        """Mass-weighted average sum_i x_i / kappa, shape (steps+1, d).

        This is the pi-weighted average of the ratios and the quantity
        whose recursion the descent checks track.
        """
        return self.xs.sum(axis=1) / self.kappa

    def s_mat(self, k: int) -> np.ndarray:
        """Induced row-stochastic matrix for step k (list position)."""
        return s_matrix(self.w_mats[k], self.ys[k], self.ys[k + 1])


def induced_chunks(trace: Trace):
    """(k0, w, s) for consecutive chunks of steps k0..k0+c-1: w holds
    their mixing matrices W(k) and s the induced S(k), both (c, n, n).

    S(k) is formed by the same builder and checks as :func:`s_matrix`,
    so its bits are the same.
    """
    ys = trace.ys
    for k0, mats, local in trace.w_mats.chunks():
        k1 = k0 + len(local)
        # distinct steps in table order (one step, or a fresh graph each) need no copy
        identity = len(local) == len(mats) and bool(np.all(local[1:] > local[:-1]))
        w = mats if identity else mats[local]
        yield k0, w, _induced(w, ys[k0:k1], ys[k0 + 1 : k1 + 1], k0)


class Finding(NamedTuple):
    """A check's extreme value and where it occurs. ``where`` maps axis
    names to positions: ``step`` is the time t at which a step starts,
    ``t`` the time of a recorded state, and ``agent``, ``row``,
    ``column`` or ``coordinate`` index within it."""

    value: float
    where: dict


def locate(
    values: np.ndarray, labels: Sequence[int] | np.ndarray, names: tuple[str, ...], pick=np.argmax
) -> Finding:
    """The entry of ``values`` that ``pick`` selects (the first in
    row-major order on a tie). ``names`` name the axes in ``where``;
    the first axis is reported by its label in ``labels``."""
    index = np.unravel_index(int(pick(values)), values.shape)
    at = (int(labels[index[0]]), *(int(i) for i in index[1:]))
    return Finding(float(values[index]), dict(zip(names, at)))


def _larger(best: Finding | None, found: Finding) -> Finding:
    # the earlier finding wins a tie
    return found if best is None or found.value > best.value else best


def _smaller(best: Finding | None, found: Finding) -> Finding:
    return found if best is None or found.value < best.value else best


NO_MISMATCH = Finding(0.0, {})


class InducedChecks(NamedTuple):
    """What one pass over the mixing matrices W(k) of a trace and their
    induced matrices S(k) found.

    ``columns``: largest |sum_i W_ij(k) - 1| (step, column).
    ``graph``: 1.0 at the first entry where W(k) > 0 and the arcs of the
    step's graph disagree (step, row, column), else 0.0; None when no
    graph sequence was given.
    ``beta_min``: smallest positive entry of any W(k) (step, row, column).
    ``w_rows``: largest |sum_j W_ij(k) - 1| (step, row), zero up to
    rounding for doubly stochastic weights.
    ``row_sums``: largest |sum_j S_ij(k) - 1| (step, row).
    ``sparsity``: 1.0 at the first entry where S(k) > 0 and W(k) > 0
    disagree (step, row, column), else 0.0.
    ``floor``: smallest positive entry of any S(k) (step, row, column).
    ``probability``: largest |S(k)^T pi(k+1) - pi(k)| (step, agent).
    ``ratio``: per (t, tau), the largest violation of
    [Phi_S(t,tau)]_ij y_i(t) = [Phi_W(t,tau)]_ij y_j(tau) (t, tau, row,
    column).
    ``limit``: per (t, tau), the largest deviation of Phi_S(t, tau) from
    its rank-one limit, every row y(tau)^T / kappa.
    """

    columns: Finding
    graph: Finding | None
    beta_min: Finding
    w_rows: Finding
    row_sums: Finding
    sparsity: Finding
    floor: Finding
    probability: Finding
    ratio: dict[tuple[int, int], Finding]
    limit: dict[tuple[int, int], float]


def scan_induced(
    trace: Trace,
    seq: GraphSequence | None = None,
    ys: np.ndarray | None = None,
    tau: int | None = None,
    ratio_at: Iterable[int] = (),
    limit_at: Iterable[int] = (),
) -> InducedChecks:
    """Check the mixing and induced matrices of ``trace`` in one pass
    over bounded chunks of steps; no (steps, n, n) array is formed.
    Step k is checked against the graph ``seq[k]`` when ``seq`` is given.

    The probability recursion pi = y / kappa is checked against ``ys``
    (the recorded y rows by default), so corrupted records can be tested
    against honestly induced matrices; everything else reads the
    recorded rows. The scan walks one chain from the time label ``tau``
    (t0 by default): Phi_S(t, tau) and, when ``ratio_at`` is non-empty,
    Phi_W(t, tau). The loop over each chunk's steps advances both by
    ``np.dot``, S(k) Phi_S and W(k) Phi_W (latest step on the left, no
    re-normalization: accumulated rounding is part of what is measured),
    and evaluates the chain only at the steps where it reaches a time
    label t of ``ratio_at`` or ``limit_at``; t == tau reads the
    identities. The masks W(k) > 0 and S(k) > 0 are taken once per chunk.

    In a chunk of more than one step, step k + 1 repeats step k when both
    have one table id and the same S bits. When a step that the next one
    repeats leaves the chain unchanged byte for byte, every repeat would
    too (a product's bytes depend only on its operands' values), so the
    run of repeats is skipped, and each due t inside it is evaluated on
    the same Phi. A one-step chunk keeps the plain loop: no mask, and no
    earlier Phi kept alive.
    """
    ys_prob = trace.ys if ys is None else np.asarray(ys, dtype=float)
    tau = trace.t0 if tau is None else tau
    taui = trace.index_of(tau)
    ratio: dict[tuple[int, int], Finding] = dict.fromkeys((t, tau) for t in ratio_at)
    limit: dict[tuple[int, int], float] = dict.fromkeys((t, tau) for t in limit_at)
    due = set()  # the step indices at which the chain is evaluated
    for t, _ in (*ratio, *limit):
        ti = trace.index_of(t)
        if ti < taui:
            raise ValueError(f"need t >= tau, got t={t}, tau={tau}")
        due.add(ti)
    last = max(due, default=taui)  # the chain stops at the latest t

    def evaluate(phi_s: np.ndarray, phi_w: np.ndarray | None, ti: int) -> None:
        # one expression each, so no n x n temporary outlives it
        t = trace.t0 + ti
        if (t, tau) in ratio:
            found = locate(
                np.abs(
                    phi_s * trace.ys[ti][:, np.newaxis] - phi_w * trace.ys[taui][np.newaxis, :]
                ),
                range(trace.n),
                ("row", "column"),
            )
            ratio[(t, tau)] = Finding(found.value, {"t": t, "tau": tau, **found.where})
        if (t, tau) in limit:
            limit[(t, tau)] = float(np.max(np.abs(phi_s - trace.ys[taui] / trace.kappa)))

    phi_s, phi_w = np.eye(trace.n), np.eye(trace.n) if ratio else None
    if taui in due:
        evaluate(phi_s, phi_w, taui)

    columns = beta_min = w_rows = row = sparsity = floor = prob = None
    graph = None if seq is None else NO_MISMATCH  # until the first mismatch
    labels = trace.times()
    ids = trace.w_mats.ids
    for k0, w, s in induced_chunks(trace):
        k1 = k0 + len(s)
        steps = labels[k0:k1]
        w_pos, s_pos = w > 0.0, s > 0.0
        dev = np.abs(w.sum(axis=1) - 1.0)
        columns = _larger(columns, locate(dev, steps, ("step", "column")))
        if graph is NO_MISMATCH:
            mismatch = w_pos != receive_matrices(seq.table[seq.ids[k0:k1]])
            if mismatch.any():
                graph = locate(mismatch, steps, ("step", "row", "column"))
        positive = np.where(w_pos, w, np.inf)
        beta_min = _smaller(beta_min, locate(positive, steps, ("step", "row", "column"), np.argmin))
        dev = np.abs(w.sum(axis=2) - 1.0)
        w_rows = _larger(w_rows, locate(dev, steps, ("step", "row")))
        dev = np.abs(s.sum(axis=2) - 1.0)
        row = _larger(row, locate(dev, steps, ("step", "row")))
        mismatch = s_pos != w_pos
        if sparsity is None and mismatch.any():
            sparsity = locate(mismatch, steps, ("step", "row", "column"))
        positive = np.where(s_pos, s, np.inf)
        floor = _smaller(floor, locate(positive, steps, ("step", "row", "column"), np.argmin))
        pi = absolute_probability(ys_prob[k0 : k1 + 1], trace.kappa)
        dev = np.abs(np.matmul(s.transpose(0, 2, 1), pi[1:, :, np.newaxis])[:, :, 0] - pi[:-1])
        prob = _larger(prob, locate(dev, steps, ("step", "agent")))
        j, stop = max(k0, taui) - k0, min(k1, last) - k0
        if stop - j > 1:  # repeats[j]: step j + 1 has step j's table id and S bits
            bits = s.view(np.uint64)
            repeats = ids[k0 + 1 : k1] == ids[k0 : k1 - 1]
            repeats &= (bits[1:] == bits[:-1]).all(axis=(1, 2))
        while j < stop:
            # the chain before a step that the next one repeats (never in a
            # one-step chunk, which has no repeats)
            before = (phi_s, phi_w) if j + 1 < stop and repeats[j] else None
            phi_s = np.dot(s[j], phi_s)
            if phi_w is not None:
                phi_w = np.dot(w[j], phi_w)
            j += 1
            if k0 + j in due:
                evaluate(phi_s, phi_w, k0 + j)
            if before is not None and all(
                a is None or a.tobytes() == b.tobytes() for a, b in zip(before, (phi_s, phi_w))
            ):
                # the chain is at a fixed point of step j - 1, which the
                # steps from j that repeat it leave where it is
                run = repeats[j - 1 : stop - 1]
                skip = len(run) if run.all() else int(np.argmin(run))
                for ti in due:
                    if k0 + j < ti <= k0 + j + skip:
                        evaluate(phi_s, phi_w, ti)
                j += skip

    return InducedChecks(
        columns, graph, beta_min, w_rows, row, sparsity or NO_MISMATCH, floor, prob, ratio, limit
    )


def resolve_weight_sequence(
    seq: GraphSequence,
    weights: str | WeightMatrix | Sequence[WeightMatrix],
    horizon: int,
) -> MixingSequence:
    """The mixing matrix of every step, as a :class:`MixingSequence`.

    ``weights`` is the policy: "default" stores no matrix, and a step's
    equal-split weights are built from its graph when needed; a single
    WeightMatrix is used at every step; a sequence supplies one matrix
    per step, and equal matrices are stored once. A WeightMatrix is
    column-stochastic above its floor by construction; that its positive
    entries are exactly its graph's arcs is checked once per distinct
    (matrix, graph) pair, before any state is touched.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > len(seq):
        raise ValueError(f"horizon {horizon} exceeds sequence length {len(seq)}")
    ids = seq.ids[:horizon]

    if isinstance(weights, str):
        if weights != "default":
            raise ValueError(f"unknown weight policy {weights!r}")
        return MixingSequence(ids, seq.table)

    def sized(wm: WeightMatrix) -> np.ndarray:
        if not isinstance(wm, WeightMatrix):
            raise TypeError("per-step weights must be WeightMatrix instances")
        if wm.n != seq.n:
            raise ValueError(f"matrix size {wm.n} does not match graph n={seq.n}")
        return wm.matrix

    if isinstance(weights, WeightMatrix):
        mixing = MixingSequence(np.zeros(horizon, dtype=np.intp), sized(weights)[np.newaxis])
    else:
        mats = list(weights)[:horizon]
        if len(mats) < horizon:
            raise ValueError(f"need {horizon} weight matrices, got {len(mats)}")
        index: dict[bytes, tuple[int, np.ndarray]] = {}  # equal matrices share an id
        step_ids = [index.setdefault(m.tobytes(), (len(index), m))[0] for m in map(sized, mats)]
        table = np.stack([m for _, m in index.values()])
        table.setflags(write=False)
        mixing = MixingSequence(step_ids, table)

    _, first = np.unique(np.stack([mixing.ids, ids], axis=1), axis=0, return_index=True)
    for k in np.sort(first).tolist():  # each distinct (matrix, graph) pair, in step order
        w = mixing[k]
        off = np.argwhere((w > 0.0) != receive_matrices(seq.table[ids[k]]))
        if off.size:
            i, j = off[0].tolist()
            what = "is positive off the graph" if w[i, j] > 0.0 else "is zero on an arc"
            raise ValueError(f"custom weights invalid at step {k}: entry (row {i}, column {j}) {what}")
    return mixing


def _agent_rows(values: np.ndarray, n: int, name: str) -> np.ndarray:
    """One finite row per agent, shape (n, d); a vector becomes (n, 1)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.ndim != 2 or x.shape[0] != n or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be a finite (n, d) array with n={n}")
    return x


def _initial_mass(values: np.ndarray, n: int, name: str) -> np.ndarray:
    """A finite, positive (n,) mass vector y(0) above ``DEGENERATE_Y``."""
    y = np.asarray(values, dtype=float)
    if y.shape != (n,) or np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise ValueError(f"{name} must be a finite, strictly positive (n,) vector with n={n}")
    if float(y.min()) <= DEGENERATE_Y:
        worst = int(np.argmin(y))
        raise DegenerateStateError(
            f"{name}[{worst}] = {y[worst]:.3e} is at the floating-point floor; "
            f"the ratio x / y is meaningless"
        )
    return y


def _check_state(xs: np.ndarray, ys: np.ndarray, k0: int, k1: int) -> None:
    """Name the first of steps k0..k1-1 after which some y_i is at the
    floor or some replica's x is not finite; a y collapse wins at the
    same step."""
    low = ys[k0 + 1 : k1 + 1].min(axis=1) <= DEGENERATE_Y
    bad = low | ~np.isfinite(xs[k0 + 1 : k1 + 1]).all(axis=(1, 2, 3))
    if bad.any():
        k = k0 + int(np.argmax(bad))
        worst = int(np.argmin(ys[k + 1]))
        raise DegenerateStateError(
            f"y[{worst}] collapsed to {ys[k + 1, worst]:.3e} after step {k}; "
            "check connectivity of the graph sequence"
            if low[k - k0]
            else f"state diverged at step {k} (non-finite x); reduce the step size"
        )


@dataclass
class Replicas(_Record):
    """S runs of one algorithm that share their mixing sequence, step
    sizes and masses y, stacked on a replica axis: xs is (steps+1, S, n, d),
    gs (steps, S, n, d) and sigmas (steps, S, n), while ys (steps+1, n) is
    the one mass record all of them have. ``replicas[r]`` is run r's
    :class:`Trace`, made of views."""

    def __len__(self) -> int:
        return self.xs.shape[1]

    def __getitem__(self, r: int) -> Trace:
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("xs", "gs", "sigmas"):  # the fields with a replica axis
            if record[name] is not None:
                record[name] = record[name][:, r]
        return Trace(**record)

    def __iter__(self):
        return (self[r] for r in range(len(self)))


# The step coefficients alpha sigma and alpha (1 - sigma) are built for
# blocks of at most this many bytes per table.
COEFFICIENT_BYTES = 2**14


def run_dynamics(
    algorithm: str,
    mixing: MixingSequence,
    x: np.ndarray,
    y: np.ndarray,
    t0: int = 0,
    gradient: Callable[..., None] | None = None,
    alphas: np.ndarray | None = None,
    sigmas: np.ndarray | None = None,
) -> Replicas:
    """The loop shared by every algorithm, one step per matrix of
    ``mixing``, walked chunk by chunk, for S replicas at once: x (S, n, d)
    holds each replica's valid rows and y (n,) the valid masses.

    A step is y <- W y and, without ``gradient``, push-sum's x <- W x.
    With one, step k (time t = t0 + k) calls ``gradient(t, z, out=g)``,
    which writes the rows at the ratios z = x / y (which it may
    overwrite) into the recorded g, then applies x <- W (x - g a_in) -
    g a_out for the (S, n) switching rows sigma = sigmas[k], with
    a_in = alphas[k] sigma and a_out = alphas[k] (1 - sigma) from tables
    of at most ``COEFFICIENT_BYTES`` built a block of steps at a time.
    Since sigma is 0 or 1, g a_in and g a_out equal (alphas[k] g) sigma
    and (alphas[k] g) (1 - sigma) bit for bit, signed zeros included;
    where alphas[k] g overflows, both forms leave x non-finite at that
    step. A broadcast table (one 0/1 number for every agent and step, as
    the constant signals give) builds no table: the nonzero coefficient
    is alphas[k] itself, and the product with the zero one is skipped, so
    sigma = 1 drops x -= 0 g and sigma = 0 mixes x itself. That product is
    a signed zero where g is finite (and x is non-finite either way where
    it is not), and subtracting it can only flip the sign of a zero entry,
    which moves no bit of the step: BLAS sums zero products to +0
    whatever their signs, and at n = 1, where numpy mixes with one
    multiplication, a zero of either form comes out the same.

    y takes no gradient, so one y serves every replica, and each chunk
    walks y first. One replica mixes its (n, d) rows (z and g are (n, d)
    too) with ``np.dot``, and S replicas mix as one stacked matmul with
    the (S, n, d) stack: both give each replica the bits of its own
    w @ x. Every product is written in place into the recorded states or
    a step buffer, and a chunk's steps are walked by zipping its slices
    of those records. A walk v <- W v (y, and x without ``gradient``)
    over a chunk of two or more steps that all apply one matrix stops at
    its fixed point: once a step leaves v unchanged byte for byte, every
    later step would too, since a product's bytes depend only on its
    operands' values, and the rest of the chunk is filled with one slice
    assignment. Each chunk runs with floating-point warnings off, then
    ``_check_state`` checks it once.
    """
    horizon, (replicas, n, d) = len(mixing), x.shape
    xs = np.empty((horizon + 1, replicas, n, d))
    # y is kept as a (1, n, 1) stack that x / y broadcasts over the
    # replicas with no reshape, and walked as its (n,) rows
    y_stack = np.empty((horizon + 1, 1, n, 1))
    ys = y_stack[:, 0, :, 0]
    xs[0], ys[0] = x, y
    # np.dot costs less per call than a stacked matmul, with the same bits
    one = replicas == 1
    mix = np.dot if one else np.matmul
    rows, y_rows = (xs[:, 0], y_stack[:, 0]) if one else (xs, y_stack)

    def walk(v: np.ndarray, product, w: list, ids: list, k0: int, k1: int) -> None:
        # v(k+1) = W(k) v(k) for the steps k0..k1-1 of one chunk
        if len(w) == 1 and k1 - k0 > 1:
            for k, now, after in zip(range(k0, k1), v[k0:k1], v[k0 + 1 : k1 + 1]):
                product(w[0], now, out=after)
                if after.tobytes() == now.tobytes():  # the fixed point
                    v[k + 2 : k1 + 1] = after
                    return
        else:
            for m, now, after in zip(map(w.__getitem__, ids), v[k0:k1], v[k0 + 1 : k1 + 1]):
                product(m, now, out=after)

    gs = None
    if gradient is not None:
        gs = np.empty((horizon, replicas, n, d))
        g_rows = gs[:, 0] if one else gs
        z, step = np.empty((2, *rows.shape[1:]))

        def switched():
            # (a_in, a_out) of every step, from two tables refilled in place:
            # the rows of a block are used up before the next block is built
            size = max(1, COEFFICIENT_BYTES // (8 * replicas * n))
            a_in, a_out = np.empty((2, min(size, horizon), replicas, n, 1))
            b_in, b_out = (a_in[:, 0], a_out[:, 0]) if one else (a_in, a_out)
            for k in range(0, horizon, size):
                c = min(size, horizon - k)
                alpha = alphas[k : k + c, np.newaxis, np.newaxis, np.newaxis]
                sigma = sigmas[k : k + c, :, :, np.newaxis]
                np.multiply(alpha, sigma, out=a_in[:c])
                np.subtract(1.0, sigma, out=a_out[:c])
                a_out[:c] *= alpha
                yield from zip(b_in[:c], b_out[:c])

        if not any(sigmas.strides) and sigmas.flat[0] in (0.0, 1.0):
            # one sigma for all: alpha, and the zero coefficient as None
            constant = repeat(None)
            coefficients = zip(alphas, constant) if sigmas.flat[0] else zip(constant, alphas)
        else:
            coefficients = switched()
    with np.errstate(all="ignore"):
        for k0, mats, local in mixing.chunks():
            k1 = k0 + len(local)
            ids, w = local.tolist(), list(mats)  # a list reads faster than the array
            walk(ys, np.dot, w, ids, k0, k1)
            if gradient is None:
                walk(rows, mix, w, ids, k0, k1)
            else:
                for t, m, x, after, g, y_k, (a_in, a_out) in zip(
                    range(t0 + k0, t0 + k1),
                    map(w.__getitem__, ids),
                    rows[k0:k1],
                    rows[k0 + 1 : k1 + 1],
                    g_rows[k0:k1],
                    y_rows[k0:k1],
                    coefficients,  # last: zip stops at the chunk's end before reading it
                ):
                    gradient(t, np.divide(x, y_k, out=z), out=g)
                    if a_in is not None:
                        x = np.subtract(x, np.multiply(g, a_in, out=step), out=step)
                    mix(m, x, out=after)
                    if a_out is not None:
                        after -= np.multiply(g, a_out, out=step)
            _check_state(xs, ys, k0, k1)
    return Replicas(
        algorithm=algorithm,
        t0=t0,
        xs=xs,
        ys=ys,
        w_mats=mixing,
        kappa=float(np.sum(ys[0])),
        alphas=alphas,
        gs=gs,
        sigmas=sigmas,
    )


def run_pushsum(
    seq: GraphSequence,
    weights: str | WeightMatrix | Sequence[WeightMatrix] = "default",
    x0: np.ndarray | None = None,
    horizon: int | None = None,
) -> Trace:
    """Run plain push-sum with y(0) = 1; ratios head to the average of x0."""
    if x0 is None:
        raise ValueError("x0 is required")
    horizon = len(seq) if horizon is None else horizon
    mixing = resolve_weight_sequence(seq, weights, horizon)
    x = _agent_rows(x0, seq.n, "x0")[np.newaxis]
    return run_dynamics("pushsum", mixing, x, np.ones(seq.n))[0]


def run_weighted_pushsum(
    seq: GraphSequence,
    weights: str | WeightMatrix | Sequence[WeightMatrix] = "default",
    c: np.ndarray | None = None,
    x_init: np.ndarray | None = None,
    horizon: int | None = None,
) -> Trace:
    """Push-sum with importance weights: x(0) = c * x_init, y(0) = c.

    Ratios converge to sum_k c_k x_init_k / kappa with kappa = sum(c);
    the relative weights c steer whose value counts for how much.
    """
    if c is None or x_init is None:
        raise ValueError("both c and x_init are required")
    c = _initial_mass(c, seq.n, "c")
    x0 = c[:, np.newaxis] * _agent_rows(x_init, seq.n, "x_init")
    horizon = len(seq) if horizon is None else horizon
    mixing = resolve_weight_sequence(seq, weights, horizon)
    return run_dynamics("weighted_pushsum", mixing, x0[np.newaxis], c)[0]


def verify_absolute_probability(trace: Trace) -> float:
    """Max violation of pi(t)^T = pi(t+1)^T S(t) over the whole trace."""
    return scan_induced(trace).probability.value


def verify_ratio_identity(trace: Trace, t: int, tau: int) -> float:
    """Max violation of [Phi_S(t,tau)]_ij y_i(t) = [Phi_W(t,tau)]_ij y_j(tau).

    Both backward products are formed explicitly from the recorded
    matrices; t and tau are time labels of the trace.
    """
    return scan_induced(trace, tau=tau, ratio_at=[t]).ratio[(t, tau)].value


def verify_product_limit(trace: Trace, tau: int, t: int) -> float:
    """Max entrywise deviation of Phi_S(t, tau) from its rank-one limit
    (each row equal to y(tau)^T / kappa, with y(tau) as recorded)."""
    return scan_induced(trace, tau=tau, limit_at=[t]).limit[(t, tau)]
