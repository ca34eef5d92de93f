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
matrices as a table plus a step-to-id array (default weights as the
graph table alone), and the dynamics loop and the checks walk the steps
in chunks of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import GraphSequence
from .weights import WeightMatrix, equal_split

__all__ = [
    "DEGENERATE_Y",
    "CHUNK_BYTES",
    "DegenerateStateError",
    "MixingSequence",
    "Trace",
    "TheoreticalConstants",
    "BackwardProduct",
    "Finding",
    "InducedChecks",
    "WeightChecks",
    "s_matrix",
    "absolute_probability",
    "theoretical_constants",
    "induced_chunks",
    "locate",
    "scan_induced",
    "weight_checks",
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
    return w * y[:, np.newaxis, :] / y_next[:, :, np.newaxis]


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


def _chunk_steps(n: int) -> int:
    """Steps per chunk for n agents (at least one)."""
    return max(1, CHUNK_BYTES // (8 * n * n))


class MixingSequence:
    """The mixing matrix of every step, read-only: a step-to-id array
    plus one source per id. With ``graphs``, id i is the equal-split
    matrix of ``graphs[i]``, built only when a step or a chunk needs it,
    so no float is stored; with ``table``, id i is the stored matrix
    ``table[i]``.

    ``len``, ``[k]`` (one (n, n) matrix), ``shape`` and ``nbytes`` (the
    stored floats only) read like a (steps, n, n) array that is never
    formed.
    """

    def __init__(
        self,
        ids: Sequence[int] | np.ndarray,
        graphs: Sequence | None = None,
        table: np.ndarray | None = None,
    ) -> None:
        if (graphs is None) == (table is None):
            raise ValueError("a mixing sequence needs either graphs or a matrix table")
        self.ids = np.asarray(ids, dtype=np.intp).view()
        self.ids.setflags(write=False)
        self.graphs = graphs
        self.table = table
        if table is not None and (table.ndim != 3 or table.shape[1] != table.shape[2]):
            raise ValueError("w_mats must be (steps, n, n)")
        self.n = table.shape[1] if graphs is None else graphs[0].n

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.ids), self.n, self.n)

    @property
    def nbytes(self) -> int:
        return 0 if self.table is None else self.table.nbytes

    def matrices(self, ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """The matrices of the given table ids, shape (len(ids), n, n)."""
        if self.table is not None:
            return self.table[ids]
        return equal_split(np.stack([self.graphs[i].adj for i in np.asarray(ids).tolist()]))

    def __getitem__(self, k: int) -> np.ndarray:
        m = self.matrices([self.ids[k]])[0]
        m.setflags(write=False)
        return m

    def chunks(self):
        """(k0, mats, local) for consecutive chunks of steps, as many as
        fit in ``CHUNK_BYTES`` of n x n floats (at least one): step
        k0 + j applies mats[local[j]].
        A chunk builds only the equal-split matrices its steps use, and
        reuses the previous chunk's when they are the same (a static
        graph is built once)."""
        size = _chunk_steps(self.n)
        used = mats = None
        for k0 in range(0, len(self.ids), size):
            ids = self.ids[k0 : k0 + size]
            if self.table is not None:
                yield k0, self.table, ids
                continue
            previous = used
            used, local = np.unique(ids, return_inverse=True)
            if previous is None or not np.array_equal(used, previous):
                mats = self.matrices(used)
            yield k0, mats, local


@dataclass
class Trace:
    """Complete record of one run: states, mixing matrices, step data.

    States are indexed t0..t0+steps; w_mats[k] is the matrix applied
    between states k and k+1 (list position, not time label). w_mats is
    a MixingSequence; a dense (steps, n, n) array is wrapped into one.
    Optimizer runs additionally carry step sizes, the applied gradients
    and the switching rows, a read-only view storing nothing if constant.
    """

    algorithm: str
    t0: int
    xs: np.ndarray
    ys: np.ndarray
    w_mats: MixingSequence
    kappa: float
    alphas: np.ndarray | None = None
    gs: np.ndarray | None = None
    sigmas: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if not isinstance(self.w_mats, MixingSequence):
            mats = np.asarray(self.w_mats, dtype=float)
            self.w_mats = MixingSequence(np.arange(len(mats)), table=mats)
        steps, n = len(self.w_mats), self.xs.shape[1]
        if self.xs.ndim != 3:
            raise ValueError("xs must be (steps+1, n, d)")
        if self.ys.shape != (steps + 1, n) or self.xs.shape[0] != steps + 1:
            raise ValueError("trace arrays disagree on steps or n")
        if self.w_mats.n != n:
            raise ValueError("w_mats must be (steps, n, n)")
        if self.alphas is not None and len(self.alphas) != steps:
            raise ValueError("alphas must have one entry per step")
        if self.gs is not None and self.gs.shape != self.xs[:-1].shape:
            raise ValueError("gs must be (steps, n, d)")

    @property
    def steps(self) -> int:
        return len(self.w_mats)

    @property
    def n(self) -> int:
        return self.xs.shape[1]

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
        w = mats[local]
        yield k0, w, _induced(w, ys[k0:k1], ys[k0 + 1 : k1 + 1], k0)


class BackwardProduct:
    """The backward products Phi(t, tau) = M(t-1) @ ... @ M(tau) for one
    tau, kept at each requested t (the identity at t == tau).

    :meth:`step` takes the matrix of every step k in order and
    left-multiplies the steps tau <= k < max(ts), as an explicit product
    would, with no re-normalization: accumulated rounding is part of
    what callers measure.
    """

    def __init__(self, n: int, tau: int, ts: Iterable[int]) -> None:
        want = set(ts)
        if not want or min(want) < tau:
            raise ValueError(f"products need t >= tau, got t in {sorted(want)} and tau={tau}")
        self.tau, self.end, self._want = tau, max(want), want
        self.product = np.eye(n)
        self.kept = {tau: self.product} if tau in want else {}

    def step(self, k: int, m: np.ndarray) -> None:
        if self.tau <= k < self.end:
            self.product = m @ self.product
            if k + 1 in self._want:
                self.kept[k + 1] = self.product


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
    """What one pass over the induced matrices S(k) of a trace found.

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

    row_sums: Finding
    sparsity: Finding
    floor: Finding
    probability: Finding
    ratio: dict[tuple[int, int], Finding]
    limit: dict[tuple[int, int], float]


def scan_induced(
    trace: Trace,
    ys: np.ndarray | None = None,
    ratio_pairs: Iterable[tuple[int, int]] = (),
    limit_pairs: Iterable[tuple[int, int]] = (),
) -> InducedChecks:
    """Check the induced matrices of ``trace`` in one pass over bounded
    chunks of steps; no (steps, n, n) array is formed.

    The probability recursion pi = y / kappa is checked against ``ys``
    (the recorded y rows by default), so corrupted records can be tested
    against honestly induced matrices; everything else reads the
    recorded rows. ``ratio_pairs`` and ``limit_pairs`` hold (t, tau) time
    labels. Each distinct tau gets one S chain (shared by both checks)
    and, for the ratio identity, one W chain.
    """
    ys_prob = trace.ys if ys is None else np.asarray(ys, dtype=float)

    def positions(pairs: Iterable[tuple[int, int]]) -> dict:
        out = {}
        for t, tau in pairs:
            ti, taui = trace.index_of(t), trace.index_of(tau)
            if ti < taui:
                raise ValueError(f"need t >= tau, got t={t}, tau={tau}")
            out[(t, tau)] = (ti, taui)
        return out

    def chains(at: Iterable[tuple[int, int]]) -> dict[int, BackwardProduct]:
        ts: dict[int, set[int]] = {}
        for ti, taui in at:
            ts.setdefault(taui, set()).add(ti)
        return {taui: BackwardProduct(trace.n, taui, want) for taui, want in ts.items()}

    ratio_at, limit_at = positions(ratio_pairs), positions(limit_pairs)
    s_chains = chains([*ratio_at.values(), *limit_at.values()])
    w_chains = chains(ratio_at.values())
    last = max((c.end for c in (*s_chains.values(), *w_chains.values())), default=0)

    row = sparsity = floor = prob = None
    labels = trace.times()
    for k0, w, s in induced_chunks(trace):
        k1 = k0 + len(s)
        steps = labels[k0:k1]
        dev = np.abs(s.sum(axis=2) - 1.0)
        row = _larger(row, locate(dev, steps, ("step", "row")))
        mismatch = (s > 0.0) != (w > 0.0)
        if sparsity is None and mismatch.any():
            sparsity = locate(mismatch, steps, ("step", "row", "column"))
        positive = np.where(s > 0.0, s, np.inf)
        floor = _smaller(floor, locate(positive, steps, ("step", "row", "column"), np.argmin))
        pi = absolute_probability(ys_prob[k0 : k1 + 1], trace.kappa)
        dev = np.abs(np.matmul(s.transpose(0, 2, 1), pi[1:, :, np.newaxis])[:, :, 0] - pi[:-1])
        prob = _larger(prob, locate(dev, steps, ("step", "agent")))
        for j in range(max(0, min(k1, last) - k0)):
            for chain in s_chains.values():
                chain.step(k0 + j, s[j])
            for chain in w_chains.values():
                chain.step(k0 + j, w[j])

    ratio = {}
    for (t, tau), (ti, taui) in ratio_at.items():
        lhs = s_chains[taui].kept[ti] * trace.ys[ti][:, np.newaxis]
        rhs = w_chains[taui].kept[ti] * trace.ys[taui][np.newaxis, :]
        found = locate(np.abs(lhs - rhs), range(trace.n), ("row", "column"))
        ratio[(t, tau)] = Finding(found.value, {"t": t, "tau": tau, **found.where})
    limit = {
        pair: float(np.max(np.abs(s_chains[taui].kept[ti] - trace.ys[taui] / trace.kappa)))
        for pair, (ti, taui) in limit_at.items()
    }
    return InducedChecks(row, sparsity or NO_MISMATCH, floor, prob, ratio, limit)


class WeightChecks(NamedTuple):
    """The mixing matrices of a trace checked against their graphs.

    ``columns``: largest |sum_i W_ij - 1| (step, column).
    ``graph``: 1.0 at the first step whose positive entries differ from
    its graph's arcs (step, row, column), else 0.0.
    ``beta_min``: smallest positive entry. ``rows``: largest
    |sum_j W_ij - 1|, zero up to rounding for doubly stochastic weights.
    """

    columns: Finding
    graph: Finding
    beta_min: float
    rows: float


def weight_checks(trace: Trace, seq: GraphSequence) -> WeightChecks:
    """Check each distinct pair (mixing matrix, graph) of ``trace`` once,
    step k being paired with ``seq[k]``; a finding names the first step
    that uses its pair."""
    return _pair_checks(trace.w_mats, seq.table, seq.ids[: trace.steps], trace.times())


def _pair_checks(
    mixing: MixingSequence, graphs: Sequence, graph_ids: np.ndarray, labels: np.ndarray
) -> WeightChecks:
    """The pass of :func:`weight_checks`, step k pairing ``mixing[k]``
    with ``graphs[graph_ids[k]]``, findings naming steps by ``labels``."""
    pairs, first = np.unique(np.stack([mixing.ids, graph_ids], axis=1), axis=0, return_index=True)
    order = np.argsort(first)  # pairs in the order of their first step
    pairs, steps = pairs[order], labels[first[order]]
    columns = graph = None
    beta_min, rows = math.inf, 0.0
    size = _chunk_steps(mixing.n)
    for c0 in range(0, len(pairs), size):
        part = pairs[c0 : c0 + size]
        w = mixing.matrices(part[:, 0])
        adj = np.stack([graphs[g].adj for g in part[:, 1].tolist()])
        dev = np.abs(w.sum(axis=1) - 1.0)
        columns = _larger(columns, locate(dev, steps[c0:], ("step", "column")))
        mismatch = (w > 0.0) != adj
        if graph is None and mismatch.any():
            graph = locate(mismatch, steps[c0:], ("step", "row", "column"))
        beta_min = min(beta_min, float(w[w > 0.0].min()))
        rows = max(rows, float(np.max(np.abs(w.sum(axis=2) - 1.0))))
    return WeightChecks(columns, graph or NO_MISMATCH, beta_min, rows)


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
        return MixingSequence(ids, graphs=seq.table)

    def sized(wm: WeightMatrix) -> np.ndarray:
        if not isinstance(wm, WeightMatrix):
            raise TypeError("per-step weights must be WeightMatrix instances")
        if wm.n != seq.n:
            raise ValueError(f"matrix size {wm.n} does not match graph n={seq.n}")
        return wm.matrix

    if isinstance(weights, WeightMatrix):
        mixing = MixingSequence(np.zeros(horizon, dtype=np.intp), table=sized(weights)[np.newaxis])
    else:
        mats = list(weights)[:horizon]
        if len(mats) < horizon:
            raise ValueError(f"need {horizon} weight matrices, got {len(mats)}")
        index: dict[bytes, tuple[int, np.ndarray]] = {}  # equal matrices share an id
        step_ids = [index.setdefault(m.tobytes(), (len(index), m))[0] for m in map(sized, mats)]
        table = np.stack([m for _, m in index.values()])
        table.setflags(write=False)
        mixing = MixingSequence(step_ids, table=table)

    found = _pair_checks(mixing, seq.table, ids, np.arange(horizon)).graph
    if found.where:
        k, i, j = found.where.values()
        what = "is positive off the graph" if mixing[k][i, j] > 0.0 else "is zero on an arc"
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
    floor or some x is not finite; a y collapse wins at the same step."""
    low = ys[k0 + 1 : k1 + 1].min(axis=1) <= DEGENERATE_Y
    bad = low | ~np.isfinite(xs[k0 + 1 : k1 + 1]).all(axis=(1, 2))
    if bad.any():
        k = k0 + int(np.argmax(bad))
        worst = int(np.argmin(ys[k + 1]))
        raise DegenerateStateError(
            f"y[{worst}] collapsed to {ys[k + 1, worst]:.3e} after step {k}; "
            "check connectivity of the graph sequence"
            if low[k - k0]
            else f"state diverged at step {k} (non-finite x); reduce the step size"
        )


def run_dynamics(
    algorithm: str,
    mixing: MixingSequence,
    x: np.ndarray,
    y: np.ndarray,
    t0: int = 0,
    gradient: Callable[[int, np.ndarray], np.ndarray] | None = None,
    alphas: np.ndarray | None = None,
    sigmas: np.ndarray | None = None,
) -> Trace:
    """The loop shared by every algorithm, one step per matrix of
    ``mixing``, walked chunk by chunk; x (n, d) and y (n,) must be valid.

    A step is y <- W y and, without ``gradient``, push-sum's x <- W x.
    With one, step k (time t = t0 + k) applies x <- W (x - s sigma) -
    s (1 - sigma) for s = alphas[k] gradient(t, x / y) and the switching
    row sigma = sigmas[k]; the trace records the gradient rows, alphas
    and sigmas. Each chunk runs with floating-point warnings off, then
    ``_check_state`` checks it once.
    """
    horizon, (n, d) = len(mixing), x.shape
    xs = np.empty((horizon + 1, n, d))
    ys = np.empty((horizon + 1, n))
    gs = None if gradient is None else np.empty((horizon, n, d))
    xs[0], ys[0] = x, y
    with np.errstate(all="ignore"):
        for k0, mats, local in mixing.chunks():
            for k, i in enumerate(local.tolist(), k0):
                w = mats[i]
                if gradient is None:
                    x = w @ x
                else:
                    g = gs[k] = gradient(t0 + k, x / y[:, np.newaxis])
                    s = alphas[k] * g
                    sig = sigmas[k][:, np.newaxis]
                    x = w @ (x - s * sig) - s * (1.0 - sig)
                y = w @ y
                xs[k + 1], ys[k + 1] = x, y
            _check_state(xs, ys, k0, k0 + len(local))
    return Trace(
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
    return run_dynamics("pushsum", mixing, _agent_rows(x0, seq.n, "x0"), np.ones(seq.n))


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
    return run_dynamics("weighted_pushsum", mixing, x0, c)


def verify_absolute_probability(trace: Trace) -> float:
    """Max violation of pi(t)^T = pi(t+1)^T S(t) over the whole trace."""
    return scan_induced(trace).probability.value


def verify_ratio_identity(trace: Trace, t: int, tau: int) -> float:
    """Max violation of [Phi_S(t,tau)]_ij y_i(t) = [Phi_W(t,tau)]_ij y_j(tau).

    Both backward products are formed explicitly from the recorded
    matrices; t and tau are time labels of the trace.
    """
    return scan_induced(trace, ratio_pairs=[(t, tau)]).ratio[(t, tau)].value


def verify_product_limit(trace: Trace, tau: int, t: int) -> float:
    """Max entrywise deviation of Phi_S(t, tau) from its rank-one limit
    (each row equal to y(tau)^T / kappa, with y(tau) as recorded)."""
    return scan_induced(trace, limit_pairs=[(t, tau)]).limit[(t, tau)]
