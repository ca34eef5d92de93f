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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .graphs import GraphSequence
from .weights import WeightMatrix, default_weights, validate_weights

__all__ = [
    "DEGENERATE_Y",
    "DegenerateStateError",
    "Trace",
    "TheoreticalConstants",
    "s_matrix",
    "phi_product",
    "absolute_probability",
    "theoretical_constants",
    "resolve_weight_sequence",
    "run_dynamics",
    "run_pushsum",
    "run_weighted_pushsum",
    "absolute_probability_violation",
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
    """Raised when some y_i collapses to the floating-point floor."""


def _as_matrix(w: WeightMatrix | np.ndarray) -> np.ndarray:
    return w.matrix if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)


def s_matrix(
    w: WeightMatrix | np.ndarray,
    y: np.ndarray,
    y_next: np.ndarray | None = None,
) -> np.ndarray:
    """Induced row-stochastic matrix s_ij = w_ij y_j / y_next_i.

    ``y_next`` defaults to W y; when given it must agree with W y to
    within ``S_CONSISTENCY_TOL`` (relative to the scale of y), since an
    inconsistent pair silently breaks row-stochasticity.
    """
    m = _as_matrix(w)
    y = np.asarray(y, dtype=float)
    computed = m @ y
    if y_next is None:
        y_next = computed
    else:
        y_next = np.asarray(y_next, dtype=float)
        scale = max(1.0, float(np.max(np.abs(y))))
        err = float(np.max(np.abs(y_next - computed)))
        if err > S_CONSISTENCY_TOL * scale:
            raise ValueError(
                f"y_next is not W y: max deviation {err:.3e} exceeds "
                f"{S_CONSISTENCY_TOL:.0e} at scale {scale:g}"
            )
    if float(np.min(y_next)) <= DEGENERATE_Y:
        raise DegenerateStateError("cannot induce the ratio matrix: y_next hits the floor")
    return m * y[np.newaxis, :] / y_next[:, np.newaxis]


def phi_product(mats: Sequence[np.ndarray] | np.ndarray, t: int, tau: int) -> np.ndarray:
    """Backward product mats[t-1] @ ... @ mats[tau] (identity if t == tau).

    Indices are positions in ``mats``. The product is formed by explicit
    left-multiplication with no re-normalization; accumulated rounding
    is part of what callers measure.
    """
    if tau < 0 or t > len(mats):
        raise ValueError(f"product range [{tau}, {t}) outside 0..{len(mats)}")
    if t < tau:
        raise ValueError(f"product needs t >= tau, got t={t}, tau={tau}")
    n = np.asarray(mats[0]).shape[0] if len(mats) else 0
    if n == 0:
        raise ValueError("empty matrix sequence")
    out = np.eye(n)
    for k in range(tau, t):
        out = np.asarray(mats[k]) @ out
    return out


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


@dataclass
class Trace:
    """Complete record of one run: states, mixing matrices, step data.

    States are indexed t0..t0+steps; w_mats[k] is the matrix applied
    between states k and k+1 (list position, not time label). Optimizer
    runs additionally carry step sizes, the gradients actually applied,
    and, for the heterogeneous algorithm, the switching rows.
    """

    algorithm: str
    t0: int
    xs: np.ndarray
    ys: np.ndarray
    w_mats: np.ndarray
    kappa: float
    alphas: np.ndarray | None = None
    gs: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    seed: int | None = None
    _s_stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        self.w_mats = np.asarray(self.w_mats, dtype=float)
        steps, n = self.w_mats.shape[0], self.xs.shape[1]
        if self.xs.ndim != 3:
            raise ValueError("xs must be (steps+1, n, d)")
        if self.ys.shape != (steps + 1, n) or self.xs.shape[0] != steps + 1:
            raise ValueError("trace arrays disagree on steps or n")
        if self.w_mats.shape[1:] != (n, n):
            raise ValueError("w_mats must be (steps, n, n)")
        if self.alphas is not None and len(self.alphas) != steps:
            raise ValueError("alphas must have one entry per step")
        if self.gs is not None and self.gs.shape != self.xs[:-1].shape:
            raise ValueError("gs must be (steps, n, d)")

    @property
    def steps(self) -> int:
        return self.w_mats.shape[0]

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
    def z_mean(self) -> np.ndarray:
        """Plain agent average of the ratios, shape (steps+1, d)."""
        return self.zs.mean(axis=1)

    @property
    def z_weighted(self) -> np.ndarray:
        """Mass-weighted average sum_i x_i / kappa, shape (steps+1, d).

        This is the pi-weighted average of the ratios and the quantity
        whose recursion the descent checks track.
        """
        return self.xs.sum(axis=1) / self.kappa

    def s_mat(self, k: int) -> np.ndarray:
        """Induced row-stochastic matrix for step k (list position)."""
        return self.s_matrices()[k]

    def s_matrices(self) -> np.ndarray:
        """The induced matrix of every step, shape (steps, n, n). Built
        once, on first use, from the recorded w_mats and ys; read-only."""
        if self._s_stack is None:
            stack = np.empty_like(self.w_mats)
            for k in range(self.steps):
                stack[k] = s_matrix(self.w_mats[k], self.ys[k], self.ys[k + 1])
            stack.setflags(write=False)
            self._s_stack = stack
        return self._s_stack


def resolve_weight_sequence(
    seq: GraphSequence,
    weights: str | WeightMatrix | Sequence[WeightMatrix],
    horizon: int,
) -> list[np.ndarray]:
    """Materialize one mixing matrix per step.

    ``weights`` is the policy: "default" builds equal-split weights once
    per distinct graph (and keeps them in ``seq.default_matrices`` when
    that is a dict); a single WeightMatrix is used at every step; a
    sequence supplies one matrix per step. Custom matrices must validate
    against the graphs they are used with, before any state is touched.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon > len(seq):
        raise ValueError(f"horizon {horizon} exceeds sequence length {len(seq)}")
    ids = seq.ids[:horizon].tolist()
    distinct = dict.fromkeys(ids)  # table ids in the order of their first step

    if isinstance(weights, str):
        if weights != "default":
            raise ValueError(f"unknown weight policy {weights!r}")
        mats = {} if seq.default_matrices is None else seq.default_matrices
        for i in distinct:
            if i not in mats:
                mats[i] = default_weights(seq.table[i]).matrix
        return [mats[i] for i in ids]

    if isinstance(weights, WeightMatrix):
        for i in distinct:
            report = validate_weights(weights, seq.table[i])
            if not report.ok:
                raise ValueError(
                    f"custom weights invalid at step {ids.index(i)}: {report.describe()}"
                )
        return [weights.matrix] * horizon

    mats = list(weights)
    if len(mats) < horizon:
        raise ValueError(f"need {horizon} weight matrices, got {len(mats)}")
    out = []
    for k in range(horizon):
        wm = mats[k]
        if not isinstance(wm, WeightMatrix):
            raise TypeError("per-step weights must be WeightMatrix instances")
        report = validate_weights(wm, seq[k])
        if not report.ok:
            raise ValueError(f"custom weights invalid at step {k}: {report.describe()}")
        out.append(wm.matrix)
    return out


def _agent_rows(values: np.ndarray, n: int, name: str) -> np.ndarray:
    """One finite row per agent, shape (n, d); a vector becomes (n, 1)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    if x.ndim != 2 or x.shape[0] != n or not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be a finite (n, d) array with n={n}")
    return x


def run_dynamics(
    algorithm: str,
    w_list: Sequence[np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    t0: int = 0,
    correction: Callable[[int, np.ndarray, np.ndarray, np.ndarray], tuple] | None = None,
    seed: int | None = None,
    sigmas: np.ndarray | None = None,
) -> Trace:
    """The push-sum loop shared by every algorithm, one step per matrix.

    Without ``correction`` each step is x <- W x, y <- W y. With one,
    the step at time t is ``correction(t, W, x, y)``, which returns the
    next (x, y) together with the gradient rows and the step size it
    used; the trace records those too, and keeps ``sigmas``, the
    (steps, n) switching table the correction reads, as it is. The
    inputs x (n, d) and y (n,) must already be validated.
    """
    horizon, (n, d) = len(w_list), x.shape
    xs = np.empty((horizon + 1, n, d))
    ys = np.empty((horizon + 1, n))
    gs = alphas = None
    if correction is not None:
        gs = np.empty((horizon, n, d))
        alphas = np.empty(horizon)
    xs[0], ys[0] = x, y
    for k, w in enumerate(w_list):
        if correction is None:
            x = w @ x
            y = w @ y
        else:
            x, y, gs[k], alphas[k] = correction(t0 + k, w, x, y)
        if float(y.min()) <= DEGENERATE_Y:
            worst = int(np.argmin(y))
            raise DegenerateStateError(
                f"y[{worst}] collapsed to {y[worst]:.3e} after step {k}; "
                f"check connectivity of the graph sequence"
            )
        if not np.all(np.isfinite(x)):
            raise RuntimeError(
                f"state diverged at step {k} (non-finite x); reduce the step size"
            )
        xs[k + 1], ys[k + 1] = x, y
    return Trace(
        algorithm=algorithm,
        t0=t0,
        xs=xs,
        ys=ys,
        w_mats=np.stack(w_list),
        kappa=float(np.sum(ys[0])),
        alphas=alphas,
        gs=gs,
        sigmas=sigmas,
        seed=seed,
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
    w_list = resolve_weight_sequence(seq, weights, horizon)
    return run_dynamics("pushsum", w_list, _agent_rows(x0, seq.n, "x0"), np.ones(seq.n))


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
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or c.shape[0] != seq.n:
        raise ValueError(f"c must be shape (n,) with n={seq.n}")
    if np.any(c <= 0.0) or not np.all(np.isfinite(c)):
        raise ValueError("importance weights c must be finite and strictly positive")
    x0 = c[:, np.newaxis] * _agent_rows(x_init, seq.n, "x_init")
    horizon = len(seq) if horizon is None else horizon
    w_list = resolve_weight_sequence(seq, weights, horizon)
    return run_dynamics("weighted_pushsum", w_list, x0, c)


def absolute_probability_violation(
    ys: np.ndarray, s_mats: Sequence[np.ndarray], kappa: float
) -> float:
    """Max violation of pi(t)^T = pi(t+1)^T S(t) for given weight rows
    and ratio matrices; ys is (steps+1, n), s_mats has one matrix per
    step. Exposed separately so corrupted y records can be checked
    against honestly recorded matrices."""
    worst = 0.0
    for k, s in enumerate(s_mats):
        pi_now = absolute_probability(ys[k], kappa)
        pi_next = absolute_probability(ys[k + 1], kappa)
        worst = max(worst, float(np.max(np.abs(s.T @ pi_next - pi_now))))
    return worst


def verify_absolute_probability(trace: Trace, kappa: float | None = None) -> float:
    """Max violation of pi(t)^T = pi(t+1)^T S(t) over the whole trace."""
    kappa = trace.kappa if kappa is None else kappa
    return absolute_probability_violation(trace.ys, trace.s_matrices(), kappa)


def verify_ratio_identity(trace: Trace, t: int, tau: int) -> float:
    """Max violation of [Phi_S(t,tau)]_ij y_i(t) = [Phi_W(t,tau)]_ij y_j(tau).

    Both backward products are formed explicitly from the recorded
    matrices; t and tau are time labels of the trace.
    """
    ti, taui = trace.index_of(t), trace.index_of(tau)
    if ti < taui:
        raise ValueError(f"need t >= tau, got t={t}, tau={tau}")
    phi_s = phi_product(trace.s_matrices(), ti, taui)
    phi_w = phi_product(trace.w_mats, ti, taui)
    lhs = phi_s * trace.ys[ti][:, np.newaxis]
    rhs = phi_w * trace.ys[taui][np.newaxis, :]
    return float(np.max(np.abs(lhs - rhs)))


def verify_product_limit(
    trace: Trace, tau: int, t: int, kappa: float | None = None
) -> float:
    """Max entrywise deviation of Phi_S(t, tau) from its rank-one limit
    (each row equal to y(tau)^T / kappa, with y(tau) as recorded)."""
    kappa = trace.kappa if kappa is None else kappa
    ti, taui = trace.index_of(t), trace.index_of(tau)
    if ti < taui:
        raise ValueError(f"need t >= tau, got t={t}, tau={tau}")
    phi_s = phi_product(trace.s_matrices(), ti, taui)
    limit = np.tile(trace.ys[taui] / kappa, (trace.n, 1))
    return float(np.max(np.abs(phi_s - limit)))
