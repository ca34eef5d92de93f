"""Metrics, convergence-bound evaluators, and rate fitting.

The bound evaluators implement the finite-time guarantees for the four
algorithms as stated, term by term, with no re-derivation: callers
supply the contraction pair (eta, mu), the gradient bound G, and the
initial data, and get back the certified ceiling for the chosen error
notion. Each deterministic bound has one evaluator per step rule, a
vectorized varying-step series and a fixed-step formula; the public
bound_* functions are entry points into them. Geometric sums use the
0^0 = 1 convention so the rank-one case mu = 0 keeps its surviving
tau = 0 terms.

Everything here is pure post-processing of recorded traces; nothing
re-runs dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .optim import GradientOracle, Objective, StepSchedule, _row_dots
from .pushsum import TheoreticalConstants, Trace

__all__ = [
    "consensus_error",
    "consensus_error_series",
    "lyapunov_series",
    "running_average_iterates",
    "BoundInputs",
    "bound_inputs_from_trace",
    "HET_BOUND_ALGORITHMS",
    "bound_subgradient_push_fixed",
    "bound_subgradient_push_varying",
    "bound_per_agent",
    "bound_heterogeneous",
    "k2_constant",
    "estimate_k1",
    "SgpConstants",
    "sgp_constants",
    "bound_sgp",
    "RateFit",
    "fit_rate",
    "descent_residuals",
    "verify_descent_recursion",
    "RunMetrics",
    "compute_metrics",
]


# ---------------------------------------------------------------------------
# trace-level series


def consensus_error(trace: Trace, t: int) -> float:
    """max_i ||z_i(t) - <z(t)>|| where <z> is the mass-weighted average."""
    return float(consensus_error_series(trace)[trace.index_of(t)])


def consensus_error_series(trace: Trace) -> np.ndarray:
    """consensus_error at every recorded time."""
    z = trace.zs
    center = trace.z_weighted[:, np.newaxis, :]
    return np.max(np.linalg.norm(z - center, axis=2), axis=1)


def lyapunov_series(trace: Trace, z_star: np.ndarray) -> np.ndarray:
    """||<z(t)> - z*||^2 for every recorded state."""
    z_star = np.asarray(z_star, dtype=float).reshape(trace.d)
    diff = trace.z_weighted - z_star[np.newaxis, :]
    return np.sum(diff * diff, axis=1)


def running_average_iterates(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Step-size-weighted running averages of the ratios.

    Returns
    -------
    net : (steps, d)
        r(t) = sum_{tau<=t} alpha(tau) <z(tau)> / sum alpha(tau).
    per_agent : (steps, n, d)
        Same weighting applied to each agent's own ratio trajectory.

    Only the first ``steps`` states enter: the final state has no step
    size attached to it.
    """
    if trace.alphas is None:
        raise ValueError("trace has no step sizes; not an optimizer trace")
    alphas = np.asarray(trace.alphas, dtype=float)
    steps = trace.steps
    zw = trace.z_weighted[:steps]
    zs = trace.zs[:steps]
    wsum = np.cumsum(alphas)
    net = np.cumsum(alphas[:, np.newaxis] * zw, axis=0) / wsum[:, np.newaxis]
    per_agent = np.cumsum(alphas[:, np.newaxis, np.newaxis] * zs, axis=0) / wsum[
        :, np.newaxis, np.newaxis
    ]
    return net, per_agent


# ---------------------------------------------------------------------------
# bound inputs


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound evaluators consume.

    eta is a positive lower bound on the mass weights y along the run
    (a-priori worst case or the realized minimum); mu is the geometric
    mixing rate in [0, 1); grad_bound is the uniform subgradient norm
    bound G. The initial arrays are taken from the trace, z_star from
    the objective.
    """

    n: int
    grad_bound: float
    eta: float
    mu: float
    z_bar0: np.ndarray
    z0: np.ndarray
    x0: np.ndarray
    g0: np.ndarray | None
    z_star: np.ndarray
    horizon: int | None = None
    alphas: np.ndarray | None = None
    lambda_bar: float | None = None
    gamma_bar: float | None = None
    k1: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.grad_bound > 0.0):
            raise ValueError("grad_bound must be positive")
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")

    def sum_initial_spread(self) -> float:
        """sum_i ||z_bar(0) - z_i(0)||."""
        return float(np.sum(np.linalg.norm(self.z0 - self.z_bar0[np.newaxis, :], axis=1)))

    def sum_agent_spread(self, k: int) -> float:
        """sum_i ||z_k(0) - z_i(0)||."""
        return float(np.sum(np.linalg.norm(self.z0 - self.z0[k][np.newaxis, :], axis=1)))

    def initial_gap_sq(self) -> float:
        return float(np.sum((self.z_bar0 - self.z_star) ** 2))

    def sum_corrected_init(self, alpha0: float) -> float:
        """sum_i ||x_i(0) - alpha(0) g_i(0)||."""
        if self.g0 is None:
            raise ValueError("bound needs the initial gradient rows g0")
        return float(np.sum(np.linalg.norm(self.x0 - alpha0 * self.g0, axis=1)))

    def sum_x0_norm(self) -> float:
        return float(np.sum(np.linalg.norm(self.x0, axis=1)))


def bound_inputs_from_trace(
    trace: Trace,
    obj: Objective,
    mu: float,
    eta: float | None = None,
    grad_bound: float | None = None,
    k1: float | None = None,
) -> BoundInputs:
    """Assemble bound inputs from a recorded run.

    Defaults are the realized quantities: eta is the minimum recorded y
    and grad_bound the largest applied gradient-row norm. mu has no
    realized analogue and must be supplied (typically mu_ub from
    theoretical_constants).
    """
    if eta is None:
        eta = float(trace.ys.min())
    if grad_bound is None:
        if trace.gs is None:
            grad_bound = obj.grad_norm_bound
        else:
            grad_bound = float(np.max(np.linalg.norm(trace.gs, axis=2)))
        if grad_bound is None or grad_bound <= 0.0:
            raise ValueError("cannot infer a positive gradient bound; pass grad_bound")
    z0 = trace.zs[0]
    g0 = obj.subgradients(z0)
    z_star, _ = obj.optimum()
    return BoundInputs(
        n=trace.n,
        grad_bound=grad_bound,
        eta=eta,
        mu=mu,
        z_bar0=trace.z_weighted[0],
        z0=z0,
        x0=trace.xs[0],
        g0=g0,
        z_star=z_star,
        horizon=trace.steps,
        alphas=None if trace.alphas is None else np.asarray(trace.alphas, dtype=float),
        lambda_bar=obj.lambda_bar,
        gamma_bar=obj.gamma_bar,
        k1=k1,
    )


# ---------------------------------------------------------------------------
# deterministic-algorithm bounds
#
# One evaluator per step rule. ``het`` selects the switching analysis
# (heterogeneous and push-subgradient runs), which carries an extra 1/mu
# and replaces the corrected initial sum with sum_i ||x_i(0)||; at mu = 0
# that form is vacuous and the rank-one ceiling is used instead (a single
# mixing step erases disagreement, so the network term collapses to a
# neighboring-step-size sum). ``k`` applies the ceiling to agent k's own
# running average: the initial-spread term is split between the network
# average and agent k's start, at scale 1 instead of 2.

HET_BOUND_ALGORITHMS = ("heterogeneous", "push_subgradient")


def _spread(inputs: BoundInputs, k: int | None) -> tuple[float, float]:
    """The initial-spread term's scale and sum, for the network or agent k."""
    if k is None:
        return 2.0, inputs.sum_initial_spread()
    if not (0 <= k < inputs.n):
        raise ValueError(f"agent index {k} out of range")
    return 1.0, inputs.sum_initial_spread() + inputs.sum_agent_spread(k)


def _varying_bound_series(
    inputs: BoundInputs, het: bool, k: int | None = None, steps: int | None = None
) -> np.ndarray:
    """Varying-step ceilings for t = 0 .. steps-1 (default: the horizon),
    each applied to f of the alpha-weighted running average up to t.

    With A = sum_{tau<=t} alpha, A2 the same for alpha^2,
    S1 = sum_{tau<t} alpha(tau) mu^tau and
    S2 = sum_{tau<t} alpha(tau) (alpha(0) mu^(tau/2) + alpha(ceil(tau/2))),
    all as cumulative sums, so the whole series costs O(T).
    """
    if inputs.alphas is None:
        raise ValueError("varying-step bound needs the step sizes")
    if steps is None:
        steps = inputs.horizon
    if steps is None or steps < 1:
        raise ValueError("bound series needs the horizon")
    if len(inputs.alphas) < steps:
        raise ValueError(f"need step sizes up to t={steps - 1}, have {len(inputs.alphas)}")
    g, eta, mu, n = inputs.grad_bound, inputs.eta, inputs.mu, inputs.n
    scale, spread = _spread(inputs, k)
    a = np.asarray(inputs.alphas, dtype=float)[:steps]
    alpha0 = float(a[0])
    big_a = np.cumsum(a)
    # a constant that saturates to inf times a zero sum at t = 0 gives nan there
    with np.errstate(invalid="ignore"):
        head = (inputs.initial_gap_sq() + g * g * np.cumsum(a * a)) / (2.0 * big_a) + (
            scale * g * alpha0 * spread / (n * big_a)
        )
        if het and mu == 0.0:
            s3 = np.concatenate(([0.0], np.cumsum(a[1:] * a[:-1])))
            return head + (4.0 * n * g * g / eta) * (s3 / big_a)
        tau = np.arange(steps)
        s1 = np.concatenate(([0.0], np.cumsum(a * mu**tau)[:-1]))
        half = a[np.ceil(tau / 2.0).astype(int)]
        s2 = np.concatenate(([0.0], np.cumsum(a * (a[0] * mu ** (tau / 2.0) + half))[:-1]))
        if het:
            init = (32.0 * g * inputs.sum_x0_norm() / eta) * (s1 / big_a)
        else:
            init = (32.0 * g / eta) * (s1 / big_a) * inputs.sum_corrected_init(alpha0)
        mix = 32.0 * n * g * g / (eta * (mu if het else 1.0) * (1.0 - mu))
        return head + init + mix * (s2 / big_a)


def _fixed_bound(inputs: BoundInputs, het: bool, k: int | None = None) -> float:
    """Gap ceiling for the horizon-tuned constant step alpha = 1/sqrt(T),
    applied to f of the plain running average over the first T states."""
    if inputs.horizon is None or inputs.horizon < 1:
        raise ValueError("fixed-step bound needs the horizon T")
    g, eta, mu, n = inputs.grad_bound, inputs.eta, inputs.mu, inputs.n
    scale, spread = _spread(inputs, k)
    big_t = float(inputs.horizon)
    root_t = math.sqrt(big_t)
    head = scale * g * spread / (n * big_t) + (inputs.initial_gap_sq() + g * g) / (2.0 * root_t)
    if het and mu == 0.0:
        return head + 4.0 * n * g * g / (eta * root_t)
    init = inputs.sum_x0_norm() if het else inputs.sum_corrected_init(1.0 / root_t)
    return (
        head
        + 32.0 * g * init / (eta * (1.0 - mu) * big_t)
        + 32.0 * n * g * g / (eta * (mu if het else 1.0) * (1.0 - mu) * root_t)
    )


def _bound(inputs: BoundInputs, het: bool, variant: str, k: int | None, t: int | None) -> float:
    """The fixed-step ceiling, or the varying-step series' entry at t."""
    if variant == "fixed":
        return _fixed_bound(inputs, het, k)
    if variant != "varying":
        raise ValueError(f"unknown variant {variant!r}; expected 'fixed' or 'varying'")
    if t is None:
        raise ValueError("varying-step bound needs t")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return float(_varying_bound_series(inputs, het, k, steps=t + 1)[-1])


def bound_subgradient_push_fixed(inputs: BoundInputs) -> float:
    """Subgradient-push ceiling for the constant step 1/sqrt(T)."""
    return _fixed_bound(inputs, het=False)


def bound_subgradient_push_varying(inputs: BoundInputs, t: int) -> float:
    """Subgradient-push ceiling at time t for the recorded step sequence."""
    return _bound(inputs, False, "varying", None, t)


def bound_per_agent(inputs: BoundInputs, k: int, variant: str = "fixed", t: int | None = None) -> float:
    """Subgradient-push ceiling on agent k's own running average."""
    return _bound(inputs, False, variant, k, t)


def bound_heterogeneous(
    inputs: BoundInputs, variant: str = "fixed", k: int | None = None, t: int | None = None
) -> float:
    """Ceiling for the switching algorithm, any switching signal."""
    return _bound(inputs, True, variant, k, t)


# ---------------------------------------------------------------------------
# stochastic-algorithm constants and bounds


def k2_constant(mu: float) -> float:
    """K2 = -mu^(-1/ln mu) / ln mu, the ceiling of t mu^t over t >= 0."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie strictly inside (0, 1), got {mu}")
    log_mu = math.log(mu)
    return -(mu ** (-1.0 / log_mu)) / log_mu


def estimate_k1(
    obj: Objective,
    oracle: GradientOracle,
    x1: np.ndarray,
    alpha1: float,
    draws: int = 1000,
) -> tuple[float, float]:
    """Monte-Carlo estimate of K1 = E[sum_k ||x_k(1) + alpha(1) g~_k(1)||].

    Uses oracle draw indices 1..draws at t = 1 (draw 0 belongs to the
    run itself). Returns (mean, standard error); with zero noise bounds
    the standard error is exactly zero.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    x1 = np.asarray(x1, dtype=float)
    if x1.ndim == 1:
        x1 = x1[:, np.newaxis]
    vals = np.empty(draws)
    for m in range(draws):
        rows = x1 + alpha1 * oracle.gradients(obj, x1, 1, draw=m + 1)
        # the agents' norms, added one after another from the first agent
        vals[m] = np.cumsum(np.sqrt(_row_dots(rows)))[-1]
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return mean, stderr


@dataclass(frozen=True)
class SgpConstants:
    k1: float
    k2: float
    c: float


def sgp_constants(inputs: BoundInputs) -> SgpConstants:
    """The constant triple (K1, K2, C) entering the stochastic bounds.

    C = 4 + 128 K1 K2 lambda_bar / (G eta mu^2)
          + 512 n (K2 + 1) / (eta (1 - mu) mu).

    Requires mu strictly inside (0, 1) and a K1 estimate in the inputs
    (see estimate_k1).
    """
    if not (0.0 < inputs.mu < 1.0):
        raise ValueError(f"sgp constants need mu in (0, 1), got {inputs.mu}")
    if inputs.k1 is None:
        raise ValueError("inputs.k1 missing; estimate it first (estimate_k1)")
    if inputs.lambda_bar is None:
        raise ValueError("sgp constants need lambda_bar (strongly convex objective)")
    g, eta, mu, n = inputs.grad_bound, inputs.eta, inputs.mu, inputs.n
    k2 = k2_constant(mu)
    c = (
        4.0
        + 128.0 * inputs.k1 * k2 * inputs.lambda_bar / (g * eta * mu * mu)
        + 512.0 * n * (k2 + 1.0) / (eta * (1.0 - mu) * mu)
    )
    return SgpConstants(k1=float(inputs.k1), k2=k2, c=c)


def bound_sgp(inputs: BoundInputs, t: int, which: str = "state") -> float:
    """Expected-error ceilings for the stochastic algorithm under the
    strongly-convex step rule alpha(t) = 2 / (lambda_bar t).

    which:
      "state"         E ||z_i(t) - z*||^2            (any agent, t >= 2)
      "f_agent"       E f(z_i(t)) - f*               (any agent, t >= 2)
      "f_average"     E f(mean_k x_k(t)) - f*        (t >= 1)
      "state_average" E ||<z(t)> - z*||^2            (t >= 1)
    """
    if which not in ("state", "f_agent", "f_average", "state_average"):
        raise ValueError(f"unknown bound selector {which!r}")
    scale = 1.0
    if which.startswith("f_"):
        # a gamma_bar-smooth f gives f(z) - f* <= (gamma_bar / 2) ||z - z*||^2
        if inputs.gamma_bar is None:
            raise ValueError("function-value bounds need gamma_bar (smooth objective)")
        scale = inputs.gamma_bar / 2.0
    sc = sgp_constants(inputs)
    g, eta, mu, n = inputs.grad_bound, inputs.eta, inputs.mu, inputs.n
    lam = inputs.lambda_bar
    if which in ("state", "f_agent"):
        if t < 2:
            raise ValueError(f"{which} bound needs t >= 2, got {t}")
        return scale * (
            8.0 * sc.c * g * g / (lam * lam * t)
            + 128.0 * n * g / (eta * (1.0 - mu) * lam * (t - 1.0))
            + (32.0 * sc.k1 / eta) * mu ** (t - 2.0)
            + (64.0 * n * g / (eta * (1.0 - mu) * lam)) * mu ** ((t - 1.0) / 2.0)
        )
    if t < 1:
        raise ValueError(f"{which} bound needs t >= 1, got {t}")
    if which == "f_average":
        t += 1  # the function value at t is bounded through the state at t + 1
    return scale * 4.0 * sc.c * g * g / (lam * lam * t)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares rate fits on the tail of a positive series.

    power_slope is d log(value) / d log(t) (a -0.5 slope means value
    behaves like t^-0.5); geo_rate is the per-step factor exp(d log(value)/dt)
    for exponential decay claims. r2 values gate meaningfulness: below
    0.9 the corresponding slope should not be quoted as a rate.
    """

    power_slope: float
    power_r2: float
    geo_rate: float
    geo_r2: float
    n_used: int
    n_filtered: int


def _linfit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), r2


def fit_rate(
    values: Sequence[float] | np.ndarray,
    times: Sequence[float] | np.ndarray | None = None,
    tail_fraction: float = 0.5,
    min_points: int = 20,
) -> RateFit:
    """Fit power-law and geometric rates on the tail of a series.

    The last ``tail_fraction`` of samples is used; entries with
    non-positive value or non-positive time are filtered out (their
    count is reported) because both fits work in log space. Fewer than
    ``min_points`` surviving points is an error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if times is None:
        times = np.arange(len(values), dtype=float)
    else:
        times = np.asarray(times, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times must match values in length")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = int(math.floor(len(values) * (1.0 - tail_fraction)))
    v = values[start:]
    t = times[start:]
    keep = (v > 0.0) & (t > 0.0)
    n_filtered = int(np.sum(~keep))
    v, t = v[keep], t[keep]
    if len(v) < min_points:
        raise ValueError(
            f"rate fit needs at least {min_points} usable points in the tail, got {len(v)}"
        )
    log_v = np.log(v)
    power_slope, power_r2 = _linfit(np.log(t), log_v)
    geo_slope, geo_r2 = _linfit(t, log_v)
    return RateFit(
        power_slope=power_slope,
        power_r2=power_r2,
        geo_rate=math.exp(geo_slope),
        geo_r2=geo_r2,
        n_used=len(v),
        n_filtered=n_filtered,
    )


# ---------------------------------------------------------------------------
# exact-recursion verification


def descent_residuals(trace: Trace) -> np.ndarray:
    """Per step and coordinate, |<z(t+1)> - <z(t)> + (alpha(t)/kappa)
    sum_i g_i(t)|, shape (steps, d): the violations of the exact
    mass-average recursion.

    The recursion holds pathwise for all four algorithms (for the
    stochastic one with the sampled gradients as recorded), because
    every mixing matrix is column stochastic. kappa equals n under the
    standard y(0) = 1 start.
    """
    if trace.gs is None or trace.alphas is None:
        raise ValueError("trace has no recorded gradients; not an optimizer trace")
    zw = trace.z_weighted
    scaled = np.asarray(trace.alphas, dtype=float) / trace.kappa
    predicted = zw[:-1] - scaled[:, np.newaxis] * trace.gs.sum(axis=1)
    return np.abs(zw[1:] - predicted)


def verify_descent_recursion(trace: Trace) -> float:
    """Max violation of the exact mass-average recursion
    <z(t+1)> = <z(t)> - (alpha(t)/kappa) sum_i g_i(t)."""
    return float(np.max(descent_residuals(trace)))


# ---------------------------------------------------------------------------
# aggregated metrics


@dataclass
class RunMetrics:
    """Per-step series, realized constants and bound ceilings for one
    recorded run; ``bounds`` is a run summary's ``bounds`` section.

    f-gap and varying-bound series have one entry per step (the state a
    step size is attached to); consensus and Lyapunov series cover every
    recorded state including the last.
    """

    times: np.ndarray
    consensus: np.ndarray
    lyapunov: np.ndarray | None
    f_gap_avg: np.ndarray | None
    f_gap_agent: np.ndarray | None
    agent: int
    bound_fixed: float | None
    bound_varying: np.ndarray | None
    realized_grad_bound: float | None
    realized_eta: float
    realized_y_max: float
    bounds: dict | None


def compute_metrics(
    trace: Trace,
    obj: Objective | None = None,
    schedule: StepSchedule | None = None,
    agent: int = 0,
    constants: TheoreticalConstants | None = None,
) -> RunMetrics:
    """Post-process a trace into the standard metric series.

    For optimizer traces with a known optimum, running-average f-gaps
    and (given the a-priori ``constants``) every bound ceiling are
    included. Bounds follow the algorithm recorded in the trace; the
    stochastic algorithm gets none here since its guarantees are
    expectations (see bound_sgp).
    """
    if not (0 <= agent < trace.n):
        raise ValueError(f"agent index {agent} out of range")
    realized_eta = float(trace.ys.min())
    realized_y_max = float(trace.ys.max())
    cons = consensus_error_series(trace)
    times = trace.times()

    lyap = None
    f_gap_avg = None
    f_gap_agent = None
    bound_fixed = None
    bound_varying = None
    bounds = None
    realized_g = None

    if trace.gs is not None:
        realized_g = float(np.max(np.linalg.norm(trace.gs, axis=2)))

    if obj is not None:
        z_star, f_star = obj.optimum()
        lyap = lyapunov_series(trace, z_star)
        if trace.alphas is not None:
            net, per_agent = running_average_iterates(trace)
            f_gap_avg = obj.values(net) - f_star
            f_gap_agent = obj.values(per_agent[:, agent]) - f_star
            if constants is not None and trace.algorithm != "sgp":
                het = trace.algorithm in HET_BOUND_ALGORITHMS
                realized = bound_inputs_from_trace(trace, obj, mu=constants.mu_ub)
                # a-priori: the same initial data under eta_lb and G
                g = obj.grad_norm_bound or realized.grad_bound
                apriori = replace(realized, eta=constants.eta_lb, grad_bound=g)
                bound_varying = _varying_bound_series(realized, het)
                agent_varying = _varying_bound_series(realized, het, k=agent)
                gap = float(f_gap_avg[-1])
                bounds = {
                    "mu_used": constants.mu_ub,
                    "eta_realized": realized.eta,
                    "eta_apriori": constants.eta_lb,
                    "varying_final_realized": float(bound_varying[-1]),
                    "varying_final_apriori": float(_varying_bound_series(apriori, het)[-1]),
                    "varying_final_agent_realized": float(agent_varying[-1]),
                    "final_gap_below_varying_realized": bool(gap <= bound_varying[-1]),
                }
                if schedule is not None and schedule.kind == "fixed_inv_sqrt":
                    bound_fixed = _fixed_bound(realized, het)
                    bounds["fixed_realized"] = bound_fixed
                    bounds["fixed_apriori"] = _fixed_bound(apriori, het)
                    bounds["fixed_agent_realized"] = _fixed_bound(realized, het, k=agent)
                    bounds["final_gap_below_fixed_realized"] = bool(gap <= bound_fixed)

    return RunMetrics(
        times=times,
        consensus=cons,
        lyapunov=lyap,
        f_gap_avg=f_gap_avg,
        f_gap_agent=f_gap_agent,
        agent=agent,
        bound_fixed=bound_fixed,
        bound_varying=bound_varying,
        realized_grad_bound=realized_g,
        realized_eta=realized_eta,
        realized_y_max=realized_y_max,
        bounds=bounds,
    )
