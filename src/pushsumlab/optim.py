"""Distributed subgradient optimization on top of push-sum mixing.

All four algorithms share the mixing pair (x, y) of the push-sum engine
and one update: with g the gradient rows at the ratios z = x / y and a
0/1 switching signal sigma_i(t), x <- W (x - sigma alpha g) - (1 - sigma)
alpha g, so an agent with sigma_i = 1 corrects, then mixes, and one with
0 mixes, then corrects. The algorithms differ in sigma and g only:

* subgradient_push: sigma = 1, x <- W (x - alpha g).
* push_subgradient: sigma = 0, x <- W x - alpha g.
* heterogeneous: sigma drawn per agent and step (Bernoulli by default).
* sgp: subgradient_push with g from a stochastic first-order oracle
  with bounded zero-mean noise, time starting at t = 1.

The mass average sum_i x_i / kappa obeys the exact recursion
<z(t+1)> = <z(t)> - (alpha(t)/kappa) sum_i g_i(t) regardless of graph,
weights, or switching; that recursion is what the verifier checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pushsum
from .graphs import GraphSequence
from .pushsum import (
    Replicas,
    Trace,
    _agent_rows,
    _initial_mass,
    resolve_weight_sequence,
    run_dynamics,
)
from .weights import WeightMatrix

__all__ = [
    "ALGORITHMS",
    "OBJECTIVE_KINDS",
    "Objective",
    "absolute_deviation_objective",
    "quadratic_objective",
    "huber_objective",
    "StepSchedule",
    "fixed_inv_sqrt",
    "harmonic",
    "sgp_strong",
    "constant_step",
    "SwitchingSignal",
    "all_ones_signal",
    "all_zeros_signal",
    "bernoulli_signal",
    "alternating_signal",
    "table_signal",
    "GradientOracle",
    "REPLICA_BYTES",
    "replica_group_size",
    "run_optimizer",
]

ALGORITHMS = ("subgradient_push", "push_subgradient", "heterogeneous", "sgp")
OBJECTIVE_KINDS = ("abs", "quadratic", "huber")


# ---------------------------------------------------------------------------
# objectives


@dataclass(frozen=True)
class Objective:
    """Separable objective f(z) = (1/n) sum_i f_i(z) with one component
    per agent, each anchored at a point a_i.

    kinds
    -----
    abs       f_i(z) = sum_k |z_k - a_ik|            (nonsmooth, G = sqrt(d))
    quadratic f_i(z) = (s_i / 2) ||z - a_i||^2       (smooth, strongly convex)
    huber     f_i(z) = sum_k h_delta(z_k - a_ik)     (smooth, G = delta sqrt(d))

    Each kind's value formula is ``_component_values`` and its gradient
    formula ``_gradient_kernel``, each written once for every caller.
    """

    kind: str
    anchors: np.ndarray
    scales: np.ndarray
    delta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        a = np.asarray(self.anchors, dtype=float)
        if a.ndim == 1:
            a = a[:, np.newaxis]
        if a.ndim != 2 or not np.all(np.isfinite(a)):
            raise ValueError("anchors must be a finite (n, d) array")
        s = np.asarray(self.scales, dtype=float)
        if s.shape != (a.shape[0],) or np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("scales must be a strictly positive (n,) array")
        if self.kind == "huber":
            if self.delta is None or not (self.delta > 0.0):
                raise ValueError("huber objective needs delta > 0")
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "scales", s)

    @property
    def n(self) -> int:
        return self.anchors.shape[0]

    @property
    def d(self) -> int:
        return self.anchors.shape[1]

    @property
    def smooth(self) -> bool:
        return self.kind in ("quadratic", "huber")

    @property
    def lambda_bar(self) -> float | None:
        """Mean strong convexity modulus of the components, or None if
        they are not strongly convex."""
        return float(self.scales.mean()) if self.kind == "quadratic" else None

    @property
    def gamma_bar(self) -> float | None:
        """Mean gradient Lipschitz constant of the components (s_i for
        quadratic, 1 for huber), or None (abs)."""
        if self.kind == "abs":
            return None
        return float(self.scales.mean()) if self.kind == "quadratic" else 1.0

    @property
    def grad_norm_bound(self) -> float | None:
        """A-priori uniform bound on component subgradient norms, where
        one exists (quadratics are unbounded: use the realized maximum)."""
        if self.kind == "abs":
            return math.sqrt(self.d)
        if self.kind == "huber":
            return float(self.delta) * math.sqrt(self.d)
        return None

    def _component_values(self, r: np.ndarray, s: np.ndarray | float) -> np.ndarray:
        """f_i at the residuals r = z - a_i, one value per row along the
        last axis; ``s`` holds each row's scale. The one copy of every
        kind's value formula."""
        if self.kind == "abs":
            return np.abs(r).sum(axis=-1)
        if self.kind == "quadratic":
            return 0.5 * s * _row_dots(r)
        delta = float(self.delta)
        small = np.abs(r) <= delta
        quad = _masked_row_sums(0.5 * r**2, small)
        lin = _masked_row_sums(delta * (np.abs(r) - 0.5 * delta), ~small)
        return quad + lin

    def _gradient_kernel(self, s: np.ndarray | float):
        """A subgradient of f_i at the residuals r = z - a_i, row by row, at
        the scales ``s``, as a ufunc (or a partial of one), so
        ``kernel(r, out=g)`` writes in place; a run resolves it once. At
        kinks of abs the minimum-norm element (zero) is returned, so
        sign(0) = 0 is deliberate."""
        if self.kind == "abs":
            return np.sign
        if self.kind == "quadratic":
            return functools.partial(np.multiply, s)
        return functools.partial(np.clip, a_min=-float(self.delta), a_max=float(self.delta))

    def _gradients(self, r: np.ndarray, s: np.ndarray | float) -> np.ndarray:
        """``_gradient_kernel`` at the scales s applied to the residuals r."""
        return self._gradient_kernel(s)(r)

    def values(self, points: np.ndarray) -> np.ndarray:
        """f at every row of a (P, d) array of points, in blocks of points
        whose (block, n, d) residuals fit ``pushsum.CHUNK_BYTES`` (at least
        one point). Each point's mean over n is the same reduction in any
        block, so the bits do not depend on the block size."""
        p = np.asarray(points, dtype=float).reshape(-1, self.d)
        size = max(1, pushsum.CHUNK_BYTES // (8 * self.n * self.d))
        out = np.empty(len(p))
        for b0 in range(0, len(p), size):
            r = p[b0 : b0 + size, np.newaxis, :] - self.anchors[np.newaxis, :, :]
            out[b0 : b0 + size] = self._component_values(r, self.scales).mean(axis=-1)
        return out

    def value(self, z: np.ndarray) -> float:
        return float(self.values(np.asarray(z, dtype=float).reshape(1, self.d))[0])

    def subgradients(self, z: np.ndarray) -> np.ndarray:
        """The (n, d) rows of subgradients of f_i at z_i, in one call."""
        r = np.asarray(z, dtype=float).reshape(self.n, self.d) - self.anchors
        return self._gradients(r, self.scales[:, np.newaxis])

    def subgradient(self, i: int, z: np.ndarray) -> np.ndarray:
        """A subgradient of f_i at z (see ``_gradient_kernel``)."""
        r = np.asarray(z, dtype=float).reshape(self.d) - self.anchors[i]
        return self._gradients(r, self.scales[i])

    def optimum(self) -> tuple[np.ndarray, float]:
        """A minimizer of f and its value. For abs the per-coordinate
        median (any point of the optimal interval works), for huber the
        per-coordinate root of the monotone mean gradient."""
        if self.kind == "quadratic":
            z = (self.scales[:, np.newaxis] * self.anchors).sum(axis=0) / self.scales.sum()
        elif self.kind == "abs":
            # np.median's bits (the middle row, or np.mean of the two middle
            # rows) without the numpy.ma import it makes on first use
            ranked, mid = np.sort(self.anchors, axis=0), self.n // 2
            z = ranked[mid] if self.n % 2 else np.mean(ranked[mid - 1 : mid + 1], axis=0)
        else:
            z = np.array([self._huber_root(self.anchors[:, k]) for k in range(self.d)])
        return z, self.value(z)

    def _huber_root(self, col: np.ndarray) -> float:
        def mean_grad(v: float) -> float:
            return float(np.mean(self._gradients(v - col, 1.0)))

        lo, hi = float(col.min()) - 1.0, float(col.max()) + 1.0
        for _ in range(200):
            if hi - lo <= 1e-14 * max(1.0, abs(lo), abs(hi)):
                break
            mid = 0.5 * (lo + hi)
            if mean_grad(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _row_dots(r: np.ndarray) -> np.ndarray:
    """r . r for every row along the last axis, as one stacked matmul.
    Each entry equals np.dot of that row with itself, bit for bit; a
    plain (r * r).sum(axis=-1) rounds differently once d >= 2."""
    return np.matmul(r[..., np.newaxis, :], r[..., :, np.newaxis])[..., 0, 0]


def _masked_row_sums(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For every row along the last axis, the sum of v where mask holds,
    equal bit for bit to np.sum(v_row[mask_row]).

    numpy sums pairwise, so the grouping depends on how many entries a
    row selects: each row's selected entries are packed to the front in
    order, and the rows are summed in one call per distinct count.
    """
    packed = np.take_along_axis(v, np.argsort(~mask, axis=-1, kind="stable"), axis=-1)
    counts = mask.sum(axis=-1)
    out = np.zeros(counts.shape)
    for c in np.unique(counts).tolist():
        rows = counts == c
        out[rows] = packed[rows][:, :c].sum(axis=-1)
    return out


def absolute_deviation_objective(anchors: np.ndarray) -> Objective:
    a = np.asarray(anchors, dtype=float)
    n = a.shape[0]
    return Objective("abs", a, np.ones(n))


def quadratic_objective(anchors: np.ndarray, scales: np.ndarray | None = None) -> Objective:
    a = np.asarray(anchors, dtype=float)
    n = a.shape[0]
    s = np.ones(n) if scales is None else np.asarray(scales, dtype=float)
    return Objective("quadratic", a, s)


def huber_objective(anchors: np.ndarray, delta: float = 1.0) -> Objective:
    a = np.asarray(anchors, dtype=float)
    n = a.shape[0]
    return Objective("huber", a, np.ones(n), delta=delta)


# ---------------------------------------------------------------------------
# step-size schedules


@dataclass(frozen=True)
class StepSchedule:
    """Step-size rule alpha(t).

    kinds: fixed_inv_sqrt (1/sqrt(horizon), for horizon-tuned runs),
    harmonic (scale/(t+1)^power), sgp_strong (2/(lambda_bar t), defined
    from t = 1), constant.
    """

    kind: str
    horizon: int | None = None
    scale: float | None = None
    power: float | None = None
    lambda_bar: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "fixed_inv_sqrt":
            if self.horizon is None or self.horizon < 1:
                raise ValueError("fixed_inv_sqrt needs horizon >= 1")
        elif self.kind == "harmonic":
            if self.scale is None or not (self.scale > 0.0):
                raise ValueError("harmonic needs scale > 0")
            if self.power is None or not (0.0 < self.power <= 1.0):
                raise ValueError("harmonic needs power in (0, 1]")
        elif self.kind == "sgp_strong":
            if self.lambda_bar is None or not (self.lambda_bar > 0.0):
                raise ValueError("sgp_strong needs lambda_bar > 0")
        elif self.kind == "constant":
            if self.scale is None or not (self.scale > 0.0):
                raise ValueError("constant needs scale > 0")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @property
    def start(self) -> int:
        """First time index the rule is defined at."""
        return 1 if self.kind == "sgp_strong" else 0

    @property
    def satisfies_diminishing_conditions(self) -> bool:
        """True when sum alpha diverges while sum alpha^2 converges and
        the sequence is non-increasing (the diminishing-step regime)."""
        if self.kind == "harmonic":
            return 0.5 < float(self.power) <= 1.0
        return self.kind == "sgp_strong"

    def alphas(self, t0: int, steps: int) -> np.ndarray:
        """alpha(t0) .. alpha(t0 + steps - 1) as one array; the one copy
        of every kind's formula."""
        if t0 < self.start:
            raise ValueError(f"schedule {self.kind} is undefined at t={t0} (starts at {self.start})")
        if self.kind == "fixed_inv_sqrt":
            return np.full(steps, 1.0 / math.sqrt(self.horizon))
        if self.kind == "harmonic":
            scale, power = float(self.scale), float(self.power)
            # Python's float power per step: np.power may round differently
            return np.array([scale / (t + 1.0) ** power for t in range(t0, t0 + steps)])
        if self.kind == "sgp_strong":
            # lambda * float(t), which is what lambda * t computes for an int t
            return 2.0 / (float(self.lambda_bar) * np.arange(t0, t0 + steps, dtype=float))
        return np.full(steps, float(self.scale))

    def alpha(self, t: int) -> float:
        return float(self.alphas(t, 1)[0])


def fixed_inv_sqrt(horizon: int) -> StepSchedule:
    return StepSchedule("fixed_inv_sqrt", horizon=horizon)


def harmonic(scale: float, power: float) -> StepSchedule:
    return StepSchedule("harmonic", scale=scale, power=power)


def sgp_strong(lambda_bar: float) -> StepSchedule:
    return StepSchedule("sgp_strong", lambda_bar=lambda_bar)


def constant_step(alpha: float) -> StepSchedule:
    return StepSchedule("constant", scale=alpha)


# ---------------------------------------------------------------------------
# switching signals


class _Philox:
    """One reused Philox generator under a key, reset to each address:
    the one place a draw's counter (t, i, draw, 0) is set. Philox
    advances its counter before each 4-word block, so the stream from
    (t0, i, draw, 0) holds the draws at t0, t0 + 1, ... in order, the one
    at t from word 4 (t - t0); a draw of more than 4 words reads into the
    next time's block, as the generator reset to its own address does."""

    def __init__(self, key: int) -> None:
        self.bits = np.random.Philox(key=key)
        self.gen = np.random.Generator(self.bits)
        self._fresh = self.bits.state

    def at(self, t: int, i: int, draw: int) -> np.random.Generator:
        """The generator, reset to counter (t, i, draw, 0)."""
        # set in place in the uint64 array: a list of ints goes through float64
        self._fresh["state"]["counter"][:3] = (t, i, draw)
        self.bits.state = self._fresh
        return self.gen

    def words(self, t0: int, steps: int, i: int, draw: int, width: int) -> np.ndarray:
        """The first ``width`` raw words of agent i's draws at t0 ..
        t0 + steps - 1: a (steps, width) view of one stream, rows 4 words
        apart, sliced from its 4-word blocks when one holds a whole draw."""
        self.at(t0, i, draw)
        raw = self.bits.random_raw((steps + (width - 1) // 4, 4))
        return raw[:, :width] if width <= 4 else np.ndarray((steps, width), np.uint64, raw, 0, (32, 8))


@dataclass(frozen=True)
class SwitchingSignal:
    """Per-(agent, step) 0/1 signal selecting correct-then-mix (1) or
    mix-then-correct (0) in the heterogeneous algorithm. A bernoulli
    signal draws from the one :class:`_Philox` it holds under its seed;
    the other kinds hold none, so a run without random draws never
    imports ``numpy.random``."""

    kind: str
    p: float = 0.5
    seed: int = 0
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("all-ones", "all-zeros", "bernoulli", "alternating", "table"):
            raise ValueError(f"unknown switching signal kind {self.kind!r}")
        if self.kind == "bernoulli" and not (0.0 <= self.p <= 1.0):
            raise ValueError(f"bernoulli p must lie in [0, 1], got {self.p}")
        if not (0 <= self.seed < 2**128):
            raise ValueError(f"switching signal seed must lie in [0, 2**128), got {self.seed}")
        if self.kind == "table":
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or not np.all((tab == 0.0) | (tab == 1.0)):
                raise ValueError("table must be a (steps, n) array of 0/1 values")
            object.__setattr__(self, "table", tab)
        if self.kind == "bernoulli":  # the one kind that draws
            object.__setattr__(self, "_philox", _Philox(self.seed))  # not a field

    def rows(self, t0: int, steps: int, n: int) -> np.ndarray:
        """sigma(t0) .. sigma(t0 + steps - 1) for all agents as a float 0/1
        (steps, n) table.

        A bernoulli entry (t, i) is the first uniform of the Philox stream
        with counter (t, i, 0, 0) under the signal's key, read for all of an
        agent's times at once from the signal's one :class:`_Philox`.
        """
        if self.kind in ("all-ones", "all-zeros"):
            # a read-only view of one number: no (steps, n) table is stored
            return np.broadcast_to(float(self.kind == "all-ones"), (steps, n))
        if self.kind == "alternating":
            # adversarial stress: neighbors always disagree and flip each step
            return (np.add.outer(np.arange(t0, t0 + steps), np.arange(n)) % 2).astype(float)
        if self.kind == "table":
            last = self.table.shape[0] - 1
            if not (0 <= t0 and t0 + steps - 1 <= last):
                raise ValueError(
                    f"switching table covers t=0..{last}, not t={t0}..{t0 + steps - 1}"
                )
            if self.table.shape[1] != n:
                raise ValueError("switching table width does not match n")
            return self.table[t0 : t0 + steps].copy()
        philox = self._philox
        raw = np.empty((n, steps, 1), dtype=np.uint64)
        for i in range(n):
            raw[i] = philox.words(t0, steps, i, 0, 1)
        # Generator.random() is u = (w >> 11) 2^-53, and u < p holds iff
        # w < ceil(p 2^53) 2^11 (p 2^53 is exact): one integer compare
        return (raw[:, :, 0].T < math.ceil(self.p * 2.0**53) << 11).astype(float)

    def row(self, t: int, n: int) -> np.ndarray:
        """sigma(t) for all agents as a float 0/1 vector."""
        return self.rows(t, 1, n)[0]


def all_ones_signal() -> SwitchingSignal:
    return SwitchingSignal("all-ones")


def all_zeros_signal() -> SwitchingSignal:
    return SwitchingSignal("all-zeros")


def bernoulli_signal(p: float = 0.5, seed: int = 0) -> SwitchingSignal:
    return SwitchingSignal("bernoulli", p=p, seed=seed)


def alternating_signal() -> SwitchingSignal:
    return SwitchingSignal("alternating")


def table_signal(table: np.ndarray) -> SwitchingSignal:
    return SwitchingSignal("table", table=np.asarray(table, dtype=float))


# ---------------------------------------------------------------------------
# stochastic first-order oracle


_RABS_MASK = (1 << 52) - 1

# A seeds sweep runs its seeds as replicas of one dynamics loop, in groups
# whose stacked per-step arrays stay under this many bytes
# (``replica_group_size``); one replica at n=200, T=10^4, d=1 takes 64 MB.
REPLICA_BYTES = 2**25


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """The tables of numpy's ziggurat for ``standard_normal`` that its
    fast path reads, taken from the installed numpy on first use.

    A word w has layer idx = w & 0xff, sign bit 8 and rabs = bits 9-60;
    numpy returns x = +-rabs * wi[idx] at once iff rabs < ki[idx]. numpy
    exports neither table, so both are read by feeding crafted words to
    its own generator through Philox's ``buffer``/``buffer_pos`` state:
    rabs = 1 returns wi[idx] itself, and a word counts as taken on the
    fast path iff numpy consumed it alone (``buffer_pos`` 1, counter
    unmoved). ki[idx] lies within half a unit of 2^52 wi[idx-1]/wi[idx],
    so rabs two below that is taken, and so is every smaller rabs.
    Returns wi and, per layer, the bound below which rabs is surely
    taken. It is 0 for the tail layer 0, for layer 1 (ki[1] = 0) and for
    any layer whose probe is not taken: their words always go to numpy.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state
    counter = int(state["state"]["counter"][0])

    def probe(idx: int, rabs: int) -> tuple[float, bool]:
        state["buffer"][:] = (idx | rabs << 9, 0, 0, 0)
        state["buffer_pos"] = 0
        bits.state = state
        x = float(gen.standard_normal())
        after = bits.state
        return x, after["buffer_pos"] == 1 and int(after["state"]["counter"][0]) == counter

    wi = np.array([probe(idx, 1)[0] for idx in range(256)])
    below = np.zeros(256, dtype=np.uint64)
    for idx in range(2, 256):
        lo = int(2.0**52 * wi[idx - 1] / wi[idx]) - 2
        if probe(idx, lo)[1]:
            below[idx] = lo + 1
    wi.flags.writeable = below.flags.writeable = False  # shared by every caller
    return wi, below


def _ziggurat_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's standard normal of each uint64 word that its ziggurat
    returns on the fast path, and a mask of those words; the other words
    (layers 0 and 1, rabs within two of ki[idx] or above it) hold no value."""
    wi, below = _ziggurat()
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(_RABS_MASK)
    x = rabs.astype(float) * wi[idx]
    np.negative(x, out=x, where=(words & np.uint64(0x100)) != 0)
    return x, rabs < below[idx]


def _ball_rows(normals: np.ndarray, u: np.ndarray, c: float) -> np.ndarray:
    """Each row of ``normals`` scaled to radius c u^(1/d), as ``_draw``
    scales its direction, bit for bit; a zero row gives zeros."""
    d = normals.shape[-1]
    norms = np.sqrt(_row_dots(normals))  # math.sqrt(row.dot(row)), bit for bit
    if d == 1:  # v ** 1.0 is v exactly
        radii = c * u
    else:  # Python's float power, as _draw takes it: np.power rounds differently
        radii = c * np.array([v ** (1.0 / d) for v in u.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = normals * (radii / norms)[:, np.newaxis]
    rows[norms == 0.0] = 0.0
    return rows


@dataclass(frozen=True)
class GradientOracle:
    """Gradient plus zero-mean noise drawn uniformly from the solid ball
    of radius c_i, so ||noise|| <= c_i holds almost surely.

    Draws are addressed, not streamed: the Philox counter is
    (t, agent, draw, 0) under a single run key, so any subset of draws
    can be regenerated independently and in any order. ``_draw`` makes
    one: it resets the oracle's one reused generator (:class:`_Philox`)
    to the address and takes d standard normals (the direction) and one
    uniform u, giving the direction scaled to radius c u^(1/d).

    ``noise_table`` gives the same bytes for a run of times in bulk from
    one stream per agent (``_Philox.words``). Each normal word is decoded
    with numpy's ziggurat fast path (``_ziggurat_normals``) and the
    uniform is the top 53 bits of the word after the d normals. A draw
    holding any word off the fast path goes to ``_draw``, since numpy's
    rejection step reads further words. The norm is ``_row_dots`` under
    ``np.sqrt``, equal bit for bit to ``_draw``'s per-row dot, and u^(1/d)
    is Python's float power per draw (``np.power`` differs at d >= 2),
    or u itself at d = 1.
    """

    noise_bounds: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        c = np.asarray(self.noise_bounds, dtype=float)
        if c.ndim != 1 or np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("noise bounds must be a finite nonnegative (n,) array")
        if not (0 <= self.seed < 2**128):
            raise ValueError(f"gradient oracle seed must lie in [0, 2**128), got {self.seed}")
        object.__setattr__(self, "noise_bounds", c)
        object.__setattr__(self, "_philox", _Philox(self.seed))  # not a field

    def _draw(self, i: int, t: int, d: int, draw: int) -> np.ndarray:
        c = float(self.noise_bounds[i])
        if c == 0.0:
            return np.zeros(d)
        gen = self._philox.at(t, i, draw)
        direction = gen.standard_normal(d)
        norm = math.sqrt(direction.dot(direction))  # what np.linalg.norm computes
        if norm == 0.0:
            return np.zeros(d)
        radius = c * float(gen.random()) ** (1.0 / d)
        return direction * (radius / norm)

    def noise(self, i: int, t: int, d: int, draw: int = 0) -> np.ndarray:
        """Agent i's noise at address (t, i, draw)."""
        return self._draw(i, t, d, draw)

    def noise_table(self, t0: int, steps: int, d: int, draw: int = 0) -> np.ndarray:
        """The (steps, n, d) noise rows of t = t0 .. t0 + steps - 1: row
        (t, i) is ``noise(i, t, d, draw)`` byte for byte, from one Philox
        stream per agent (see the class docstring)."""
        out = np.zeros((steps, len(self.noise_bounds), d))
        for i, c in enumerate(self.noise_bounds.tolist()):
            if c == 0.0:
                continue
            # the draw at t0 + k: d normals, then the uniform
            words = self._philox.words(t0, steps, i, draw, d + 1)
            normals, fast = _ziggurat_normals(words[:, :d])
            out[:, i] = _ball_rows(normals, (words[:, d] >> np.uint64(11)) * 2.0**-53, c)
            for k in np.flatnonzero(~fast.all(axis=1)).tolist():
                out[k, i] = self._draw(i, t0 + k, d, draw)
        return out

    def gradients(self, obj: Objective, z: np.ndarray, t: int, draw: int = 0) -> np.ndarray:
        """The (n, d) noisy gradient rows at the agents' points z, in one
        call; each agent's noise is its draw at (t, i, draw)."""
        if not obj.smooth:
            raise ValueError(
                f"stochastic oracle needs a differentiable objective, got kind {obj.kind!r}"
            )
        if len(self.noise_bounds) != obj.n:
            raise ValueError(
                f"gradient oracle has {len(self.noise_bounds)} noise bounds, "
                f"but the objective has n={obj.n} components"
            )
        noise = np.empty((obj.n, obj.d))
        for i in range(len(noise)):
            noise[i] = self._draw(i, t, obj.d, draw)
        return obj.subgradients(z) + noise


# ---------------------------------------------------------------------------
# runner


def run_optimizer(
    algorithm: str,
    seq: GraphSequence,
    obj: Objective,
    schedule: StepSchedule,
    weights: str | WeightMatrix | Sequence[WeightMatrix] = "default",
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
    sigma: SwitchingSignal | Sequence[SwitchingSignal | None] | None = None,
    oracle: GradientOracle | Sequence[GradientOracle | None] | None = None,
    horizon: int | None = None,
    seed: int | None = None,
) -> Trace | Replicas:
    """Run one optimization algorithm and record everything.

    The trace stores states at times t0..t0+horizon (t0 = 1 for sgp,
    otherwise 0), the mixing matrix, step size, gradient rows actually
    applied and switching row of every step. Identical inputs give
    identical traces. ``seed`` keys the Bernoulli signal a heterogeneous
    run gets when no ``sigma`` is given; every other run ignores it.

    A list or tuple of S signals or oracles (the other argument then
    serves every replica, or is a list of the same length) runs S
    replicas in one dynamics loop and returns their :class:`Replicas`:
    replica r equals, bit for bit, the trace of the call with sigma[r]
    and oracle[r].
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if obj.n != seq.n:
        raise ValueError(f"objective has {obj.n} components but the graphs have n={seq.n}")
    if x0 is None:
        raise ValueError("x0 is required")
    horizon = len(seq) if horizon is None else horizon
    batched = [v for v in (sigma, oracle) if isinstance(v, (list, tuple))]
    replicas = len(batched[0]) if batched else 1
    if replicas == 0 or any(len(v) != replicas for v in batched):
        raise ValueError("per-replica signals and oracles must be non-empty and of one length")
    signals, oracles = (
        list(v) if isinstance(v, (list, tuple)) else [v] * replicas for v in (sigma, oracle)
    )

    t0 = 1 if algorithm == "sgp" else 0
    if schedule.start > t0:
        raise ValueError(
            f"schedule {schedule.kind} starts at t={schedule.start} but the run starts at t={t0}"
        )
    if algorithm == "sgp":
        if any(o is None for o in oracles):
            raise ValueError("sgp needs a gradient oracle")
        if not obj.smooth:
            raise ValueError("sgp needs a differentiable objective")
        if obj.lambda_bar is None:
            raise ValueError("sgp needs a strongly convex objective")
        if any(o.noise_bounds.shape != (seq.n,) for o in oracles):
            raise ValueError("oracle noise bounds must have one entry per agent")
    if algorithm == "heterogeneous":
        default = bernoulli_signal(0.5, seed=0 if seed is None else seed)
        signals = [default if s is None else s for s in signals]
    elif any(s is not None for s in signals):
        raise ValueError(f"{algorithm} takes no switching signal")
    else:
        constant = all_zeros_signal() if algorithm == "push_subgradient" else all_ones_signal()
        signals = [constant] * replicas
    if algorithm != "sgp" and any(o is not None for o in oracles):
        raise ValueError(f"{algorithm} takes no gradient oracle")

    mixing = resolve_weight_sequence(seq, weights, horizon)
    n = seq.n
    x = _agent_rows(x0, n, "x0")
    if x.shape[1] != obj.d:
        raise ValueError(f"x0 has d={x.shape[1]} but the objective has d={obj.d}")
    y = np.ones(n) if y0 is None else _initial_mass(y0, n, "y0")

    # the gradient of every kind is elementwise in the residuals, so one
    # call serves the ratios of all replicas
    anchors, kernel = obj.anchors, obj._gradient_kernel(obj.scales[:, np.newaxis])
    noise = None
    if oracles[0] is None:
        def gradient(z: np.ndarray, out: np.ndarray) -> None:
            kernel(np.subtract(z, anchors, out=z), out=out)
    else:
        def noise(t: int, out: np.ndarray) -> None:
            # each replica's noise rows of the steps from t, into (steps, S, n, d)
            for r, o in enumerate(oracles):
                out[:, r] = o.noise_table(t, len(out), obj.d)

        def gradient(z: np.ndarray, out: np.ndarray) -> None:
            # kernel + noise: the same sum as noise + kernel, bit for bit
            out += kernel(np.subtract(z, anchors, out=z), out=z)

    run = run_dynamics(
        algorithm,
        mixing,
        np.broadcast_to(x, (replicas, n, obj.d)),
        y,
        t0,
        gradient,
        schedule.alphas(t0, horizon),
        _stacked_rows(signals, t0, horizon, n),
        noise,
    )
    return run if batched else run[0]


def replica_group_size(n: int, d: int, steps: int) -> int:
    """How many replicas of an n-agent, d-dimensional run over ``steps``
    steps fit in ``REPLICA_BYTES`` (at least one): each holds states,
    gradient rows, noise rows and switching rows of every step."""
    return max(1, REPLICA_BYTES // (8 * n * (steps + 1) * (3 * d + 1)))


def _stacked_rows(signals: list[SwitchingSignal], t0: int, steps: int, n: int) -> np.ndarray:
    """The (steps, S, n) switching rows of S replicas. One signal shared
    by all of them is drawn once and broadcast, so a constant one stays
    a read-only view of one number."""
    first = signals[0]
    if all(s is first for s in signals):
        return np.broadcast_to(first.rows(t0, steps, n)[:, np.newaxis], (steps, len(signals), n))
    out = np.empty((steps, len(signals), n))
    for r, s in enumerate(signals):  # one signal's rows at a time
        out[:, r] = s.rows(t0, steps, n)
    return out
