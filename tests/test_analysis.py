import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pushsumlab.analysis import (
    BoundInputs,
    bound_heterogeneous,
    bound_inputs_from_trace,
    bound_per_agent,
    bound_sgp,
    bound_subgradient_push_fixed,
    bound_subgradient_push_varying,
    compute_metrics,
    consensus_error_series,
    estimate_k1,
    fit_rate,
    k2_constant,
    lyapunov_series,
    running_average_iterates,
    sgp_constants,
    verify_descent_recursion,
)
from pushsumlab.analysis import _largest_row_norm, _linfit, _varying_bound_series
from pushsumlab.graphs import generate_sequence
from pushsumlab.optim import (
    GradientOracle,
    absolute_deviation_objective,
    fixed_inv_sqrt,
    harmonic,
    quadratic_objective,
    run_optimizer,
    sgp_strong,
)
from pushsumlab.pushsum import MixingSequence, TheoreticalConstants, Trace, run_pushsum


def make_trace(zw_values, alphas, n=1):
    """Hand-built single-coordinate trace with y = 1 everywhere, so the
    mass-weighted average equals the per-agent value (n = 1)."""
    steps = len(alphas)
    xs = np.array(zw_values, dtype=float).reshape(steps + 1, n, 1)
    ys = np.ones((steps + 1, n))
    w = np.full((steps, n, n), 1.0 / n)
    return Trace(
        algorithm="subgradient_push",
        t0=0,
        xs=xs,
        ys=ys,
        w_mats=MixingSequence(np.arange(steps), w),
        kappa=float(n),
        alphas=np.asarray(alphas, dtype=float),
        gs=np.zeros((steps, n, 1)),
    )


def simple_inputs(**overrides):
    base = dict(
        n=1,
        grad_bound=1.0,
        eta=1.0,
        mu=0.0,
        z_bar0=np.array([0.0]),
        z0=np.array([[0.0]]),
        x0=np.array([[0.0]]),
        g0=np.array([[1.0]]),
        z_star=np.array([0.0]),
        horizon=100,
    )
    base.update(overrides)
    return BoundInputs(**base)


def reference_varying_bound(inputs, t, het=False, k=None):
    """The varying-step ceiling at t with its weighted sums as plain
    loops, term by term as stated; the reference for the series."""
    g, eta, mu, n = inputs.grad_bound, inputs.eta, inputs.mu, inputs.n
    a = [float(v) for v in inputs.alphas[: t + 1]]
    big_a = sum(a)
    big_a2 = sum(v * v for v in a)
    s1 = sum(a[tau] * mu**tau for tau in range(t))
    s2 = sum(a[tau] * (a[0] * mu ** (tau / 2.0) + a[math.ceil(tau / 2)]) for tau in range(t))
    if k is None:
        spread = 2.0 * inputs.sum_initial_spread()
    else:
        spread = inputs.sum_initial_spread() + inputs.sum_agent_spread(k)
    head = (inputs.initial_gap_sq() + g * g * big_a2) / (2.0 * big_a) + g * a[0] * spread / (n * big_a)
    if het and mu == 0.0:
        s3 = sum(a[j] * a[j - 1] for j in range(1, t + 1))
        return head + (4.0 * n * g * g / eta) * s3 / big_a
    if het:
        return (
            head
            + (32.0 * g * inputs.sum_x0_norm() / eta) * s1 / big_a
            + (32.0 * n * g * g / (eta * mu * (1.0 - mu))) * s2 / big_a
        )
    return (
        head
        + (32.0 * g / eta) * s1 / big_a * inputs.sum_corrected_init(a[0])
        + (32.0 * n * g * g / (eta * (1.0 - mu))) * s2 / big_a
    )


def reference_descent_violation(trace):
    """The descent-recursion check as a per-step loop."""
    zw = trace.z_weighted
    worst = 0.0
    for k in range(trace.steps):
        predicted = zw[k] - (trace.alphas[k] / trace.kappa) * trace.gs[k].sum(axis=0)
        worst = max(worst, float(np.max(np.abs(zw[k + 1] - predicted))))
    return worst


class TestSeries:
    def test_consensus_error_hand_example(self):
        tr = make_trace([[0.0, 2.0], [1.0, 1.0]], alphas=[1.0], n=2)
        series = consensus_error_series(tr)
        assert series[tr.index_of(0)] == 1.0
        assert series[tr.index_of(1)] == 0.0
        assert np.array_equal(series, [1.0, 0.0])

    def test_lyapunov(self):
        tr = make_trace([0.0, 4.0, 2.0], alphas=[1.0, 1.0])
        assert np.array_equal(lyapunov_series(tr, [2.0]), [4.0, 4.0, 0.0])

    def test_consensus_error_is_the_norm_of_the_centred_ratios(self):
        seq = generate_sequence("random-spanning", n=5, horizon=20, seed=3, params={"window": 2})
        tr = run_pushsum(seq, "default", np.arange(15.0).reshape(5, 3) ** 1.5, 20)
        centred = tr.zs - tr.z_weighted[:, np.newaxis, :]
        expected = np.max(np.linalg.norm(centred, axis=2), axis=1)
        assert np.array_equal(consensus_error_series(tr), expected)

    def test_running_average_weights(self):
        tr = make_trace([0.0, 4.0, 2.0, 7.0], alphas=[1.0, 1.0, 2.0])
        net, per_agent = running_average_iterates(tr)
        assert np.allclose(net[:, 0], [0.0, 2.0, 2.0])
        assert np.allclose(per_agent[:, 0, 0], [0.0, 2.0, 2.0])

    def test_running_average_needs_steps(self):
        seq = generate_sequence("static-complete", n=2, horizon=4)
        tr = run_pushsum(seq, "default", [0.0, 2.0], 4)
        with pytest.raises(ValueError):
            running_average_iterates(tr)


class TestFixedStepBound:
    def test_worked_example(self):
        # zero starts, unit gradient bound, perfect mixing, T = 100:
        # 1/(2 sqrt(T)) + 32 |g0| / (sqrt(T) T) + 32 / sqrt(T)
        b = bound_subgradient_push_fixed(simple_inputs())
        assert b == pytest.approx(0.05 + 0.032 + 3.2, rel=1e-12)

    def test_scaling_in_horizon(self):
        zeroed = simple_inputs(g0=np.array([[0.0]]))
        b100 = bound_subgradient_push_fixed(zeroed)
        b400 = bound_subgradient_push_fixed(simple_inputs(g0=np.array([[0.0]]), horizon=400))
        assert b400 == pytest.approx(b100 / 2.0, rel=1e-12)

    def test_monotone_in_gradient_bound(self):
        b1 = bound_subgradient_push_fixed(simple_inputs())
        b2 = bound_subgradient_push_fixed(simple_inputs(grad_bound=2.0))
        assert b2 > b1

    def test_monotone_in_eta_and_mu(self):
        base = simple_inputs(n=2, z0=np.zeros((2, 1)), x0=np.zeros((2, 1)), g0=np.ones((2, 1)))
        worse_eta = simple_inputs(
            n=2, z0=np.zeros((2, 1)), x0=np.zeros((2, 1)), g0=np.ones((2, 1)), eta=0.5
        )
        worse_mu = simple_inputs(
            n=2, z0=np.zeros((2, 1)), x0=np.zeros((2, 1)), g0=np.ones((2, 1)), mu=0.5
        )
        b = bound_subgradient_push_fixed(base)
        assert bound_subgradient_push_fixed(worse_eta) > b
        assert bound_subgradient_push_fixed(worse_mu) > b

    def test_requires_horizon(self):
        with pytest.raises(ValueError):
            bound_subgradient_push_fixed(simple_inputs(horizon=None))


class TestVaryingStepBound:
    def test_hand_computed_sums(self):
        # alphas (1, 1, 2), mu = 1/2, t = 2, x0 = 1, g0 = 0:
        # A = 4, A2 = 6, S1 = 1.5, S2 = 3 + sqrt(1/2)
        inputs = simple_inputs(
            mu=0.5,
            x0=np.array([[1.0]]),
            g0=np.array([[0.0]]),
            alphas=np.array([1.0, 1.0, 2.0]),
        )
        b = bound_subgradient_push_varying(inputs, 2)
        expected = 6.0 / 8.0 + 32.0 * (1.5 / 4.0) + (32.0 / 0.5) * ((3.0 + math.sqrt(0.5)) / 4.0)
        assert b == pytest.approx(expected, rel=1e-12)

    def test_needs_alphas_and_t(self):
        with pytest.raises(ValueError):
            bound_subgradient_push_varying(simple_inputs(), 2)
        inputs = simple_inputs(alphas=np.array([1.0]))
        with pytest.raises(ValueError):
            bound_subgradient_push_varying(inputs, 5)

    def test_vectorized_series_matches_scalar(self):
        rng = np.random.default_rng(17)
        alphas = 1.0 / np.sqrt(np.arange(1, 41))
        for mu in (0.0, 0.3, 0.9):
            inputs = simple_inputs(
                n=3,
                mu=mu,
                z_bar0=np.array([1.0]),
                z0=rng.standard_normal((3, 1)),
                x0=rng.standard_normal((3, 1)),
                g0=rng.standard_normal((3, 1)),
                alphas=alphas,
                horizon=40,
            )
            series = _varying_bound_series(inputs, het=False)
            for t in (0, 1, 17, 39):
                assert series[t] == pytest.approx(
                    bound_subgradient_push_varying(inputs, t), rel=1e-12
                )
            series_h = _varying_bound_series(inputs, het=True)
            for t in (0, 1, 17, 39):
                assert series_h[t] == pytest.approx(
                    bound_heterogeneous(inputs, "varying", t=t), rel=1e-12
                )


    def test_entry_points_match_the_loop_reference(self):
        # cumulative sums add in another order than the loops: agree to 1e-12
        rng = np.random.default_rng(5)
        alphas = rng.uniform(0.05, 1.0, size=40)
        for mu in (0.0, 0.3, 0.9):
            inputs = simple_inputs(
                n=3,
                mu=mu,
                z_bar0=np.array([0.2]),
                z0=rng.standard_normal((3, 1)),
                x0=rng.standard_normal((3, 1)),
                g0=rng.standard_normal((3, 1)),
                alphas=alphas,
                horizon=40,
            )
            for t in (0, 1, 17, 39):
                for k in (None, 1):
                    expected = reference_varying_bound(inputs, t, het=True, k=k)
                    got = bound_heterogeneous(inputs, "varying", k=k, t=t)
                    assert got == pytest.approx(expected, rel=1e-12)
                assert bound_subgradient_push_varying(inputs, t) == pytest.approx(
                    reference_varying_bound(inputs, t), rel=1e-12
                )
                assert bound_per_agent(inputs, 1, "varying", t=t) == pytest.approx(
                    reference_varying_bound(inputs, t, k=1), rel=1e-12
                )

    def test_scalar_is_the_series_entry(self):
        # every varying-step entry point reads the one series, bit for bit
        rng = np.random.default_rng(3)
        alphas = rng.uniform(0.05, 1.0, size=30)
        for mu in (0.0, 0.6):
            inputs = simple_inputs(
                n=3,
                mu=mu,
                z_bar0=np.array([0.5]),
                z0=rng.standard_normal((3, 1)),
                x0=rng.standard_normal((3, 1)),
                g0=rng.standard_normal((3, 1)),
                alphas=alphas,
                horizon=30,
            )
            for het in (False, True):
                for k in (None, 2):
                    series = _varying_bound_series(inputs, het, k=k)
                    for t in (0, 1, 14, 29):
                        if het:
                            scalar = bound_heterogeneous(inputs, "varying", k=k, t=t)
                        elif k is None:
                            scalar = bound_subgradient_push_varying(inputs, t)
                        else:
                            scalar = bound_per_agent(inputs, k, "varying", t=t)
                        assert scalar == series[t]


class TestPerAgentBound:
    def test_spread_term_uses_single_g(self):
        # starts (0, 0, 3): network spread 4, agent-2 spread 6
        z0 = np.array([[0.0], [0.0], [3.0]])
        inputs = simple_inputs(
            n=3, z_bar0=np.array([1.0]), z0=z0, x0=np.zeros((3, 1)), g0=np.zeros((3, 1))
        )
        network = bound_subgradient_push_fixed(inputs)
        far_agent = bound_per_agent(inputs, 2, "fixed")
        near_agent = bound_per_agent(inputs, 0, "fixed")
        assert far_agent > network
        assert near_agent < network
        # head terms: G (4 + 6) / (nT) vs 2 G 4 / (nT)
        assert far_agent - network == pytest.approx((10.0 - 8.0) / 300.0, rel=1e-9)

    def test_varying_variant(self):
        z0 = np.array([[0.0], [0.0], [3.0]])
        inputs = simple_inputs(
            n=3,
            z_bar0=np.array([1.0]),
            z0=z0,
            x0=np.zeros((3, 1)),
            g0=np.zeros((3, 1)),
            alphas=np.full(10, 0.1),
        )
        assert bound_per_agent(inputs, 2, "varying", t=9) > bound_per_agent(
            inputs, 0, "varying", t=9
        )

    def test_agent_index_checked(self):
        with pytest.raises(ValueError):
            bound_per_agent(simple_inputs(), 1, "fixed")


class TestHeterogeneousBound:
    def test_rank_one_fixed(self):
        # mu = 0: tail term collapses to 4 n G^2 / (eta sqrt(T))
        inputs = simple_inputs()
        b = bound_heterogeneous(inputs, "fixed")
        assert b == pytest.approx(0.05 + 0.4, rel=1e-12)

    def test_rank_one_varying_hand_sums(self):
        inputs = simple_inputs(alphas=np.array([1.0, 1.0, 2.0]))
        b = bound_heterogeneous(inputs, "varying", t=2)
        # head 6/8 plus 4 (alpha1 alpha0 + alpha2 alpha1) / A = 0.75 + 3
        assert b == pytest.approx(3.75, rel=1e-12)

    def test_general_uses_x0_norm_and_extra_mu(self):
        inputs = simple_inputs(mu=0.5, x0=np.array([[2.0]]))
        b = bound_heterogeneous(inputs, "fixed")
        expected = (
            0.0
            + (0.0 + 1.0) / (2.0 * 10.0)
            + 32.0 * 2.0 / (1.0 * 0.5 * 100.0)
            + 32.0 / (1.0 * 0.5 * 0.5 * 10.0)
        )
        assert b == pytest.approx(expected, rel=1e-12)

    def test_per_agent_head(self):
        z0 = np.array([[0.0], [0.0], [3.0]])
        inputs = simple_inputs(
            n=3, z_bar0=np.array([1.0]), z0=z0, x0=np.zeros((3, 1)), g0=np.zeros((3, 1))
        )
        net = bound_heterogeneous(inputs, "fixed")
        agent = bound_heterogeneous(inputs, "fixed", k=2)
        assert agent - net == pytest.approx((10.0 - 8.0) / 300.0, rel=1e-9)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            bound_heterogeneous(simple_inputs(), "nope")


class TestStochasticConstants:
    def test_k2_closed_form_at_inverse_e(self):
        assert k2_constant(math.exp(-1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_k2_dominates_t_mu_pow_t(self):
        ts = np.arange(1, 1001, dtype=float)
        for mu in (0.1, 0.5, 0.9):
            k2 = k2_constant(mu)
            assert np.all(k2 >= ts * mu**ts - 1e-15)
            # and it is tight: the max over integer t comes close
            assert np.max(ts * mu**ts) > 0.5 * k2

    def test_k2_requires_open_interval(self):
        for mu in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                k2_constant(mu)

    def test_estimate_k1_zero_noise_is_exact(self):
        obj = quadratic_objective([[0.0], [2.0]])
        oracle = GradientOracle([0.0, 0.0], seed=0)
        x1 = np.array([[4.0], [6.0]])
        alpha1 = 0.5
        k1, se = estimate_k1(obj, oracle, x1, alpha1, draws=50)
        expected = sum(
            float(np.linalg.norm(x1[i] + alpha1 * obj.subgradient(i, x1[i])))
            for i in range(2)
        )
        assert k1 == pytest.approx(expected, rel=1e-12)
        assert se == 0.0

    def test_estimate_k1_noise_within_bounds(self):
        obj = quadratic_objective([[0.0], [2.0]])
        oracle = GradientOracle([0.5, 0.5], seed=1)
        x1 = np.array([[4.0], [6.0]])
        k1, se = estimate_k1(obj, oracle, x1, 0.5, draws=400)
        base, _ = estimate_k1(obj, GradientOracle([0.0, 0.0]), x1, 0.5, draws=1)
        assert abs(k1 - base) <= 0.5  # noise radius caps the shift
        assert se > 0.0

    def test_sgp_constants_formula(self):
        inputs = simple_inputs(
            n=2,
            mu=0.5,
            z0=np.zeros((2, 1)),
            x0=np.zeros((2, 1)),
            g0=np.zeros((2, 1)),
            lambda_bar=1.0,
            gamma_bar=1.0,
            k1=1.0,
        )
        sc = sgp_constants(inputs)
        k2 = k2_constant(0.5)
        expected = 4.0 + 128.0 * k2 / 0.25 + 512.0 * 2.0 * (k2 + 1.0) / 0.25
        assert sc.c == pytest.approx(expected, rel=1e-12)

    def test_sgp_constants_need_mu_inside(self):
        with pytest.raises(ValueError):
            sgp_constants(simple_inputs(mu=0.0, k1=1.0, lambda_bar=1.0))

    def test_sgp_constants_reject_zero_gradient_bound(self):
        # C divides by G
        with pytest.raises(ValueError, match="G = 0"):
            sgp_constants(simple_inputs(grad_bound=0.0, mu=0.5, k1=1.0, lambda_bar=1.0))


class TestSgpBounds:
    def make_inputs(self):
        return simple_inputs(
            n=2,
            mu=0.5,
            z0=np.zeros((2, 1)),
            x0=np.zeros((2, 1)),
            g0=np.zeros((2, 1)),
            lambda_bar=1.0,
            gamma_bar=2.0,
            k1=1.0,
        )

    def test_state_bound_formula(self):
        inputs = self.make_inputs()
        sc = sgp_constants(inputs)
        t = 10
        expected = (
            8.0 * sc.c / t
            + 128.0 * 2.0 / (0.5 * (t - 1.0))
            + 32.0 * 0.5 ** (t - 2.0)
            + (64.0 * 2.0 / 0.5) * 0.5 ** ((t - 1.0) / 2.0)
        )
        assert bound_sgp(inputs, t, "state") == pytest.approx(expected, rel=1e-12)

    def test_f_agent_is_gamma_scaled_half(self):
        inputs = self.make_inputs()
        t = 25
        assert bound_sgp(inputs, t, "f_agent") == pytest.approx(
            0.5 * inputs.gamma_bar * bound_sgp(inputs, t, "state"), rel=1e-12
        )

    def test_average_bounds(self):
        inputs = self.make_inputs()
        sc = sgp_constants(inputs)
        assert bound_sgp(inputs, 4, "f_average") == pytest.approx(
            2.0 * sc.c * 2.0 / 5.0, rel=1e-12
        )
        assert bound_sgp(inputs, 4, "state_average") == pytest.approx(
            4.0 * sc.c / 4.0, rel=1e-12
        )

    def test_time_gates(self):
        inputs = self.make_inputs()
        with pytest.raises(ValueError):
            bound_sgp(inputs, 1, "state")
        with pytest.raises(ValueError):
            bound_sgp(inputs, 0, "f_average")
        with pytest.raises(ValueError):
            bound_sgp(inputs, 2, "nope")

    def test_bounds_shrink_with_time(self):
        inputs = self.make_inputs()
        for which in ("state", "f_agent", "f_average", "state_average"):
            assert bound_sgp(inputs, 1000, which) < bound_sgp(inputs, 10, which)


class TestBoundInputsFromTrace:
    def test_realized_quantities(self):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=30)
        obj = absolute_deviation_objective([[0.0], [1.0], [5.0]])
        tr = run_optimizer("subgradient_push", seq, obj, harmonic(0.5, 1.0), x0=np.zeros((3, 1)))
        inputs = bound_inputs_from_trace(tr, obj, mu=0.9)
        assert inputs.eta == float(tr.ys.min())
        assert inputs.grad_bound == pytest.approx(1.0)
        assert np.array_equal(inputs.x0, tr.xs[0])
        assert inputs.alphas is not None and len(inputs.alphas) == 30

    def test_eta_override(self):
        seq = generate_sequence("static-complete", n=2, horizon=5)
        obj = absolute_deviation_objective([[0.0], [2.0]])
        tr = run_optimizer("subgradient_push", seq, obj, fixed_inv_sqrt(5), x0=[[4.0], [6.0]])
        inputs = bound_inputs_from_trace(tr, obj, mu=0.75, eta=0.25)
        assert inputs.eta == 0.25

    def test_mu_validated(self):
        with pytest.raises(ValueError):
            simple_inputs(mu=1.0)

    def test_zero_gradients_infer_a_zero_bound(self):
        # every agent starts at the common minimizer: every applied gradient is zero
        seq = generate_sequence("static-complete", n=2, horizon=20)
        obj = absolute_deviation_objective([[1.0], [1.0]])
        tr = run_optimizer("subgradient_push", seq, obj, fixed_inv_sqrt(20), x0=[[1.0], [1.0]])
        assert not tr.gs.any()
        assert bound_inputs_from_trace(tr, obj, mu=0.75).grad_bound == 0.0

    def test_zero_gradient_bound_leaves_the_initial_gap(self):
        alphas = np.full(20, 1.0 / math.sqrt(20))
        inputs = simple_inputs(grad_bound=0.0, mu=0.5, z_bar0=np.array([3.0]), alphas=alphas, horizon=20)
        gap = inputs.initial_gap_sq()
        assert gap == 9.0
        assert bound_subgradient_push_fixed(inputs) == gap / (2.0 * math.sqrt(20))
        assert bound_heterogeneous(inputs, "fixed") == gap / (2.0 * math.sqrt(20))
        varying = _varying_bound_series(inputs, het=False)
        assert np.array_equal(varying, gap / (2.0 * np.cumsum(alphas)))

    def test_negative_gradient_bound_rejected(self):
        for g in (-1.0, math.nan):
            with pytest.raises(ValueError, match="grad_bound must be non-negative"):
                simple_inputs(grad_bound=g)

    def test_trace_without_gradients_takes_the_objective_bound(self):
        # a pure mixing trace applied no gradient: G is the objective's
        # a-priori bound, and an objective without one cannot give it
        seq = generate_sequence("rotating-single-edge", n=3, horizon=10)
        tr = run_pushsum(seq, "default", np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]]))
        assert tr.gs is None
        obj = absolute_deviation_objective(np.zeros((3, 2)))
        assert bound_inputs_from_trace(tr, obj, mu=0.5).grad_bound == obj.grad_norm_bound == math.sqrt(2)
        with pytest.raises(ValueError, match="cannot infer a gradient bound; pass grad_bound"):
            bound_inputs_from_trace(tr, quadratic_objective(np.zeros((3, 2))), mu=0.5)

    def test_reads_only_the_initial_states(self):
        seq = generate_sequence("random-spanning", n=4, horizon=30, seed=2, params={"window": 2})
        obj = quadratic_objective(np.arange(8.0).reshape(4, 2))
        tr = run_optimizer(
            "push_subgradient", seq, obj, harmonic(0.5, 1.0), x0=np.ones((4, 2)), y0=[0.5, 1, 2, 3]
        )
        inputs = bound_inputs_from_trace(tr, obj, mu=0.9)
        assert np.array_equal(inputs.z0, tr.zs[0])
        assert np.array_equal(inputs.z_bar0, tr.z_weighted[0])


class TestLargestRowNorm:
    def test_bits_of_the_norm_over_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            d = int(rng.integers(1, 13))
            scale = 10.0 ** float(rng.choice([-200, -100, 0, 100, 200]))
            gs = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6)), d)) * scale
            with np.errstate(over="ignore"):  # at 1e200 both square to inf
                assert _largest_row_norm(gs) == float(np.max(np.linalg.norm(gs, axis=2)))

    def test_holds_one_square_and_one_sum(self):
        # the norm's square, sum and root would take three (steps, n) arrays at d = 1
        gs = np.random.default_rng(1).standard_normal((2000, 50, 1))
        _largest_row_norm(gs)
        tracemalloc.start()
        try:
            _largest_row_norm(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * gs.nbytes, peak


class TestRateFit:
    def test_power_law_recovered(self):
        t = np.arange(1, 201, dtype=float)
        fit = fit_rate(5.0 * t**-0.7, times=t)
        assert fit.power_slope == pytest.approx(-0.7, abs=1e-9)
        assert fit.power_r2 > 0.999

    def test_geometric_recovered(self):
        t = np.arange(120, dtype=float)
        fit = fit_rate(3.0 * 0.98**t, times=t)
        assert fit.geo_rate == pytest.approx(0.98, rel=1e-9)
        assert fit.geo_r2 > 0.999

    def test_nonpositive_filtered(self):
        t = np.arange(1, 101, dtype=float)
        v = 5.0 * t**-0.5
        v[60] = 0.0
        v[70] = -1.0
        fit = fit_rate(v, times=t)
        assert fit.n_filtered == 2
        assert fit.power_slope == pytest.approx(-0.5, abs=1e-3)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(10), min_points=20)

    def test_tail_fraction_bounds(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(100), tail_fraction=0.0)

    @pytest.mark.parametrize("min_points", [1, 0, -5])
    def test_a_line_needs_two_points(self, min_points):
        with pytest.raises(ValueError, match=f"^min_points must be at least 2 to fit a line, got {min_points}$"):
            fit_rate(np.ones(1), min_points=min_points)

    def test_a_line_needs_two_distinct_times(self):
        with pytest.raises(ValueError, match="^rate fit needs at least two distinct times, got only t=3$"):
            fit_rate([1.0, 0.5, 0.25], times=[3, 3, 3], tail_fraction=1.0, min_points=2)
        # only the tail's times count
        with pytest.raises(ValueError, match="two distinct times"):
            fit_rate([1.0, 0.5, 0.25, 0.2], times=[1, 2, 3, 3], tail_fraction=0.5, min_points=2)


def exact_line(xs, ys):
    """The least-squares slope and intercept in exact rational arithmetic."""
    x, y = [Fraction(float(v)) for v in xs], [Fraction(float(v)) for v in ys]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    sxx = sum((a - x_mean) ** 2 for a in x)
    slope = sxy / sxx
    return slope, y_mean - slope * x_mean


def line_cases():
    """(xs, ys) pairs: random points, and points within 1e-9 of a line,
    over the x ranges fit_rate sees (log t and t)."""
    rng = np.random.default_rng(3)
    cases = []
    for xs in (np.log(np.arange(50.0, 101.0)), np.arange(500.0, 1001.0), rng.uniform(-3.0, 7.0, 200)):
        cases.append((xs, rng.standard_normal(len(xs)) + 0.5 * xs + 2.0))
        cases.append((xs, 1.5 - 0.7 * xs + 1e-9 * rng.standard_normal(len(xs))))
    return cases


class TestClosedFormFit:
    @pytest.mark.parametrize("case", range(6))
    def test_matches_exact_arithmetic(self, case):
        xs, ys = line_cases()[case]
        slope, intercept, _ = _linfit(xs, ys)
        exact_slope, exact_intercept = exact_line(xs, ys)
        assert slope == pytest.approx(float(exact_slope), rel=1e-12, abs=0.0)
        assert intercept == pytest.approx(float(exact_intercept), rel=1e-12, abs=0.0)

    def test_power_law_recovered_exactly(self):
        t = np.arange(1.0, 401.0)
        fit = fit_rate(7.0 * t**-0.5, times=t)
        assert fit.power_slope == pytest.approx(-0.5, rel=1e-12, abs=0.0)
        assert fit.power_r2 == pytest.approx(1.0, rel=1e-12)

    def test_geometric_recovered_exactly(self):
        t = np.arange(1.0, 301.0)
        fit = fit_rate(4.0 * 0.9**t, times=t)
        assert fit.geo_rate == pytest.approx(0.9, rel=1e-12, abs=0.0)
        assert fit.geo_r2 == pytest.approx(1.0, rel=1e-12)

    def test_no_least_squares_library_call(self, monkeypatch):
        t = np.arange(1.0, 201.0)
        values = 3.0 * t**-0.7 * (1.0 + 0.1 * np.sin(t))
        want = fit_rate(values, times=t)

        def refuse(*args, **kwargs):
            raise AssertionError("the rate fit called a least-squares routine")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        assert fit_rate(values, times=t) == want

    @pytest.mark.parametrize("length", [20, 201, 1000])
    @pytest.mark.parametrize("value", [4.440892098500626e-16, 1.0, 3e7])
    def test_constant_series_fits_flat(self, length, value):
        # a flat tail whose rounded mean differs from its values is still flat
        fit = fit_rate(np.full(length, value), times=np.arange(1.0, length + 1.0), tail_fraction=1.0)
        assert (fit.power_slope, fit.geo_rate) == (0.0, 1.0)
        assert (fit.power_r2, fit.geo_r2) == (1.0, 1.0)


class TestDescentRecursionCheck:
    def test_consistent_trace_passes(self):
        seq = generate_sequence("static-complete", n=2, horizon=20)
        obj = absolute_deviation_objective([[0.0], [2.0]])
        tr = run_optimizer("subgradient_push", seq, obj, fixed_inv_sqrt(20), x0=[[4.0], [6.0]])
        assert verify_descent_recursion(tr) < 1e-14

    def test_tampered_gradients_detected(self):
        seq = generate_sequence("static-complete", n=2, horizon=20)
        obj = absolute_deviation_objective([[0.0], [2.0]])
        tr = run_optimizer("subgradient_push", seq, obj, fixed_inv_sqrt(20), x0=[[4.0], [6.0]])
        tr.gs[5] += 1.0
        assert verify_descent_recursion(tr) > 1e-3

    def test_matches_the_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for trial, algorithm in enumerate(
            ["subgradient_push", "push_subgradient", "heterogeneous", "sgp"] * 3
        ):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 4))
            seq = generate_sequence(
                "random-spanning", n=n, horizon=40, seed=trial, params={"window": 2}
            )
            anchors = rng.standard_normal((n, d))
            extra = {}
            if algorithm == "sgp":
                obj = quadratic_objective(anchors)
                extra["oracle"] = GradientOracle(np.full(n, 0.3), seed=trial)
            else:
                obj = absolute_deviation_objective(anchors)
            tr = run_optimizer(
                algorithm, seq, obj, harmonic(0.5, 0.75), x0=3.0 * rng.standard_normal((n, d)),
                seed=trial, **extra,
            )
            assert verify_descent_recursion(tr) == reference_descent_violation(tr)

    def test_needs_optimizer_trace(self):
        seq = generate_sequence("static-complete", n=2, horizon=5)
        tr = run_pushsum(seq, "default", [0.0, 2.0], 5)
        with pytest.raises(ValueError):
            verify_descent_recursion(tr)


class TestComputeMetrics:
    def test_pushsum_trace_gets_consensus_only(self):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=50)
        tr = run_pushsum(seq, "default", [1.0, 2.0, 3.0, 4.0], 50)
        m = compute_metrics(tr)
        assert len(m.consensus) == 51
        assert m.f_gap_avg is None and m.bound_varying is None and m.bounds is None

    def test_optimizer_trace_full_columns(self):
        seq = generate_sequence("static-complete", n=2, horizon=40)
        obj = absolute_deviation_objective([[0.0], [2.0]])
        sched = fixed_inv_sqrt(40)
        tr = run_optimizer("subgradient_push", seq, obj, sched, x0=[[4.0], [6.0]])
        m = compute_metrics(tr, obj, sched, constants=TheoreticalConstants(0.25, 0.75))
        assert len(m.f_gap_avg) == 40
        assert m.bound_fixed is not None
        assert len(m.bound_varying) == 40
        assert np.all(np.asarray(m.f_gap_avg) <= m.bound_varying + 1e-12)
        assert m.bounds["fixed_realized"] == m.bound_fixed
        assert m.bounds["varying_final_realized"] == m.bound_varying[-1]
        assert (m.bounds["mu_used"], m.bounds["eta_apriori"]) == (0.75, 0.25)

    def test_fixed_bound_only_for_matching_schedule(self):
        seq = generate_sequence("static-complete", n=2, horizon=40)
        obj = absolute_deviation_objective([[0.0], [2.0]])
        sched = harmonic(0.5, 1.0)
        tr = run_optimizer("subgradient_push", seq, obj, sched, x0=[[4.0], [6.0]])
        m = compute_metrics(tr, obj, sched, constants=TheoreticalConstants(0.25, 0.75))
        assert m.bound_fixed is None
        assert m.bound_varying is not None
        assert "fixed_realized" not in m.bounds

    def test_sgp_trace_gets_no_bound_columns(self):
        seq = generate_sequence("static-complete", n=2, horizon=40)
        obj = quadratic_objective([[0.0], [2.0]])
        tr = run_optimizer(
            "sgp", seq, obj, sgp_strong(obj.lambda_bar), x0=[[4.0], [6.0]],
            oracle=GradientOracle([0.2, 0.2], seed=0),
        )
        m = compute_metrics(
            tr, obj, sgp_strong(obj.lambda_bar), constants=TheoreticalConstants(0.25, 0.75)
        )
        assert m.bound_varying is None and m.bound_fixed is None and m.bounds is None
        assert m.f_gap_avg is not None

    def test_agent_index_checked(self):
        seq = generate_sequence("static-complete", n=2, horizon=5)
        tr = run_pushsum(seq, "default", [0.0, 2.0], 5)
        with pytest.raises(ValueError):
            compute_metrics(tr, agent=2)

    def test_takes_each_reduction_of_the_trace_once(self):
        # the consensus norms are taken in place, the gradient norm once
        # and no per-agent running average of every agent is built: the
        # transient stays within 4 trace-sized arrays, where taking
        # np.linalg.norm of the centred ratios alone held 5
        n, horizon = 60, 400
        seq = generate_sequence("random-spanning", n, horizon, 1, {"window": 2, "extra_arc_prob": 0.1})
        obj = absolute_deviation_objective(np.arange(n, dtype=float)[:, np.newaxis])
        sched = fixed_inv_sqrt(horizon)
        tr = run_optimizer("push_subgradient", seq, obj, sched, x0=np.zeros((n, 1)))
        constants = TheoreticalConstants(0.25, 0.75)
        expected = compute_metrics(tr, obj, sched, constants=constants)  # and warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            found = compute_metrics(tr, obj, sched, constants=constants)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * tr.xs.nbytes, (peak, tr.xs.nbytes)
        assert found.bounds == expected.bounds
        assert found.realized_grad_bound == float(np.max(np.linalg.norm(tr.gs, axis=2)))
        assert np.array_equal(found.consensus, consensus_error_series(tr))
        net, per_agent = running_average_iterates(tr)
        assert np.array_equal(found.f_gap_avg, obj.values(net) - obj.optimum()[1])
        assert np.array_equal(found.f_gap_agent, obj.values(per_agent[:, 0]) - obj.optimum()[1])
