import numpy as np
import pytest

from pushsumlab.graphs import generate_sequence
from pushsumlab.optim import (
    GradientOracle,
    Objective,
    absolute_deviation_objective,
    all_ones_signal,
    all_zeros_signal,
    alternating_signal,
    bernoulli_signal,
    constant_step,
    fixed_inv_sqrt,
    harmonic,
    huber_objective,
    quadratic_objective,
    run_optimizer,
    sgp_strong,
    table_signal,
)
from pushsumlab.pushsum import DEGENERATE_Y, DegenerateStateError, run_pushsum
from pushsumlab.weights import default_weights


class TestObjectives:
    def test_abs_value_and_subgradient(self):
        obj = absolute_deviation_objective([[0.0], [2.0]])
        assert obj.value([1.0]) == 1.0
        assert obj.component_value(1, [0.5]) == 1.5
        assert np.array_equal(obj.subgradient(0, [1.0]), [1.0])
        assert np.array_equal(obj.subgradient(1, [1.0]), [-1.0])
        # minimum-norm subgradient at the kink
        assert np.array_equal(obj.subgradient(0, [0.0]), [0.0])

    def test_abs_bound_and_optimum(self):
        obj = absolute_deviation_objective([[0.0, 0.0], [2.0, 4.0], [4.0, 8.0]])
        assert obj.grad_norm_bound == pytest.approx(np.sqrt(2.0))
        z_star, f_star = obj.optimum()
        assert np.array_equal(z_star, [2.0, 4.0])
        assert f_star == pytest.approx((2.0 + 4.0 + 0.0 + 0.0 + 2.0 + 4.0) / 3.0)

    def test_quadratic_value_gradient_optimum(self):
        obj = quadratic_objective([[0.0], [2.0]], scales=[1.0, 3.0])
        assert obj.value([1.0]) == pytest.approx(0.5 * (0.5 + 1.5))
        assert np.array_equal(obj.subgradient(1, [1.0]), [-3.0])
        z_star, _ = obj.optimum()
        assert np.allclose(z_star, [1.5])
        assert obj.lambda_bar == pytest.approx(2.0)
        assert obj.gamma_bar == pytest.approx(2.0)
        assert obj.grad_norm_bound is None

    def test_huber_matches_quadratic_inside_delta(self):
        obj = huber_objective([[0.0]], delta=2.0)
        assert obj.component_value(0, [1.0]) == pytest.approx(0.5)
        assert obj.component_value(0, [5.0]) == pytest.approx(2.0 * (5.0 - 1.0))
        assert np.array_equal(obj.subgradient(0, [1.0]), [1.0])
        assert np.array_equal(obj.subgradient(0, [5.0]), [2.0])
        assert obj.grad_norm_bound == pytest.approx(2.0)

    def test_huber_optimum_balances_clipped_gradients(self):
        obj = huber_objective([[0.0], [2.0], [10.0]], delta=1.0)
        z_star, _ = obj.optimum()
        assert z_star[0] == pytest.approx(2.0, abs=1e-10)

    def test_smoothness_flags(self):
        assert not absolute_deviation_objective([[0.0]]).smooth
        assert quadratic_objective([[0.0]]).smooth
        assert huber_objective([[0.0]]).smooth
        assert absolute_deviation_objective([[0.0]]).lambda_bar is None

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            Objective("abs", np.zeros((2, 1)), np.ones(3))
        with pytest.raises(ValueError):
            Objective("nope", np.zeros((2, 1)), np.ones(2))


class TestStepSchedules:
    def test_fixed_inv_sqrt(self):
        sched = fixed_inv_sqrt(100)
        assert sched.alpha(0) == 0.1
        assert sched.alpha(99) == 0.1
        assert not sched.satisfies_diminishing_conditions

    def test_harmonic_values(self):
        sched = harmonic(1.0, 1.0)
        assert sched.alpha(0) == 1.0
        assert sched.alpha(3) == 0.25
        assert sched.satisfies_diminishing_conditions

    def test_harmonic_power_window(self):
        assert harmonic(1.0, 0.75).satisfies_diminishing_conditions
        assert not harmonic(1.0, 0.5).satisfies_diminishing_conditions
        with pytest.raises(ValueError):
            harmonic(1.0, 1.5)
        with pytest.raises(ValueError):
            harmonic(0.0, 1.0)

    def test_sgp_strong_starts_at_one(self):
        sched = sgp_strong(1.0)
        assert sched.start == 1
        assert sched.alpha(4) == 0.5
        assert sched.satisfies_diminishing_conditions
        with pytest.raises(ValueError):
            sched.alpha(0)

    def test_constant(self):
        sched = constant_step(0.3)
        assert sched.alpha(7) == 0.3
        assert not sched.satisfies_diminishing_conditions


class TestSwitchingSignals:
    def test_all_ones_and_zeros(self):
        assert np.array_equal(all_ones_signal().row(5, 3), np.ones(3))
        assert np.array_equal(all_zeros_signal().row(5, 3), np.zeros(3))

    def test_alternating(self):
        sig = alternating_signal()
        assert np.array_equal(sig.row(0, 4), [0.0, 1.0, 0.0, 1.0])
        assert np.array_equal(sig.row(1, 4), [1.0, 0.0, 1.0, 0.0])

    def test_bernoulli_deterministic_and_binary(self):
        a = bernoulli_signal(0.5, seed=3)
        b = bernoulli_signal(0.5, seed=3)
        rows = np.stack([a.row(t, 6) for t in range(50)])
        assert np.array_equal(rows, np.stack([b.row(t, 6) for t in range(50)]))
        assert np.all((rows == 0.0) | (rows == 1.0))
        # roughly balanced at p = 0.5
        assert 0.3 < rows.mean() < 0.7

    def test_bernoulli_seed_changes_rows(self):
        a = np.stack([bernoulli_signal(0.5, seed=0).row(t, 8) for t in range(30)])
        b = np.stack([bernoulli_signal(0.5, seed=1).row(t, 8) for t in range(30)])
        assert not np.array_equal(a, b)

    def test_bernoulli_extreme_p(self):
        assert np.array_equal(bernoulli_signal(1.0, seed=0).row(4, 5), np.ones(5))
        assert np.array_equal(bernoulli_signal(0.0, seed=0).row(4, 5), np.zeros(5))

    def test_table(self):
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        sig = table_signal(table)
        assert np.array_equal(sig.row(0, 2), [1.0, 0.0])
        assert np.array_equal(sig.row(1, 2), [0.0, 1.0])
        with pytest.raises(ValueError):
            sig.row(2, 2)


class TestGradientOracle:
    def test_zero_noise_is_exact(self):
        obj = quadratic_objective([[0.0], [2.0]])
        oracle = GradientOracle([0.0, 0.0], seed=1)
        g = oracle.gradient(obj, 0, [3.0], t=5)
        assert np.array_equal(g, obj.subgradient(0, [3.0]))

    def test_noise_respects_bound(self):
        oracle = GradientOracle([0.4, 0.0, 1.5], seed=2)
        for t in range(200):
            for i, c in enumerate((0.4, 0.0, 1.5)):
                nv = oracle.noise(i, t, d=3)
                assert np.linalg.norm(nv) <= c + 1e-15

    def test_noise_addressed_not_streamed(self):
        oracle = GradientOracle([1.0], seed=9)
        first = oracle.noise(0, t=7, d=2)
        oracle.noise(0, t=3, d=2)
        assert np.array_equal(oracle.noise(0, t=7, d=2), first)
        assert not np.array_equal(oracle.noise(0, t=7, d=2, draw=1), first)

    def test_noise_has_spread(self):
        oracle = GradientOracle([1.0], seed=0)
        samples = np.stack([oracle.noise(0, t, d=1) for t in range(500)])
        assert abs(samples.mean()) < 0.1
        assert samples.std() > 0.2

    def test_requires_smooth_objective(self):
        obj = absolute_deviation_objective([[0.0]])
        oracle = GradientOracle([0.1], seed=0)
        with pytest.raises(ValueError):
            oracle.gradient(obj, 0, [1.0], t=0)


def two_agent_setup(horizon=6):
    seq = generate_sequence("static-complete", n=2, horizon=horizon)
    w = default_weights(seq[0])
    obj = absolute_deviation_objective([[0.0], [2.0]])
    return seq, w, obj


X0 = np.array([[4.0], [6.0]])


def one_step(algorithm, seq, obj, **kwargs):
    return run_optimizer(algorithm, seq, obj, constant_step(0.5), x0=X0, horizon=1, **kwargs)


class TestSingleSteps:
    # one-step runs from x0 = (4, 6), y0 = 1, where every abs subgradient is +1
    def test_subgradient_push_formula(self):
        seq, w, obj = two_agent_setup()
        tr = one_step("subgradient_push", seq, obj)
        g = np.array([[1.0], [1.0]])
        assert np.array_equal(tr.gs[0], g)
        assert np.array_equal(tr.xs[1], w.matrix @ (X0 - 0.5 * g))
        assert np.array_equal(tr.ys[1], w.matrix @ np.ones(2))

    def test_push_subgradient_formula(self):
        seq, w, obj = two_agent_setup()
        tr = one_step("push_subgradient", seq, obj)
        g = np.array([[1.0], [1.0]])
        assert np.array_equal(tr.xs[1], w.matrix @ X0 - 0.5 * g)

    def test_heterogeneous_mixes_both_orders(self):
        seq, w, obj = two_agent_setup()
        sig = np.array([1.0, 0.0])
        tr = one_step("heterogeneous", seq, obj, sigma=table_signal([sig]))
        g = np.array([[1.0], [1.0]])
        corrected = X0 - 0.5 * g * sig[:, None]
        expected = w.matrix @ corrected - 0.5 * g * (1.0 - sig)[:, None]
        assert np.array_equal(tr.xs[1], expected)
        assert np.array_equal(tr.sigmas, [sig])

    def test_heterogeneous_rejects_fractional_sigma(self):
        seq, _, obj = two_agent_setup()
        with pytest.raises(ValueError):
            one_step("heterogeneous", seq, obj, sigma=table_signal([[0.5, 1.0]]))

    def test_zero_step_reduces_to_pushsum(self):
        # x0 sits on the anchors, so sign(0) = 0 makes every correction zero
        seq, _, _ = two_agent_setup()
        obj = absolute_deviation_objective(X0)
        a = one_step("subgradient_push", seq, obj)
        b = run_pushsum(seq, "default", X0, 1)
        assert np.array_equal(a.gs[0], np.zeros((2, 1)))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_sgp_step_uses_addressed_draw(self):
        seq, w, _ = two_agent_setup()
        obj = quadratic_objective([[0.0], [2.0]])
        oracle = GradientOracle([0.3, 0.3], seed=4)
        tr = one_step("sgp", seq, obj, oracle=oracle)
        g = np.stack([oracle.gradient(obj, i, X0[i], 1) for i in range(2)])
        assert np.array_equal(tr.gs[0], g)
        assert np.array_equal(tr.xs[1], w.matrix @ (X0 - 0.5 * g))


class TestRunner:
    def test_matches_manual_stepping_bitwise(self):
        seq, w, obj = two_agent_setup(horizon=9)
        sched = harmonic(0.5, 1.0)
        tr = run_optimizer("subgradient_push", seq, obj, sched, x0=X0)
        x, y, m = X0, np.ones(2), w.matrix
        for k in range(9):
            z = x / y[:, None]
            g = np.stack([obj.subgradient(i, z[i]) for i in range(2)])
            x, y = m @ (x - sched.alpha(k) * g), m @ y
            assert np.array_equal(tr.xs[k + 1], x)
            assert np.array_equal(tr.ys[k + 1], y)

    def test_heterogeneous_matches_manual(self):
        seq, w, obj = two_agent_setup(horizon=7)
        sched = harmonic(0.5, 1.0)
        sig = bernoulli_signal(0.5, seed=11)
        tr = run_optimizer("heterogeneous", seq, obj, sched, x0=X0, sigma=sig)
        x, y, m = X0, np.ones(2), w.matrix
        for k in range(7):
            z = x / y[:, None]
            g = np.stack([obj.subgradient(i, z[i]) for i in range(2)])
            alpha, s = sched.alpha(k), sig.row(k, 2)[:, None]
            x, y = m @ (x - alpha * g * s) - alpha * g * (1.0 - s), m @ y
            assert np.array_equal(tr.xs[k + 1], x)
        assert np.array_equal(tr.sigmas, np.stack([sig.row(k, 2) for k in range(7)]))

    def test_sgp_starts_at_time_one(self):
        seq, _, _ = two_agent_setup(horizon=20)
        obj = quadratic_objective([[0.0], [2.0]])
        oracle = GradientOracle([0.2, 0.2], seed=0)
        tr = run_optimizer(
            "sgp", seq, obj, sgp_strong(obj.lambda_bar), x0=[[4.0], [6.0]], oracle=oracle
        )
        assert tr.t0 == 1
        assert tr.times()[0] == 1 and tr.times()[-1] == 21
        assert tr.alphas[0] == pytest.approx(2.0)

    def test_sgp_requires_oracle_and_smoothness(self):
        seq, _, obj = two_agent_setup()
        qobj = quadratic_objective([[0.0], [2.0]])
        with pytest.raises(ValueError):
            run_optimizer("sgp", seq, qobj, sgp_strong(1.0), x0=[[0.0], [0.0]])
        with pytest.raises(ValueError):
            run_optimizer(
                "sgp", seq, obj, sgp_strong(1.0), x0=[[0.0], [0.0]],
                oracle=GradientOracle([0.1, 0.1]),
            )

    def test_schedule_must_cover_start_time(self):
        seq, _, obj = two_agent_setup()
        with pytest.raises(ValueError):
            run_optimizer("subgradient_push", seq, obj, sgp_strong(1.0), x0=[[0.0], [0.0]])

    def test_records_gradients_and_steps(self):
        seq, w, obj = two_agent_setup(horizon=5)
        sched = fixed_inv_sqrt(5)
        tr = run_optimizer("subgradient_push", seq, obj, sched, x0=[[4.0], [6.0]])
        assert tr.gs.shape == (5, 2, 1)
        assert np.array_equal(tr.alphas, np.full(5, sched.alpha(0)))
        z0 = tr.zs[0]
        assert np.array_equal(tr.gs[0], np.stack([obj.subgradient(i, z0[i]) for i in range(2)]))

    def test_rejects_bad_y0(self):
        seq, _, obj = two_agent_setup()
        for y0 in ([1.0, 0.0], [1.0, -1.0], [1.0, np.inf], [1.0, np.nan], [1.0]):
            with pytest.raises(ValueError):
                run_optimizer("subgradient_push", seq, obj, constant_step(0.5), x0=X0, y0=y0)

    def test_y0_at_the_floor_fails_before_the_first_step(self, monkeypatch):
        seq, _, obj = two_agent_setup()

        def no_subgradient(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(Objective, "subgradient", no_subgradient)
        for tiny in (DEGENERATE_Y, 1e-301):
            with pytest.raises(DegenerateStateError):
                run_optimizer(
                    "subgradient_push", seq, obj, constant_step(0.5), x0=X0, y0=[1.0, tiny]
                )

    def test_sigma_only_for_heterogeneous(self):
        seq, _, obj = two_agent_setup()
        with pytest.raises(ValueError):
            run_optimizer(
                "subgradient_push", seq, obj, fixed_inv_sqrt(6),
                x0=[[0.0], [0.0]], sigma=all_ones_signal(),
            )

    def test_divergence_detected(self):
        seq = generate_sequence("static-complete", n=2, horizon=2000)
        obj = quadratic_objective([[0.0], [2.0]])
        with np.errstate(over="ignore"), pytest.raises(RuntimeError):
            run_optimizer(
                "push_subgradient", seq, obj, constant_step(4.0), x0=[[4.0], [6.0]]
            )

    def test_seed_controls_default_sigma(self):
        seq, _, obj = two_agent_setup(horizon=30)
        sched = harmonic(0.5, 1.0)
        a = run_optimizer("heterogeneous", seq, obj, sched, x0=[[4.0], [6.0]], seed=0)
        b = run_optimizer("heterogeneous", seq, obj, sched, x0=[[4.0], [6.0]], seed=0)
        c = run_optimizer("heterogeneous", seq, obj, sched, x0=[[4.0], [6.0]], seed=5)
        assert np.array_equal(a.xs, b.xs)
        assert not np.array_equal(a.sigmas, c.sigmas)


class TestDescentRecursion:
    # the weighted mean moves exactly by the mean applied gradient,
    # pathwise, for every algorithm
    def check(self, tr):
        kappa = tr.kappa
        zw = tr.z_weighted
        for k in range(tr.steps):
            expected = zw[k] - (tr.alphas[k] / kappa) * tr.gs[k].sum(axis=0)
            assert np.max(np.abs(zw[k + 1] - expected)) < 1e-12

    def test_all_algorithms(self):
        seq = generate_sequence("random-spanning", n=3, horizon=40, seed=2, params={"window": 2})
        obj_abs = absolute_deviation_objective([[0.0], [1.0], [5.0]])
        obj_q = quadratic_objective([[0.0], [1.0], [5.0]])
        sched = harmonic(0.5, 1.0)
        self.check(run_optimizer("subgradient_push", seq, obj_abs, sched, x0=np.zeros((3, 1))))
        self.check(run_optimizer("push_subgradient", seq, obj_abs, sched, x0=np.zeros((3, 1))))
        self.check(
            run_optimizer(
                "heterogeneous", seq, obj_abs, sched, x0=np.zeros((3, 1)),
                sigma=bernoulli_signal(0.5, seed=1),
            )
        )
        self.check(
            run_optimizer(
                "sgp", seq, obj_q, sgp_strong(obj_q.lambda_bar), x0=np.zeros((3, 1)),
                oracle=GradientOracle([0.3, 0.3, 0.3], seed=2),
            )
        )
