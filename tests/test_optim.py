import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pushsumlab.analysis import estimate_k1
from pushsumlab.graphs import generate_sequence
from pushsumlab.optim import (
    GradientOracle,
    Objective,
    SwitchingSignal,
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
from pushsumlab.optim import _RABS_MASK, _ball_rows, _row_dots, _ziggurat, _ziggurat_normals
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

    def test_constant_tables_store_nothing(self):
        # a dense (10_000, 200) float table would take 16 MB
        tracemalloc.start()
        try:
            for sig, value in ((all_ones_signal(), 1.0), (all_zeros_signal(), 0.0)):
                tracemalloc.reset_peak()
                rows = sig.rows(0, 10_000, 200)
                peak = tracemalloc.get_traced_memory()[1]
                assert peak < 1_000_000, peak
                assert rows.shape == (10_000, 200) and not rows.flags.writeable
                assert np.all(rows == value)
        finally:
            tracemalloc.stop()

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
        g = oracle.gradients(obj, np.array([[3.0], [3.0]]), t=5)[0]
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

    @pytest.mark.xfail(
        strict=True,
        reason="a draw reads Philox blocks t+1 onward, so one that needs more than 4 words "
        "reads the first block of the draw at t+1; only per-(agent, draw) word streams "
        "(ROADMAP.md, replica-batched runs, Stage B) separate them",
    )
    @pytest.mark.parametrize("d", [4, 7])
    def test_consecutive_draws_use_disjoint_words(self, d):
        # the draw at (t, i, draw) takes the words from 4t of the stream of
        # (i, draw): its normals' words, then one for the radius
        spans = []
        for t in range(201):
            _, words = reference_noise([1.0], 4, 0, t, d)
            spans.append((4 * t, 4 * t + words + 1))
        shared = sum(end > start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert shared == 0

    def test_noise_has_spread(self):
        oracle = GradientOracle([1.0], seed=0)
        samples = np.stack([oracle.noise(0, t, d=1) for t in range(500)])
        assert abs(samples.mean()) < 0.1
        assert samples.std() > 0.2

    def test_requires_smooth_objective(self):
        obj = absolute_deviation_objective([[0.0]])
        oracle = GradientOracle([0.1], seed=0)
        with pytest.raises(ValueError):
            oracle.gradients(obj, np.array([[1.0]]), t=0)


def numpy_normal(word):
    """numpy's standard_normal fed ``word`` first, and whether its
    ziggurat returned on that word alone (nothing else read)."""
    bits = np.random.Philox(key=0)
    state = bits.state
    state["buffer"][:] = (word, 0, 0, 0)
    state["buffer_pos"] = 0
    bits.state = state
    x = np.random.Generator(bits).standard_normal()
    after = bits.state
    alone = after["buffer_pos"] == 1 and after["state"]["counter"][0] == state["state"]["counter"][0]
    return x, alone


def count_scalar_draws(monkeypatch):
    """A list that gets one entry per call of ``GradientOracle._draw``."""
    draws = []
    scalar = GradientOracle._draw
    monkeypatch.setattr(GradientOracle, "_draw", lambda *a: draws.append(a) or scalar(*a))
    return draws


class TestNoiseTable:
    def test_decoder_is_numpy_or_declines(self):
        # every layer, both signs, rabs = 0, 1, far inside, both edges of the
        # fast region and the top; then random words
        _, below = _ziggurat()
        words = []
        for idx in range(256):
            edge = int(below[idx])
            for rabs in {0, 1, 1 << 51, max(edge - 1, 0), edge, edge + 1, _RABS_MASK}:
                words += [idx | sign << 8 | rabs << 9 for sign in (0, 1)]
        rng = np.random.default_rng(5)
        words += rng.integers(0, 2**64, size=3000, dtype=np.uint64).tolist()
        x, fast = _ziggurat_normals(np.array(words, dtype=np.uint64))
        assert 0.95 < fast[-3000:].mean() < 1.0
        for word, value, taken in zip(words, x.tolist(), fast.tolist()):
            if word & 0xFF in (0, 1):
                assert not taken
            if taken:
                want, alone = numpy_normal(word)
                assert alone and np.float64(value).tobytes() == np.float64(want).tobytes(), hex(word)

    def test_fast_region_ends_just_below_each_ki(self):
        # rabs = below - 1 is taken by numpy's fast path and decoded; numpy
        # rejects rabs = below + 3, so at most three values per layer fall back
        _, below = _ziggurat()
        for idx in range(2, 256):
            edge = int(below[idx])
            assert _ziggurat_normals(np.array([idx | (edge - 1) << 9], dtype=np.uint64))[1][0]
            assert not _ziggurat_normals(np.array([idx | edge << 9], dtype=np.uint64))[1][0]
            assert numpy_normal(idx | (edge - 1) << 9)[1]
            assert not numpy_normal(idx | (edge + 3) << 9)[1]

    @pytest.mark.parametrize("d", range(1, 8))
    def test_norm_is_the_scalar_dot(self, d):
        rows = np.random.default_rng(d).standard_normal((20_000, d))
        want = np.array([math.sqrt(r.dot(r)) for r in rows])
        assert np.sqrt(_row_dots(rows)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 8))
    def test_ball_rows_are_the_scalar_draw(self, d):
        # the radius is Python's float power, as in _draw; np.power rounds
        # differently at d >= 2
        rng = np.random.default_rng(10 + d)
        normals, u = rng.standard_normal((20_000, d)), rng.random(20_000)
        normals[::97] = -0.0  # a zero norm gives zeros, not -0.0
        want = np.zeros_like(normals)
        for k, (v, uk) in enumerate(zip(normals, u.tolist())):
            norm = math.sqrt(v.dot(v))
            if norm != 0.0:
                want[k] = v * (1.5 * uk ** (1.0 / d) / norm)
        assert _ball_rows(normals, u, 1.5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_long_table_is_noise_rows_and_falls_back(self, d, monkeypatch):
        oracle = GradientOracle([0.4, 1.0, 1.5], seed=11)
        want = np.stack([oracle.noise_rows(t, d) for t in range(20_000)])
        draws = count_scalar_draws(monkeypatch)
        assert oracle.noise_table(0, 20_000, d).tobytes() == want.tobytes()
        assert 0 < len(draws) < 0.025 * want.size  # a draw falls back for about 2% of its words

    def test_import_derives_no_table(self):
        code = (
            "import sys; sys.path[:0] = sys.argv[1:]; import pushsumlab.cli; "
            "from pushsumlab.optim import _ziggurat; assert _ziggurat.cache_info().currsize == 0"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


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
        g = oracle.gradients(obj, X0, 1)
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
        # every algorithm names its first non-finite step, and no
        # floating-point warning escapes the run (warnings are errors here)
        seq = generate_sequence("static-complete", n=2, horizon=2000)
        obj = quadratic_objective([[0.0], [2.0]])
        for algorithm, step in (
            ("subgradient_push", 644),
            ("push_subgradient", 513),
            ("heterogeneous", 643),
            ("sgp", 644),
        ):
            oracle = GradientOracle([0.5, 0.5]) if algorithm == "sgp" else None
            with pytest.raises(DegenerateStateError, match=f"diverged at step {step} "):
                run_optimizer(
                    algorithm, seq, obj, constant_step(4.0), x0=[[4.0], [6.0]], oracle=oracle
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


# ---------------------------------------------------------------------------
# the per-agent forms the batched code replaced, kept as references


def reference_component_value(obj, i, z):
    z = np.asarray(z, dtype=float).reshape(obj.d)
    r = z - obj.anchors[i]
    if obj.kind == "abs":
        return float(np.sum(np.abs(r)))
    if obj.kind == "quadratic":
        return float(0.5 * obj.scales[i] * np.dot(r, r))
    delta = float(obj.delta)
    small = np.abs(r) <= delta
    quad = 0.5 * r[small] ** 2
    lin = delta * (np.abs(r[~small]) - 0.5 * delta)
    return float(np.sum(quad) + np.sum(lin))


def reference_value(obj, z):
    return float(np.mean([reference_component_value(obj, i, z) for i in range(obj.n)]))


def reference_subgradient(obj, i, z):
    z = np.asarray(z, dtype=float).reshape(obj.d)
    r = z - obj.anchors[i]
    if obj.kind == "abs":
        return np.sign(r)
    if obj.kind == "quadratic":
        return obj.scales[i] * r
    return np.clip(r, -float(obj.delta), float(obj.delta))


def reference_bernoulli_row(seed, p, t, n):
    out = np.empty(n)
    for i in range(n):
        at = np.array([t, i, 0, 0], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=at))
        out[i] = 1.0 if gen.random() < p else 0.0
    return out


def reference_noise(bounds, seed, i, t, d, draw=0):
    """The draw at address (t, i, draw) from a generator built for it alone;
    also returns how many 64-bit words its normals took (d unless the
    ziggurat rejected a candidate)."""
    c = float(bounds[i])
    if c == 0.0:
        return np.zeros(d), d
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[t, i, draw, 0]))
    direction = gen.standard_normal(d)
    state = gen.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - t - 1) + state["buffer_pos"]
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(d), words
    radius = c * float(gen.random()) ** (1.0 / d)
    return direction * (radius / norm), words


def reference_estimate_k1(obj, oracle, x1, alpha1, draws):
    vals = np.empty(draws)
    for m in range(draws):
        total = 0.0
        for i in range(x1.shape[0]):
            gt = obj.subgradient(i, x1[i]) + reference_noise(
                oracle.noise_bounds, oracle.seed, i, 1, obj.d, draw=m + 1
            )[0]
            total += float(np.linalg.norm(x1[i] + alpha1 * gt))
        vals[m] = total
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(draws))


def objectives(rng, n, d):
    anchors = rng.uniform(-0.5, 0.5, size=(n, d))
    yield absolute_deviation_objective(anchors)
    yield quadratic_objective(anchors, scales=rng.uniform(0.5, 3.0, size=n))
    yield huber_objective(anchors, delta=1.0)


def sample_points(rng, obj, count=40):
    """Points near and far from the anchors: with delta = 1, rows at scale
    0.1 hold only small huber residuals, rows at scale 30 only large ones
    and the others mix both sides; some coordinates sit exactly on an
    anchor (a kink of abs). ``count`` is a multiple of the agent count."""
    scale = rng.choice([0.1, 1.0, 3.0, 30.0], size=(count, 1))
    pts = rng.standard_normal((count, obj.d)) * scale
    pts[::4] = obj.anchors[rng.integers(0, obj.n, size=len(pts[::4]))]
    pts[1::4, 0] = obj.anchors[0, 0]
    return pts


class TestBatchedFormsMatchReferences:
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_objective_values_and_subgradients(self, d):
        rng = np.random.default_rng(d)
        for obj in objectives(rng, 5, d):
            pts = sample_points(rng, obj)
            want = np.array([reference_value(obj, p) for p in pts])
            assert np.array_equal(obj.values(pts), want), obj.kind
            assert all(obj.value(p) == w for p, w in zip(pts, want))
            for i in range(obj.n):
                assert all(
                    obj.component_value(i, p) == reference_component_value(obj, i, p) for p in pts
                )
            for z in pts.reshape(-1, obj.n, d):
                rows = np.stack([reference_subgradient(obj, i, z[i]) for i in range(obj.n)])
                assert np.array_equal(obj.subgradients(z), rows)
                assert all(np.array_equal(obj.subgradient(i, z[i]), rows[i]) for i in range(obj.n))

    def test_points_cover_both_huber_sides_and_abs_kinks(self):
        rng = np.random.default_rng(9)
        obj = huber_objective(rng.uniform(-0.5, 0.5, size=(5, 9)), delta=1.0)
        pts = sample_points(rng, obj)
        small = (np.abs(pts[:, None, :] - obj.anchors) <= 1.0).sum(axis=-1)
        # all nine small (numpy's 8-way pairwise sum), none small, and mixed rows
        assert small.max() == 9 and small.min() == 0 and ((small > 0) & (small < 9)).any()
        assert (pts[:, None, :] == obj.anchors).any()

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("t0", [0, 1])
    def test_bernoulli_rows(self, p, t0):
        for seed in (0, 5):
            sig = bernoulli_signal(p, seed=seed)
            want = np.stack([reference_bernoulli_row(seed, p, t, 7) for t in range(t0, t0 + 60)])
            assert np.array_equal(sig.rows(t0, 60, 7), want)
            assert np.array_equal(sig.row(t0 + 3, 7), want[3])

    @pytest.mark.parametrize("t0", [2**64 - 1024, 2**64 - 1])
    def test_bernoulli_rows_up_to_the_last_counter(self, t0):
        # t is one uint64 word of the Philox counter, exact up to 2**64 - 1
        sig = bernoulli_signal(0.5, seed=3)
        last = 2**64 - 1
        rows = sig.rows(t0, last - t0 + 1, 2)
        assert np.array_equal(rows[0], reference_bernoulli_row(3, 0.5, t0, 2))
        assert np.array_equal(rows[-1], reference_bernoulli_row(3, 0.5, last, 2))
        assert np.array_equal(sig.rows(last, 1, 2)[0], rows[-1])

    @pytest.mark.parametrize("d", [1, 3])
    def test_oracle_noise_rows(self, d):
        bounds = [0.0, 0.4, 1.5]
        oracle = GradientOracle(bounds, seed=3)
        rejected = 0
        for t in range(300):
            for draw in (0, 2):
                drawn = [reference_noise(bounds, 3, i, t, d, draw) for i in range(3)]
                want = np.stack([row for row, _ in drawn])
                rejected += sum(words > d for _, words in drawn)
                assert np.array_equal(oracle.noise_rows(t, d, draw), want)
                assert all(np.array_equal(oracle.noise(i, t, d, draw), want[i]) for i in range(3))
        assert rejected > 0  # the ziggurat's rejection path was taken

    def test_oracle_gradients_and_k1(self):
        obj = quadratic_objective([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 1.0, -1.0]])
        oracle = GradientOracle([0.5, 0.0, 0.25], seed=8)
        z = np.array([[0.3, -1.0, 2.5], [1.0, 1.0, 1.0], [-2.0, 0.5, 0.0]])
        want = np.stack(
            [obj.subgradient(i, z[i]) + reference_noise(oracle.noise_bounds, 8, i, 4, 3)[0] for i in range(3)]
        )
        assert np.array_equal(oracle.gradients(obj, z, 4), want)
        assert estimate_k1(obj, oracle, z, 0.7, draws=50) == reference_estimate_k1(obj, oracle, z, 0.7, 50)

    def test_heterogeneous_trace_holds_the_reference_signal(self):
        seq = generate_sequence("static-ring", n=5, horizon=40)
        obj = absolute_deviation_objective(np.arange(5.0)[:, None])
        tr = run_optimizer("heterogeneous", seq, obj, harmonic(0.5, 1.0), x0=np.zeros((5, 1)), seed=4)
        assert np.array_equal(tr.sigmas, np.stack([reference_bernoulli_row(4, 0.5, t, 5) for t in range(40)]))


def test_step_loop_makes_no_per_agent_calls(monkeypatch):
    calls = []
    for cls, name in ((Objective, "subgradient"), (SwitchingSignal, "row"), (GradientOracle, "noise")):
        original = getattr(cls, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    draws = count_scalar_draws(monkeypatch)
    seq = generate_sequence("random-spanning", n=6, horizon=30, seed=1, params={"window": 2})
    obj_abs = absolute_deviation_objective(np.arange(6.0)[:, None])
    obj_q = quadratic_objective(np.arange(6.0)[:, None])
    run_optimizer(
        "heterogeneous", seq, obj_abs, harmonic(0.5, 1.0), x0=np.zeros((6, 1)),
        sigma=bernoulli_signal(0.5, seed=2),
    )
    run_optimizer(
        "sgp", seq, obj_q, sgp_strong(obj_q.lambda_bar), x0=np.zeros((6, 1)),
        oracle=GradientOracle(np.full(6, 0.3), seed=2),
    )
    assert calls == []
    # sgp's noise comes from noise_table: the scalar draw serves only the
    # draws off numpy's ziggurat fast path, not all n T of them
    draws.clear()
    obj_3 = quadratic_objective(np.arange(3.0)[:, None])
    run_optimizer(
        "sgp", generate_sequence("static-complete", n=3, horizon=2000), obj_3,
        sgp_strong(obj_3.lambda_bar), x0=np.zeros((3, 1)), oracle=GradientOracle(np.full(3, 0.3), seed=2),
    )
    assert 0 < len(draws) < 0.05 * 3 * 2000
