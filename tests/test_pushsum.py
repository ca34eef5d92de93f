import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pushsumlab.graphs import (
    DirectedGraph,
    GraphSequence,
    complete_graph,
    generate_sequence,
)
from pushsumlab import pushsum
from pushsumlab.pushsum import (
    DegenerateStateError,
    MixingSequence,
    Trace,
    absolute_probability,
    induced_chunks,
    resolve_weight_sequence,
    run_pushsum,
    run_weighted_pushsum,
    s_matrix,
    scan_induced,
    theoretical_constants,
    verify_absolute_probability,
    verify_product_limit,
    verify_ratio_identity,
)
from pushsumlab.weights import WeightMatrix, default_weights

# agent 0 sends to both, agent 1 keeps to itself
TWO_AGENT = DirectedGraph.from_arcs(2, [(0, 1)])
TWO_AGENT_W = np.array([[0.5, 0.0], [0.5, 1.0]])


class TestPushsumStep:
    def test_hand_computed_step(self):
        # the default weights of the lone arc 0 -> 1 are TWO_AGENT_W
        tr = run_pushsum(GraphSequence((TWO_AGENT,)), "default", [2.0, 4.0], 1)
        assert np.array_equal(tr.w_mats[0], TWO_AGENT_W)
        assert tr.times()[1] == 1
        assert np.array_equal(tr.xs[1][:, 0], np.array([1.0, 5.0]))
        assert np.array_equal(tr.ys[1], np.array([0.5, 1.5]))
        assert np.allclose(tr.zs[1][:, 0], np.array([2.0, 10.0 / 3.0]))

    def test_mass_conserved_on_random_runs(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            seq = generate_sequence(
                "random-spanning", n=5, horizon=80, seed=seed, params={"window": 3}
            )
            x0 = rng.standard_normal(5)
            tr = run_pushsum(seq, "default", x0, 80)
            totals = tr.xs.sum(axis=1)
            assert np.max(np.abs(totals - totals[0])) < 1e-12
            y_tot = tr.ys.sum(axis=1)
            assert np.max(np.abs(y_tot - y_tot[0])) < 1e-12

    def test_ratios_stay_in_initial_hull(self):
        # each new ratio is a convex combination of old ones
        rng = np.random.default_rng(3)
        seq = generate_sequence("random-spanning", n=6, horizon=100, seed=1, params={"window": 2})
        x0 = rng.standard_normal(6)
        tr = run_pushsum(seq, "default", x0, 100)
        zs = tr.zs[:, :, 0]
        lo, hi = zs[0].min(), zs[0].max()
        eps = 1e-12
        for k in range(1, len(zs)):
            assert zs[k].min() >= lo - eps and zs[k].max() <= hi + eps
            assert zs[k].min() >= zs[k - 1].min() - eps
            assert zs[k].max() <= zs[k - 1].max() + eps

    def test_converges_to_uniform_average(self):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=400)
        tr = run_pushsum(seq, "default", [1.0, 2.0, 3.0, 4.0], 400)
        assert np.allclose(tr.zs[-1][:, 0], 2.5, atol=1e-10)


class TestInducedMatrix:
    def test_hand_computed_s(self):
        y = np.array([1.0, 1.0])
        s = s_matrix(TWO_AGENT_W, y)
        expected = np.array([[1.0, 0.0], [1.0 / 3.0, 2.0 / 3.0]])
        assert np.allclose(s, expected, atol=1e-15)
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-15)

    def test_s_reproduces_ratio_update(self):
        rng = np.random.default_rng(7)
        seq = generate_sequence("random-spanning", n=4, horizon=40, seed=2, params={"window": 2})
        tr = run_pushsum(seq, "default", rng.standard_normal(4), 40)
        for k in range(tr.steps):
            s = tr.s_mat(k)
            assert np.allclose(s @ tr.zs[k], tr.zs[k + 1], atol=1e-12)

    def test_inconsistent_y_next_rejected(self):
        y = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="y\\(k\\+1\\) is not W\\(k\\) y\\(k\\) at step 0"):
            s_matrix(TWO_AGENT_W, y, y_next=np.array([0.9, 1.1]))

    def test_y_next_at_the_floor_rejected(self):
        with pytest.raises(DegenerateStateError, match="ratio matrix of step 0"):
            s_matrix(np.eye(2), np.array([1e-301, 1.0]))

    def test_sparsity_follows_weights(self):
        y = np.array([2.0, 0.5])
        s = s_matrix(TWO_AGENT_W, y)
        assert np.array_equal(s > 0.0, TWO_AGENT_W > 0.0)


class TestPhiProduct:
    """Phi(t, tau) = M(t-1) @ ... @ M(tau), read through the checks built
    on it: the ratio identity and the product limit."""

    @staticmethod
    def weighted_trace(n=4, horizon=12, seed=3):
        # y(0) != 1, so y(tau) / kappa differs between agents
        seq = generate_sequence("random-spanning", n, horizon, seed, {"window": 2})
        return run_weighted_pushsum(seq, "default", np.linspace(0.5, 2.0, n), np.arange(float(n)))

    def test_empty_product_is_identity(self):
        # labels from t0 = 5; t == tau reads the identities a chain starts
        # from, for the chain from t0 and for one from a later tau
        tr = replace(self.weighted_trace(), t0=5)
        t0, mid = 5, 11
        found = {
            tau: scan_induced(tr, tau=tau, ratio_at=[tau, mid], limit_at=[tau, mid])
            for tau in (t0, mid)
        }
        alone = scan_induced(tr, ratio_at=[mid], limit_at=[mid])
        for tau in (t0, mid):
            identity_limit = float(np.max(np.abs(np.eye(4) - tr.ys[tau - t0] / tr.kappa)))
            assert found[tau].ratio[(tau, tau)].value == 0.0
            assert found[tau].limit[(tau, tau)] == identity_limit
            assert verify_ratio_identity(tr, tau, tau) == 0.0
            assert verify_product_limit(tr, tau, tau) == identity_limit
        assert found[t0].ratio[(mid, t0)] == alone.ratio[(mid, t0)]
        assert found[t0].limit[(mid, t0)] == alone.limit[(mid, t0)] != found[mid].limit[(mid, mid)]

    def test_order_is_latest_on_the_left(self, monkeypatch):
        n, tau, t = 3, 4, 8
        tr = self.weighted_trace(n, 12, 5)
        # three steps per chunk: steps 3..5 start before tau, steps 6..8 straddle t
        monkeypatch.setattr(pushsum, "CHUNK_BYTES", 3 * 8 * n * n)
        found = scan_induced(tr, tau=tau, ratio_at=[t], limit_at=[t])
        phi_s, phi_w, earliest_left = np.eye(n), np.eye(n), np.eye(n)
        for k in range(tau, t):
            phi_s = tr.s_mat(k) @ phi_s
            phi_w = tr.w_mats[k] @ phi_w
            earliest_left = earliest_left @ tr.s_mat(k)
        lhs, rhs = phi_s * tr.ys[t][:, np.newaxis], phi_w * tr.ys[tau][np.newaxis, :]
        assert found.ratio[(t, tau)].value == float(np.max(np.abs(lhs - rhs)))
        limit = tr.ys[tau] / tr.kappa
        assert found.limit[(t, tau)] == float(np.max(np.abs(phi_s - limit)))
        assert found.limit[(t, tau)] != float(np.max(np.abs(earliest_left - limit)))

    def test_skips_only_the_steps_that_repeat_a_fixed_point(self):
        """The chain skips the steps that repeat one which left it
        unchanged, and no more: W = I at every step, and a 1-ulp rise of
        y_1(3) makes S(2) = diag(1, 1/u) the one step that moves the chain,
        between runs of S = I. Every value equals the explicit product's."""
        n, steps = 2, 6
        ys = np.ones((steps + 1, n))
        ys[3:, 1] = np.nextafter(1.0, 2.0)
        mixing = MixingSequence(np.zeros(steps, dtype=np.intp), np.eye(n)[np.newaxis])
        tr = Trace("pushsum", 0, ys[:, :, np.newaxis], ys, mixing, float(n))
        times = range(steps + 1)
        found = scan_induced(tr, ratio_at=times, limit_at=times)
        phi_s = np.eye(n)
        for t in times:
            if t:
                phi_s = tr.s_mat(t - 1) @ phi_s
            assert found.limit[(t, 0)] == float(np.max(np.abs(phi_s - ys[0] / tr.kappa)))
            ratio = phi_s * ys[t][:, np.newaxis] - np.eye(n) * ys[0]  # Phi_W = I
            assert found.ratio[(t, 0)].value == float(np.max(np.abs(ratio)))
        assert phi_s[1, 1] != 1.0

    def test_rejects_reversed_interval(self):
        tr = self.weighted_trace()
        for at in ({"ratio_at": [2]}, {"limit_at": [2]}):
            with pytest.raises(ValueError, match="need t >= tau, got t=2, tau=3"):
                scan_induced(tr, tau=3, **at)
        with pytest.raises(ValueError, match="need t >= tau"):
            verify_ratio_identity(tr, 2, 3)
        with pytest.raises(ValueError, match="need t >= tau"):
            verify_product_limit(tr, 3, 2)


class TestAbsoluteProbability:
    def test_normalization(self):
        pi = absolute_probability(np.array([0.5, 1.5]), 2.0)
        assert np.array_equal(pi, np.array([0.25, 0.75]))

    def test_recursion_on_hand_example(self):
        # pi(t) = S(t)^T pi(t+1) with pi = y / kappa
        y0 = np.array([1.0, 1.0])
        y1 = TWO_AGENT_W @ y0
        s = s_matrix(TWO_AGENT_W, y0, y1)
        pi0 = absolute_probability(y0, 2.0)
        pi1 = absolute_probability(y1, 2.0)
        assert np.allclose(s.T @ pi1, pi0, atol=1e-15)

    def test_verify_on_run(self):
        seq = generate_sequence("rotating-single-edge", n=5, horizon=60)
        tr = run_pushsum(seq, "default", np.arange(5.0), 60)
        assert verify_absolute_probability(tr) < 1e-12

    def test_scan_names_the_step_and_agent(self):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=12)
        tr = run_pushsum(seq, "default", np.arange(4.0), 12)
        bad = tr.ys.copy()
        bad[6, 2] += 1e-6
        found = scan_induced(tr, ys=bad).probability
        # step 5 sees the shift through row 2 of S(5), which mixes agents 1
        # and 2; step 6 misses it by the whole shift over kappa = 4
        assert found.where == {"step": 6, "agent": 2}
        assert found.value == pytest.approx(1e-6 / 4, rel=1e-9)


class TestSparsity:
    def test_scan_names_the_first_s_entry_lost_to_underflow(self):
        # W(1) sends a weight of 1e-40 from agent 1, whose y is 1e-290:
        # S(1)[0, 1] = 1e-40 * 1e-290 / y_0(2) underflows to 0 where W(1) > 0
        w = np.array([np.eye(2), [[1.0, 1e-40], [0.0, 1.0]]])
        ys = np.array([[1.0, 1e-290]] * 3)
        tr = Trace("pushsum", 3, np.zeros((3, 2, 1)), ys, MixingSequence([0, 1], w), float(ys[0].sum()))
        assert tr.s_mat(1)[0, 1] == 0.0 < tr.w_mats[1][0, 1]
        found = scan_induced(tr).sparsity
        assert found.value == 1.0
        assert found.where == {"step": 4, "row": 0, "column": 1}


class TestRatioIdentityAndLimit:
    def test_ratio_identity_small(self):
        seq = generate_sequence("random-spanning", n=4, horizon=50, seed=4, params={"window": 2})
        tr = run_pushsum(seq, "default", [0.0, 1.0, 2.0, 3.0], 50)
        for t, tau in ((50, 0), (50, 25), (30, 10), (10, 10)):
            assert verify_ratio_identity(tr, t, tau) < 1e-12

    def test_product_limit_decays(self):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=200)
        tr = run_pushsum(seq, "default", [1.0, 2.0, 3.0, 4.0], 200)
        dev_half = verify_product_limit(tr, 0, 100)
        dev_full = verify_product_limit(tr, 0, 200)
        assert dev_full <= dev_half + 1e-12
        assert dev_full < 1e-10


    def test_finished_products_are_dropped(self):
        # at n=200 every chunk is one step, so each t falls in its own
        # chunk; a scan that kept the products of each t to the end would
        # hold ten more n x n matrices (a W and an S product per t)
        n, horizon = 200, 12
        seq = generate_sequence("random-spanning", n, horizon, 1, {"window": 2, "extra_arc_prob": 0.1})
        trace = run_pushsum(seq, "default", np.arange(n, dtype=float), horizon)
        one, five = [horizon], [4, 6, 8, 10, horizon]
        scan_induced(trace, ratio_at=one)  # lazy imports and caches
        peaks, scans = [], []
        tracemalloc.start()
        try:
            for at in (one, five):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                scans.append(scan_induced(trace, ratio_at=at, limit_at=at))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        end = (horizon, 0)
        assert peaks[1] - peaks[0] <= 2 * 8 * n * n, peaks
        assert list(scans[1].ratio) == list(scans[1].limit) == [(t, 0) for t in five]
        assert scans[1].ratio[end] == scans[0].ratio[end]
        assert scans[1].limit[end] == scans[0].limit[end]


class TestTheoreticalConstants:
    def test_two_agents_window_one(self):
        tc = theoretical_constants(2, 1)
        assert tc.eta_lb == 0.25
        assert tc.mu_ub == 0.75
        assert tc.c == 4.0

    def test_three_agents_window_two(self):
        tc = theoretical_constants(3, 2)
        assert tc.eta_lb == pytest.approx(1.0 / 729.0, rel=1e-15)
        assert tc.mu_ub == pytest.approx(np.sqrt(728.0 / 729.0), rel=1e-15)

    def test_single_agent(self):
        tc = theoretical_constants(1, 1)
        assert tc.eta_lb == 1.0 and tc.mu_ub == 0.0

    def test_saturation_keeps_values_usable(self):
        tc = theoretical_constants(50, 10)
        assert tc.eta_lb >= 1e-300
        assert 0.0 < tc.mu_ub < 1.0

    def test_monotone_in_size(self):
        small = theoretical_constants(3, 1)
        big = theoretical_constants(6, 1)
        assert big.eta_lb < small.eta_lb
        assert big.mu_ub > small.mu_ub

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            theoretical_constants(0, 1)
        with pytest.raises(ValueError):
            theoretical_constants(2, 0)


class TestRunners:
    def test_degenerate_mass_aborts(self):
        eps = 1e-301
        w = WeightMatrix(np.array([[eps, 0.0], [1.0 - eps, 1.0]]), beta=eps)
        seq = generate_sequence("static-complete", n=2, horizon=3)
        seq = type(seq)((DirectedGraph.from_arcs(2, [(0, 1)]),) * 3)
        with pytest.raises(DegenerateStateError):
            run_pushsum(seq, w, [1.0, 1.0], 3)

    def test_mass_at_the_floor_fails_before_the_first_step(self):
        seq = generate_sequence("static-complete", n=2, horizon=3)
        with pytest.raises(DegenerateStateError, match="c\\[0\\]"):
            run_weighted_pushsum(seq, "default", [1e-310, 1.0], [0.3, 4.0], 3)

    def test_explicit_weight_list(self):
        g = complete_graph(2)
        w = default_weights(g)
        seq = generate_sequence("static-complete", n=2, horizon=2)
        tr = run_pushsum(seq, [w, w], [0.0, 2.0], 2)
        assert np.allclose(tr.zs[-1][:, 0], 1.0)

    def test_x0_rows_must_match_n(self):
        seq = generate_sequence("static-complete", n=2, horizon=3)
        with pytest.raises(ValueError):
            run_pushsum(seq, "default", np.zeros((3, 1)), 3)
        with pytest.raises(ValueError):
            run_pushsum(seq, "default", np.zeros((2, 1, 1)), 3)
        with pytest.raises(ValueError):
            run_weighted_pushsum(seq, "default", [1.0, 1.0], np.zeros((3, 1)), 3)

    def test_weight_list_length_checked(self):
        seq = generate_sequence("static-complete", n=2, horizon=3)
        w = default_weights(complete_graph(2))
        with pytest.raises(ValueError):
            run_pushsum(seq, [w], [0.0, 2.0], 3)

    def test_incompatible_weights_rejected(self):
        # ring weights are not compliant with the lone-edge graph
        seq = generate_sequence("rotating-single-edge", n=3, horizon=3)
        w = default_weights(complete_graph(3))
        with pytest.raises(ValueError):
            run_pushsum(seq, w, [0.0, 1.0, 2.0], 3)

    def test_weighted_limit(self):
        seq = generate_sequence("static-complete", n=2, horizon=200)
        tr = run_weighted_pushsum(seq, "default", [0.25, 0.75], [0.0, 4.0], 200)
        assert tr.kappa == 1.0
        assert np.allclose(tr.zs[-1][:, 0], 3.0, atol=1e-12)

    def test_weighted_limit_kappa_not_one(self):
        seq = generate_sequence("static-complete", n=2, horizon=200)
        tr = run_weighted_pushsum(seq, "default", [0.5, 1.5], [0.0, 2.0], 200)
        assert tr.kappa == 2.0
        target = (0.5 * 0.0 + 1.5 * 2.0) / 2.0
        assert np.allclose(tr.zs[-1][:, 0], target, atol=1e-12)

    def test_weighted_requires_positive_c(self):
        seq = generate_sequence("static-complete", n=2, horizon=5)
        with pytest.raises(ValueError):
            run_weighted_pushsum(seq, "default", [0.0, 1.0], [0.0, 2.0], 5)


class TestResolveWeights:
    def test_default_weights_store_only_the_graph_table(self):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=10)
        mats = resolve_weight_sequence(seq, "default", 8)
        assert len(mats) == 8 and mats.n == 3 and mats.nbytes == 0
        assert mats.table is seq.table and np.array_equal(mats.ids, seq.ids[:8])
        for k in range(8):
            assert np.array_equal(mats[k], default_weights(seq[k]).matrix)
            assert not mats[k].flags.writeable

    def test_weight_list_is_interned(self):
        seq = generate_sequence("static-complete", n=3, horizon=5)
        a = default_weights(complete_graph(3))
        b = WeightMatrix(np.full((3, 3), 0.25) + np.diag([0.25, 0.25, 0.25]), beta=0.25)
        same_as_a = WeightMatrix(a.matrix.copy(), beta=a.beta)
        mats = resolve_weight_sequence(seq, [a, b, same_as_a, b, a], 5)
        assert mats.ids.tolist() == [0, 1, 0, 1, 0]
        assert mats.table.shape == (2, 3, 3) and mats.nbytes == 2 * 9 * 8
        assert np.array_equal(mats[3], b.matrix)

    def test_one_matrix_is_stored_once(self):
        seq = generate_sequence("static-complete", n=3, horizon=6)
        w = default_weights(complete_graph(3))
        mats = resolve_weight_sequence(seq, w, 6)
        assert mats.nbytes == 9 * 8 and mats.ids.tolist() == [0] * 6

    def test_fixed_matrix_error_names_the_first_bad_step(self):
        ring = generate_sequence("static-ring", n=3, horizon=1)[0]
        loops = DirectedGraph.from_arcs(3, [])
        seq = GraphSequence([complete_graph(3)] * 4 + [ring, loops, ring])
        w = default_weights(complete_graph(3))
        assert len(resolve_weight_sequence(seq, w, 4)) == 4
        with pytest.raises(ValueError, match="at step 4:"):
            resolve_weight_sequence(seq, w, 7)


class TestTrace:
    def make_trace(self):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=12)
        return run_pushsum(seq, "default", [3.0, 6.0, 9.0], 12)

    def test_shapes(self):
        tr = self.make_trace()
        assert tr.xs.shape == (13, 3, 1)
        assert tr.ys.shape == (13, 3)
        assert (len(tr.w_mats), tr.w_mats.n) == (12, 3)
        assert tr.steps == 12 and tr.n == 3 and tr.d == 1

    def test_times_and_index(self):
        tr = self.make_trace()
        assert np.array_equal(tr.times(), np.arange(13))
        assert tr.index_of(0) == 0 and tr.index_of(12) == 12
        with pytest.raises(ValueError):
            tr.index_of(13)

    def test_weighted_mean_is_invariant(self):
        tr = self.make_trace()
        zw = tr.z_weighted
        assert np.allclose(zw, zw[0], atol=1e-12)
        assert zw[0, 0] == pytest.approx(6.0)

    def test_zs_are_ratios(self):
        # x(0) = c * x_init = (2, 6) over y(0) = c = (1, 2)
        seq = generate_sequence("static-complete", n=2, horizon=1)
        tr = run_weighted_pushsum(seq, "default", [1.0, 2.0], [2.0, 3.0], 1)
        assert np.array_equal(tr.xs[0], np.array([[2.0], [6.0]]))
        assert np.array_equal(tr.zs[0], np.array([[2.0], [3.0]]))
        assert np.array_equal(tr.zs, tr.xs / tr.ys[:, :, np.newaxis])

    def test_s_matrices_stack(self):
        tr = self.make_trace()
        stack = np.concatenate([s for _, _, s in induced_chunks(tr)])
        assert stack.shape == (12, 3, 3)
        assert np.allclose(stack.sum(axis=2), 1.0, atol=1e-12)

    def test_chunked_s_matches_s_matrix(self, monkeypatch):
        tr = self.make_trace()
        monkeypatch.setattr(pushsum, "CHUNK_BYTES", 5 * 3 * 3 * 8)
        starts = []
        for k0, w, s in induced_chunks(tr):
            starts.append(k0)
            for j, k in enumerate(range(k0, k0 + len(s))):
                assert np.array_equal(w[j], tr.w_mats[k])
                assert np.array_equal(s[j], s_matrix(tr.w_mats[k], tr.ys[k], tr.ys[k + 1]))
                assert np.array_equal(s[j], tr.s_mat(k))
        assert starts == [0, 5, 10]

    def test_inconsistent_record_names_its_step(self):
        tr = self.make_trace()
        tr.ys[8, 1] += 1e-6
        with pytest.raises(ValueError, match="at step 7:"):
            list(induced_chunks(tr))

    def test_dense_matrices_are_wrapped(self):
        """A dense stack is wrapped only explicitly: a trace takes a
        MixingSequence and refuses anything else."""
        tr = self.make_trace()
        dense = np.stack([tr.w_mats[k] for k in range(tr.steps)])
        steps = np.arange(tr.steps)
        hand = Trace("pushsum", 0, tr.xs, tr.ys, MixingSequence(steps, dense), tr.kappa)
        assert hand.w_mats.table is dense
        assert hand.w_mats.nbytes == dense.nbytes
        assert verify_absolute_probability(hand) == verify_absolute_probability(tr)
        with pytest.raises(ValueError, match="w_mats"):
            Trace("pushsum", 0, tr.xs, tr.ys, MixingSequence(steps, dense[:, :2, :2]), tr.kappa)
        with pytest.raises(TypeError, match=r"^w_mats must be a MixingSequence, got ndarray$"):
            Trace("pushsum", 0, tr.xs, tr.ys, dense, tr.kappa)

    def test_sigmas_must_be_steps_by_n(self):
        mixing = MixingSequence([0, 0], np.eye(2)[np.newaxis])
        with pytest.raises(ValueError, match=r"^sigmas must be \(steps, n\)$"):
            Trace(
                "heterogeneous", 0, np.zeros((3, 2, 1)), np.ones((3, 2)), mixing, 2.0,
                np.ones(2), np.zeros((2, 2, 1)), np.zeros((5, 7)),
            )

    def test_states_must_be_three_dimensional(self):
        tr = self.make_trace()
        with pytest.raises(ValueError, match=r"^xs must be \(steps\+1, n, d\)$"):
            Trace("pushsum", 0, tr.xs[:, 0, 0], tr.ys, tr.w_mats, tr.kappa)
