"""Property tests: the chunked trace storage and the one-pass checks
give the same bits as per-step work, whatever the chunk size, and every
exact identity that ``verify`` checks holds for every algorithm.

Inputs are random window-connected graph sequences on at most 8 agents,
default or custom per-step weights with a declared floor, y(0) != 1 and
states of dimension up to 3. Examples are derandomized, so the suite
stays deterministic.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pushsumlab.pushsum as pushsum
from pushsumlab import cli
from pushsumlab.analysis import descent_residuals
from pushsumlab.graphs import DirectedGraph, generate_sequence
from pushsumlab.optim import (
    ALGORITHMS,
    GradientOracle,
    SwitchingSignal,
    constant_step,
    quadratic_objective,
    run_optimizer,
    sgp_strong,
)
from pushsumlab.pushsum import (
    induced_chunks,
    run_pushsum,
    run_weighted_pushsum,
    s_matrix,
    scan_induced,
    weight_checks,
)
from pushsumlab.weights import WeightMatrix, default_weights

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@dataclass(frozen=True)
class Scenario:
    n: int
    horizon: int
    d: int
    window: int
    extra_arc_prob: float
    custom: bool
    optimizer: bool
    seed: int


@st.composite
def scenarios(draw) -> Scenario:
    return Scenario(
        n=draw(st.integers(2, 8)),
        horizon=draw(st.integers(1, 16)),
        d=draw(st.integers(1, 3)),
        window=draw(st.integers(1, 3)),
        extra_arc_prob=draw(st.sampled_from([0.0, 0.3])),
        custom=draw(st.booleans()),
        optimizer=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def custom_weights(g: DirectedGraph, rng: np.random.Generator) -> WeightMatrix:
    """Column-stochastic weights on the arcs of g, floor at their minimum."""
    raw = np.where(g.adj, rng.uniform(0.5, 1.5, (g.n, g.n)), 0.0)
    m = raw / raw.sum(axis=0)
    return WeightMatrix(m, beta=float(m[g.adj].min()))


def graphs_and_weights(sc: Scenario):
    """The scenario's graph sequence and per-step weights, and the
    generator that drew them, for the draws that follow."""
    rng = np.random.default_rng(sc.seed)
    params = {"window": sc.window, "extra_arc_prob": sc.extra_arc_prob}
    seq = generate_sequence("random-spanning", sc.n, sc.horizon, sc.seed, params)
    weights = "default"
    if sc.custom:
        # one matrix per distinct graph, so repeated graphs share a table entry
        per_graph = {g: custom_weights(g, rng) for g in seq.table}
        weights = [per_graph[g] for g in seq.graphs]
    return seq, weights, rng


def simulate(sc: Scenario):
    """The scenario's graph sequence, per-step weights and trace."""
    seq, weights, rng = graphs_and_weights(sc)
    y0 = rng.uniform(0.5, 2.0, sc.n)
    x0 = rng.standard_normal((sc.n, sc.d))
    if sc.optimizer:
        obj = quadratic_objective(rng.standard_normal((sc.n, sc.d)))
        trace = run_optimizer(
            "push_subgradient", seq, obj, constant_step(0.05), weights=weights, x0=x0, y0=y0
        )
    else:
        trace = run_weighted_pushsum(seq, weights, y0, x0)
    return seq, weights, trace


@contextmanager
def chunks_of(steps: int, n: int):
    """Size every chunk to ``steps`` steps of n x n matrices."""
    saved = pushsum.CHUNK_BYTES
    pushsum.CHUNK_BYTES = steps * 8 * n * n
    try:
        yield
    finally:
        pushsum.CHUNK_BYTES = saved


def pairs_of(trace):
    t0, t_end = trace.t0, trace.t0 + trace.steps
    mid = (t0 + t_end) // 2
    return sorted({(t_end, t0), (t_end, mid), (mid, t0), (mid, mid), (t_end, t_end)})


def checked(seq, trace):
    ys = trace.ys.copy()
    ys[1:, 0] += 1e-9  # the probability recursion is also checked on altered records
    pairs = pairs_of(trace)
    return scan_induced(trace, ys=ys, ratio_pairs=pairs, limit_pairs=pairs), weight_checks(trace, seq)


@PROPERTY
@given(scenarios())
def test_chunk_size_changes_no_bit(sc):
    results = []
    for steps in (1, 3, sc.horizon + 2):
        with chunks_of(steps, sc.n):
            seq, _, trace = simulate(sc)
            results.append((trace, checked(seq, trace)))
    (first, found), *others = results
    for trace, other in others:
        assert np.array_equal(trace.xs, first.xs) and np.array_equal(trace.ys, first.ys)
        assert other == found


@PROPERTY
@given(scenarios())
def test_stored_and_induced_matrices_match_single_steps(sc):
    seq, weights, trace = simulate(sc)
    with chunks_of(3, sc.n):
        seen = 0
        for k0, w, s in induced_chunks(trace):
            for j, k in enumerate(range(k0, k0 + len(s))):
                given_w = default_weights(seq[k]).matrix if weights == "default" else weights[k].matrix
                assert np.array_equal(trace.w_mats[k], given_w)
                assert np.array_equal(w[j], given_w)
                assert np.array_equal(s[j], s_matrix(given_w, trace.ys[k], trace.ys[k + 1]))
            seen += len(s)
    assert seen == trace.steps
    assert trace.w_mats.nbytes == (0 if weights == "default" else trace.w_mats.table.nbytes)


@PROPERTY
@given(scenarios())
def test_one_pass_matches_per_step_reference(sc):
    """The values of the loops the scan replaced: one s_matrix, one
    matrix-vector product and one explicit backward product per step."""
    seq, _, trace = simulate(sc)
    with chunks_of(3, sc.n):
        found, _ = checked(seq, trace)
    ys = trace.ys.copy()
    ys[1:, 0] += 1e-9
    s_all = [s_matrix(trace.w_mats[k], trace.ys[k], trace.ys[k + 1]) for k in range(trace.steps)]
    w_all = [trace.w_mats[k] for k in range(trace.steps)]
    worst = 0.0
    for k, s in enumerate(s_all):
        pi_now, pi_next = ys[k] / trace.kappa, ys[k + 1] / trace.kappa
        worst = max(worst, float(np.max(np.abs(s.T @ pi_next - pi_now))))
    assert found.probability.value == worst
    assert found.row_sums.value == max(float(np.max(np.abs(s.sum(axis=1) - 1.0))) for s in s_all)
    assert found.floor.value == min(float(s[s > 0.0].min()) for s in s_all)

    def product(mats, ti, taui):
        out = np.eye(trace.n)
        for k in range(taui, ti):
            out = mats[k] @ out
        return out

    for t, tau in pairs_of(trace):
        ti, taui = trace.index_of(t), trace.index_of(tau)
        phi_s, phi_w = product(s_all, ti, taui), product(w_all, ti, taui)
        lhs = phi_s * trace.ys[ti][:, np.newaxis]
        rhs = phi_w * trace.ys[taui][np.newaxis, :]
        assert found.ratio[(t, tau)].value == float(np.max(np.abs(lhs - rhs)))
        assert found.ratio[(t, tau)].value <= 1e-9
        limit = np.tile(trace.ys[taui] / trace.kappa, (trace.n, 1))
        assert found.limit[(t, tau)] == float(np.max(np.abs(phi_s - limit)))


def optimizer_inputs(sc: Scenario, algorithm: str) -> dict:
    """The keyword arguments of ``run_optimizer`` for ``algorithm`` on the
    scenario's graphs and weights, from a drawn y(0): a drawn Bernoulli
    switching table for the heterogeneous method and nonzero noise bounds
    for sgp."""
    seq, weights, rng = graphs_and_weights(sc)
    y0 = rng.uniform(0.5, 2.0, sc.n)
    x0 = rng.standard_normal((sc.n, sc.d))
    obj = quadratic_objective(rng.standard_normal((sc.n, sc.d)))
    schedule, sigma, oracle = constant_step(0.05), None, None
    if algorithm == "heterogeneous":
        table = (rng.random((sc.horizon, sc.n)) < rng.uniform(0.2, 0.8)).astype(float)
        sigma = SwitchingSignal("table", table=table)
    if algorithm == "sgp":
        schedule = sgp_strong(obj.lambda_bar)
        oracle = GradientOracle(rng.uniform(0.1, 1.0, sc.n), seed=sc.seed)
    return {
        "algorithm": algorithm,
        "seq": seq,
        "obj": obj,
        "schedule": schedule,
        "weights": weights,
        "x0": x0,
        "y0": y0,
        "sigma": sigma,
        "oracle": oracle,
    }


def run_algorithm(sc: Scenario, algorithm: str):
    """The trace of ``algorithm`` on the scenario: plain push-sum from
    y(0) = 1, weighted push-sum and the optimizers from a drawn y(0)."""
    if algorithm not in ("pushsum", "weighted_pushsum"):
        return run_optimizer(**optimizer_inputs(sc, algorithm))
    seq, weights, rng = graphs_and_weights(sc)
    y0 = rng.uniform(0.5, 2.0, sc.n)
    x0 = rng.standard_normal((sc.n, sc.d))
    if algorithm == "pushsum":
        return run_pushsum(seq, weights, x0)
    return run_weighted_pushsum(seq, weights, y0, x0)


def reference_optimizer(algorithm, seq, obj, schedule, weights, x0, y0, sigma, oracle):
    """xs, ys, gs and alphas of a per-step loop with one update formula
    per algorithm: subgradient-push and sgp correct, then mix;
    push-subgradient mixes, then corrects; the heterogeneous method
    picks one order per agent from its switching row."""
    t0 = 1 if algorithm == "sgp" else 0
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    xs, ys, gs, alphas = [x], [y], [], []
    for k in range(len(seq)):
        m = default_weights(seq[k]).matrix if weights == "default" else weights[k].matrix
        t = t0 + k
        alpha = schedule.alpha(t)
        z = x / y[:, np.newaxis]
        g = obj.subgradients(z) if oracle is None else oracle.gradients(obj, z, t)
        if algorithm in ("subgradient_push", "sgp"):
            x = m @ (x - alpha * g)
        elif algorithm == "push_subgradient":
            x = m @ x - alpha * g
        else:
            sig = sigma.row(t, seq.n)[:, np.newaxis]
            x = m @ (x - alpha * g * sig) - alpha * g * (1.0 - sig)
        y = m @ y
        xs.append(x)
        ys.append(y)
        gs.append(g)
        alphas.append(alpha)
    return np.stack(xs), np.stack(ys), np.stack(gs), np.array(alphas)


@PROPERTY
@given(scenarios())
def test_one_update_matches_per_algorithm_formulas(sc):
    """The single switched update reproduces each algorithm's own
    formula bit for bit: the arrays are compared byte for byte."""
    for algorithm in ALGORITHMS:
        inputs = optimizer_inputs(sc, algorithm)
        trace = run_optimizer(**inputs)
        expected = reference_optimizer(**inputs)
        for got, want in zip((trace.xs, trace.ys, trace.gs, trace.alphas), expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), algorithm


@PROPERTY
@given(scenarios())
def test_verify_identities_hold(sc):
    """Conservation, S(t) row sums and sparsity, the probability
    recursion, the ratio identity and the descent recursion, each within
    the tolerance ``verify`` applies, for every algorithm."""
    for algorithm in ("pushsum", "weighted_pushsum") + ALGORITHMS:
        trace = run_algorithm(sc, algorithm)
        y_tot = trace.ys.sum(axis=1)
        assert np.max(np.abs(y_tot - y_tot[0])) <= cli.TOL_MASS
        if trace.gs is None:
            x_tot = trace.xs.sum(axis=1)
            assert np.max(np.abs(x_tot - x_tot[0])) <= cli.TOL_MASS
        found = scan_induced(trace, ratio_pairs=pairs_of(trace))
        assert found.row_sums.value <= cli.TOL_ROW_STOCHASTIC
        assert found.sparsity.value == 0.0
        assert found.probability.value <= cli.TOL_ABS_PROBABILITY
        assert max(f.value for f in found.ratio.values()) <= cli.TOL_RATIO_IDENTITY
        if trace.gs is not None:
            assert np.max(descent_residuals(trace)) <= cli.TOL_DESCENT
