"""Property tests: the chunked trace storage and the one-pass checks
give the same bits as per-step work, whatever the chunk size, and every
exact identity that ``verify`` checks holds for every algorithm.

Inputs are random window-connected graph sequences or static graphs on
at most 8 agents, default or custom per-step weights with a declared
floor, y(0) != 1 and states of dimension up to 3. Examples are
derandomized, so the suite stays deterministic.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pushsumlab.optim as optim
import pushsumlab.pushsum as pushsum
from pushsumlab import cli
from pushsumlab.analysis import descent_residuals
from pushsumlab.graphs import (
    DirectedGraph,
    GraphSequence,
    complete_graph,
    generate_sequence,
    receive_matrices,
)
from pushsumlab.optim import (
    ALGORITHMS,
    GradientOracle,
    SwitchingSignal,
    absolute_deviation_objective,
    alternating_signal,
    bernoulli_signal,
    constant_step,
    huber_objective,
    quadratic_objective,
    run_optimizer,
    sgp_strong,
)
from pushsumlab.pushsum import (
    Finding,
    Replicas,
    induced_chunks,
    run_pushsum,
    run_weighted_pushsum,
    s_matrix,
    scan_induced,
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
    graph: str = "random-spanning"


# One matrix at every step: y(0) != 1 converges over several steps, on the
# complete graph's default weights to a fixed point that y, push-sum's x
# and verify's chain reach within the horizon, so the loop's fixed-point
# fill and the scan's skipped repeated steps run as well as the full walks.
STATIC = ("static-complete", "static-ring")


@st.composite
def scenarios(draw) -> Scenario:
    graph = draw(st.one_of(st.just("random-spanning"), st.sampled_from(STATIC)))
    return Scenario(
        n=draw(st.integers(2, 8)),
        horizon=draw(st.integers(1, 16 if graph == "random-spanning" else 40)),
        d=draw(st.integers(1, 3)),
        window=draw(st.integers(1, 3)),
        extra_arc_prob=draw(st.sampled_from([0.0, 0.3])),
        custom=draw(st.booleans()),
        optimizer=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
        graph=graph,
    )


def custom_weights(adj: np.ndarray, rng: np.random.Generator) -> WeightMatrix:
    """Column-stochastic weights on the arcs of the receive matrix adj,
    floor at their minimum."""
    raw = np.where(adj, rng.uniform(0.5, 1.5, adj.shape), 0.0)
    m = raw / raw.sum(axis=0)
    return WeightMatrix(m, beta=float(m[adj].min()))


def graphs_and_weights(sc: Scenario):
    """The scenario's graph sequence and per-step weights, and the
    generator that drew them, for the draws that follow."""
    rng = np.random.default_rng(sc.seed)
    params = {}
    if sc.graph not in STATIC:
        params = {"window": sc.window, "extra_arc_prob": sc.extra_arc_prob}
    seq = generate_sequence(sc.graph, sc.n, sc.horizon, sc.seed, params)
    weights = "default"
    if sc.custom:
        # one matrix per distinct graph, so repeated graphs share a table entry
        per_graph = [custom_weights(adj, rng) for adj in receive_matrices(seq.table)]
        weights = [per_graph[i] for i in seq.ids.tolist()]
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
def patched(module, **values):
    """Set module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def chunks_of(steps: int, n: int):
    """Size every chunk to ``steps`` steps of n x n matrices."""
    return patched(pushsum, CHUNK_BYTES=steps * 8 * n * n)


def chains_of(trace):
    """tau -> the t's a scan from tau evaluates: t0, mid and t_end, each
    from every tau at or before it."""
    t0, t_end = trace.t0, trace.t0 + trace.steps
    mid = (t0 + t_end) // 2
    return {t0: [mid, t_end], mid: [mid, t_end], t_end: [t_end]}


def checked(seq, trace):
    """tau -> the scan of one chain from tau, for each tau of chains_of."""
    ys = trace.ys.copy()
    ys[1:, 0] += 1e-9  # the probability recursion is also checked on altered records
    return {
        tau: scan_induced(trace, seq, ys, tau, ratio_at=ts, limit_at=ts)
        for tau, ts in chains_of(trace).items()
    }


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
@given(scenarios(), st.integers(1, 3))
def test_one_pass_matches_per_step_reference(sc, steps):
    """The values of the loops the scan replaced: one s_matrix, one
    matrix-vector product and one explicit backward product per step,
    and each weight finding of a per-step loop, checked against the
    run's graphs and against complete graphs, in chunks of 1 to 3 steps."""
    seq, _, trace = simulate(sc)
    with chunks_of(steps, sc.n):
        scans = checked(seq, trace)
        other = complete_graphs(seq)
        off_graph = scan_induced(trace, other).graph
    found = scans[trace.t0]
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
    assert found.columns == first_extreme(
        w_all, lambda w: np.abs(w.sum(axis=0) - 1.0), ("column",), trace.times()
    )
    assert found.w_rows == first_extreme(
        w_all, lambda w: np.abs(w.sum(axis=1) - 1.0), ("row",), trace.times()
    )
    assert found.beta_min == first_extreme(
        w_all, lambda w: -np.where(w > 0.0, w, np.inf), ("row", "column"), trace.times(), -1.0
    )
    for graphs, graph in ((seq, found.graph), (other, off_graph)):
        assert graph == first_mismatch(w_all, graphs, trace.times())

    for tau, ts in chains_of(trace).items():
        for t in ts:
            ti, taui = trace.index_of(t), trace.index_of(tau)
            phi_s, phi_w = product(s_all, ti, taui), product(w_all, ti, taui)
            lhs = phi_s * trace.ys[ti][:, np.newaxis]
            rhs = phi_w * trace.ys[taui][np.newaxis, :]
            assert scans[tau].ratio[(t, tau)].value == float(np.max(np.abs(lhs - rhs)))
            assert scans[tau].ratio[(t, tau)].value <= 1e-9
            limit = np.tile(trace.ys[taui] / trace.kappa, (trace.n, 1))
            assert scans[tau].limit[(t, tau)] == float(np.max(np.abs(phi_s - limit)))


def product(mats, ti, taui):
    """The explicit backward product mats[ti-1] @ ... @ mats[taui]."""
    out = np.eye(len(mats[0]))
    for k in range(taui, ti):
        out = mats[k] @ out
    return out


@PROPERTY
@given(scenarios(), st.integers(1, 5), st.data())
def test_every_pair_equals_its_explicit_products(sc, steps, data):
    """Random pairs over several taus, evaluated by one scan per tau
    under any chunk size, give the explicit products' values."""
    seq, _, trace = simulate(sc)
    times = st.integers(trace.t0, trace.t0 + trace.steps)
    pairs = st.lists(st.tuples(times, times).map(lambda p: (max(p), min(p))), max_size=8)
    ratio_pairs, limit_pairs = data.draw(pairs), data.draw(pairs)
    ratio, limit = {}, {}
    for tau in dict.fromkeys(tau for _, tau in ratio_pairs + limit_pairs):
        ratio_at = [t for t, other in ratio_pairs if other == tau]
        limit_at = [t for t, other in limit_pairs if other == tau]
        with chunks_of(steps, sc.n):
            found = scan_induced(trace, tau=tau, ratio_at=ratio_at, limit_at=limit_at)
        assert list(found.ratio) == list(dict.fromkeys((t, tau) for t in ratio_at))
        assert list(found.limit) == list(dict.fromkeys((t, tau) for t in limit_at))
        ratio.update(found.ratio)
        limit.update(found.limit)
    s_all = [trace.s_mat(k) for k in range(trace.steps)]
    w_all = [trace.w_mats[k] for k in range(trace.steps)]
    for t, tau in ratio_pairs:
        ti, taui = trace.index_of(t), trace.index_of(tau)
        lhs = product(s_all, ti, taui) * trace.ys[ti][:, np.newaxis]
        diff = np.abs(lhs - product(w_all, ti, taui) * trace.ys[taui][np.newaxis, :])
        row, column = np.unravel_index(int(np.argmax(diff)), diff.shape)
        where = {"t": t, "tau": tau, "row": int(row), "column": int(column)}
        assert ratio[(t, tau)] == Finding(float(diff[row, column]), where)
    for t, tau in limit_pairs:
        ti, taui = trace.index_of(t), trace.index_of(tau)
        dev = np.abs(product(s_all, ti, taui) - trace.ys[taui] / trace.kappa)
        assert limit[(t, tau)] == float(np.max(dev))


def complete_graphs(seq):
    """A sequence of complete graphs as long as ``seq``."""
    return GraphSequence((complete_graph(seq.n),), ids=[0] * len(seq))


def first_extreme(mats, score, names, labels, sign=1.0):
    """The largest entry of score(m) over the per-step matrices, the
    first step and then the first entry in row-major order on a tie, as
    a Finding whose value is multiplied by ``sign``."""
    best = None
    for k, m in enumerate(mats):
        values = score(m)
        index = np.unravel_index(int(np.argmax(values)), values.shape)
        if best is None or values[index] > best[0]:
            best = (values[index], {"step": int(labels[k]), **dict(zip(names, map(int, index)))})
    return Finding(sign * float(best[0]), best[1])


def first_mismatch(mats, seq, labels):
    """The first step and entry where W(k) > 0 and the arcs of seq[k]
    disagree, or no finding."""
    for k, m in enumerate(mats):
        off = np.argwhere((m > 0.0) != seq[k].adj)
        if off.size:
            i, j = off[0].tolist()
            return Finding(1.0, {"step": int(labels[k]), "row": i, "column": j})
    return Finding(0.0, {})


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
@given(scenarios(), st.integers(1, 3), st.sampled_from([1, 4]))
def test_replicas_equal_single_runs(sc, replicas, sgp_d):
    """S seeds run as replicas of one loop give each seed's single run bit
    for bit: a Bernoulli signal per seed for the heterogeneous method, an
    oracle per seed for sgp (at d = 4 a draw reads into the next time's
    block and some draws leave the ziggurat's fast path), and S copies of
    the one run for the other two."""
    for algorithm in ALGORITHMS:
        inputs = optimizer_inputs(replace(sc, d=sgp_d) if algorithm == "sgp" else sc, algorithm)
        seeds = range(sc.seed, sc.seed + replicas)
        sigmas = oracles = [None] * replicas
        if algorithm == "heterogeneous":
            sigmas = [bernoulli_signal(0.3 + 0.1 * sc.window, seed=s) for s in seeds]
        if algorithm == "sgp":
            oracles = [GradientOracle(inputs["oracle"].noise_bounds, seed=s) for s in seeds]
        batch = run_optimizer(**{**inputs, "sigma": sigmas, "oracle": oracles})
        assert len(batch) == replicas
        for r in range(replicas):
            single = run_optimizer(**{**inputs, "sigma": sigmas[r], "oracle": oracles[r]})
            for name in ("xs", "ys", "gs", "sigmas", "alphas"):
                got, want = getattr(batch[r], name), getattr(single, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (algorithm, name)


def reference_dynamics(algorithm, mixing, x, y, t0=0, gradient=None, alphas=None, sigmas=None):
    """The dynamics loop in the update formula's own order, one step at a
    time with no chunks: s = alpha g, then x <- W (x - s sigma) - s (1 - sigma)
    and y <- W y, each product a fresh array; y is a (1, n, 1) stack. The
    gradient closure writes into a fresh g and gets the ratios x / y as a
    scratch array of their own, which it may overwrite."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)[np.newaxis, :, np.newaxis]
    xs, ys, gs = [x], [y], []
    for k in range(len(mixing)):
        w = mixing[k]
        g = np.full_like(x, np.nan)
        gradient(t0 + k, x / y, out=g)
        s = alphas[k] * g
        sigma = sigmas[k][:, :, np.newaxis]
        x = w @ (x - s * sigma) - s * (1.0 - sigma)
        y = w @ y
        xs.append(x)
        ys.append(y)
        gs.append(g)
    ys = np.stack(ys)[:, 0, :, 0]
    return Replicas(
        algorithm, t0, np.stack(xs), ys, mixing, float(np.sum(ys[0])), alphas, np.stack(gs), sigmas
    )


@PROPERTY
@given(
    scenarios(),
    st.integers(1, 3),
    st.sampled_from([1, 4]),
    st.booleans(),
    st.sampled_from(["table", "alternating"]),
    st.integers(1, 3),
    st.integers(1, 3),
)
@example(Scenario(3, 9, 1, 2, 0.3, True, True, 7), 2, 4, True, "table", 3, 2)
def test_step_order_matches_the_reference_loop(sc, replicas, sgp_d, zeros, signal, chunk, block):
    """The loop's step coefficients alpha sigma and alpha (1 - sigma), built
    a block of steps at a time, its gradient rows written in place and its
    in-place products give the bits of the formula's own order for every
    algorithm: from zero states under
    abs, where sign(0) = 0 makes signed zeros, with a switching table per
    replica or the alternating signal, and with chunks and coefficient
    blocks of 1 to 3 steps whose edges fall apart."""
    for algorithm in ALGORITHMS:
        inputs = optimizer_inputs(replace(sc, d=sgp_d) if algorithm == "sgp" else sc, algorithm)
        seeds = range(sc.seed, sc.seed + replicas)
        rng = np.random.default_rng(sc.seed)
        sigmas = oracles = [None] * replicas
        if zeros:
            n, d = inputs["x0"].shape
            inputs["x0"] = np.where(rng.random((n, d)) < 0.5, -0.0, 0.0)
            if algorithm != "sgp":
                inputs["obj"] = absolute_deviation_objective(rng.integers(-1, 2, (n, d)).astype(float))
        if algorithm == "heterogeneous":
            if signal == "alternating":
                sigmas = [alternating_signal()] * replicas
            else:
                shape = (sc.horizon, sc.n)
                sigmas = [SwitchingSignal("table", table=rng.random(shape) < 0.5) for _ in seeds]
        if algorithm == "sgp":
            oracles = [GradientOracle(inputs["oracle"].noise_bounds, seed=s) for s in seeds]
        inputs = {**inputs, "sigma": sigmas, "oracle": oracles}
        with chunks_of(chunk, sc.n), patched(pushsum, COEFFICIENT_BYTES=8 * replicas * sc.n * block):
            got = run_optimizer(**inputs)
        with patched(optim, run_dynamics=reference_dynamics):
            want = run_optimizer(**inputs)
        for name in ("xs", "ys", "gs", "sigmas", "alphas"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (algorithm, name)


@pytest.mark.parametrize("graph", ["static-complete", "random-spanning"])
def test_one_agent_from_zero_states_matches_the_reference_loop(graph):
    """At n = 1 numpy mixes with one multiplication, not a BLAS sum whose
    zero is +0 whatever the signs of its terms; the constant-signal steps,
    which skip a signed-zero product, still give the reference loop's
    bits from +-0 states under abs, where sign(0) = 0."""
    for seed in range(12):
        sc = Scenario(1, 12, 2, 1, 0.0, False, True, seed, graph)
        for algorithm in ALGORITHMS:
            inputs = optimizer_inputs(sc, algorithm)
            rng = np.random.default_rng(seed)
            inputs["x0"] = np.where(rng.random((1, 2)) < 0.5, -0.0, 0.0)
            if algorithm != "sgp":
                anchors = rng.integers(-1, 2, (1, 2)).astype(float)
                inputs["obj"] = absolute_deviation_objective(anchors)
            got = run_optimizer(**inputs)
            with patched(optim, run_dynamics=reference_dynamics):
                want = run_optimizer(**inputs)
            for name in ("xs", "ys", "gs"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.tobytes() == b.tobytes(), (seed, algorithm, name)


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
        scans = [scan_induced(trace, tau=tau, ratio_at=ts) for tau, ts in chains_of(trace).items()]
        found = scans[0]
        assert found.row_sums.value <= cli.TOL_ROW_STOCHASTIC
        assert found.sparsity.value == 0.0
        assert found.probability.value <= cli.TOL_ABS_PROBABILITY
        ratio = [f.value for scan in scans for f in scan.ratio.values()]
        assert max(ratio) <= cli.TOL_RATIO_IDENTITY
        if trace.gs is not None:
            assert np.max(descent_residuals(trace)) <= cli.TOL_DESCENT


@st.composite
def skewed_sequences(draw):
    """A random sparsity pattern with self-loops at every step, and
    weights u^3 normalized per column, so a few entries dominate."""
    n, horizon = draw(st.integers(2, 6)), draw(st.integers(1, 12))
    density, seed = draw(st.sampled_from([0.2, 0.5, 0.9])), draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    graphs, weights = [], []
    for _ in range(horizon):
        adj = rng.random((n, n)) < density
        np.fill_diagonal(adj, True)
        receivers, senders = np.nonzero(adj)
        graphs.append(DirectedGraph(n, zip(senders.tolist(), receivers.tolist())))
        raw = np.where(adj, (1.0 - rng.random((n, n))) ** 3, 0.0)
        m = raw / raw.sum(axis=0)
        weights.append(WeightMatrix(m, beta=float(m[adj].min())))
    return GraphSequence(graphs), weights, rng.standard_normal((n, 1))


@PROPERTY
@given(skewed_sequences())
def test_longer_products_from_tau_are_nearer_rank_one(case):
    """The product-limit check of ``verify`` cannot fail a correct run.

    For fixed tau the deviation factors exactly:
    Phi_S(t_end, tau) - 1 pi(tau)^T = Phi_S(t_end, mid) (Phi_S(mid, tau) - 1 pi(tau)^T),
    and every row of Phi_S(t_end, mid) is a probability vector, so no
    entry grows. The fixed-t ordering, Phi_S(t_end, t0) at least as near
    rank one as Phi_S(t_end, mid), has no such factorization and fails on
    valid column-stochastic sequences, so it is not checked.
    """
    seq, weights, x0 = case
    trace = run_pushsum(seq, weights, x0)
    t0, t_end = trace.t0, trace.t0 + trace.steps
    mid = t0 + trace.steps // 2
    limit = scan_induced(trace, limit_at=[t_end, mid]).limit
    assert limit[(t_end, t0)] <= limit[(mid, t0)] + 1e-12


@st.composite
def noise_tables(draw):
    """An oracle over 1..4 agents whose noise bounds hold a zero, and a
    (t0, steps, d, draw) request: t0 at 0, 1, far out, or ending at the
    top of Philox's 64-bit counter word."""
    bounds = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.5]), min_size=0, max_size=3))
    bounds.insert(draw(st.integers(0, len(bounds))), 0.0)
    steps = draw(st.integers(1, 120))
    t0 = draw(st.sampled_from([0, 1, 2**40 + 3, 2**64 - steps]))
    oracle = GradientOracle(bounds, seed=draw(st.integers(0, 2**128 - 1)))
    return oracle, t0, steps, draw(st.integers(1, 7)), draw(st.sampled_from([0, 2]))


@PROPERTY
@given(noise_tables())
@example((GradientOracle([1.0, 0.0], seed=2**127 + 1), 2**64 - 60, 60, 4, 2))
@example((GradientOracle([0.0, 0.5, 2.0], seed=3), 0, 80, 7, 0))
def test_noise_table_is_noise_rows(case):
    """One stream per agent gives the bytes of the addressed draws, also at
    d >= 4, where a draw reads into the next time's block."""
    oracle, t0, steps, d, draw = case
    agents = range(len(oracle.noise_bounds))
    want = np.array([[oracle.noise(i, t, d, draw) for i in agents] for t in range(t0, t0 + steps)])
    assert oracle.noise_table(t0, steps, d, draw).tobytes() == want.tobytes()


def reference_gradient_rows(obj, r):
    """Each kind's gradient, one (d,) row of the (..., n, d) residuals at
    a time, with agent i's own scale."""
    out = np.empty_like(r)
    for at in np.ndindex(r.shape[:-1]):
        row, i = r[at], at[-1]
        if obj.kind == "abs":
            out[at] = np.sign(row)
        elif obj.kind == "quadratic":
            out[at] = obj.scales[i] * row
        else:
            out[at] = np.clip(row, -obj.delta, obj.delta)
    return out


@PROPERTY
@given(st.integers(0, 3), st.integers(1, 5), st.integers(1, 3), st.floats(0.125, 4.0), st.data())
def test_in_place_kernels_equal_gradients(replicas, n, d, delta, data):
    """Each kind's in-place kernel, which the loop resolves once per run,
    writes the bits of a per-row reference into a used buffer, for
    (S, n, d) residuals or one replica's (n, d) rows (``replicas`` 0) that
    hold +-0.0, +-inf, nan and huber's |r| = delta; ``_gradients``, which
    the library calls use, gives the same bits."""
    shape = (n, d) if replicas == 0 else (replicas, n, d)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, delta, -delta])
    values = st.one_of(special, st.floats(-1e3, 1e3))
    size = int(np.prod(shape))
    r = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
    scales = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    anchors = np.zeros((n, d))
    for obj in (
        absolute_deviation_objective(anchors),
        quadratic_objective(anchors, scales),
        huber_objective(anchors, delta),
    ):
        want = reference_gradient_rows(obj, r)
        out = np.full(shape, 7.0)
        obj._gradient_kernel(obj.scales[:, np.newaxis])(r.copy(), out=out)
        assert out.tobytes() == want.tobytes(), obj.kind
        assert obj._gradients(r, obj.scales[:, np.newaxis]).tobytes() == want.tobytes(), obj.kind


def chain_at_every_t(trace, tau):
    """The ratio findings and limit values of every t >= tau, from one
    chain walked a step at a time with fresh products and evaluated at
    each step."""
    taui = trace.index_of(tau)
    phi_s = phi_w = np.eye(trace.n)
    ratio, limit = {}, {}
    for ti in range(taui, trace.steps + 1):
        if ti > taui:
            phi_s = trace.s_mat(ti - 1) @ phi_s
            phi_w = trace.w_mats[ti - 1] @ phi_w
        t = trace.t0 + ti
        diff = np.abs(phi_s * trace.ys[ti][:, np.newaxis] - phi_w * trace.ys[taui][np.newaxis, :])
        row, column = np.unravel_index(int(np.argmax(diff)), diff.shape)
        where = {"t": t, "tau": tau, "row": int(row), "column": int(column)}
        ratio[(t, tau)] = Finding(float(diff[row, column]), where)
        limit[(t, tau)] = float(np.max(np.abs(phi_s - trace.ys[taui] / trace.kappa)))
    return ratio, limit


@PROPERTY
@given(scenarios(), st.integers(1, 4), st.data())
def test_due_only_scan_equals_a_chain_evaluated_at_every_t(sc, steps, data):
    """A scan evaluates its chain only at the asked-for times; every ratio
    finding (value and where) and limit value equals the one a chain
    evaluated at every t reads there, from several tau, with and without
    the W chain (no ratio times) and under any chunk size."""
    _, _, trace = simulate(sc)
    times = list(range(trace.t0, trace.t0 + trace.steps + 1))
    for tau in data.draw(st.lists(st.sampled_from(times), min_size=1, max_size=3, unique=True)):
        later = st.sampled_from([t for t in times if t >= tau])
        ratio_at = data.draw(st.lists(later, max_size=4))
        limit_at = data.draw(st.lists(later, max_size=4))
        with chunks_of(steps, sc.n):
            found = scan_induced(trace, tau=tau, ratio_at=ratio_at, limit_at=limit_at)
        ratio, limit = chain_at_every_t(trace, tau)
        assert found.ratio == {key: ratio[key] for key in found.ratio}
        assert found.limit == {key: limit[key] for key in found.limit}
        assert set(found.ratio) == {(t, tau) for t in ratio_at}
        assert set(found.limit) == {(t, tau) for t in limit_at}


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_one_replica_equals_replica_zero_of_a_batch(n):
    """A single run, which mixes its (n, d) rows with np.dot, equals replica
    0 of an S = 2 batch, which mixes with the stacked matmul, bit for bit:
    push-sum from y(0) != 1 and every optimizer, at d = 1 and d = 3."""
    seq = generate_sequence("random-spanning", n, 20, n, {"window": 2, "extra_arc_prob": 0.3})
    rng = np.random.default_rng(n)
    for d in (1, 3):
        mixing = pushsum.resolve_weight_sequence(seq, "default", len(seq))
        x, y = rng.standard_normal((2, n, d)), rng.uniform(0.5, 2.0, n)
        single = pushsum.run_dynamics("pushsum", mixing, x[:1], y)
        batch = pushsum.run_dynamics("pushsum", mixing, x, y)
        assert single.xs.tobytes() == batch.xs[:, :1].tobytes()
        assert single.ys.tobytes() == batch.ys.tobytes()
        sc = Scenario(n, len(seq), d, 2, 0.3, False, True, n)
        for algorithm in ALGORITHMS:
            inputs = {**optimizer_inputs(sc, algorithm), "seq": seq}
            one = run_optimizer(**inputs)
            two = run_optimizer(**{**inputs, "sigma": [inputs["sigma"]] * 2, "oracle": [inputs["oracle"]] * 2})
            for name in ("xs", "ys", "gs"):
                got, want = getattr(one, name), getattr(two[0], name)
                assert got.tobytes() == want.tobytes(), (algorithm, d, name)
