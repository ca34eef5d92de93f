import os
import re
import tracemalloc

import numpy as np
import pytest

from pushsumlab import graphs
from pushsumlab.graphs import (
    GENERATOR_KINDS,
    DirectedGraph,
    GraphSequence,
    complete_graph,
    directed_ring,
    first_failing_window,
    generate_sequence,
    is_strongly_connected,
    is_uniformly_strongly_connected,
    load_sequence,
    receive_matrices,
    save_sequence,
    sequence_header,
    undirected_ring,
)
from pushsumlab.weights import default_weights


def reachability(g):
    # transitive closure by repeated boolean multiplication
    n = g.n
    adj = g.adj.T
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach @ adj)
    return reach


def components_brute_force(g):
    reach = reachability(g)
    mutual = reach & reach.T
    comps = []
    seen = set()
    for v in range(g.n):
        if v in seen:
            continue
        comp = {u for u in range(g.n) if mutual[v, u]}
        seen |= comp
        comps.append(comp)
    return comps


class CountingOr:
    """np.bitwise_or, counting the packed rows that ``reduceat`` ORs."""

    bitwise_or = np.bitwise_or

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self.bitwise_or, name)

    def reduceat(self, a, indices, **kwargs):
        self.rows += len(a)
        return self.bitwise_or.reduceat(a, indices, **kwargs)


def random_graph(rng, n, p=0.3):
    arcs = [(j, i) for j in range(n) for i in range(n) if j != i and rng.random() < p]
    return DirectedGraph.from_arcs(n, arcs)


def random_spanning_reference(n, horizon, seed, window, p_extra):
    # the arc-by-arc form of the random-spanning generator: same RNG
    # calls in the same order, one Python test per (j, i) pair
    rng = np.random.default_rng(seed)
    arcs_by_step = [set() for _ in range(horizon)]
    for b in range(-(-horizon // window)):
        perm = rng.permutation(n)
        slots = rng.integers(0, window, size=n)
        for k in range(n):
            t = b * window + int(slots[k])
            if t < horizon:
                arcs_by_step[t].add((int(perm[k]), int(perm[(k + 1) % n])))
        if p_extra > 0.0:
            for t in range(b * window, min((b + 1) * window, horizon)):
                draws = rng.random((n, n))
                for j in range(n):
                    for i in range(n):
                        if j != i and draws[j, i] < p_extra:
                            arcs_by_step[t].add((j, i))
    return [DirectedGraph.from_arcs(n, a) for a in arcs_by_step]


class TestDirectedGraph:
    def test_requires_self_loops(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, frozenset({(0, 0), (0, 1)}))

    def test_rejects_out_of_range_arcs(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(2, [(0, 2)])
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(2, [(-1, 0)])

    def test_from_arcs_adds_loops(self):
        g = DirectedGraph.from_arcs(3, [(0, 1)])
        assert (0, 0) in g.arcs and (1, 1) in g.arcs and (2, 2) in g.arcs
        assert (0, 1) in g.arcs
        assert len(g.arcs) == 4

    def test_neighbor_sets(self):
        g = DirectedGraph.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
        # column j holds j's receivers, row i the senders i hears from
        assert g.adj[:, 0].tolist() == [True, True, True]
        assert g.adj[2].tolist() == [True, True, True]
        assert g.adj[0].tolist() == [True, False, False]

    def test_receive_matrix_orientation(self):
        # arc (j, i): j sends to i, so row i column j is set
        g = DirectedGraph.from_arcs(2, [(0, 1)])
        expected = np.array([[True, False], [True, True]])
        assert np.array_equal(g.adj, expected)

    def test_vertex_bounds_checked(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) out of range for n=2"):
            DirectedGraph(2, complete_graph(2).arcs | {(2, 2)})

    def test_equal_arcs_give_equal_graphs(self):
        a = DirectedGraph.from_arcs(3, [(0, 1), (2, 1)])
        b = DirectedGraph(3, {(2, 1), (1, 1), (0, 0), (0, 1), (2, 2)})
        assert a == b and hash(a) == hash(b)
        assert a != DirectedGraph.from_arcs(3, [(1, 0), (2, 1)])
        assert a != DirectedGraph.from_arcs(4, [(0, 1), (2, 1)])

    def test_repr_needs_no_bitwise_count(self, monkeypatch):
        # np.bitwise_count first appeared in numpy 2.0; the package supports 1.24
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert repr(directed_ring(3)) == "DirectedGraph(n=3, arcs=6)"

    def test_adjacency_is_read_only(self):
        g = directed_ring(3)
        assert g.adj.dtype == bool and g.adj[1, 0] and not g.adj[0, 1]
        with pytest.raises(ValueError):
            g.adj[0, 1] = True


class TestBuiltinsAndUnion:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert len(g.arcs) == 16
        assert is_strongly_connected(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 51, 200])
    def test_complete_graph_equals_its_arc_list(self, n):
        # packed rows with the padding bits past column n-1 clear
        g = complete_graph(n)
        want = DirectedGraph.from_arcs(n, ((j, i) for j in range(n) for i in range(n)))
        assert g.n == n and g.bits.tobytes() == want.bits.tobytes() and g.bits.shape == want.bits.shape
        assert g == want and hash(g) == hash(want)
        with pytest.raises(ValueError, match="at least one vertex"):
            complete_graph(0)

    def test_directed_ring(self):
        g = directed_ring(4)
        assert len(g.arcs) == 8
        assert is_strongly_connected(g)
        assert g.adj[:, 1].tolist() == [False, True, True, False]

    def test_undirected_ring(self):
        g = undirected_ring(4)
        assert len(g.arcs) == 12
        assert g.adj[:, 1].tolist() == [True, True, True, False]

    def test_single_vertex(self):
        g = complete_graph(1)
        assert g.arcs == frozenset({(0, 0)})
        assert is_strongly_connected(g)

    def test_union_combines_arcs(self):
        a = DirectedGraph.from_arcs(3, [(0, 1)])
        b = DirectedGraph.from_arcs(3, [(1, 2), (2, 0)])
        assert not is_strongly_connected(a)
        assert not is_strongly_connected(b)
        assert is_strongly_connected(DirectedGraph(3, a.arcs | b.arcs))

    def test_union_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, complete_graph(2).arcs | complete_graph(3).arcs)


class TestStronglyConnectedComponents:
    # strong connectivity means one strongly connected component

    def test_single_component(self):
        assert is_strongly_connected(directed_ring(5))

    def test_two_components(self):
        # 0 <-> 1 feeding into 2 <-> 3
        arcs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
        assert len(components_brute_force(DirectedGraph.from_arcs(4, arcs))) == 2
        assert not is_strongly_connected(DirectedGraph.from_arcs(4, arcs))
        assert is_strongly_connected(DirectedGraph.from_arcs(4, arcs + [(3, 0)]))

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        verdicts = []
        for _ in range(60):
            n = int(rng.integers(1, 7))
            g = random_graph(rng, n)
            verdicts.append(is_strongly_connected(g))
            assert verdicts[-1] == (len(components_brute_force(g)) == 1)
        assert any(verdicts) and not all(verdicts)

    def test_matches_brute_force_across_several_bytes(self):
        # rows of 9 to 24 vertices pack into two or three bytes
        rng = np.random.default_rng(43)
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(9, 25))
            arcs = [(j, i) for j in range(n) for i in range(n) if j != i and rng.random() < 0.15]
            g = DirectedGraph.from_arcs(n, arcs)
            verdicts.append(is_strongly_connected(g))
            assert verdicts[-1] == (len(components_brute_force(g)) == 1)
        assert any(verdicts) and not all(verdicts)

    def test_deep_chain_does_not_recurse(self):
        # the search must survive a path longer than any plausible
        # recursion limit, in both directions
        n = 5000
        chain = [(i, i + 1) for i in range(n - 1)]
        assert not is_strongly_connected(DirectedGraph.from_arcs(n, chain))
        assert is_strongly_connected(DirectedGraph.from_arcs(n, chain + [(n - 1, 0)]))


    def test_stacked_search_matches_brute_force(self):
        # one search call takes a (k, n, ceil(n/8)) stack, rows of one to
        # three bytes, and gives each graph its own verdict
        rng = np.random.default_rng(29)
        verdicts = set()
        for n in range(1, 25):
            pool = [random_graph(rng, n, rng.uniform(0.5 / n, 3 / n)) for _ in range(int(rng.integers(1, 41)))]
            got = graphs._strongly_connected(np.stack([g.bits for g in pool]))
            want = [len(components_brute_force(g)) == 1 for g in pool]
            assert got.shape == (len(pool),) and got.tolist() == want
            verdicts.update(want)
        assert verdicts == {True, False}
        ring, loops = directed_ring(5), DirectedGraph.from_arcs(5, [])
        stack = np.stack([[ring.bits, loops.bits, ring.bits], [loops.bits, ring.bits, loops.bits]])
        assert graphs._strongly_connected(stack).tolist() == [[True, False, True], [False, True, False]]
        assert graphs._strongly_connected(ring.bits).shape == ()

    @pytest.mark.parametrize("n", [1, 3, 8, 9, 17, 51, 64, 200])
    def test_bit_block_transpose_is_the_bool_round_trip(self, n):
        rng = np.random.default_rng(n)
        adj = rng.random((3, n, n)) < np.array([0.05, 0.3, 0.9])[:, None, None]
        want = np.packbits(np.ascontiguousarray(adj.swapaxes(1, 2)), axis=-1)
        got = graphs._transpose(np.packbits(adj, axis=-1))
        assert got.dtype == np.uint8 and got.shape == want.shape and np.array_equal(got, want)

    def test_deep_search_expands_each_vertex_once(self, monkeypatch):
        # the packed rows ORed over all levels: at most n per direction
        # (the path from 0 expands all n in one of them),
        # so the work stays O(n^2) on a path as deep as the graph
        n = 5000
        chain = [(i, i + 1) for i in range(n - 1)]
        for arcs, verdict in ((chain, False), (chain + [(n - 1, 0)], True)):
            g = DirectedGraph.from_arcs(n, arcs)
            counting = CountingOr()
            monkeypatch.setattr(np, "bitwise_or", counting)
            assert is_strongly_connected(g) == verdict
            monkeypatch.undo()
            assert n < counting.rows <= 2 * n


class TestUniformConnectivity:
    def test_rotating_edge_window(self):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=40)
        assert seq.claimed_window == 4
        assert is_uniformly_strongly_connected(seq, 4)
        assert not is_uniformly_strongly_connected(seq, 3)

    def test_window_larger_than_sequence_raises(self):
        seq = generate_sequence("static-ring", n=3, horizon=2)
        with pytest.raises(ValueError):
            is_uniformly_strongly_connected(seq, 3)

    def test_bad_window_raises(self):
        seq = generate_sequence("static-ring", n=3, horizon=2)
        with pytest.raises(ValueError):
            is_uniformly_strongly_connected(seq, 0)

    def test_rotating_edge_short_window_fails_at_offset_0(self):
        n = 6
        seq = generate_sequence("rotating-single-edge", n=n, horizon=5 * n)
        assert first_failing_window(seq, n - 1) == 0
        assert first_failing_window(seq, n) is None

    def test_first_failing_window_is_the_first(self):
        loops = DirectedGraph.from_arcs(3, [])
        ring = directed_ring(3)
        seq = GraphSequence([ring] * 5 + [loops] * 3 + [ring] * 4)
        assert first_failing_window(seq, 1) == 5
        assert first_failing_window(seq, 2) == 5
        assert first_failing_window(seq, 3) == 5
        assert first_failing_window(seq, 4) is None
        assert first_failing_window(GraphSequence([loops] * 2 + [ring]), 2) == 0

    def test_each_distinct_window_checked_once(self, monkeypatch):
        # every window the previous-window skip leaves has its union formed
        # and digested once; only a union with new bytes joins a stack
        # that is searched
        a, b, c = directed_ring(4), complete_graph(4), undirected_ring(4)
        seq, ring = GraphSequence([a, b, c] * 10), generate_sequence("static-ring", 3, 10_000)
        searched, digested = [], []
        search, digests = graphs._strongly_connected, graphs._digests
        monkeypatch.setattr(graphs, "_strongly_connected", lambda bits: searched.append(len(bits)) or search(bits))
        monkeypatch.setattr(graphs, "_digests", lambda rows: digested.append(len(rows)) or digests(rows))
        # windows of two cycle through {a, b}, {b, c} and {c, a}; the
        # first two have the same union, the complete graph. No window
        # repeats the one before, so all 29 unions are formed
        assert first_failing_window(seq, 2) is None
        assert sum(digested) == 29 and sum(searched) == 2
        searched.clear(), digested.clear()
        assert is_uniformly_strongly_connected(ring, 1)
        assert sum(digested) == sum(searched) == 1

    def test_batches_keep_the_first_failing_offset(self, monkeypatch):
        # at n=4 a budget of 32 bytes holds two bool 4 x 4 matrices, so
        # each search call takes at most two new unions
        rings = [directed_ring(4)] + [
            DirectedGraph.from_arcs(4, [(p[k], p[(k + 1) % 4]) for k in range(4)])
            for p in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1))
        ]  # six distinct strongly connected graphs
        loops, path = DirectedGraph.from_arcs(4, []), DirectedGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3)])
        r0, r1, r2, r3, r4, r5 = rings
        cases = [
            ([r0, loops, r1, r2], 1, [2]),  # in batch 1
            ([r0, r0, r1, r0, r2, r3, r1, r4, loops, r5], 8, [2, 2, 2]),  # in batch 3
            ([r0, r1, loops, r2, loops, r3], 2, [2, 2]),  # repeats after its first offset
            ([r0, r1, path, r0, path, loops], 2, [2, 2]),  # twice in one batch, beside a later failure
        ]
        searched = []
        search = graphs._strongly_connected
        for steps, offset, stacks in cases:
            seq = GraphSequence(steps)
            brute = [s for s, g in enumerate(steps) if len(components_brute_force(g)) > 1]
            assert brute[0] == offset == first_failing_window(seq, 1)
            with monkeypatch.context() as m:
                m.setattr(graphs, "GENERATE_BYTES", 32)
                m.setattr(graphs, "_strongly_connected", lambda bits: searched.append(len(bits)) or search(bits))
                assert first_failing_window(seq, 1) == offset
            assert searched == stacks
            searched.clear()
        # and over random sequences of small pools, every window length
        rng = np.random.default_rng(17)
        for _ in range(60):
            pool = [random_graph(rng, 4, 0.25) for _ in range(4)] + rings[:2]
            steps = [pool[int(k)] for k in rng.integers(0, 6, size=14)]
            window = int(rng.integers(1, 5))
            brute = [
                s for s in range(len(steps) - window + 1)
                if len(components_brute_force(
                    DirectedGraph(4, set().union(*(g.arcs for g in steps[s : s + window])))
                )) > 1
            ]
            want = brute[0] if brute else None
            seq = GraphSequence(steps)
            assert first_failing_window(seq, window) == want
            with monkeypatch.context() as m:
                m.setattr(graphs, "GENERATE_BYTES", 32)
                assert first_failing_window(seq, window) == want

    @pytest.mark.parametrize("budget", [None, 1, 3])
    def test_equal_digests_are_told_apart_by_bytes(self, budget, monkeypatch):
        # with every digest equal (and blocks of 1 or 3 items, so hits cross
        # blocks), interning and the window check follow the bytes alone
        monkeypatch.setattr(graphs, "_digests", lambda rows: [0] * len(rows))
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            if budget:
                monkeypatch.setattr(graphs, "GENERATE_BYTES", 4 * budget * n * -(-n // 8))
            pool = [random_graph(rng, n, 0.3) for _ in range(4)]
            steps = [pool[int(k)] for k in rng.integers(0, 4, size=16)]
            seq = GraphSequence(steps)
            first = {}  # first appearance of each arc set
            assert seq.ids.tolist() == [first.setdefault(g.arcs, len(first)) for g in steps]
            assert len(seq.table) == len(first) and [g.arcs for g in seq.graphs] == [g.arcs for g in steps]
            window = int(rng.integers(1, 5))
            brute = [
                s for s in range(len(steps) - window + 1)
                if len(components_brute_force(
                    DirectedGraph(n, set().union(*(g.arcs for g in steps[s : s + window])))
                )) > 1
            ]
            assert first_failing_window(seq, window) == (brute[0] if brute else None)

    def test_window_check_memory_stays_under_2mb_at_n200(self):
        # one digest and one start per distinct union, and blocks of
        # GENERATE_BYTES; keeping a 5 kB byte key per union took 10.8 MB
        seq = generate_sequence(
            "random-spanning", n=200, horizon=2000, seed=1, params={"window": 2, "extra_arc_prob": 0.1}
        )
        assert first_failing_window(seq, 3) is None  # warm-up
        tracemalloc.start()
        try:
            assert first_failing_window(seq, 3) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak

    def test_matches_union_of_every_window(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            pool = [random_graph(rng, n) for _ in range(3)]
            steps = [pool[int(k)] for k in rng.integers(0, 3, size=12)]
            seq = GraphSequence(steps)
            window = int(rng.integers(1, 5))
            failing = [
                s for s in range(len(seq) - window + 1)
                if not is_strongly_connected(
                    DirectedGraph(n, set().union(*(g.arcs for g in steps[s : s + window])))
                )
            ]
            assert first_failing_window(seq, window) == (failing[0] if failing else None)

    def test_matches_brute_force_reachability_over_bytes(self):
        # unions of 9 to 24 vertices span two or three packed bytes
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(30):
            n = int(rng.integers(9, 25))
            # about two arcs out of each vertex, so a union of a few
            # graphs is strongly connected only some of the time
            pool = [random_graph(rng, n, 2 / n) for _ in range(4)]
            steps = [pool[int(k)] for k in rng.integers(0, 4, size=10)]
            window = int(rng.integers(1, 6))
            failing = [
                s for s in range(len(steps) - window + 1)
                if len(components_brute_force(
                    DirectedGraph(n, set().union(*(g.arcs for g in steps[s : s + window])))
                )) > 1
            ]
            verdicts.add(failing[0] if failing else None)
            assert first_failing_window(GraphSequence(steps), window) == (failing[0] if failing else None)
        assert None in verdicts and len(verdicts) > 2  # passes, and fails at several offsets


class TestGenerators:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            generate_sequence("nope", n=2, horizon=2)

    def test_unknown_params_raise(self):
        with pytest.raises(ValueError):
            generate_sequence("static-complete", n=2, horizon=2, params={"window": 3})

    def test_static_kinds(self):
        for kind in ("static-complete", "static-ring"):
            seq = generate_sequence(kind, n=3, horizon=5)
            assert len(seq) == 5
            assert seq.claimed_window == 1
            assert all(g is seq[0] for g in seq.graphs)
            assert is_strongly_connected(seq[0])

    def test_rotating_edge_holds_n_distinct_graphs(self):
        n, horizon = 200, 10_000
        seq = generate_sequence("rotating-single-edge", n=n, horizon=horizon)
        assert len(seq) == horizon
        assert len(seq.table) == n
        assert len({id(g) for g in seq.graphs}) == n
        assert seq[n + 3] is seq[3]
        assert seq[7].arcs - {(v, v) for v in range(n)} == {(7, 8)}

    def test_random_spanning_matches_arc_by_arc_reference(self):
        for n in (1, 2, 5, 9):
            for window in (1, 2, 3):
                for p_extra in (0.0, 0.1, 0.5):
                    for seed in (0, 3):
                        # horizons ending on, one before and one after a block edge
                        for horizon in (1, 3 * window, 3 * window + 1, 4 * window - 1):
                            seq = generate_sequence(
                                "random-spanning", n=n, horizon=horizon, seed=seed,
                                params={"window": window, "extra_arc_prob": p_extra},
                            )
                            want = random_spanning_reference(n, horizon, seed, window, p_extra)
                            assert len(seq) == horizon
                            assert all(g.arcs == w.arcs for g, w in zip(seq.graphs, want))

    @pytest.mark.parametrize("budget", [0.4, 1, 2])
    def test_random_spanning_chunks_keep_the_reference(self, budget, monkeypatch):
        # a budget of 1 or 2 blocks of float draws (8 bytes per entry, with
        # extra arcs) and bool matrices (1 byte) makes chunks of 1 or 2
        # blocks; under one block, a chunk is one block whose draws come in pieces
        packs = []
        pack = graphs._pack
        monkeypatch.setattr(graphs, "_pack", lambda adj: packs.append(len(adj)) or pack(adj))
        for n, window, p_extra in ((5, 3, 0.2), (9, 2, 0.0), (7, 1, 0.5), (3, 4, 0.1), (4, 7, 0.3)):
            monkeypatch.setattr(graphs, "GENERATE_BYTES", int(budget * window * n * n * (9 if p_extra else 1)))
            for horizon in (1, 4 * window - 1, 5 * window, 5 * window + 1):
                want = random_spanning_reference(n, horizon, 4, window, p_extra)
                packs.clear()
                seq = generate_sequence(
                    "random-spanning", n=n, horizon=horizon, seed=4,
                    params={"window": window, "extra_arc_prob": p_extra},
                )
                assert [g.arcs for g in seq.graphs] == [g.arcs for g in want]
                chunk = max(1, int(budget)) * window
                assert packs[:-1] == [chunk] * (len(packs) - 1) and sum(packs) == horizon

    def test_random_spanning_holds_a_piece_of_a_large_block(self):
        # at n=200 one block of the default window (200 steps) takes 8 MB of
        # bool matrices; its float draws, 64 MB whole, are held a step at a time
        generate_sequence("random-spanning", n=2, horizon=2, params={"extra_arc_prob": 0.1})  # lazy imports
        tracemalloc.start()
        try:
            generate_sequence("random-spanning", n=200, horizon=200, seed=3, params={"extra_arc_prob": 0.1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak

    def test_random_spanning_respects_claimed_window(self):
        for seed in range(10):
            seq = generate_sequence(
                "random-spanning", n=5, horizon=60, seed=seed, params={"window": 4}
            )
            assert seq.claimed_window == 7
            assert is_uniformly_strongly_connected(seq, seq.claimed_window)

    def test_random_spanning_deterministic(self):
        a = generate_sequence("random-spanning", n=4, horizon=30, seed=9, params={"window": 3})
        b = generate_sequence("random-spanning", n=4, horizon=30, seed=9, params={"window": 3})
        assert all(x.arcs == y.arcs for x, y in zip(a.graphs, b.graphs))
        c = generate_sequence("random-spanning", n=4, horizon=30, seed=10, params={"window": 3})
        assert any(x.arcs != y.arcs for x, y in zip(a.graphs, c.graphs))

    def test_random_spanning_extra_arcs(self):
        plain = generate_sequence("random-spanning", n=5, horizon=40, seed=1, params={"window": 2})
        dense = generate_sequence(
            "random-spanning", n=5, horizon=40, seed=1,
            params={"window": 2, "extra_arc_prob": 0.5},
        )
        count = lambda s: sum(len(g.arcs) for g in s.graphs)
        assert count(dense) > count(plain)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_shorter_horizon_is_a_prefix(self, kind):
        params = {"random-spanning": {"window": 3, "extra_arc_prob": 0.2}}.get(kind)
        longest = generate_sequence(kind, n=5, horizon=40, seed=4, params=params)
        for horizon in (1, 4, 9, 17, 39, 40):
            seq = generate_sequence(kind, n=5, horizon=horizon, seed=4, params=params)
            assert len(seq) == horizon
            assert seq.claimed_window == longest.claimed_window
            assert seq.graphs == longest.graphs[:horizon]

    def test_doubly_stochastic_kind_gives_balanced_weights(self):
        for topology in ("ring", "complete"):
            seq = generate_sequence(
                "doubly-stochastic-compatible", n=4, horizon=3, params={"topology": topology}
            )
            w = default_weights(seq[0]).matrix
            assert np.allclose(w.sum(axis=0), 1.0, atol=1e-15)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)


class TestSequenceIO:
    def test_round_trip(self, tmp_path):
        seq = generate_sequence("random-spanning", n=4, horizon=12, seed=3, params={"window": 3})
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        loaded = load_sequence(str(path))
        assert loaded.n == seq.n and len(loaded) == len(seq)
        assert all(a.arcs == b.arcs for a, b in zip(loaded.graphs, seq.graphs))

    def test_saved_bytes_match_the_arc_set_writer(self, tmp_path):
        # one line per non-loop arc in (t, j, i) order, as the writer over
        # each step's sorted arc set gave; the golden graph file is such a file
        rng = np.random.default_rng(13)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_configs", "graph_file.txt")
        path = tmp_path / "seq.txt"
        save_sequence(str(path), load_sequence(golden))
        assert path.read_bytes() == open(golden, "rb").read()
        for n in (1, 2, 9, 23):
            seq = generate_sequence(
                "random-spanning", n=n, horizon=int(rng.integers(1, 40)), seed=int(rng.integers(9)),
                params={"window": 3, "extra_arc_prob": float(rng.uniform(0, 0.5))},
            )
            lines = [f"{n} {len(seq)}"]
            lines += [f"{t} {j} {i}" for t, g in enumerate(seq.graphs) for j, i in sorted(g.arcs) if j != i]
            save_sequence(str(path), seq)
            assert path.read_text() == "\n".join(lines) + "\n"

    def test_save_state_is_bounded(self, tmp_path):
        # the lines of one block of steps at a time: building the whole
        # file's lines from arc sets took about 70 MB for this 4 MB file
        seq = generate_sequence(
            "random-spanning", n=200, horizon=100, seed=1, params={"window": 2, "extra_arc_prob": 0.1}
        )
        path = tmp_path / "seq.txt"
        tracemalloc.start()
        try:
            save_sequence(str(path), seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3e6 and peak < 6e6, peak

    def test_header_is_read_alone(self, tmp_path):
        # the header is the first line that is not blank or a comment; the
        # lines after it are not read, so a bad arc line does not show
        path = tmp_path / "seq.txt"
        path.write_text("# n horizon\n\n3 200000\n0 0 x\n")
        assert sequence_header(str(path)) == (3, 200000)
        with pytest.raises(ValueError, match=":4: expected integers"):
            load_sequence(str(path))

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2 3\n0 0 1\n1 0 9\n")
        with pytest.raises(ValueError, match=":3:"):
            load_sequence(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2\n")
        with pytest.raises(ValueError, match="header"):
            load_sequence(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 x\n0 0 1\n", ":1: header must be 'n horizon', got '2 x'"),
            ("# arcs\n\n2 3\n0 0 1\n0 1 x\n", ":5: expected integers 't j i', got '0 1 x'"),
            ("2 3\n0 0\n", ":2: expected integers 't j i', got '0 0'"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, text, message):
        # line numbers count the blank and comment lines of the file
        path = tmp_path / "seq.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_sequence(str(path))
        assert str(exc.value) == f"{path}{message}"

    def test_load_shares_identical_steps(self, tmp_path):
        seq = generate_sequence("rotating-single-edge", n=4, horizon=10)
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        loaded = load_sequence(str(path))
        assert len(loaded.table) == 4
        assert loaded[5] is loaded[1]
        assert all(a.arcs == b.arcs for a, b in zip(loaded.graphs, seq.graphs))

    def test_step_out_of_horizon(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2 2\n2 0 1\n")
        with pytest.raises(ValueError, match="horizon"):
            load_sequence(str(path))

    def test_parse_state_is_bounded(self, tmp_path):
        # the parsed arcs are packed each time they reach about
        # GENERATE_BYTES of intp triples; one tuple kept per arc line
        # would take about 130 bytes each, 10 MB for these 81,000 lines
        seq = generate_sequence(
            "random-spanning", n=200, horizon=20, seed=1, params={"window": 2, "extra_arc_prob": 0.1}
        )
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        tracemalloc.start()
        try:
            loaded = load_sequence(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert np.array_equal(loaded.table, seq.table) and np.array_equal(loaded.ids, seq.ids)

    def test_flushes_keep_the_table_and_the_line_numbers(self, tmp_path, monkeypatch):
        seq = generate_sequence(
            "random-spanning", n=6, horizon=30, seed=2, params={"window": 2, "extra_arc_prob": 0.2}
        )
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        lines = path.read_text().splitlines()
        assert len(lines) > 60
        files = {"good": lines}
        for name, line in (("text", "3 1 x"), ("step", "30 1 2"), ("arc", "3 1 6")):
            files[name] = lines[:50] + ["# a comment", ""] + lines[50:60] + [line] + lines[60:]

        def load_all():
            out = {}
            for name, text in files.items():
                (tmp_path / name).write_text("\n".join(text) + "\n")
                try:
                    out[name] = load_sequence(str(tmp_path / name)).table
                except ValueError as exc:
                    out[name] = str(exc)
            return out

        default = load_all()
        monkeypatch.setattr(graphs, "GENERATE_BYTES", 48)  # a flush every two arcs
        flushed = load_all()
        assert np.array_equal(default.pop("good"), seq.table)
        assert np.array_equal(flushed.pop("good"), seq.table)
        assert default == flushed
        assert default == {
            "text": f"{tmp_path / 'text'}:63: expected integers 't j i', got '3 1 x'",
            "step": f"{tmp_path / 'step'}:63: step 30 outside horizon 30",
            "arc": f"{tmp_path / 'arc'}:63: arc (1, 6) out of range for n=6",
        }


class TestGraphSequence:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            GraphSequence((complete_graph(2), complete_graph(3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GraphSequence(())

    def test_equal_steps_are_interned(self):
        seq = GraphSequence([directed_ring(3), complete_graph(3), directed_ring(3)])
        assert len(seq.table) == 2
        assert seq.ids.tolist() == [0, 1, 0]
        assert seq[2] is seq[0]

    def test_ids_must_index_the_table(self):
        with pytest.raises(ValueError):
            GraphSequence((directed_ring(3),), ids=[0, 1])

    def test_stack_and_graph_list_build_the_same_table(self):
        graphs = [directed_ring(4), complete_graph(4), directed_ring(4), undirected_ring(4)]
        stack = np.array([g.adj for g in graphs])
        from_list, from_packed = GraphSequence(graphs), GraphSequence(np.packbits(stack, axis=-1))
        assert from_list.ids.tolist() == from_packed.ids.tolist() == [0, 1, 0, 2]
        assert from_list.table.dtype == from_packed.table.dtype == np.uint8
        assert from_packed.table.shape == (3, 4, 1)
        assert np.array_equal(from_packed.table, from_list.table)
        assert np.array_equal(receive_matrices(from_packed.table), stack[[0, 1, 3]])
        assert not from_packed.table.flags.writeable
        assert from_packed[2] is from_packed[0] and from_packed.graphs == tuple(graphs)

    def test_distinct_steps_keep_the_stack(self):
        # a packed table of distinct steps is kept, not copied
        stack = np.array([directed_ring(3).adj, complete_graph(3).adj])
        packed = np.packbits(stack, axis=-1)
        seq = GraphSequence(packed)
        assert seq.table is packed and seq[1].bits.base is packed
        assert np.array_equal(seq[1].adj, stack[1])

    def test_invalid_stacks_rejected(self):
        with pytest.raises(ValueError, match=re.escape("packed uint8 (m, n, ceil(n/8)) table, got uint8 (2, 3, 3)")):
            GraphSequence(np.ones((2, 3, 3), dtype=np.uint8))
        for shape in ((2, 3, 3), (2, 3, 1), (2, 3, 4), (3, 3)):
            with pytest.raises(ValueError, match=re.escape(f"packed uint8 (m, n, ceil(n/8)) table, got bool {shape}")):
                GraphSequence(np.ones(shape, dtype=bool))
        stack = np.ones((2, 3, 3), dtype=bool)
        stack[1, 2, 2] = False
        with pytest.raises(ValueError, match="^graph 1 of the table is missing the self-loop at vertex 2$"):
            GraphSequence(np.packbits(stack, axis=-1))

    def test_packed_tables_checked(self):
        with pytest.raises(ValueError, match=re.escape("got uint8 (2, 9, 1)")):
            GraphSequence(np.zeros((2, 9, 1), dtype=np.uint8))
        table = np.packbits(np.ones((2, 3, 3), dtype=bool), axis=-1)
        table[1, 0, 0] |= 1  # a bit past column 2
        with pytest.raises(ValueError, match="^a packed graph table must leave the bits past column n-1 clear$"):
            GraphSequence(table)
        table[1, 0, 0] ^= 1  # clear it, and drop the self-loop of vertex 2
        table[1, 2, 0] ^= 0x20
        with pytest.raises(ValueError, match="^graph 1 of the table is missing the self-loop at vertex 2$"):
            GraphSequence(table)

    def test_generation_holds_one_table(self):
        # the packed random-spanning table is the sequence's table: no
        # copy, no kept byte keys, and one bool block at a time
        n, horizon = 64, 500
        params = {"window": 2, "extra_arc_prob": 0.1}
        generate_sequence("random-spanning", n=2, horizon=2, params=params)  # lazy imports
        tracemalloc.start()
        try:
            seq = generate_sequence("random-spanning", n=n, horizon=horizon, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.table.shape == (horizon, n, n // 8) and seq.table.dtype == np.uint8
        # the bool stack the table replaces would take horizon * n * n bytes
        assert peak < horizon * n * n / 2, peak

    def test_generation_at_n200_stays_under_a_quarter_of_the_dense_stack(self):
        n, horizon = 200, 1000
        params = {"window": 2, "extra_arc_prob": 0.1}
        generate_sequence("random-spanning", n=2, horizon=2, params=params)  # lazy imports
        tracemalloc.start()
        try:
            seq = generate_sequence("random-spanning", n=n, horizon=horizon, seed=1, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.table.dtype == np.uint8 and seq.table.shape == (horizon, n, 25)
        assert peak < horizon * n * n / 4, peak

    def test_indexing(self):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=6)
        assert seq[0].arcs != seq[1].arcs
        assert seq[3].arcs == seq[0].arcs
