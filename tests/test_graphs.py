import re
import tracemalloc

import numpy as np
import pytest

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
    save_sequence,
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


def random_graph(rng, n):
    arcs = [(j, i) for j in range(n) for i in range(n) if j != i and rng.random() < 0.3]
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

    def test_deep_chain_does_not_recurse(self):
        # the search must survive a path longer than any plausible
        # recursion limit, in both directions
        n = 5000
        chain = [(i, i + 1) for i in range(n - 1)]
        assert not is_strongly_connected(DirectedGraph.from_arcs(n, chain))
        assert is_strongly_connected(DirectedGraph.from_arcs(n, chain + [(n - 1, 0)]))


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
        import pushsumlab.graphs as graphs

        # every union formed is keyed once by its packed bits, and only a
        # union with a new key is searched
        checked, unions = [], []
        check, pack = graphs.is_strongly_connected, np.packbits
        monkeypatch.setattr(graphs, "is_strongly_connected", lambda g: checked.append(1) or check(g))
        monkeypatch.setattr(np, "packbits", lambda a: unions.append(1) or pack(a))
        a, b, c = directed_ring(4), complete_graph(4), undirected_ring(4)
        # windows of two cycle through {a, b}, {b, c} and {c, a}; the
        # first two have the same union, the complete graph
        assert first_failing_window(GraphSequence([a, b, c] * 10), 2) is None
        assert len(unions) == 3 and len(checked) == 2
        checked.clear()
        assert is_uniformly_strongly_connected(generate_sequence("static-ring", 3, 10_000), 1)
        assert len(checked) == 1

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
        from_list, from_stack = GraphSequence(graphs), GraphSequence(stack)
        assert from_stack.ids.tolist() == from_list.ids.tolist() == [0, 1, 0, 2]
        assert from_stack.table.dtype == from_list.table.dtype == bool
        assert np.array_equal(from_stack.table, from_list.table)
        assert not from_stack.table.flags.writeable
        assert from_stack[2] is from_stack[0] and from_stack.graphs == tuple(graphs)

    def test_distinct_steps_keep_the_stack(self):
        stack = np.array([directed_ring(3).adj, complete_graph(3).adj])
        seq = GraphSequence(stack)
        assert seq.table is stack and seq[1].adj.base is stack

    def test_invalid_stacks_rejected(self):
        with pytest.raises(ValueError, match="bool"):
            GraphSequence(np.ones((2, 3, 3), dtype=np.uint8))
        for shape in ((2, 3, 4), (3, 3)):
            with pytest.raises(ValueError, match=re.escape(f"got bool {shape}")):
                GraphSequence(np.ones(shape, dtype=bool))
        stack = np.ones((2, 3, 3), dtype=bool)
        stack[1, 2, 2] = False
        with pytest.raises(ValueError, match="^graph 1 of the table is missing the self-loop at vertex 2$"):
            GraphSequence(stack)

    def test_generation_holds_one_table(self):
        # the random-spanning stack becomes the table: no copy, no kept byte keys
        n, horizon = 64, 500
        params = {"window": 2, "extra_arc_prob": 0.1}
        generate_sequence("random-spanning", n=2, horizon=2, params=params)  # lazy imports
        tracemalloc.start()
        try:
            seq = generate_sequence("random-spanning", n=n, horizon=horizon, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seq.table.shape == (horizon, n, n)
        assert peak < 1.5 * horizon * n * n, peak

    def test_indexing(self):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=6)
        assert seq[0].arcs != seq[1].arcs
        assert seq[3].arcs == seq[0].arcs
