import numpy as np
import pytest

from pushsumlab.graphs import DirectedGraph, GraphSequence, complete_graph, directed_ring
from pushsumlab.pushsum import resolve_weight_sequence
from pushsumlab.weights import (
    COLUMN_SUM_TOL,
    WeightMatrix,
    default_weights,
    load_weights,
    save_weights,
)


def violations_reference(m, g, beta, tol):
    # the weight checks entry by entry: column sums, positive entries off the
    # graph, a non-positive diagonal, and arc entries below beta
    sums = m.sum(axis=0)
    col = [(j, float(sums[j])) for j in range(g.n) if abs(sums[j] - 1.0) > tol]
    arc = g.adj
    cells = [(i, j, float(m[i, j])) for i in range(g.n) for j in range(g.n)]
    sparsity = [(i, j, v) for i, j, v in cells if not arc[i, j] and v > 0.0]
    low = [(i, j, v) for i, j, v in cells if arc[i, j] and v < beta]
    diag = [(i, float(m[i, i])) for i in range(g.n) if m[i, i] <= 0.0]
    return tuple(col), tuple(sparsity), tuple(diag), tuple(low)


class TestWeightMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.ones((2, 3)), beta=0.1)

    def test_rejects_negative_entries(self):
        m = np.array([[1.0, -0.1], [0.0, 1.1]])
        with pytest.raises(ValueError):
            WeightMatrix(m, beta=0.1)

    def test_rejects_non_finite(self):
        m = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            WeightMatrix(m, beta=0.1)

    def test_rejects_bad_beta(self):
        m = np.eye(2)
        for beta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                WeightMatrix(m, beta=beta)

    def test_matrix_is_read_only(self):
        w = WeightMatrix(np.eye(2), beta=0.5)
        with pytest.raises(ValueError):
            w.matrix[0, 0] = 2.0


class TestDefaultWeights:
    def test_worked_two_agent_example(self):
        # 0 sends to both agents, 1 only to itself:
        # out-degrees (2, 1), so column j is split 1/out-degree(j)
        g = DirectedGraph.from_arcs(2, [(0, 1)])
        w = default_weights(g)
        expected = np.array([[0.5, 0.0], [0.5, 1.0]])
        assert np.array_equal(w.matrix, expected)
        assert w.beta == 0.5

    def test_complete_graph_uniform(self):
        w = default_weights(complete_graph(4))
        assert np.array_equal(w.matrix, np.full((4, 4), 0.25))
        assert w.beta == 0.25

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            arcs = [
                (j, i) for j in range(n) for i in range(n) if j != i and rng.random() < 0.4
            ]
            w = default_weights(DirectedGraph.from_arcs(n, arcs))
            assert np.allclose(w.matrix.sum(axis=0), 1.0, atol=1e-15)

    def test_positive_diagonal(self):
        w = default_weights(directed_ring(5))
        assert np.all(np.diag(w.matrix) > 0.0)


def accepts(m, g, beta):
    """Whether m constructs with floor beta and resolves as the weights over g."""
    try:
        resolve_weight_sequence(GraphSequence((g,)), WeightMatrix(m, beta=beta), 1)
    except ValueError:
        return False
    return True


class TestValidateWeights:
    # a WeightMatrix is column-stochastic above its floor by construction;
    # resolve_weight_sequence checks that its positive entries are the arcs

    def test_default_weights_validate(self):
        g = directed_ring(4)
        w = default_weights(g)
        assert accepts(w.matrix, g, w.beta)

    def test_column_sum_violation(self):
        m = np.array([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ValueError, match=r"^weight column 0 sums to 0\.9, not 1$"):
            WeightMatrix(m, beta=0.1)
        # within the tolerance is column-stochastic
        WeightMatrix(np.array([[0.5, 0.5], [0.5 + COLUMN_SUM_TOL / 2, 0.5]]), beta=0.1)

    def test_sparsity_violation(self):
        # a positive entry where the graph has no arc, first met at step 1
        g = DirectedGraph.from_arcs(2, [(0, 1)])
        seq = GraphSequence([complete_graph(2), g, g])
        w = WeightMatrix(np.full((2, 2), 0.5), beta=0.25)
        assert len(resolve_weight_sequence(seq, w, 1)) == 1
        message = r"^custom weights invalid at step 1: entry \(row 0, column 1\) is positive off the graph$"
        with pytest.raises(ValueError, match=message):
            resolve_weight_sequence(seq, w, 3)

    def test_zero_diagonal_violation(self):
        # a zero on an arc (here a self-loop), per-step list policy
        seq = GraphSequence([complete_graph(2)] * 3)
        ok = default_weights(complete_graph(2))
        swap = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=0.5)
        message = r"^custom weights invalid at step 2: entry \(row 0, column 0\) is zero on an arc$"
        with pytest.raises(ValueError, match=message):
            resolve_weight_sequence(seq, [ok, ok, swap], 3)

    def test_earliest_invalid_step_named(self):
        # steps 1 and 2 both fail; as (matrix id, graph id) pairs step 2's
        # (0, 1) sorts before step 1's (1, 1), but step 1 is named
        g = DirectedGraph.from_arcs(2, [(0, 1)])
        seq = GraphSequence([complete_graph(2), g, g])
        ok = default_weights(complete_graph(2))
        swap = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), beta=0.5)
        message = r"^custom weights invalid at step 1: entry \(row 0, column 0\) is zero on an arc$"
        with pytest.raises(ValueError, match=message):
            resolve_weight_sequence(seq, [ok, swap, ok], 3)

    def test_beta_floor_violation(self):
        m = np.array([[0.99, 0.01], [0.01, 0.99]])
        message = r"^weight entry \(row 0, column 1\) = 0\.01 is below beta = 0\.1$"
        with pytest.raises(ValueError, match=message):
            WeightMatrix(m, beta=0.1)

    def test_matches_entry_by_entry_reference(self):
        # accepted exactly when the old per-category checks found nothing
        rng = np.random.default_rng(11)
        outcomes = []
        for _ in range(300):
            n = int(rng.integers(1, 6))
            arcs = [(j, i) for j in range(n) for i in range(n) if rng.random() < 0.5]
            g = DirectedGraph.from_arcs(n, arcs)
            if rng.random() < 0.5:
                # on the arcs of g, normalized
                m = g.adj * rng.uniform(0.05, 1.0, (n, n))
                m = m / m.sum(axis=0)
            else:
                m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
                if rng.random() < 0.5:
                    m = m / np.maximum(m.sum(axis=0), 1e-9)
            beta = 0.5 - float(rng.uniform(0.0, 0.5))
            smallest = m[m > 0.0].min(initial=1.0)
            if rng.random() < 0.25 and smallest <= 0.5:
                beta = float(smallest)  # the floor at an entry
            ok = not any(violations_reference(m, g, beta, COLUMN_SUM_TOL))
            assert accepts(m, g, beta) == ok, (m, arcs, beta)
            outcomes.append(ok)
        assert 0.2 < np.mean(outcomes) < 0.8

    def test_beta_defaults_to_matrix_declaration(self):
        g = complete_graph(2)
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert accepts(m, g, 0.1)
        assert not accepts(m, g, 0.2)


class TestWeightsIO:
    def test_round_trip_exact(self, tmp_path):
        w = default_weights(directed_ring(5))
        path = tmp_path / "w.txt"
        save_weights(str(path), w)
        loaded = load_weights(str(path))
        assert np.array_equal(loaded, w.matrix)

    def test_round_trip_preserves_every_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        m = rng.random((3, 3))
        m = m / m.sum(axis=0, keepdims=True)
        path = tmp_path / "w.txt"
        save_weights(str(path), m)
        assert np.array_equal(load_weights(str(path)), m)

    def test_non_numeric_entry_names_file_and_row(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.5\n0.5 abc\n")
        with pytest.raises(ValueError) as exc:
            load_weights(str(path))
        assert str(exc.value) == f"{path}: row 1 must hold numbers, got '0.5 abc'"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.5\n")
        with pytest.raises(ValueError):
            load_weights(str(path))
