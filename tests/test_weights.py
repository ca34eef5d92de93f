import numpy as np
import pytest

from pushsumlab.graphs import DirectedGraph, complete_graph, directed_ring
from pushsumlab.weights import (
    COLUMN_SUM_TOL,
    WeightMatrix,
    default_weights,
    load_weights,
    save_weights,
    validate_weights,
)


def violations_reference(m, g, beta, tol):
    # entry-by-entry form of validate_weights, row-major like the original loops
    sums = m.sum(axis=0)
    col = [(j, float(sums[j])) for j in range(g.n) if abs(sums[j] - 1.0) > tol]
    arc = g.receive_matrix() > 0.0
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


class TestValidateWeights:
    def test_default_weights_validate(self):
        g = directed_ring(4)
        report = validate_weights(default_weights(g), g)
        assert report.ok
        assert "ok" in report.describe()

    def test_column_sum_violation(self):
        g = complete_graph(2)
        w = WeightMatrix(np.array([[0.5, 0.5], [0.4, 0.5]]), beta=0.1)
        report = validate_weights(w, g)
        assert not report.ok
        assert report.column_sum_violations
        assert "column" in report.describe()

    def test_sparsity_violation(self):
        # positive entry where the graph has no arc
        g = DirectedGraph.from_arcs(2, [(0, 1)])
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        report = validate_weights(WeightMatrix(m, beta=0.25), g)
        assert not report.ok
        assert report.sparsity_violations

    def test_zero_diagonal_violation(self):
        g = complete_graph(2)
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = validate_weights(WeightMatrix(m, beta=0.5), g)
        assert not report.ok
        assert report.diagonal_violations

    def test_beta_floor_violation(self):
        g = complete_graph(2)
        m = np.array([[0.99, 0.01], [0.01, 0.99]])
        report = validate_weights(WeightMatrix(m, beta=0.01), g, beta=0.1)
        assert not report.ok
        assert report.beta_violations

    def test_matches_entry_by_entry_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            arcs = [(j, i) for j in range(n) for i in range(n) if rng.random() < 0.5]
            g = DirectedGraph.from_arcs(n, arcs)
            m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            if rng.random() < 0.5:
                m = m / np.maximum(m.sum(axis=0), 1e-9)
            beta = float(rng.uniform(0.0, 0.5))
            r = validate_weights(WeightMatrix(m, beta=0.5), g, beta=beta)
            got = (r.column_sum_violations, r.sparsity_violations, r.diagonal_violations, r.beta_violations)
            assert got == violations_reference(m, g, beta, COLUMN_SUM_TOL)

    def test_beta_defaults_to_matrix_declaration(self):
        g = complete_graph(2)
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert validate_weights(WeightMatrix(m, beta=0.1), g).ok
        assert not validate_weights(WeightMatrix(m, beta=0.2), g).ok


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

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n0.5 0.5\n")
        with pytest.raises(ValueError):
            load_weights(str(path))
