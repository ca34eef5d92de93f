import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from pushsumlab import report
from pushsumlab.analysis import compute_metrics
from pushsumlab.cli import _metrics, execute_run
from pushsumlab.config import load_config
from pushsumlab.graphs import generate_sequence
from pushsumlab.pushsum import run_pushsum
from pushsumlab.report import (
    SCHEMA_LINE,
    csv_blocks,
    read_csv_columns,
    trace_csv_text,
    write_metrics_csv,
    write_s_matrices_csv,
    write_summary_json,
    write_trace_csv,
)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def small_trace():
    seq = generate_sequence("static-complete", n=2, horizon=2)
    return run_pushsum(seq, "default", [0.0, 2.0], 2)


class TestFloatFormat:
    def test_shortest_round_trip(self):
        # float columns: two Python floats, and a float64 array
        ((line,),) = csv_blocks([[0], 0.1, 1.0 / 3.0, np.array([2.5])])
        cells = line.split(",")
        assert cells[1] == "0.1"
        assert cells[2] == "0.3333333333333333"
        assert float(cells[3]) == 2.5

    def test_numpy_scalar_constant_column(self):
        # a numpy float scalar is a constant column, written as its Python float
        blocks = list(csv_blocks([[0, 1], np.float64(2.5), np.float32(0.5)]))
        assert blocks == [["0,2.5,0.5", "1,2.5,0.5"]]


class TestTraceCsv:
    def test_exact_small_output(self):
        text = trace_csv_text(small_trace())
        lines = text.splitlines()
        assert lines[0] == SCHEMA_LINE
        assert lines[1] == "t,agent,y,z_0"
        assert lines[2] == "0,0,1.0,0.0"
        assert lines[3] == "0,1,1.0,2.0"
        # complete two-agent graph averages in one step
        assert lines[4] == "1,0,1.0,1.0"
        assert len(lines) == 2 + 3 * 2

    def test_sha_matches_written_file(self, tmp_path):
        tr = small_trace()
        path = tmp_path / "trace.csv"
        sha = write_trace_csv(str(path), tr)
        assert sha == sha256_of(path)

    def test_written_in_blocks(self, tmp_path):
        # 100k lines of changing y and z: the writer's peak stays below the
        # size of the file it writes, so it never holds the whole text
        n, horizon = 20, 5000
        seq = generate_sequence("rotating-single-edge", n, horizon)
        tr = run_pushsum(seq, "default", np.random.default_rng(0).standard_normal(n), horizon)
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            sha = write_trace_csv(str(path), tr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(path)
        assert size > 4_000_000 and peak < size, (peak, size)
        assert sha == sha256_of(path) and path.read_text() == trace_csv_text(tr)

    def test_round_trip_through_reader(self, tmp_path):
        tr = small_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), tr)
        cols = read_csv_columns(str(path))
        assert np.array_equal(cols["z_0"][:2], [0.0, 2.0])
        assert np.array_equal(cols["agent"][:2], [0.0, 1.0])


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def block_size_runs():
    """sgp_quadratic (20,002 trace lines, a multiple of none of the block
    sizes below) and the random_n200 golden config (n = 200, so a
    1024-line block holds 5 steps). The n = 200 S table is written from
    the first 12 steps: at 1-line blocks its full 23 MB take seconds."""
    sgp = execute_run(load_config(os.path.join(ROOT, "configs", "sgp_quadratic.json")))
    cfg = load_config(os.path.join(ROOT, "tests", "golden_configs", "random_n200.json"))
    wide = execute_run(cfg)
    return {
        "sgp_quadratic": (sgp.trace, _metrics(sgp), sgp.trace),
        "random_n200": (wide.trace, _metrics(wide), execute_run(cfg.with_horizon(12)).trace),
    }


class TestBlockSize:
    @pytest.mark.parametrize("case", ["sgp_quadratic", "random_n200"])
    def test_bytes_do_not_depend_on_block_rows(self, case, block_size_runs, tmp_path, monkeypatch):
        trace, metrics, s_trace = block_size_runs[case]
        written = set()
        for rows in (1, 7, 1024, 4096):
            monkeypatch.setattr(report, "BLOCK_ROWS", rows)
            out = tmp_path / str(rows)
            out.mkdir()
            shas = (
                write_trace_csv(str(out / "trace.csv"), trace),
                write_metrics_csv(str(out / "metrics.csv"), metrics),
            )
            write_s_matrices_csv(str(out / "s_matrices.csv"), s_trace)
            files = tuple(sha256_of(out / name) for name in ("trace.csv", "metrics.csv", "s_matrices.csv"))
            assert shas == files[:2]
            written.add(files)
        assert len(written) == 1


class TestMetricsCsv:
    def test_empty_cells_for_missing_series(self, tmp_path):
        tr = small_trace()
        path = tmp_path / "m.csv"
        write_metrics_csv(str(path), compute_metrics(tr))
        rows = path.read_text().splitlines()[2:]
        # pure mixing: consensus filled, optimizer columns empty
        assert rows[0].startswith("0,1.0,")
        assert rows[0].endswith(",,,,")
        cols = read_csv_columns(str(path))
        assert np.all(np.isnan(cols["f_gap_avg"]))
        assert not np.any(np.isnan(cols["consensus_error"]))


class TestSummaryJson:
    def test_sorted_keys_and_array_conversion(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json(
            str(path),
            {"b": np.array([1.0, 2.0]), "a": np.float64(0.5), "n": np.int64(3)},
        )
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        data = json.loads(text)
        assert data == {"a": 0.5, "b": [1.0, 2.0], "n": 3}

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"x": [1, 2, 3], "y": {"k": 0.25}}
        write_summary_json(str(a), payload)
        write_summary_json(str(b), payload)
        assert a.read_bytes() == b.read_bytes()
