"""Tests of the benchmark's output checks and of its self-time arithmetic.

Each check passes on real pushsumlab output and fails on a corrupted copy
of it. Run from the repository root with `PYTHONPATH=src python -m pytest
perfbench`.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import checks
import tracer
from pushsumlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name: str) -> dict:
    return json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))


def _cli(*argv: str) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    """Run outputs of the scenarios the checks cover, written once."""
    root = tmp_path_factory.mktemp("outputs")
    for name in ("pushsum_ring", "pushsum_weighted", "doubly_stochastic", "subgradient_push_fixed"):
        assert _cli("run", "--config", CONFIGS / f"{name}.json", "--out", root / name) == 0
    assert _cli("verify", "--config", CONFIGS / "pushsum_ring.json", "--out", root / "pushsum_ring") == 0
    return root


@pytest.fixture
def copy(outputs, tmp_path):
    """A fresh copy of one scenario's outputs, safe to corrupt."""

    def make(name: str) -> Path:
        return Path(shutil.copytree(outputs / name, tmp_path / name))

    return make


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="ascii").split("\n")
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines), encoding="ascii")


def _set_cell(line: str, col: int, value: str) -> str:
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


def test_digests_match_the_files_and_a_wrong_digest_fails(copy):
    out = copy("pushsum_ring")
    checks.check_digests(str(out), checks.strict_json(str(out / "summary.json")))

    summary = json.loads((out / "summary.json").read_text())
    digest = summary["files"]["trace_csv_sha256"]
    summary["files"]["trace_csv_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    with pytest.raises(checks.CheckFailed, match="trace.csv"):
        checks.check_digests(str(out), summary)


def test_a_changed_byte_breaks_the_digest(copy):
    out = copy("subgradient_push_fixed")
    summary = checks.strict_json(str(out / "summary.json"))
    _edit_line(out / "metrics.csv", 2, lambda ln: _set_cell(ln, 1, "0.5"))
    with pytest.raises(checks.CheckFailed, match="metrics.csv"):
        checks.check_digests(str(out), summary)


@pytest.mark.parametrize("name", ["pushsum_ring", "pushsum_weighted", "subgradient_push_fixed"])
def test_y_sums_to_kappa_and_one_flipped_y_fails(copy, name):
    out = copy(name)
    cfg = _config(name)
    checks.check_y_sums(checks.read_trace(str(out / "trace.csv")), checks.kappa_of(cfg))

    # row 7 after the comment and header: t=1 or later, one agent's y
    _edit_line(out / "trace.csv", 9, lambda ln: _set_cell(ln, 2, repr(float(ln.split(",")[2]) * 1.001)))
    with pytest.raises(checks.CheckFailed, match="y sums to"):
        checks.check_y_sums(checks.read_trace(str(out / "trace.csv")), checks.kappa_of(cfg))


@pytest.mark.parametrize("name, limit", [("pushsum_ring", 2.5), ("pushsum_weighted", 3.0)])
def test_ratios_end_at_the_limit_from_the_config(copy, name, limit):
    out = copy(name)
    cfg = _config(name)
    assert checks.ratio_limit(cfg) == [limit]
    checks.check_ratio_limit(checks.read_trace(str(out / "trace.csv")), checks.ratio_limit(cfg))

    lines = (out / "trace.csv").read_text().split("\n")
    last = len(lines) - 2  # the file ends with a newline
    _edit_line(out / "trace.csv", last, lambda ln: _set_cell(ln, 3, repr(limit + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="limit"):
        checks.check_ratio_limit(checks.read_trace(str(out / "trace.csv")), checks.ratio_limit(cfg))


def test_doubly_stochastic_keeps_every_y_at_one(copy):
    out = copy("doubly_stochastic")
    checks.check_y_all_one(checks.read_trace(str(out / "trace.csv")))

    _edit_line(out / "trace.csv", 40, lambda ln: _set_cell(ln, 2, repr(1.0 + 2.0**-52)))
    with pytest.raises(checks.CheckFailed, match="expected 1.0"):
        checks.check_y_all_one(checks.read_trace(str(out / "trace.csv")))


def test_f_gap_recomputed_from_the_trace_matches_metrics(copy):
    out = copy("subgradient_push_fixed")
    cfg = _config("subgradient_push_fixed")
    states = checks.read_trace(str(out / "trace.csv"))
    checks.check_f_gap(states, str(out / "metrics.csv"), cfg)

    _edit_line(out / "metrics.csv", 100, lambda ln: _set_cell(ln, 3, repr(float(ln.split(",")[3]) * 1.01)))
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_f_gap(states, str(out / "metrics.csv"), cfg)


def test_f_gap_that_follows_a_flipped_y_fails(copy):
    out = copy("subgradient_push_fixed")
    cfg = _config("subgradient_push_fixed")
    _edit_line(out / "trace.csv", 9, lambda ln: _set_cell(ln, 2, repr(float(ln.split(",")[2]) * 1.001)))
    with pytest.raises(checks.CheckFailed, match="recomputed"):
        checks.check_f_gap(checks.read_trace(str(out / "trace.csv")), str(out / "metrics.csv"), cfg)


def test_seed_finals_fall_below_their_start(tmp_path):
    cfg = {
        "algorithm": "heterogeneous",
        "n": 5,
        "horizon": 300,
        "seed": 0,
        "graph": {"kind": "random-spanning", "seed": 4, "params": {"window": 2, "extra_arc_prob": 0.1}},
        "init": {"x0": [[9.0], [11.0], [10.0], [12.0], [8.0]]},
        "objective": {"kind": "abs", "anchors": [[-1.0], [0.5], [2.0], [-3.0], [1.0]]},
        "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
        "sigma": {"kind": "bernoulli", "p": 0.5},
        "seeds": [0, 1, 2],
    }
    path = tmp_path / "hetero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "sweep"
    assert _cli("sweep", "--config", path, "--out", out, "--axis", "seeds") == 0
    checks.strict_json(str(out / "sweep_summary.json"))
    checks.check_seed_finals(str(out), cfg)

    _edit_line(out / "sweep.csv", 3, lambda ln: _set_cell(ln, 1, "1000.0"))
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_seed_finals(str(out), cfg)


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_strict_json_rejects_an_inserted_constant(copy, constant):
    out = copy("pushsum_ring")
    checks.strict_json(str(out / "summary.json"))
    checks.strict_json(str(out / "verify.json"))

    text = (out / "summary.json").read_text()
    head, sep, tail = text.partition('"consensus_error": ')
    number_end = min(i for i in (tail.find(","), tail.find("\n")) if i >= 0)
    (out / "summary.json").write_text(head + sep + constant + tail[number_end:])
    with pytest.raises(checks.CheckFailed, match=constant.lstrip("-")):
        checks.strict_json(str(out / "summary.json"))
    assert checks.lenient_json(str(out / "summary.json"))


def test_verify_report_with_a_failed_identity_fails(copy, tmp_path):
    out = copy("pushsum_ring")
    checks.check_verify_passed(checks.strict_json(str(out / "verify.json")))

    bad = tmp_path / "perturbed"
    assert _cli("verify", "--config", CONFIGS / "pushsum_ring.json", "--out", bad, "--perturb-y", "1e-6") == 1
    with pytest.raises(checks.CheckFailed, match="absolute_probability"):
        checks.check_verify_passed(checks.strict_json(str(bad / "verify.json")))


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.cmd_verify", 0.0, 10.0, -1],
        ["cli.execute_run", 1.0, 5.0, 0],
        ["optim.run_optimizer", 1.5, 4.5, 1],
        ["optim.GradientOracle.noise", 2.0, 3.0, 2],
        ["graphs.is_uniformly_strongly_connected", 6.0, 7.0, 0],
        ["report.write_summary_json", 8.0, 8.5, 0],
    ]
    assert tracer.self_times(spans) == [4.5, 1.0, 2.0, 1.0, 1.0, 0.5]
    layers = tracer.layer_metrics(spans, {"optim.GradientOracle.noise": 1}, 0.0)
    assert layers["cli.verify_s"] == 10.0
    assert layers["cli.verify_checks_s"] == 5.0
    assert layers["optim.loop_s"] == 2.0
    assert layers["optim.oracle_s"] == 1.0
    assert layers["optim.oracle_draws"] == 1
    assert layers["report.write_s"] == 0.5
