import json
import os
import tracemalloc

import numpy as np
import pytest

import pushsumlab.analysis as analysis
import pushsumlab.cli as cli
import pushsumlab.pushsum as pushsum
import pushsumlab.weights as weights
from pushsumlab.analysis import (
    bound_heterogeneous,
    bound_inputs_from_trace,
    bound_per_agent,
    bound_subgradient_push_fixed,
    bound_subgradient_push_varying,
)
from pushsumlab.cli import main
from pushsumlab.graphs import GraphSequence, complete_graph
from pushsumlab.pushsum import theoretical_constants
from pushsumlab.report import read_csv_columns
from pushsumlab.weights import save_weights

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

def write_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def pushsum_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "pushsum.json",
        {
            "algorithm": "pushsum",
            "n": 4,
            "horizon": 60,
            "graph": {"kind": "rotating-single-edge"},
            "init": {"x0": [1.0, 2.0, 3.0, 4.0]},
        },
    )


@pytest.fixture
def optimizer_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "optimizer.json",
        {
            "algorithm": "subgradient_push",
            "n": 2,
            "horizon": 100,
            "graph": {"kind": "static-complete"},
            "init": {"x0": [[4.0], [6.0]]},
            "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
            "stepsize": {"kind": "fixed_inv_sqrt"},
        },
    )


@pytest.fixture
def heterogeneous_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        "het.json",
        {
            "algorithm": "heterogeneous",
            "n": 3,
            "horizon": 50,
            "graph": {"kind": "static-ring"},
            "init": {"x0": [[0.0], [0.0], [0.0]]},
            "objective": {"kind": "abs", "anchors": [[0.0], [1.0], [5.0]]},
            "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
        },
    )


@pytest.fixture
def window_too_short(monkeypatch):
    """Every run's graph sequence claims a window one step shorter than
    the generator guarantees; on the rotating edge the first window fails."""
    build = cli.build_graph_sequence

    def shortened(cfg):
        seq = build(cfg)
        return GraphSequence(seq.table, claimed_window=seq.claimed_window - 1, ids=seq.ids)

    monkeypatch.setattr(cli, "build_graph_sequence", shortened)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's args."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


OUTPUTS = ("trace.csv", "metrics.csv", "summary.json")

# randomized configs whose switching or noise seed is not pinned
UNPINNED = {
    "heterogeneous": {
        "algorithm": "heterogeneous",
        "n": 3,
        "horizon": 50,
        "graph": {"kind": "static-ring"},
        "init": {"x0": [[0.0], [0.0], [0.0]]},
        "objective": {"kind": "abs", "anchors": [[0.0], [1.0], [5.0]]},
        "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
        "sigma": {"kind": "bernoulli", "p": 0.3},
    },
    "sgp": {
        "algorithm": "sgp",
        "n": 2,
        "horizon": 20,
        "graph": {"kind": "static-complete"},
        "init": {"x0": [[4.0], [6.0]]},
        "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
        "stepsize": {"kind": "sgp_strong"},
        "oracle": {"noise_bounds": [0.5, 0.5]},
    },
}


def _bytes(out, name):
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


FAILED_WINDOW = (
    "connectivity FAILED for claimed window 3: the window at offset 0 "
    "(graph steps 0..2) is not strongly connected"
)


class TestRun:
    def test_writes_outputs(self, pushsum_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", pushsum_cfg, "--out", out]) == 0
        for name in ("trace.csv", "metrics.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name))
        printed = capsys.readouterr().out
        assert "final consensus error" in printed
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["algorithm"] == "pushsum"
        assert summary["connectivity"]["verified"] is True
        assert summary["constants"]["window"] == 4
        assert summary["target"]["limit"] == [2.5]

    def test_deterministic_bytes(self, optimizer_cfg, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", optimizer_cfg, "--out", out_a]) == 0
        assert main(["run", "--config", optimizer_cfg, "--out", out_b]) == 0
        for name in ("trace.csv", "metrics.csv", "summary.json"):
            with open(os.path.join(out_a, name), "rb") as fa:
                with open(os.path.join(out_b, name), "rb") as fb:
                    assert fa.read() == fb.read()

    def test_saturated_bounds_are_strict_json(self, tmp_path):
        # at n=40, window 3 the a-priori eta saturates at 1e-300 and the
        # a-priori bounds overflow to inf
        n = 40
        cfg = write_cfg(
            tmp_path,
            "n40.json",
            {
                "algorithm": "push_subgradient",
                "n": n,
                "horizon": 60,
                "graph": {
                    "kind": "random-spanning",
                    "params": {"window": 3, "extra_arc_prob": 0.1},
                },
                "init": {"x0": [[0.0]] * n},
                "objective": {"kind": "abs", "anchors": [[float(i)] for i in range(n)]},
                "stepsize": {"kind": "fixed_inv_sqrt"},
            },
        )
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh, parse_constant=reject)
        assert summary["non_finite"] == ["bounds.fixed_apriori", "bounds.varying_final_apriori"]
        assert summary["bounds"]["fixed_apriori"] is None
        assert summary["bounds"]["varying_final_apriori"] is None
        assert summary["bounds"]["fixed_realized"] is not None

    def test_failed_window_reported(self, pushsum_cfg, window_too_short, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", pushsum_cfg, "--out", out]) == 0
        assert FAILED_WINDOW in capsys.readouterr().out
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert summary["connectivity"] == {
            "claimed_window": 3,
            "verified": False,
            "first_failing_window": 0,
        }
        assert main(["run", "--config", pushsum_cfg, "--out", out, "--strict"]) == 1

    def test_passing_check_writes_no_offset(self, pushsum_cfg, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", pushsum_cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        assert "first_failing_window" not in summary["connectivity"]

    def test_connectivity_checked_once(self, optimizer_cfg, tmp_path, monkeypatch):
        calls = counting(monkeypatch, cli, "is_uniformly_strongly_connected")
        assert main(["run", "--config", optimizer_cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_record_s_sidecar(self, pushsum_cfg, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", pushsum_cfg, "--out", out, "--record-s"]) == 0
        cols = read_csv_columns(os.path.join(out, "s_matrices.csv"))
        assert "s_0" in cols and "s_3" in cols

    def test_bound_reported_for_fixed_step(self, optimizer_cfg, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", optimizer_cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "summary.json")).read())
        bounds = summary["bounds"]
        assert bounds["final_gap_below_fixed_realized"] is True
        assert summary["final"]["f_gap_avg"] <= bounds["fixed_realized"]

    @pytest.mark.parametrize(
        "name", ["doubly_stochastic", "heterogeneous", "push_subgradient", "subgradient_push_fixed"]
    )
    def test_summary_bounds_are_the_metrics_cells(self, name, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", os.path.join(CONFIGS, f"{name}.json"), "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            bounds = json.load(fh)["bounds"]
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        varying = [row["bound_varying"] for row in rows if row["bound_varying"] != ""]
        assert bounds["varying_final_realized"] == float(varying[-1])
        if "fixed_realized" in bounds:
            assert bounds["fixed_realized"] == float(rows[0]["bound_fixed"])

    @pytest.mark.parametrize(
        "name", ["doubly_stochastic", "heterogeneous", "push_subgradient", "subgradient_push_fixed"]
    )
    def test_summary_bounds_are_the_entry_points(self, name, tmp_path):
        """The a-priori and agent ceilings equal the public bound functions
        run on separately built inputs from the same trace."""
        out = str(tmp_path / "out")
        assert main(["run", "--config", os.path.join(CONFIGS, f"{name}.json"), "--out", out]) == 0
        with open(os.path.join(out, "summary.json")) as fh:
            bounds = json.load(fh)["bounds"]
        cfg = cli.load_config(os.path.join(CONFIGS, f"{name}.json"))
        arts = cli.execute_run(cfg)
        trace, obj, agent = arts.trace, cfg.objective, cfg.record_agent
        tc = theoretical_constants(arts.seq.n, arts.seq.claimed_window)
        realized = bound_inputs_from_trace(trace, obj, mu=tc.mu_ub)
        apriori = bound_inputs_from_trace(
            trace, obj, mu=tc.mu_ub, eta=tc.eta_lb, grad_bound=obj.grad_norm_bound or None
        )
        last = trace.steps - 1
        if trace.algorithm in ("heterogeneous", "push_subgradient"):
            varying = bound_heterogeneous(apriori, "varying", t=last)
            agent_varying = bound_heterogeneous(realized, "varying", k=agent, t=last)
            fixed = bound_heterogeneous(apriori, "fixed")
            agent_fixed = bound_heterogeneous(realized, "fixed", k=agent)
        else:
            varying = bound_subgradient_push_varying(apriori, last)
            agent_varying = bound_per_agent(realized, agent, "varying", t=last)
            fixed = bound_subgradient_push_fixed(apriori)
            agent_fixed = bound_per_agent(realized, agent)
        assert bounds["varying_final_apriori"] == varying
        assert bounds["varying_final_agent_realized"] == agent_varying
        assert ("fixed_realized" in bounds) == (cfg.schedule.kind == "fixed_inv_sqrt")
        if "fixed_realized" in bounds:
            assert bounds["fixed_apriori"] == fixed
            assert bounds["fixed_agent_realized"] == agent_fixed

    def test_realized_bound_inputs_built_once(self, tmp_path, monkeypatch):
        modules = [m for m in (analysis, cli) if hasattr(m, "bound_inputs_from_trace")]
        calls = [counting(monkeypatch, m, "bound_inputs_from_trace") for m in modules]
        cfg = os.path.join(CONFIGS, "subgradient_push_fixed.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert sum(map(len, calls)) == 1

    def test_seed_override_changes_sigma_path(self, heterogeneous_cfg, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", heterogeneous_cfg, "--out", out_a, "--seed", "0"]) == 0
        assert main(["run", "--config", heterogeneous_cfg, "--out", out_b, "--seed", "5"]) == 0
        with open(os.path.join(out_a, "trace.csv"), "rb") as fa:
            with open(os.path.join(out_b, "trace.csv"), "rb") as fb:
                assert fa.read() != fb.read()

    @pytest.mark.parametrize("name", sorted(UNPINNED))
    def test_seed_flag_equals_the_seed_in_the_file(self, name, tmp_path):
        data = UNPINNED[name]
        flagged = write_cfg(tmp_path, "flagged.json", data)
        in_file = write_cfg(tmp_path, "in_file.json", {**data, "seed": 3})
        outs = {key: str(tmp_path / key) for key in ("flag", "file", "zero")}
        assert main(["run", "--config", flagged, "--seed", "3", "--out", outs["flag"]]) == 0
        assert main(["run", "--config", in_file, "--out", outs["file"]]) == 0
        assert main(["run", "--config", in_file, "--seed", "0", "--out", outs["zero"]]) == 0
        for output in OUTPUTS:
            assert _bytes(outs["flag"], output) == _bytes(outs["file"], output), output
        # the unpinned switching or noise seed followed the run seed
        assert _bytes(outs["zero"], "trace.csv") != _bytes(outs["file"], "trace.csv")

    def test_pinned_sigma_seed_ignores_the_seed_flag(self, tmp_path):
        data = UNPINNED["heterogeneous"]
        pinned = write_cfg(tmp_path, "pinned.json", {**data, "sigma": {"kind": "bernoulli", "seed": 7}})
        for seed in ("0", "3"):
            assert main(["run", "--config", pinned, "--seed", seed, "--out", str(tmp_path / seed)]) == 0
        for output in ("trace.csv", "metrics.csv"):
            assert _bytes(str(tmp_path / "0"), output) == _bytes(str(tmp_path / "3"), output), output

    def test_trace_csv_columns(self, pushsum_cfg, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", pushsum_cfg, "--out", out])
        cols = read_csv_columns(os.path.join(out, "trace.csv"))
        assert set(cols) == {"t", "agent", "y", "z_0"}
        assert cols["t"][0] == 0 and cols["t"][-1] == 60
        assert len(cols["t"]) == 61 * 4

    def test_metrics_csv_columns(self, optimizer_cfg, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", optimizer_cfg, "--out", out])
        cols = read_csv_columns(os.path.join(out, "metrics.csv"))
        assert set(cols) == {
            "t",
            "consensus_error",
            "lyapunov",
            "f_gap_avg",
            "f_gap_agent_k",
            "bound_fixed",
            "bound_varying",
        }
        # final row has no f-gap entries (one fewer than states)
        assert np.isnan(cols["f_gap_avg"][-1])
        assert not np.isnan(cols["f_gap_avg"][0])


class TestVerify:
    def test_takes_no_strict_flag(self, pushsum_cfg, tmp_path):
        # verify always fails on a failed connectivity check
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", pushsum_cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert exc.value.code == 2

    def test_clean_run_passes(self, pushsum_cfg, tmp_path, capsys):
        out = str(tmp_path / "v")
        assert main(["verify", "--config", pushsum_cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] absolute_probability" in printed
        assert "[FAIL]" not in printed
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        assert report["failed"] == []
        assert report["checks"]["ratio_identity"]["ok"] is True

    def test_optimizer_checks_descent(self, heterogeneous_cfg, tmp_path, capsys):
        assert main(["verify", "--config", heterogeneous_cfg, "--out", str(tmp_path / "v")]) == 0
        printed = capsys.readouterr().out
        assert "[PASS] descent_recursion" in printed

    def test_fault_injection_fails(self, pushsum_cfg, tmp_path, capsys):
        out = str(tmp_path / "v")
        code = main(
            ["verify", "--config", pushsum_cfg, "--out", out, "--perturb-y", "1e-3"]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert "[FAIL] absolute_probability" in printed
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        assert "absolute_probability" in report["failed"]

    def test_failure_location_reported(self, tmp_path, capsys):
        # agent 0's y is shifted from t = 1 on; at step 0 agent 0 hears only
        # itself on the rotating edge, so pi(0) misses S(0)^T pi(1) there by
        # the whole shift over kappa = 4, more than at any later step
        out = str(tmp_path / "v")
        ring = os.path.join(CONFIGS, "pushsum_ring.json")
        assert main(["verify", "--config", ring, "--out", out, "--perturb-y", "1e-6"]) == 1
        assert "[FAIL] absolute_probability: 2.500000e-07 (tolerance 1.000000e-10) at step 0, agent 0" in (
            capsys.readouterr().out
        )
        checks = json.loads(open(os.path.join(out, "verify.json")).read())["checks"]
        assert checks["absolute_probability"]["where"] == {"step": 0, "agent": 0}
        assert [name for name, entry in checks.items() if "where" in entry] == ["absolute_probability"]

    def test_failed_window_reported(self, pushsum_cfg, window_too_short, tmp_path, capsys):
        out = str(tmp_path / "v")
        assert main(["verify", "--config", pushsum_cfg, "--out", out]) == 1
        assert FAILED_WINDOW in capsys.readouterr().out
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        assert report["failed"] == ["connectivity"]

    def test_each_s_matrix_built_once(self, pushsum_cfg, tmp_path, monkeypatch):
        built = []
        chunks = pushsum.induced_chunks

        def recorded(trace):
            for k0, w, s in chunks(trace):
                built.extend(range(k0, k0 + len(s)))
                yield k0, w, s

        monkeypatch.setattr(pushsum, "induced_chunks", recorded)
        single = counting(monkeypatch, pushsum, "s_matrix")
        assert main(["verify", "--config", pushsum_cfg, "--out", str(tmp_path / "v")]) == 0
        assert built == list(range(60)) and not single

    def test_backward_products_cost_two_chains(self, tmp_path, monkeypatch):
        # every checked pair starts at t0: one S chain and one W chain of T
        # products each, whatever pairs the seed draws
        horizon = 60
        cfg = write_cfg(
            tmp_path,
            "spanning.json",
            {
                "algorithm": "pushsum",
                "n": 12,
                "horizon": horizon,
                "graph": {"kind": "random-spanning", "params": {"window": 2}},
                "init": {"x0": [float(i) for i in range(12)]},
            },
        )
        chains, products = set(), []
        step = pushsum.BackwardProduct.step

        def counted(self, k, m):
            chains.add(self)
            if self.tau <= k < self.end:
                products.append(k)
            step(self, k, m)

        monkeypatch.setattr(pushsum.BackwardProduct, "step", counted)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
        assert len(chains) == 2 and len(products) == 2 * horizon

    def test_each_default_matrix_built_twice(self, tmp_path, monkeypatch):
        # a fresh graph every step: the run builds each W(k) once and the
        # scan, which also checks the weights, once more
        horizon = 60
        cfg = write_cfg(
            tmp_path,
            "spanning.json",
            {
                "algorithm": "pushsum",
                "n": 12,
                "horizon": horizon,
                "graph": {"kind": "random-spanning", "params": {"window": 2}},
                "init": {"x0": [float(i) for i in range(12)]},
            },
        )
        calls = counting(monkeypatch, pushsum, "equal_split")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
        assert sum(len(adj) for (adj,) in calls) == 2 * horizon

    def test_checks_print_in_a_fixed_order(self, capsys, tmp_path):
        config = os.path.join(CONFIGS, "push_subgradient.json")
        assert main(["verify", "--config", config, "--out", str(tmp_path / "v")]) == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert [line[len("[PASS] ") :] for line in printed if line.startswith("[PASS]")] == [
            "column_stochastic",
            "weights_match_graph",
            "mass_conservation_y",
            "s_row_stochastic",
            "s_matches_weights",
            "s_entry_floor",
            "absolute_probability",
            "ratio_identity",
            "product_limit_decay",
            "descent_recursion",
        ]

    def test_weights_off_the_graph_fail(self, pushsum_cfg, tmp_path, monkeypatch, capsys):
        run = cli.execute_run

        def checked_on_complete_graph(cfg):
            # the run mixes over the rotating edge
            arts = run(cfg)
            arts.seq = GraphSequence((complete_graph(4),), ids=[0] * 60)
            return arts

        monkeypatch.setattr(cli, "execute_run", checked_on_complete_graph)
        out = str(tmp_path / "v")
        assert main(["verify", "--config", pushsum_cfg, "--out", out]) == 1
        assert "[FAIL] weights_match_graph" in capsys.readouterr().out
        # step 0 mixes over the lone arc 0 -> 1, so agent 0 ignores agent 1
        report = json.loads(open(os.path.join(out, "verify.json")).read())
        assert report["checks"]["weights_match_graph"]["where"] == {"step": 0, "row": 0, "column": 1}

    def test_balanced_y_check_on_complete_graph(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "ds.json",
            {
                "algorithm": "pushsum",
                "n": 4,
                "horizon": 30,
                "graph": {"kind": "doubly-stochastic-compatible", "params": {"topology": "complete"}},
                "init": {"x0": [1.0, 2.0, 3.0, 4.0]},
            },
        )
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
        assert "[PASS] balanced_y_equals_one" in capsys.readouterr().out


class TestSweep:
    def test_horizon_axis(self, optimizer_cfg, tmp_path, capsys):
        out = str(tmp_path / "sw")
        code = main(
            [
                "sweep", "--config", optimizer_cfg, "--axis", "horizon",
                "--values", "25,100,400", "--out", out,
            ]
        )
        assert code == 0
        summary = json.loads(open(os.path.join(out, "sweep_summary.json")).read())
        assert summary["values"] == [25, 100, 400]
        gaps = [row["final_f_gap_avg"] for row in summary["rows"]]
        assert gaps[0] > gaps[-1]
        assert summary["gap_fit"]["power_slope"] < 0.0

    def test_seeds_axis(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "sgp.json",
            {
                "algorithm": "sgp",
                "n": 2,
                "horizon": 300,
                "graph": {"kind": "static-complete"},
                "init": {"x0": [[4.0], [6.0]]},
                "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
                "stepsize": {"kind": "sgp_strong"},
                "oracle": {"noise_bounds": [0.5, 0.5]},
                "seeds": [0, 1, 2, 3],
            },
        )
        out = str(tmp_path / "sw")
        assert main(["sweep", "--config", cfg, "--axis", "seeds", "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "sweep_summary.json")).read())
        assert summary["values"] == [0, 1, 2, 3]
        assert len(summary["rows"]) == 4
        mean_cols = read_csv_columns(os.path.join(out, "sweep_mean.csv"))
        assert mean_cols["t"][0] == 1.0
        assert mean_cols["mean_sq_error"][-1] < mean_cols["mean_sq_error"][0]

    def test_seeds_axis_builds_and_checks_graphs_once(self, pushsum_cfg, tmp_path, monkeypatch):
        builds = counting(monkeypatch, cli, "build_graph_sequence")
        checks = counting(monkeypatch, cli, "is_uniformly_strongly_connected")
        out = str(tmp_path / "sw")
        args = ["sweep", "--config", pushsum_cfg, "--axis", "seeds", "--values", "0,1,2"]
        assert main(args + ["--out", out]) == 0
        assert len(builds) == 1 and len(checks) == 1

    def test_seeds_axis_stores_no_weight_matrices(self, tmp_path, monkeypatch):
        params = {"window": 2, "extra_arc_prob": 0.2}
        cfg = write_cfg(
            tmp_path,
            "het.json",
            {
                "algorithm": "heterogeneous",
                "n": 5,
                "horizon": 40,
                "graph": {"kind": "random-spanning", "params": params},
                "init": {"x0": [[1.0], [2.0], [3.0], [4.0], [5.0]]},
                "objective": {"kind": "abs", "anchors": [[0.0], [1.0], [2.0], [3.0], [4.0]]},
                "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
                "sigma": {"kind": "bernoulli", "p": 0.5},
            },
        )
        built = counting(monkeypatch, weights, "default_weights")
        runs = []
        run = cli.execute_run

        def recorded(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "execute_run", recorded)
        args = ["sweep", "--config", cfg, "--axis", "seeds", "--values", "0,1,2"]
        assert main(args + ["--out", str(tmp_path / "sw")]) == 0
        # each seed's weights are its graphs' ids into the one shared table
        assert len(runs) == 3 and not built
        assert all(r.trace.w_mats.nbytes == 0 and r.trace.w_mats.table is r.seq.table for r in runs)

    def test_horizon_axis_builds_and_checks_graphs_once(self, pushsum_cfg, tmp_path, monkeypatch):
        builds = counting(monkeypatch, cli, "build_graph_sequence")
        checks = counting(monkeypatch, cli, "is_uniformly_strongly_connected")
        out = str(tmp_path / "sw")
        args = ["sweep", "--config", pushsum_cfg, "--axis", "horizon", "--values", "20,5,40"]
        assert main(args + ["--out", out]) == 0
        assert len(builds) == 1 and builds[0][0].horizon == 40
        assert len(checks) == 1 and len(checks[0][0]) == 40

    def test_prefix_connectivity(self):
        failing = {"claimed_window": 3, "verified": False, "first_failing_window": 5}
        assert cli._prefix_connectivity(failing, 2) == {"claimed_window": 3, "verified": None}
        assert cli._prefix_connectivity(failing, 7) == {"claimed_window": 3, "verified": True}
        assert cli._prefix_connectivity(failing, 8) == failing
        passing = {"claimed_window": 3, "verified": True}
        assert cli._prefix_connectivity(passing, 8) == passing
        assert cli._prefix_connectivity({"claimed_window": None, "verified": None}, 8)["verified"] is None

    def test_failed_window_reported(self, pushsum_cfg, window_too_short, tmp_path, capsys):
        for axis, values in (("seeds", "0,1"), ("horizon", "20,40")):
            args = ["sweep", "--config", pushsum_cfg, "--axis", axis, "--values", values]
            assert main(args + ["--out", str(tmp_path / axis), "--strict"]) == 1
            assert FAILED_WINDOW in capsys.readouterr().out

    def test_horizon_below_one_is_a_config_error(self, optimizer_cfg, tmp_path, capsys):
        args = ["sweep", "--config", optimizer_cfg, "--axis", "horizon", "--values", "0,200"]
        assert main(args + ["--out", str(tmp_path / "sw")]) == 2
        assert "config.horizon must be >= 1" in capsys.readouterr().err

    def test_horizon_axis_rejects_repeated_values(self, optimizer_cfg, tmp_path, capsys):
        out = tmp_path / "sw"
        args = ["sweep", "--config", optimizer_cfg, "--axis", "horizon", "--values", "100,100,100"]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "sweep --axis horizon needs distinct --values, got '100,100,100'\n"
        assert not out.exists()

    def test_seeds_axis_needs_values(self, optimizer_cfg, tmp_path):
        out = str(tmp_path / "sw")
        code = main(["sweep", "--config", optimizer_cfg, "--axis", "seeds", "--out", out])
        assert code == 2


class TestRates:
    def test_fits_metrics_column(self, optimizer_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", optimizer_cfg, "--out", out])
        capsys.readouterr()
        code = main(["rates", "--metrics", os.path.join(out, "metrics.csv"), "--column", "f_gap_avg"])
        assert code == 0
        assert "power law" in capsys.readouterr().out

    def test_unknown_column(self, optimizer_cfg, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", optimizer_cfg, "--out", out])
        code = main(["rates", "--metrics", os.path.join(out, "metrics.csv"), "--column", "zzz"])
        assert code == 2

    @pytest.mark.parametrize(
        "option, got",
        [
            (["--tail", "0"], "0 and 20"),
            (["--tail", "1.5"], "1.5 and 20"),
            (["--tail", "nan"], "nan and 20"),
            (["--column", "f_gap_avg", "--min-points", "0"], "0.5 and 0"),
            (["--min-points", "1"], "0.5 and 1"),
            (["--min-points", "-5"], "0.5 and -5"),
        ],
    )
    def test_rejects_its_own_options(self, optimizer_cfg, tmp_path, capsys, option, got):
        # a rejected option is a rejected input (exit 2), not a failed fit (exit 1)
        out = str(tmp_path / "out")
        main(["run", "--config", optimizer_cfg, "--out", out])
        capsys.readouterr()
        assert main(["rates", "--metrics", os.path.join(out, "metrics.csv"), *option]) == 2
        err = capsys.readouterr().err
        assert err == f"rates needs --tail in (0, 1] and --min-points >= 2, got {got}\n"


class TestErrorPaths:
    def test_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_semantic_config_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "bad.json",
            {
                "algorithm": "pushsum",
                "n": 2,
                "horizon": 5,
                "graph": {"kind": "static-complete"},
                "init": {"x0": [1.0, 2.0, 3.0]},
            },
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_values_the_library_rejects_are_config_errors(self, tmp_path, capsys):
        weights_path = tmp_path / "w.txt"
        block = [[0.5, 0.5], [0.5, 0.5]]
        save_weights(str(weights_path), np.kron(np.eye(2), block))  # arcs off the ring
        ring = {"algorithm": "pushsum", "n": 4, "horizon": 20, "init": {"x0": [1.0, 2.0, 3.0, 4.0]}}
        pair = {
            "n": 2,
            "horizon": 20,
            "graph": {"kind": "static-complete"},
            "init": {"x0": [[4.0], [6.0]]},
        }
        het = {
            **pair,
            "algorithm": "heterogeneous",
            "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
            "stepsize": {"kind": "fixed_inv_sqrt"},
        }
        floor = "init.c entries must be positive and exceed 1e-300"
        cases = [
            (
                "custom weights invalid at step 0",
                {
                    **ring,
                    "graph": {"kind": "static-ring"},
                    "weights": {"policy": "file", "path": str(weights_path)},
                },
            ),
            (
                "unknown params for kind 'random-spanning'",
                {**ring, "graph": {"kind": "random-spanning", "params": {"windw": 2}}},
            ),
            # values of the wrong JSON type
            (
                "objective.anchors must hold numbers only",
                {
                    **pair,
                    "algorithm": "subgradient_push",
                    "objective": {"kind": "abs", "anchors": {"a": 1}},
                    "stepsize": {"kind": "fixed_inv_sqrt"},
                },
            ),
            (
                "weights.path must be a string",
                {
                    **ring,
                    "graph": {"kind": "static-ring"},
                    "weights": {"policy": "file", "path": ["a"]},
                },
            ),
            ("graph.path must be a string", {**ring, "graph": {"kind": "file", "path": 7}}),
            # JSON booleans, which numpy would read as 1.0 and 0.0
            (
                "init.x0 must hold numbers only",
                {**pair, "algorithm": "pushsum", "horizon": 5, "init": {"x0": [[True], [2.0]]}},
            ),
            (
                "oracle.noise_bounds must hold numbers only",
                {
                    **pair,
                    "algorithm": "sgp",
                    "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
                    "stepsize": {"kind": "sgp_strong", "lambda_bar": 1.0},
                    "oracle": {"noise_bounds": [0.5, False]},
                },
            ),
            # generator params that would otherwise be coerced
            *(
                (
                    f"{key} must be {what}, got {value!r}",
                    {**ring, "graph": {"kind": "random-spanning", "params": {key: value}}},
                )
                for key, what, value in (
                    ("window", "an integer >= 1", 2.7),
                    ("window", "an integer >= 1", True),
                    ("extra_arc_prob", "a number in [0, 1]", "0.5"),
                )
            ),
            (
                "sgp needs a differentiable objective",
                {
                    **pair,
                    "algorithm": "sgp",
                    "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
                    "stepsize": {"kind": "sgp_strong", "lambda_bar": 1.0},
                    "oracle": {"noise_bounds": [0.5, 0.5]},
                },
            ),
            (
                "harmonic needs power in (0, 1]",
                {
                    **pair,
                    "algorithm": "subgradient_push",
                    "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
                    "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 2.0},
                },
            ),
            (
                floor,
                {
                    **pair,
                    "algorithm": "weighted_pushsum",
                    "init": {"c": [1e-310, 1.0], "x_init": [0.3, 4.0]},
                },
            ),
            (
                floor,
                {
                    **pair,
                    "algorithm": "subgradient_push",
                    "init": {"x0": [[4.0], [6.0]], "c": [1e-310, 1.0]},
                    "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
                    "stepsize": {"kind": "fixed_inv_sqrt"},
                },
            ),
            # seeds outside [0, 2**128), the key range of Philox
            (
                "graph.seed must lie in [0, 2**128), got -1",
                {**ring, "graph": {"kind": "random-spanning", "seed": -1}},
            ),
            (
                "sigma.seed must lie in [0, 2**128), got -1",
                {**het, "sigma": {"kind": "bernoulli", "seed": -1}},
            ),
            (
                f"config.seed must lie in [0, 2**128), got {2**130}",
                {**ring, "graph": {"kind": "static-ring"}, "seed": 2**130},
            ),
            ("config.seeds[] must lie in [0, 2**128), got -1", {**het, "seeds": [-1, 0]}),
            (
                f"oracle.seed must lie in [0, 2**128), got {2**128}",
                {
                    **pair,
                    "algorithm": "sgp",
                    "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
                    "stepsize": {"kind": "sgp_strong", "lambda_bar": 1.0},
                    "oracle": {"noise_bounds": [0.5, 0.5], "seed": 2**128},
                },
            ),
        ]
        commands = (
            ["run"],
            ["verify"],
            ["sweep", "--axis", "seeds", "--values", "0,1"],
            ["sweep", "--axis", "horizon", "--values", "5,10"],
        )
        for i, (message, data) in enumerate(cases):
            cfg = write_cfg(tmp_path, f"bad{i}.json", data)
            for command in commands:
                out = str(tmp_path / f"o{i}")
                assert main([*command, "--config", cfg, "--out", out]) == 2, (message, command)
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and message in err, err
                assert err.count("\n") == 1
        # a push-sum run never reads its seed, but the flag is checked too
        ring_cfg = os.path.join(CONFIGS, "pushsum_ring.json")
        out = str(tmp_path / "seed")
        assert main(["verify", "--config", ring_cfg, "--seed", "-1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config.seed must lie in [0, 2**128), got -1\n"

    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys):
        data = {
            "algorithm": "sgp",
            "n": 2,
            "horizon": 20,
            "graph": {"kind": "static-complete"},
            "init": {"x0": [[4.0], [6.0]]},
            "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
            "stepsize": {"kind": "sgp_strong", "lambda_bar": float("inf")},
            "oracle": {"noise_bounds": [0.5, 0.5]},
        }
        cfg = write_cfg(tmp_path, "inf.json", data)
        assert '"lambda_bar": Infinity' in open(cfg).read()
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: stepsize.lambda_bar must be a finite number, got inf\n"

    def test_sweep_values_must_be_integers(self, tmp_path, capsys):
        cfg = os.path.join(CONFIGS, "heterogeneous.json")
        args = ["sweep", "--config", cfg, "--axis", "seeds", "--values", "1,x"]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "sweep --values must list integers, got '1,x'\n"

    def test_rates_rejects_a_file_that_is_not_a_metrics_csv(self, tmp_path, capsys):
        path = tmp_path / "notes.md"
        path.write_text("title\nsome, text\n")
        assert main(["rates", "--metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err, err

    def test_diverging_run_is_a_run_error(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "diverge.json",
            {
                "algorithm": "push_subgradient",
                "n": 2,
                "horizon": 2000,
                "graph": {"kind": "static-complete"},
                "init": {"x0": [[4.0], [6.0]]},
                "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
                "stepsize": {"kind": "constant", "alpha": 4.0},
            },
        )
        for command in ("run", "verify"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert err == (
                "run error: state diverged at step 513 (non-finite x); reduce the step size\n"
            ), err


class TestMemory:
    def test_run_and_verify_hold_no_dense_stack(self, tmp_path):
        # one float matrix per step would take this many bytes
        n, horizon = 60, 1000
        dense = horizon * n * n * 8
        cfg = write_cfg(
            tmp_path,
            "random.json",
            {
                "algorithm": "pushsum",
                "n": n,
                "horizon": horizon,
                "graph": {"kind": "random-spanning", "params": {"window": 2, "extra_arc_prob": 0.1}},
                "init": {"x0": [float(i) for i in range(n)]},
            },
        )
        peaks = {}
        tracemalloc.start()
        try:
            for command in ("run", "verify"):
                tracemalloc.reset_peak()
                assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
                peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < dense, peaks
