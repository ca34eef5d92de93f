"""Command-line driver: run scenarios, verify invariants, sweep, fit rates.

Subcommands
-----------
run     execute one scenario, write trace.csv / metrics.csv / summary.json
verify  rerun with full recording, check every exact identity the
        dynamics must satisfy and write verify.json; nonzero exit on violation
sweep   rerun a scenario across horizons or seeds and fit the decay rate
rates   fit power/geometric rates on a column of an existing metrics CSV

Runs are deterministic: identical config and flags give byte-identical
CSV and JSON outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (
    HET_BOUND_ALGORITHMS,
    RunMetrics,
    _fixed_bound,
    _varying_bound_series,
    bound_inputs_from_trace,
    compute_metrics,
    consensus_error_series,
    fit_rate,
    verify_descent_recursion,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_graph_sequence,
    build_objective,
    build_oracle,
    build_schedule,
    build_sigma,
    build_weights,
    load_config,
)
from .graphs import GraphSequence, first_failing_window, is_uniformly_strongly_connected
from .optim import Objective, StepSchedule, run_optimizer
from .pushsum import (
    Trace,
    absolute_probability_violation,
    run_pushsum,
    run_weighted_pushsum,
    theoretical_constants,
    verify_product_limit,
    verify_ratio_identity,
)
from .report import (
    read_csv_columns,
    write_csv,
    write_metrics_csv,
    write_s_matrices_csv,
    write_summary_json,
    write_trace_csv,
)

__all__ = ["main", "execute_run", "RunArtifacts"]

# Hard tolerances for the verify subcommand.
TOL_ABS_PROBABILITY = 1e-10
TOL_RATIO_IDENTITY = 1e-9
TOL_MASS = 1e-10
TOL_ROW_STOCHASTIC = 1e-12
TOL_COLUMN_STOCHASTIC = 1e-12
TOL_DESCENT = 1e-10
TOL_Y_ONE = 1e-14


@dataclass
class RunArtifacts:
    cfg: ExperimentConfig
    seq: GraphSequence
    trace: Trace
    obj: Objective | None
    schedule: StepSchedule | None


def execute_run(
    cfg: ExperimentConfig,
    seed: int | None = None,
    horizon: int | None = None,
    seq: GraphSequence | None = None,
) -> RunArtifacts:
    """Build everything a config describes (or reuse its graphs ``seq``) and run it once."""
    if horizon is not None and horizon != cfg.horizon:
        cfg = cfg.with_horizon(horizon)
    if seed is not None and seed != cfg.seed:
        cfg = cfg.with_seed(seed)
    if seq is None:
        seq = build_graph_sequence(cfg)
    weights = build_weights(cfg)
    obj = build_objective(cfg)
    schedule = build_schedule(cfg, obj)
    if cfg.algorithm == "pushsum":
        trace = run_pushsum(seq, weights, cfg.x0, cfg.horizon)
    elif cfg.algorithm == "weighted_pushsum":
        trace = run_weighted_pushsum(seq, weights, cfg.c, cfg.x_init, cfg.horizon)
    else:
        trace = run_optimizer(
            cfg.algorithm,
            seq,
            obj,
            schedule,
            weights=weights,
            x0=cfg.x0,
            y0=cfg.c,
            sigma=build_sigma(cfg),
            oracle=build_oracle(cfg),
            horizon=cfg.horizon,
            seed=cfg.seed,
        )
    return RunArtifacts(cfg=cfg, seq=seq, trace=trace, obj=obj, schedule=schedule)


def _connectivity(seq: GraphSequence) -> dict:
    window = seq.claimed_window
    if window is None or window > len(seq):
        return {"claimed_window": window, "verified": None}
    verified = bool(is_uniformly_strongly_connected(seq, window))
    conn = {"claimed_window": window, "verified": verified}
    if not verified:
        conn["first_failing_window"] = first_failing_window(seq, window)
    return conn


def _prefix_connectivity(conn: dict, steps: int) -> dict:
    """The report for the first ``steps`` graphs, from the report ``conn``
    of a longer sequence: the prefix fails iff that sequence's first
    failing window fits inside it."""
    window = conn["claimed_window"]
    if window is None or window > steps:
        return {"claimed_window": window, "verified": None}
    first = conn.get("first_failing_window")
    if first is None or first + window > steps:
        return {"claimed_window": window, "verified": True}
    return conn


def _theoretical(seq: GraphSequence) -> dict | None:
    if seq.claimed_window is None:
        return None
    tc = theoretical_constants(seq.n, seq.claimed_window)
    return {"eta_lb": tc.eta_lb, "mu_ub": tc.mu_ub, "c": tc.c, "window": seq.claimed_window}


def _try_fit(values, times=None, tail=0.5, min_points=20) -> dict | None:
    try:
        fit = fit_rate(values, times=times, tail_fraction=tail, min_points=min_points)
    except ValueError:
        return None
    return {
        "power_slope": fit.power_slope,
        "power_r2": fit.power_r2,
        "geo_rate": fit.geo_rate,
        "geo_r2": fit.geo_r2,
        "n_used": fit.n_used,
        "n_filtered": fit.n_filtered,
    }


def _bounds_section(arts: RunArtifacts, metrics: RunMetrics, mu: float, eta_lb: float) -> dict | None:
    """The bound ceilings of an optimizer run. The realized network values
    are the ones ``metrics`` holds (the final varying-step value is the
    last entry of its series); the a-priori and per-agent ones come from
    the same evaluators."""
    trace, obj = arts.trace, arts.obj
    if metrics.bound_varying is None:
        return None
    agent = metrics.agent
    het = trace.algorithm in HET_BOUND_ALGORITHMS
    realized = bound_inputs_from_trace(trace, obj, mu=mu)
    apriori = bound_inputs_from_trace(
        trace,
        obj,
        mu=mu,
        eta=eta_lb,
        grad_bound=obj.grad_norm_bound or None,
    )
    out: dict = {
        "mu_used": mu,
        "eta_realized": realized.eta,
        "eta_apriori": eta_lb,
        "varying_final_realized": float(metrics.bound_varying[-1]),
        "varying_final_apriori": float(_varying_bound_series(apriori, het)[-1]),
        "varying_final_agent_realized": float(_varying_bound_series(realized, het, k=agent)[-1]),
    }
    gap = float(metrics.f_gap_avg[-1])
    out["final_gap_below_varying_realized"] = bool(gap <= out["varying_final_realized"])
    if metrics.bound_fixed is not None:
        out["fixed_realized"] = metrics.bound_fixed
        out["fixed_apriori"] = _fixed_bound(apriori, het)
        out["fixed_agent_realized"] = _fixed_bound(realized, het, k=agent)
        out["final_gap_below_fixed_realized"] = bool(gap <= metrics.bound_fixed)
    return out


def _summarize(arts: RunArtifacts, metrics: RunMetrics, shas: dict, conn: dict) -> dict:
    trace = arts.trace
    theo = _theoretical(arts.seq)
    summary: dict = {
        "algorithm": trace.algorithm,
        "n": trace.n,
        "d": trace.d,
        "horizon": trace.steps,
        "seed": arts.cfg.seed,
        "kappa": trace.kappa,
        "connectivity": conn,
        "constants": theo,
        "realized": {
            "eta_min": metrics.realized_eta,
            "y_max": metrics.realized_y_max,
            "grad_bound": metrics.realized_grad_bound,
        },
        "final": {
            "consensus_error": float(metrics.consensus[-1]),
        },
        "rates": {
            "consensus": _try_fit(metrics.consensus, times=metrics.times),
        },
        "files": shas,
    }
    if trace.algorithm in ("pushsum", "weighted_pushsum"):
        limit = trace.z_weighted[0]
        dev = float(np.max(np.linalg.norm(trace.zs[-1] - limit[np.newaxis, :], axis=1)))
        summary["target"] = {"limit": limit, "final_max_deviation": dev}
    if metrics.lyapunov is not None:
        summary["final"]["lyapunov"] = float(metrics.lyapunov[-1])
    if metrics.f_gap_avg is not None and len(metrics.f_gap_avg):
        summary["final"]["f_gap_avg"] = float(metrics.f_gap_avg[-1])
        summary["final"]["f_gap_agent"] = float(metrics.f_gap_agent[-1])
        summary["record_agent"] = metrics.agent
        summary["rates"]["f_gap_avg"] = _try_fit(
            metrics.f_gap_avg, times=metrics.times[: len(metrics.f_gap_avg)]
        )
    if arts.schedule is not None:
        summary["schedule"] = {
            "kind": arts.schedule.kind,
            "diminishing_compliant": arts.schedule.satisfies_diminishing_conditions,
        }
    if theo is not None:
        bounds = _bounds_section(arts, metrics, mu=theo["mu_ub"], eta_lb=theo["eta_lb"])
        if bounds is not None:
            summary["bounds"] = bounds
    return summary


def _check_connectivity(conn: dict, strict: bool) -> tuple[bool, str]:
    if conn["verified"] is None:
        return True, "connectivity: no claimed window to check"
    if conn["verified"]:
        return True, f"connectivity: every {conn['claimed_window']}-step window ok"
    window, start = conn["claimed_window"], conn["first_failing_window"]
    return (not strict), (
        f"connectivity FAILED for claimed window {window}: the window at offset {start} "
        f"(graph steps {start}..{start + window - 1}) is not strongly connected"
    )


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    arts = execute_run(cfg)
    conn = _connectivity(arts.seq)
    ok, msg = _check_connectivity(conn, args.strict)
    print(msg)
    if not ok:
        return 1

    theo = _theoretical(arts.seq)
    metrics = compute_metrics(
        arts.trace,
        arts.obj,
        arts.schedule,
        agent=cfg.record_agent,
        mu=None if theo is None else theo["mu_ub"],
    )
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    metrics_path = os.path.join(args.out, "metrics.csv")
    shas = {
        "trace_csv_sha256": write_trace_csv(trace_path, arts.trace),
        "metrics_csv_sha256": write_metrics_csv(metrics_path, metrics),
    }
    if args.record_s or cfg.record_s:
        write_s_matrices_csv(os.path.join(args.out, "s_matrices.csv"), arts.trace)
    summary = _summarize(arts, metrics, shas, conn)
    write_summary_json(os.path.join(args.out, "summary.json"), summary)

    print(
        f"{arts.trace.algorithm}: n={arts.trace.n} d={arts.trace.d} "
        f"horizon={arts.trace.steps} seed={cfg.seed} kappa={arts.trace.kappa:g}"
    )
    print(f"final consensus error: {summary['final']['consensus_error']:.6e}")
    if "target" in summary:
        print(f"final deviation from limit: {summary['target']['final_max_deviation']:.6e}")
    if "f_gap_avg" in summary["final"]:
        line = f"final f-gap (running avg): {summary['final']['f_gap_avg']:.6e}"
        bounds = summary.get("bounds")
        if bounds and "fixed_realized" in bounds:
            verdict = "OK" if bounds.get("final_gap_below_fixed_realized") else "VIOLATED"
            line += f"  [fixed-step bound {bounds['fixed_realized']:.4e}: {verdict}]"
        print(line)
    fit = summary["rates"]["consensus"]
    if fit is not None:
        print(
            f"consensus rate fit: geometric {fit['geo_rate']:.6f} (r2={fit['geo_r2']:.3f}), "
            f"power slope {fit['power_slope']:.3f} (r2={fit['power_r2']:.3f})"
        )
    print(f"wrote {trace_path} {metrics_path} {os.path.join(args.out, 'summary.json')}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    arts = execute_run(cfg)
    trace, seq = arts.trace, arts.seq
    checks: list[tuple[str, float, float, bool]] = []

    conn_ok, conn_msg = _check_connectivity(_connectivity(seq), strict=True)
    print(conn_msg)

    # column stochasticity and graph compliance of the applied weights
    col_dev = float(np.max(np.abs(trace.w_mats.sum(axis=1) - 1.0)))
    checks.append(("column_stochastic", col_dev, TOL_COLUMN_STOCHASTIC, col_dev <= TOL_COLUMN_STOCHASTIC))
    adj = np.stack([seq[k].adj for k in range(trace.steps)])
    sparsity_ok = np.array_equal(trace.w_mats > 0.0, adj)
    checks.append(("weights_match_graph", 0.0 if sparsity_ok else 1.0, 0.0, sparsity_ok))

    # conservation (pure mixing only; optimizer runs inject gradients)
    if trace.algorithm in ("pushsum", "weighted_pushsum"):
        x_tot = trace.xs.sum(axis=1)
        mass_x = float(np.max(np.abs(x_tot - x_tot[0])))
        checks.append(("mass_conservation_x", mass_x, TOL_MASS, mass_x <= TOL_MASS))
    y_tot = trace.ys.sum(axis=1)
    mass_y = float(np.max(np.abs(y_tot - y_tot[0])))
    checks.append(("mass_conservation_y", mass_y, TOL_MASS, mass_y <= TOL_MASS))

    # induced ratio matrices: rows, sparsity, entry floor
    s_all = trace.s_matrices()
    row_dev = float(np.max(np.abs(s_all.sum(axis=2) - 1.0)))
    checks.append(("s_row_stochastic", row_dev, TOL_ROW_STOCHASTIC, row_dev <= TOL_ROW_STOCHASTIC))
    s_sparsity_ok = np.array_equal(s_all > 0.0, trace.w_mats > 0.0)
    checks.append(("s_matches_weights", 0.0 if s_sparsity_ok else 1.0, 0.0, s_sparsity_ok))
    beta_min = float(trace.w_mats[trace.w_mats > 0.0].min())
    gamma = beta_min * float(trace.ys.min()) / float(trace.ys.max())
    s_floor = float(s_all[s_all > 0.0].min())
    floor_ok = s_floor >= gamma * (1.0 - 1e-9)
    checks.append(("s_entry_floor", s_floor, gamma, floor_ok))

    # the probability recursion, optionally against corrupted y records
    ys_check = trace.ys
    if args.perturb_y:
        ys_check = trace.ys.copy()
        ys_check[1:, 0] += args.perturb_y
        print(f"fault injection: y[agent 0] shifted by {args.perturb_y:g} from t>=1")
    ap_dev = absolute_probability_violation(ys_check, s_all, trace.kappa)
    checks.append(("absolute_probability", ap_dev, TOL_ABS_PROBABILITY, ap_dev <= TOL_ABS_PROBABILITY))

    # ratio identity over a spread of (t, tau) pairs
    t_end = trace.t0 + trace.steps
    pairs = {(t_end, trace.t0), (t_end, (trace.t0 + t_end) // 2)}
    rng = np.random.default_rng(cfg.seed)
    for _ in range(3):
        tau = int(rng.integers(trace.t0, t_end))
        t = int(rng.integers(tau, t_end + 1))
        pairs.add((t, tau))
    ri_dev = max(verify_ratio_identity(trace, t, tau) for t, tau in pairs)
    checks.append(("ratio_identity", ri_dev, TOL_RATIO_IDENTITY, ri_dev <= TOL_RATIO_IDENTITY))

    # backward products must approach the rank-one limit
    if trace.steps >= 4 and conn_ok:
        dev_full = verify_product_limit(trace, trace.t0, t_end)
        dev_half = verify_product_limit(trace, trace.t0, trace.t0 + trace.steps // 2)
        decay_ok = dev_full <= dev_half + 1e-12
        checks.append(("product_limit_decay", dev_full, dev_half + 1e-12, decay_ok))

    if trace.gs is not None:
        dr_dev = verify_descent_recursion(trace)
        checks.append(("descent_recursion", dr_dev, TOL_DESCENT, dr_dev <= TOL_DESCENT))

    # balanced special case: doubly stochastic weights freeze y at 1
    row_sums = trace.w_mats.sum(axis=2)
    if float(np.max(np.abs(row_sums - 1.0))) <= TOL_COLUMN_STOCHASTIC and trace.kappa == trace.n:
        y_dev = float(np.max(np.abs(trace.ys - 1.0)))
        checks.append(("balanced_y_equals_one", y_dev, TOL_Y_ONE, y_dev <= TOL_Y_ONE))

    failed = [name for name, _, _, ok in checks if not ok]
    for name, value, tol, ok in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {value:.6e} (tolerance {tol:.6e})")
    if not conn_ok:
        failed.append("connectivity")

    os.makedirs(args.out, exist_ok=True)
    write_summary_json(
        os.path.join(args.out, "verify.json"),
        {
            "checks": {
                name: {"value": value, "tolerance": tol, "ok": ok}
                for name, value, tol, ok in checks
            },
            "connectivity_ok": conn_ok,
            "failed": failed,
        },
    )
    if failed:
        print(f"verification FAILED: {', '.join(failed)}")
        return 1
    print("verification passed")
    return 0


def _seed_sweep_series(arts: RunArtifacts) -> np.ndarray:
    """Per-time mean over agents of the squared distance to the optimum
    (falls back to squared consensus error for pure mixing runs)."""
    trace, obj = arts.trace, arts.obj
    if obj is not None:
        z_star, _ = obj.optimum()
        diff = trace.zs - z_star[np.newaxis, np.newaxis, :]
        return np.mean(np.sum(diff * diff, axis=2), axis=1)
    return consensus_error_series(trace) ** 2


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.values:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    elif args.axis == "seeds" and cfg.seeds:
        values = list(cfg.seeds)
    else:
        print("sweep needs --values (or config.seeds for --axis seeds)", file=sys.stderr)
        return 2
    if not values:
        print("sweep received an empty value list", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    rows: list[dict] = []
    lines: list[str] = []
    if args.axis == "horizon":
        header = "horizon,final_f_gap_avg,final_f_gap_agent,final_consensus_error,bound_fixed_realized"
        gaps = []
        # every generator's sequence at a shorter horizon is a prefix of the
        # longest one: build and check that once, and run each horizon on its
        # first steps (a graph file is checked whole, as by run)
        longest = build_graph_sequence(cfg.with_horizon(max(values)))
        longest.default_matrices = {}
        conn = _connectivity(longest)
        for v in sorted(values):
            arts = execute_run(cfg, horizon=v, seq=longest)
            checked = len(longest) if cfg.graph_file is not None else v
            ok, msg = _check_connectivity(_prefix_connectivity(conn, checked), args.strict)
            if not ok:
                print(msg)
                return 1
            theo = _theoretical(arts.seq)
            metrics = compute_metrics(
                arts.trace,
                arts.obj,
                arts.schedule,
                agent=cfg.record_agent,
                mu=None if theo is None else theo["mu_ub"],
            )
            row = {
                "horizon": v,
                "final_consensus_error": float(metrics.consensus[-1]),
                "final_f_gap_avg": None,
                "final_f_gap_agent": None,
                "bound_fixed_realized": metrics.bound_fixed,
            }
            if metrics.f_gap_avg is not None and len(metrics.f_gap_avg):
                row["final_f_gap_avg"] = float(metrics.f_gap_avg[-1])
                row["final_f_gap_agent"] = float(metrics.f_gap_agent[-1])
                gaps.append((v, row["final_f_gap_avg"]))
            rows.append(row)
            cells = [str(v)] + [
                "" if row[k] is None else repr(row[k])
                for k in (
                    "final_f_gap_avg",
                    "final_f_gap_agent",
                    "final_consensus_error",
                    "bound_fixed_realized",
                )
            ]
            lines.append(",".join(cells))
        fit = None
        if len(gaps) >= 3:
            fit = _try_fit(
                [g for _, g in gaps],
                times=[t for t, _ in gaps],
                tail=1.0,
                min_points=min(len(gaps), 3),
            )
        summary = {"axis": "horizon", "values": sorted(values), "rows": rows, "gap_fit": fit}
    elif args.axis == "seeds":
        header = "seed,final_mean_sq_error"
        series = []
        times = None
        # the graph sequence does not follow the run seed: build and check it
        # once, and build its default weights once for all seeds
        seq = build_graph_sequence(cfg)
        seq.default_matrices = {}
        ok, msg = _check_connectivity(_connectivity(seq), args.strict)
        if not ok:
            print(msg)
            return 1
        for s in values:
            arts = execute_run(cfg, seed=s, seq=seq)
            mse = _seed_sweep_series(arts)
            series.append(mse)
            times = arts.trace.times()
            rows.append({"seed": s, "final_mean_sq_error": float(mse[-1])})
            lines.append(f"{s},{float(mse[-1])!r}")
        mean_series = np.mean(np.stack(series), axis=0)
        write_csv(
            os.path.join(args.out, "sweep_mean.csv"),
            "t,mean_sq_error",
            (f"{int(t)},{float(v)!r}" for t, v in zip(times, mean_series)),
        )
        fit = _try_fit(mean_series, times=times)
        summary = {
            "axis": "seeds",
            "values": list(values),
            "rows": rows,
            "mean_final": float(mean_series[-1]),
            "t_fit": fit,
        }
    else:
        print(f"unknown sweep axis {args.axis!r}", file=sys.stderr)
        return 2

    write_csv(os.path.join(args.out, "sweep.csv"), header, lines)
    write_summary_json(os.path.join(args.out, "sweep_summary.json"), summary)

    for ln in [header, *lines]:
        print(ln)
    fit = summary.get("gap_fit") or summary.get("t_fit")
    if fit:
        print(
            f"fit: power slope {fit['power_slope']:.4f} (r2={fit['power_r2']:.3f}), "
            f"geometric rate {fit['geo_rate']:.6f} (r2={fit['geo_r2']:.3f})"
        )
    print(f"wrote {os.path.join(args.out, 'sweep.csv')}")
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    cols = read_csv_columns(args.metrics)
    if args.column not in cols:
        print(
            f"column {args.column!r} not in {sorted(cols)}",
            file=sys.stderr,
        )
        return 2
    values = cols[args.column]
    times = cols.get("t")
    keep = ~np.isnan(values)
    values = values[keep]
    times = None if times is None else times[keep]
    try:
        fit = fit_rate(values, times=times, tail_fraction=args.tail, min_points=args.min_points)
    except ValueError as exc:
        print(f"rate fit failed: {exc}", file=sys.stderr)
        return 1
    print(f"column {args.column}: {fit.n_used} points used, {fit.n_filtered} filtered")
    print(f"power law:  slope {fit.power_slope:.6f}  r2 {fit.power_r2:.4f}")
    print(f"geometric:  rate {fit.geo_rate:.8f}  r2 {fit.geo_r2:.4f}")
    meaningful = max(fit.power_r2, fit.geo_r2) >= 0.9
    if not meaningful:
        print("warning: no fit reaches r2 >= 0.9; slopes are not meaningful rates")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pushsumlab",
        description="push-sum averaging and distributed subgradient optimization "
        "over directed time-varying graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument(
            "--strict",
            action="store_true",
            help="treat a failed connectivity check as an error",
        )

    p_run = sub.add_parser("run", help="run one scenario and write its outputs")
    add_common(p_run)
    p_run.add_argument(
        "--record-s",
        action="store_true",
        help="also write the induced row-stochastic matrices sidecar",
    )
    p_run.set_defaults(func=cmd_run)

    verify_help = "check the exact identities on a recorded run; always writes <out>/verify.json"
    p_verify = sub.add_parser("verify", help=verify_help, description=verify_help)
    add_common(p_verify)
    p_verify.add_argument(
        "--perturb-y",
        type=float,
        default=0.0,
        metavar="X",
        help="fault injection: shift agent 0's recorded y by X before checking",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="rerun across horizons or seeds and fit rates")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("horizon", "seeds"), required=True)
    p_sweep.add_argument(
        "--values",
        default="",
        help="comma-separated integers (defaults to config.seeds for --axis seeds)",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_rates = sub.add_parser("rates", help="fit decay rates on an existing metrics CSV")
    p_rates.add_argument("--metrics", required=True, help="metrics.csv path")
    p_rates.add_argument("--column", default="consensus_error")
    p_rates.add_argument("--tail", type=float, default=0.5)
    p_rates.add_argument("--min-points", type=int, default=20)
    p_rates.set_defaults(func=cmd_rates)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
