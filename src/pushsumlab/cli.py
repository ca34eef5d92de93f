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
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .analysis import (
    RunMetrics,
    compute_metrics,
    consensus_error_series,
    descent_residuals,
    fit_rate,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    build_graph_sequence,
    build_weights,
    config_values,
    load_config,
)
from .graphs import GraphSequence, first_failing_window, is_uniformly_strongly_connected
from .optim import replica_group_size, run_optimizer
from .pushsum import (
    DegenerateStateError,
    Finding,
    Replicas,
    TheoreticalConstants,
    Trace,
    locate,
    run_pushsum,
    run_weighted_pushsum,
    scan_induced,
    theoretical_constants,
)
from .report import (
    csv_blocks,
    read_csv_columns,
    write_csv,
    write_metrics_csv,
    write_s_matrices_csv,
    write_summary_json,
    write_trace_csv,
)
from .weights import COLUMN_SUM_TOL

__all__ = ["main", "execute_run", "RunArtifacts"]

# Hard tolerances for the verify subcommand.
TOL_ABS_PROBABILITY = 1e-10
TOL_RATIO_IDENTITY = 1e-9
TOL_MASS = 1e-10
TOL_ROW_STOCHASTIC = 1e-12
TOL_DESCENT = 1e-10
TOL_Y_ONE = 1e-14


@dataclass
class RunArtifacts:
    cfg: ExperimentConfig
    seq: GraphSequence
    trace: Trace | Replicas  # Replicas when run for a group of seed configs

    @cached_property
    def constants(self) -> TheoreticalConstants | None:
        """The a-priori constants of the graphs' claimed window, if any."""
        window = self.seq.claimed_window
        return None if window is None else theoretical_constants(self.seq.n, window)


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config)
    return cfg if args.seed is None else cfg.with_seed(args.seed)


def execute_run(
    cfg: ExperimentConfig,
    seq: GraphSequence | None = None,
    replicas: list[ExperimentConfig] | None = None,
) -> RunArtifacts:
    """Build everything a config describes (or reuse its graphs ``seq``) and
    run it once. An optimizer given the seed configs ``replicas`` of cfg
    runs their signals and oracles as replicas of one loop, and the trace
    is their :class:`Replicas`."""
    sigma, oracle = cfg.sigma, cfg.oracle
    if replicas is not None:
        sigma, oracle = [c.sigma for c in replicas], [c.oracle for c in replicas]
    with config_values():
        if seq is None:
            seq = build_graph_sequence(cfg)
        weights = build_weights(cfg)
        if cfg.algorithm == "pushsum":
            trace = run_pushsum(seq, weights, cfg.x0, cfg.horizon)
        elif cfg.algorithm == "weighted_pushsum":
            trace = run_weighted_pushsum(seq, weights, cfg.c, cfg.x_init, cfg.horizon)
        else:
            trace = run_optimizer(
                cfg.algorithm,
                seq,
                cfg.objective,
                cfg.schedule,
                weights=weights,
                x0=cfg.x0,
                y0=cfg.c,
                sigma=sigma,
                oracle=oracle,
                horizon=cfg.horizon,
            )
    return RunArtifacts(cfg=cfg, seq=seq, trace=trace)


def _connectivity(cfg: ExperimentConfig, strict: bool) -> tuple[GraphSequence, dict, bool, str]:
    """The config's graphs, their connectivity report and its verdict and
    message: checked before any dynamics run, so a failing strict check
    costs no run."""
    with config_values():
        seq = build_graph_sequence(cfg)
    window = seq.claimed_window
    conn = {"claimed_window": window, "verified": None}
    if window is not None and window <= len(seq):
        conn["verified"] = bool(is_uniformly_strongly_connected(seq, window))
        if not conn["verified"]:
            conn["first_failing_window"] = first_failing_window(seq, window)
    return seq, conn, *_check_connectivity(conn, strict)


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


def _metrics(arts: RunArtifacts) -> RunMetrics:
    cfg, tc = arts.cfg, arts.constants
    return compute_metrics(arts.trace, cfg.objective, cfg.schedule, cfg.record_agent, tc)


def _try_fit(values, times=None, tail=0.5, min_points=20) -> dict | None:
    try:
        fit = fit_rate(values, times=times, tail_fraction=tail, min_points=min_points)
    except ValueError:
        return None
    return asdict(fit)


def _summarize(arts: RunArtifacts, metrics: RunMetrics, shas: dict, conn: dict) -> dict:
    trace, tc = arts.trace, arts.constants
    summary: dict = {
        "algorithm": trace.algorithm,
        "n": trace.n,
        "d": trace.d,
        "horizon": trace.steps,
        "seed": arts.cfg.seed,
        "kappa": trace.kappa,
        "connectivity": conn,
        "constants": None if tc is None else {**asdict(tc), "window": conn["claimed_window"]},
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
        limit = trace.xs[:1].sum(axis=1)[0] / trace.kappa  # row 0 of trace.z_weighted
        z_end = trace.xs[-1] / trace.ys[-1][:, np.newaxis]  # the last row of trace.zs
        dev = float(np.max(np.linalg.norm(z_end - limit[np.newaxis, :], axis=1)))
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
    schedule = arts.cfg.schedule
    if schedule is not None:
        summary["schedule"] = {
            "kind": schedule.kind,
            "diminishing_compliant": schedule.satisfies_diminishing_conditions,
        }
    if metrics.bounds is not None:
        summary["bounds"] = metrics.bounds
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
    cfg = _load(args)
    seq, conn, ok, msg = _connectivity(cfg, args.strict)
    if not ok:
        print(msg)
        return 1
    arts = execute_run(cfg, seq)
    print(msg)

    metrics = _metrics(arts)
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
    cfg = _load(args)
    seq, _, conn_ok, conn_msg = _connectivity(cfg, strict=True)
    arts = execute_run(cfg, seq)
    trace, seq = arts.trace, arts.seq
    # (name, finding, tolerance, ok); a failed check reports where
    checks: list[tuple[str, Finding, float, bool]] = []

    def check(name: str, found: Finding, tol: float, ok: bool | None = None) -> None:
        checks.append((name, found, tol, found.value <= tol if ok is None else ok))

    print(conn_msg)

    # one pass over the steps: column sums and graph compliance of the
    # applied weights, then the induced ratio matrices' rows, sparsity,
    # entry floor, the probability recursion (optionally against
    # corrupted y records), and the backward products of the ratio
    # identity and of the product limit. Every pair starts at t0, so the
    # scan builds one chain of S and W products; the chain to t_end
    # multiplies in every S(k), and S(k) = Y(k+1)^-1 W(k) Y(k) telescopes
    # for any tau, so a faulty step shows in every later Phi(t, t0).
    ys_check = trace.ys
    if args.perturb_y:
        ys_check = trace.ys.copy()
        ys_check[1:, 0] += args.perturb_y
        print(f"fault injection: y[agent 0] shifted by {args.perturb_y:g} from t>=1")
    t0, t_end = trace.t0, trace.t0 + trace.steps
    mid = t0 + trace.steps // 2
    ratio_at = {t_end, mid}
    rng = np.random.default_rng(cfg.seed)
    for _ in range(3):
        ratio_at.add(int(rng.integers(t0 + 1, t_end + 1)))
    limit_at = []
    if trace.steps >= 4 and conn_ok:
        limit_at = [t_end, mid]
    scan = scan_induced(trace, seq, ys_check, ratio_at=sorted(ratio_at), limit_at=limit_at)
    check("column_stochastic", scan.columns, COLUMN_SUM_TOL)
    check("weights_match_graph", scan.graph, 0.0)

    # conservation (pure mixing only; optimizer runs inject gradients)
    times = trace.times()
    if trace.algorithm in ("pushsum", "weighted_pushsum"):
        x_tot = trace.xs.sum(axis=1)
        drift = np.abs(x_tot - x_tot[0])
        check("mass_conservation_x", locate(drift, times, ("t", "coordinate")), TOL_MASS)
    y_tot = trace.ys.sum(axis=1)
    check("mass_conservation_y", locate(np.abs(y_tot - y_tot[0]), times, ("t",)), TOL_MASS)

    check("s_row_stochastic", scan.row_sums, TOL_ROW_STOCHASTIC)
    check("s_matches_weights", scan.sparsity, 0.0)
    gamma = scan.beta_min.value * float(trace.ys.min()) / float(trace.ys.max())
    floor = scan.floor
    check("s_entry_floor", floor, gamma, floor.value >= gamma * (1.0 - 1e-9))
    check("absolute_probability", scan.probability, TOL_ABS_PROBABILITY)
    ratio = max(scan.ratio.values(), key=lambda f: f.value)  # the first pair on a tie
    check("ratio_identity", ratio, TOL_RATIO_IDENTITY)

    # backward products must approach the rank-one limit
    if limit_at:
        dev_full, dev_half = (scan.limit[(t, t0)] for t in limit_at)
        check("product_limit_decay", Finding(dev_full, {}), dev_half + 1e-12)

    if trace.gs is not None:
        residuals = descent_residuals(trace)
        check("descent_recursion", locate(residuals, times, ("step", "coordinate")), TOL_DESCENT)

    # balanced special case: doubly stochastic weights freeze y at 1
    if scan.w_rows.value <= COLUMN_SUM_TOL and trace.kappa == trace.n:
        off = np.abs(trace.ys - 1.0)
        check("balanced_y_equals_one", locate(off, times, ("t", "agent")), TOL_Y_ONE)

    failed, entries = [], {}
    for name, found, tol, ok in checks:
        entries[name] = {"value": found.value, "tolerance": tol, "ok": ok}
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {found.value:.6e} (tolerance {tol:.6e})"
        if not ok:
            failed.append(name)
            if found.where:
                entries[name]["where"] = found.where
                line += " at " + ", ".join(f"{key} {v}" for key, v in found.where.items())
        print(line)
    if not conn_ok:
        failed.append("connectivity")
    os.makedirs(args.out, exist_ok=True)
    write_summary_json(
        os.path.join(args.out, "verify.json"),
        {"checks": entries, "connectivity_ok": conn_ok, "failed": failed},
    )
    if failed:
        print(f"verification FAILED: {', '.join(failed)}")
        return 1
    print("verification passed")
    return 0


def _seed_sweep_series(trace: Trace, z_star: np.ndarray | None) -> np.ndarray:
    """Per-time mean over agents of the squared distance to the optimum
    z_star (squared consensus error for pure mixing runs, which have none)."""
    if z_star is not None:
        diff = trace.zs - z_star[np.newaxis, np.newaxis, :]
        return np.mean(np.sum(diff * diff, axis=2), axis=1)
    return consensus_error_series(trace) ** 2


def _run_seeds(
    cfg: ExperimentConfig, seq: GraphSequence, seeds: list[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The recorded times and each seed's ``_seed_sweep_series``.

    Only the switching signal and the oracle follow the run seed, so an
    optimizer's seeds run as replicas of one dynamics loop, a group of
    ``replica_group_size`` at a time (one ``execute_run`` each), on one
    optimum. A pure mixing run does not depend on the seed: it runs once.
    """
    cfgs = [cfg.with_seed(s) for s in seeds]  # every seed is checked first
    if cfg.objective is None:
        trace = execute_run(cfg, seq).trace
        return trace.times(), [_seed_sweep_series(trace, None)] * len(seeds)
    z_star, _ = cfg.objective.optimum()
    size = replica_group_size(cfg.n, cfg.objective.d, cfg.horizon)
    series = []
    for k in range(0, len(cfgs), size):
        # one run per group, so a group's stacked arrays are freed before the next runs
        runs = execute_run(cfg, seq, cfgs[k : k + size]).trace
        series += [_seed_sweep_series(trace, z_star) for trace in runs]
    return runs[0].times(), series


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.values:
        try:
            values = [int(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            print(f"sweep --values must list integers, got {args.values!r}", file=sys.stderr)
            return 2
    elif args.axis == "seeds" and cfg.seeds:
        values = list(cfg.seeds)
    else:
        print("sweep needs --values (or config.seeds for --axis seeds)", file=sys.stderr)
        return 2
    if not values:
        print("sweep received an empty value list", file=sys.stderr)
        return 2
    if args.axis == "horizon" and len(set(values)) < len(values):
        print(f"sweep --axis horizon needs distinct --values, got {args.values!r}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    # the graph sequence does not follow the run seed, and every generator's
    # sequence at a shorter horizon is a prefix of the longest one: build
    # and check one sequence for the whole sweep
    longest = cfg.with_horizon(max(values)) if args.axis == "horizon" else cfg
    seq, conn, ok, msg = _connectivity(longest, args.strict)
    rows: list[dict] = []
    if args.axis == "horizon":
        header = "horizon,final_f_gap_avg,final_f_gap_agent,final_consensus_error,bound_fixed_realized"
        for v in sorted(values):
            # a horizon runs on the first v steps; a graph file is checked whole, as by run
            checked = len(seq) if cfg.graph_file is not None else v
            ok, msg = _check_connectivity(_prefix_connectivity(conn, checked), args.strict)
            if not ok:
                print(msg)
                return 1
            metrics = _metrics(execute_run(cfg.with_horizon(v), seq))
            gap = metrics.f_gap_avg is not None  # one entry per step, so never empty
            rows.append(
                {
                    "horizon": v,
                    "final_f_gap_avg": float(metrics.f_gap_avg[-1]) if gap else None,
                    "final_f_gap_agent": float(metrics.f_gap_agent[-1]) if gap else None,
                    "final_consensus_error": float(metrics.consensus[-1]),
                    "bound_fixed_realized": metrics.bound_fixed,
                }
            )
        gaps = [row for row in rows if row["final_f_gap_avg"] is not None]
        fit = _try_fit(
            [row["final_f_gap_avg"] for row in gaps],
            times=[row["horizon"] for row in gaps],
            tail=1.0,
            min_points=3,
        )
        summary = {"axis": "horizon", "values": sorted(values), "rows": rows, "gap_fit": fit}
    else:
        header = "seed,final_mean_sq_error"
        if not ok:
            print(msg)
            return 1
        times, series = _run_seeds(cfg, seq, values)
        rows = [{"seed": s, "final_mean_sq_error": float(f[-1])} for s, f in zip(values, series)]
        mean_series = np.mean(np.stack(series), axis=0)
        write_csv(
            os.path.join(args.out, "sweep_mean.csv"),
            "t,mean_sq_error",
            csv_blocks([times, mean_series]),
        )
        fit = _try_fit(mean_series, times=times)
        summary = {
            "axis": "seeds",
            "values": list(values),
            "rows": rows,
            "mean_final": float(mean_series[-1]),
            "t_fit": fit,
        }

    # a column is empty on every row or on none: the swept value changes
    # neither the algorithm nor the kind of step rule
    columns = [[row[k] for row in rows] for k in header.split(",")]
    blocks = csv_blocks([None if c[0] is None else c for c in columns])
    lines = [line for block in blocks for line in block]
    write_csv(os.path.join(args.out, "sweep.csv"), header, [lines])
    write_summary_json(os.path.join(args.out, "sweep_summary.json"), summary)

    print("\n".join([header, *lines]))
    if fit:
        print(
            f"fit: power slope {fit['power_slope']:.4f} (r2={fit['power_r2']:.3f}), "
            f"geometric rate {fit['geo_rate']:.6f} (r2={fit['geo_r2']:.3f})"
        )
    print(f"wrote {os.path.join(args.out, 'sweep.csv')}")
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    if not 0.0 < args.tail <= 1.0 or args.min_points < 2:
        got = f"got {args.tail:g} and {args.min_points}"
        print(f"rates needs --tail in (0, 1] and --min-points >= 2, {got}", file=sys.stderr)
        return 2
    try:
        cols = read_csv_columns(args.metrics)
    except ValueError as exc:
        print(f"cannot read metrics CSV {args.metrics}: {exc}", file=sys.stderr)
        return 2
    if args.column not in cols:
        print(f"column {args.column!r} not in {sorted(cols)}", file=sys.stderr)
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
    strict_help = "treat a failed connectivity check as an error (verify always does)"
    for p in (p_run, p_sweep):
        p.add_argument("--strict", action="store_true", help=strict_help)

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
    except DegenerateStateError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
