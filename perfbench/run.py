"""Benchmark of `pushsumlab run`, `verify` and `sweep`, driven like a user.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout. Every CLI command runs in a
fresh interpreter (`launch.py`) with PYTHONPATH=src and BLAS pinned to
one thread; the benchmark writes the workload's configs from --seed and
checks every output with `checks.py`. A run repeats whole rounds of the
workload's operations while the next round is projected to end within
--seconds (at least one round).

--trace 0 reports the end-to-end metrics:
  wall_s       sum over the workload's commands of the median (over
               rounds) time of the call to pushsumlab.cli.main
  setup_s      median time from spawning an interpreter to the end of
               `import pushsumlab.cli`, over every cold start of the run
  peak_rss_mb  largest peak resident set of any command process
wall_s and setup_s are scaled to a reference host speed (`HostSpeed`);
the unscaled figures are printed above the result line and kept in the
result file.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of `tracer.py`, medians over traced rounds, plus the
tracing overhead (traced minus untraced wall_s).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A result file with every sample
goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORKLOADS = ("bundled", "random-n200", "hetero-sweep")
BUNDLED = (
    "pushsum_ring",
    "pushsum_weighted",
    "doubly_stochastic",
    "subgradient_push_fixed",
    "push_subgradient",
    "heterogeneous",
    "sgp_quadratic",
)
SETUP_PROBES = 5  # import-only cold starts per run, after one discarded warm-up
COMMAND_TIMEOUT_S = 120  # a hung command still ends the run within 180 s
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HostSpeed:
    """The host's speed, timed in this process right before and right
    after every command.

    The CPUs of the shared reference machine slow down by half or more for
    seconds to minutes at a time, as other tenants load them, and a
    command slows with them. Two fixed loops with nothing of pushsumlab
    in them are timed: `cpu_s`, integer arithmetic that stays in the
    first-level cache, and `mem_s`, random lookups in a dict of 400 000
    entries, which stalls on the shared caches. Each is divided by a
    fixed reference time (REF_CPU_S, REF_MEM_S) and the two shares are
    averaged into a slowdown; a command's times are divided by the
    slowdown around it.
    """

    REF_CPU_S = 0.0045
    REF_MEM_S = 0.022
    CPU_ITERATIONS = 50_000
    TABLE_SIZE = 400_000
    LOOKUPS = 20_000
    REPS = 5

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = {rng.getrandbits(60): i for i in range(self.TABLE_SIZE)}
        keys = list(self.table)
        rng.shuffle(keys)
        self.keys = keys[: self.LOOKUPS]
        self.last = self.measure()

    def measure(self) -> float:
        """Median slowdown over REPS passes of both loops."""
        cpu, mem = [], []
        for _ in range(self.REPS):
            start = time.perf_counter()
            acc = 0
            for i in range(self.CPU_ITERATIONS):
                acc += i * i
            mid = time.perf_counter()
            for k in self.keys:
                acc += self.table[k]
            cpu.append(mid - start)
            mem.append(time.perf_counter() - mid)
        self.last = (statistics.median(cpu) / self.REF_CPU_S + statistics.median(mem) / self.REF_MEM_S) / 2
        return self.last

    def around(self, call):
        """Return call()'s result and the mean slowdown before and after it."""
        before = self.last
        out = call()
        return out, (before + self.measure()) / 2


@dataclass
class Op:
    """One CLI command together with the checks on its outputs."""

    name: str
    argv: list[str]
    out: str  # emptied before every launch, so no check reads a stale file
    checks: list  # (check name, callable) pairs
    # checks that fail because of a known program fault: the op counts as
    # failed, but the result stays correct
    known_faults: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# workloads


def _run_checks(out: str, cfg: dict) -> list:
    """Checks every `run` output gets, plus those its scenario allows."""

    def summary():
        return checks.lenient_json(os.path.join(out, "summary.json"))

    def trace():
        return checks.read_trace(os.path.join(out, "trace.csv"))

    found = [
        ("strict_json:summary.json", lambda: checks.strict_json(os.path.join(out, "summary.json"))),
        ("digests", lambda: checks.check_digests(out, summary())),
        ("y_sums_to_kappa", lambda: checks.check_y_sums(trace(), checks.kappa_of(cfg))),
    ]
    if cfg["algorithm"] in ("pushsum", "weighted_pushsum"):
        found.append(("ratio_limit", lambda: checks.check_ratio_limit(trace(), checks.ratio_limit(cfg))))
    elif "stepsize" in cfg:
        found.append(("f_gap", lambda: checks.check_f_gap(trace(), os.path.join(out, "metrics.csv"), cfg)))
    if cfg["graph"]["kind"] == "doubly-stochastic-compatible":
        found.append(("y_all_one", lambda: checks.check_y_all_one(trace())))
    return found


def _verify_checks(out: str) -> list:
    path = os.path.join(out, "verify.json")
    return [
        ("strict_json:verify.json", lambda: checks.strict_json(path)),
        ("verify_passed", lambda: checks.check_verify_passed(checks.lenient_json(path))),
    ]


def _run_and_verify(name: str, cfg_path: str, cfg: dict, work: Path, known_faults=()) -> list[Op]:
    run_out, verify_out = str(work / "out" / f"{name}-run"), str(work / "out" / f"{name}-verify")
    return [
        Op(f"run:{name}", ["run", "--config", cfg_path, "--out", run_out], run_out,
           _run_checks(run_out, cfg), known_faults),
        Op(f"verify:{name}", ["verify", "--config", cfg_path, "--out", verify_out], verify_out,
           _verify_checks(verify_out)),
    ]


def _write_config(work: Path, name: str, cfg: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return str(path)


def bundled(seed: int, work: Path) -> list[Op]:
    """The seven shipped configs, unchanged; the seed only shuffles their order."""
    names = list(BUNDLED)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        path = CONFIGS / f"{name}.json"
        cfg = json.loads(path.read_text(encoding="utf-8"))
        ops += _run_and_verify(name, str(path), cfg, work)
    return ops


def _random_scenario(algorithm: str, n: int, horizon: int, seed: int) -> dict:
    """abs objective on random-spanning graphs; graph, run, anchors and x0 all from the seed.
    x0 lies in [5, 15], apart from the anchors in [-5, 5]."""
    rng = random.Random(seed)
    return {
        "algorithm": algorithm,
        "n": n,
        "horizon": horizon,
        "seed": seed,
        "graph": {"kind": "random-spanning", "seed": seed, "params": {"window": 2, "extra_arc_prob": 0.1}},
        "init": {"x0": [[round(rng.uniform(5.0, 15.0), 6)] for _ in range(n)]},
        "objective": {"kind": "abs", "anchors": [[round(rng.uniform(-5.0, 5.0), 6)] for _ in range(n)]},
        "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
    }


def random_n200(seed: int, work: Path) -> list[Op]:
    """push_subgradient at n=200, T=100: a fresh random graph every step."""
    cfg = _random_scenario("push_subgradient", 200, 100, seed)
    path = _write_config(work, "random_n200", cfg)
    # At n=200 the a-priori constants saturate and summary.json gets an
    # Infinity bound, on every seed: a known fault, counted as failed.
    return _run_and_verify("random-n200", path, cfg, work, known_faults=("strict_json:summary.json",))


def hetero_sweep(seed: int, work: Path) -> list[Op]:
    """Seed sweep of heterogeneous switching at odd n=51 (a unique minimiser), T=300."""
    cfg = _random_scenario("heterogeneous", 51, 300, seed)
    cfg["sigma"] = {"kind": "bernoulli", "p": 0.5}  # its seed follows each sweep seed
    cfg["seeds"] = [3 * seed + k for k in range(3)]
    path = _write_config(work, "hetero_sweep", cfg)
    out = str(work / "out" / "hetero_sweep")
    return [
        Op(
            "sweep:hetero",
            ["sweep", "--config", path, "--out", out, "--axis", "seeds"],
            out,
            [
                ("strict_json:sweep_summary.json", lambda: checks.strict_json(os.path.join(out, "sweep_summary.json"))),
                ("seed_finals", lambda: checks.check_seed_finals(out, cfg)),
            ],
        )
    ]


OPS_OF = {"bundled": bundled, "random-n200": random_n200, "hetero-sweep": hetero_sweep}


# ---------------------------------------------------------------------------
# running commands


def launch(work: Path, tag: str, argv: list[str], traced: bool) -> dict:
    """Run launch.py in a fresh interpreter; return its report plus setup_s."""
    report = work / f"{tag}.report.json"
    for stale in (report, Path(str(report) + ".spans.json")):
        stale.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "launch.py"), str(report), "1" if traced else "0", *argv]
    with open(work / f"{tag}.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0 or not report.exists():
        raise RuntimeError(f"launcher exited {proc.returncode} for {argv}; see {work / (tag + '.log')}")
    out = json.loads(report.read_text(encoding="utf-8"))
    if not Path(out["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"pushsumlab was imported from {out['module_file']}, not from {SRC}")
    out["setup_s"] = out["imported_monotonic"] - spawned
    return out


def run_op(work: Path, index: int, op: Op, traced: bool, host: HostSpeed) -> dict:
    """Run one operation and its checks; return its sample."""
    shutil.rmtree(op.out, ignore_errors=True)
    rep, slowdown = host.around(lambda: launch(work, f"op{index}", op.argv, traced))
    failures = []
    if rep["exit_code"] != 0:
        failures.append(("exit_code", str(rep["exit_code"])))
    else:
        for check_name, check in op.checks:
            try:
                check()
            except (checks.CheckFailed, OSError, KeyError, IndexError, ValueError) as exc:
                failures.append((check_name, str(exc)))
    sample = {
        "op": op.name,
        "main_s": rep["main_s"],
        "setup_s": rep["setup_s"],
        "slowdown": slowdown,
        "max_rss_mb": rep["max_rss_mb"],
        "failures": [f"{name}: {msg}" for name, msg in failures],
        "unexpected": [f"{name}: {msg}" for name, msg in failures if name not in op.known_faults],
    }
    if traced:
        spans = json.loads(Path(rep["spans_file"]).read_text(encoding="utf-8"))
        sample["layers"] = tracer.layer_metrics(spans["spans"], spans["counts"], spans["peak_trace_mb"])
    return sample


def run_round(work: Path, ops: list[Op], traced: bool, host: HostSpeed) -> list[dict]:
    return [run_op(work, i, op, traced, host) for i, op in enumerate(ops)]


# ---------------------------------------------------------------------------
# one workload


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str], dict]:
    """Run one workload; return its result line, every failure seen and
    the unscaled end-to-end times."""
    work = HERE / "work" / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    ops = OPS_OF[workload](seed, work)

    # one discarded warm-up start (it compiles bytecode on a fresh checkout)
    env_info = launch(work, "warmup", [], False)
    host = HostSpeed()
    setup = []  # (seconds, slowdown) pairs
    for k in range(SETUP_PROBES):
        probe, slowdown = host.around(lambda: launch(work, f"probe{k}", [], False))
        setup.append((probe["setup_s"], slowdown))

    plain_rounds: list[list[dict]] = []
    traced_rounds: list[list[dict]] = []
    # whole rounds only; stop before a round that would likely end past --seconds
    start = time.monotonic()
    while True:
        plain_rounds.append(run_round(work, ops, False, host))
        if trace:
            traced_rounds.append(run_round(work, ops, True, host))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain_rounds) + 1) / len(plain_rounds) > seconds:
            break

    samples = [s for rnd in plain_rounds + traced_rounds for s in rnd]
    setup += [(s["setup_s"], s["slowdown"]) for rnd in plain_rounds for s in rnd]
    result = {
        "correct": not any(s["unexpected"] for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s["failures"]),
    }

    def wall(rounds, scale=True):
        def main_s(sample):
            return sample["main_s"] / sample["slowdown"] if scale else sample["main_s"]

        return sum(statistics.median(main_s(rnd[i]) for rnd in rounds) for i in range(len(ops)))

    unscaled = {"wall_s": wall(plain_rounds, scale=False), "setup_s": statistics.median(t for t, _ in setup)}

    if trace:
        per_round = [_round_layers(rnd) for rnd in traced_rounds]
        metrics = {name: statistics.median(r[name] for r in per_round) for name in tracer.UNITS}
        metrics["trace.overhead_s"] = wall(traced_rounds) - wall(plain_rounds)
        units = dict(tracer.UNITS, **{"trace.overhead_s": "s"})
    else:
        metrics = {
            "wall_s": wall(plain_rounds),
            "setup_s": statistics.median(t / f for t, f in setup),
            "peak_rss_mb": max(s["max_rss_mb"] for s in samples),
        }
        units = E2E_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    problems = sorted({f"{s['op']}: {f}" for s in samples for f in s["failures"]})

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "nproc": os.cpu_count(),
            "python": env_info["python"],
            "numpy": env_info["numpy"],
            "openblas_num_threads": env_info["openblas_num_threads"],
            "child_env": CHILD_ENV,
        },
        "unscaled": unscaled,
        "setup_samples": [{"setup_s": t, "slowdown": f} for t, f in setup],
        "rounds": plain_rounds,
        "traced_rounds": traced_rounds,
        **result,
        "problems": problems,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return result, problems, unscaled


def _round_layers(samples: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round: sums over its commands, except the
    largest trace, which is a maximum."""
    out = {}
    for name in tracer.UNITS:
        values = [s["layers"][name] for s in samples]
        out[name] = max(values) if name == tracer.PEAK else sum(values)
    return out


def report(workload: str, result: dict, problems: list[str], unscaled: dict) -> None:
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    if "wall_s" in result["metrics"]:
        for name, value in unscaled.items():
            print(f"  {name + ' (unscaled)':28s} {value:.6g} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pushsumlab" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"no pushsumlab source tree under {ROOT} (need src/pushsumlab and configs/)", file=sys.stderr)
        return 2

    # The commands inherit this CPU, so HostSpeed times the CPU they run
    # on; this process only waits while a command runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        results[workload], problems, unscaled = measure(workload, args.seed, args.seconds, bool(args.trace))
        report(workload, results[workload], problems, unscaled)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
