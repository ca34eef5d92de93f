"""Checks on the files pushsumlab writes, computed apart from the program.

Every check reads output files with its own parser and recomputes what
they must contain from the scenario config alone, in plain Python. No
pushsumlab code runs here. A failed check raises `CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os


class CheckFailed(Exception):
    """An output does not hold what the check computed it must."""


def _reject_constant(name: str):
    raise CheckFailed(f"non-strict JSON constant {name}")


def strict_json(path: str):
    """Parse a JSON file with NaN, Infinity and -Infinity rejected."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except CheckFailed as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{os.path.basename(path)}: not JSON ({exc})") from None


def lenient_json(path: str):
    """Parse a JSON file, accepting the non-strict constants Python writes."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and cell rows of a schema-1 CSV (comment lines skipped)."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise CheckFailed(f"{os.path.basename(path)}: no rows")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_trace(path: str) -> dict[int, list[tuple[float, list[float]]]]:
    """trace.csv as {t: [(y_i, z_i) for each agent in order]}."""
    header, rows = read_rows(path)
    if header[:3] != ["t", "agent", "y"]:
        raise CheckFailed(f"trace.csv header {header}")
    states: dict[int, list[tuple[float, list[float]]]] = {}
    for cells in rows:
        t, agent = int(cells[0]), int(cells[1])
        agents = states.setdefault(t, [])
        if agent != len(agents):
            raise CheckFailed(f"trace.csv: agent {agent} out of order at t={t}")
        agents.append((float(cells[2]), [float(v) for v in cells[3:]]))
    return states


def kappa_of(cfg: dict) -> float:
    """Total mass: sum of c for weighted push-sum, y0 or n otherwise."""
    init = cfg.get("init", {})
    if "c" in init:
        return math.fsum(init["c"])
    return float(cfg["n"])


def check_digests(out_dir: str, summary: dict) -> None:
    """The sha256 digests in summary.json match the bytes on disk."""
    files = summary["files"]
    for name, key in (("trace.csv", "trace_csv_sha256"), ("metrics.csv", "metrics_csv_sha256")):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if files.get(key) != digest:
            raise CheckFailed(f"{name}: sha256 {digest} but summary.json has {files.get(key)}")


def check_y_sums(states: dict, kappa: float) -> None:
    """The y column sums to kappa at every t."""
    for t, agents in states.items():
        total = math.fsum(y for y, _ in agents)
        if abs(total - kappa) > 1e-9 * kappa:
            raise CheckFailed(f"y sums to {total!r} at t={t}, expected kappa={kappa!r}")


def ratio_limit(cfg: dict) -> list[float]:
    """Push-sum limit: the c-weighted mean of the initial values."""
    init = cfg["init"]
    if cfg["algorithm"] == "weighted_pushsum":
        c, vals = init["c"], init["x_init"]
    else:
        vals = init["x0"]
        c = [1.0] * len(vals)
    rows = [v if isinstance(v, list) else [v] for v in vals]
    return [math.fsum(ci * r[k] for ci, r in zip(c, rows)) / math.fsum(c) for k in range(len(rows[0]))]


def check_ratio_limit(states: dict, limit: list[float], tol: float = 1e-9) -> None:
    """Every agent's final ratio is within tol of the limit."""
    t_end = max(states)
    for agent, (_, z) in enumerate(states[t_end]):
        dev = max(abs(a - b) for a, b in zip(z, limit))
        if dev > tol:
            raise CheckFailed(f"agent {agent} ends at {z} at t={t_end}, limit {limit}")


def check_y_all_one(states: dict) -> None:
    """Balanced weights keep every mass weight exactly 1."""
    for t, agents in states.items():
        for agent, (y, _) in enumerate(agents):
            if y != 1.0:
                raise CheckFailed(f"y[{agent}] = {y!r} at t={t}, expected 1.0")


def step_size(cfg: dict):
    """alpha(t) of the config's step rule."""
    step = cfg["stepsize"]
    kind = step["kind"]
    if kind == "fixed_inv_sqrt":
        alpha = 1.0 / math.sqrt(cfg["horizon"])
        return lambda t: alpha
    if kind == "harmonic":
        scale, power = float(step["scale"]), float(step["power"])
        return lambda t: scale / (t + 1.0) ** power
    if kind == "sgp_strong":
        scales = cfg["objective"].get("scales") or [1.0] * cfg["n"]
        lam = float(step.get("lambda_bar", math.fsum(scales) / len(scales)))
        return lambda t: 2.0 / (lam * t)
    if kind == "constant":
        alpha = float(step["alpha"])
        return lambda t: alpha
    raise CheckFailed(f"no reference for step rule {kind!r}")


def objective(cfg: dict):
    """f(z) = (1/n) sum_i f_i(z) and its minimum value f*."""
    obj = cfg["objective"]
    anchors = [list(map(float, a)) for a in obj["anchors"]]
    n, d = len(anchors), len(anchors[0])
    if obj["kind"] == "abs":

        def f(z):
            return math.fsum(abs(z[k] - a[k]) for a in anchors for k in range(d)) / n

        # any point between the middle anchors minimizes a sum of |z - a_i|
        z_star = [sorted(a[k] for a in anchors)[n // 2] for k in range(d)]
    elif obj["kind"] == "quadratic":
        scales = [float(s) for s in obj.get("scales") or [1.0] * n]

        def f(z):
            return math.fsum(
                0.5 * s * math.fsum((z[k] - a[k]) ** 2 for k in range(d)) for s, a in zip(scales, anchors)
            ) / n

        z_star = [math.fsum(s * a[k] for s, a in zip(scales, anchors)) / math.fsum(scales) for k in range(d)]
    else:
        raise CheckFailed(f"no reference for objective kind {obj['kind']!r}")
    return f, z_star, f(z_star)


def check_f_gap(states: dict, metrics_path: str, cfg: dict) -> None:
    """The running-average f-gap, recomputed from trace.csv and the step
    rule, matches metrics.csv's f_gap_avg column and is never negative."""
    f, _, f_star = objective(cfg)
    alpha = step_size(cfg)
    kappa = kappa_of(cfg)
    header, rows = read_rows(metrics_path)
    col = header.index("f_gap_avg")
    times = sorted(states)
    d = len(states[times[0]][0][1])
    weight, acc = 0.0, [0.0] * d
    for k, t in enumerate(times[:-1]):
        a = alpha(t)
        zw = [math.fsum(y * z[j] for y, z in states[t]) / kappa for j in range(d)]
        weight += a
        acc = [acc[j] + a * zw[j] for j in range(d)]
        gap = f([v / weight for v in acc]) - f_star
        cells = rows[k]
        if int(cells[0]) != t or cells[col] == "":
            raise CheckFailed(f"metrics.csv row {k} is not t={t} with an f-gap")
        theirs = float(cells[col])
        if abs(gap - theirs) > 1e-9 * max(1.0, abs(theirs)):
            raise CheckFailed(f"f_gap_avg {theirs!r} at t={t}, recomputed {gap!r}")
        # f* is evaluated at an exact minimizer, so only rounding can go below it
        if theirs < -1e-12 * max(1.0, abs(f_star)):
            raise CheckFailed(f"f_gap_avg {theirs!r} < 0 at t={t}")


def check_seed_finals(sweep_dir: str, cfg: dict) -> None:
    """Each seed's final mean squared error to the optimum falls below its
    value at t=0, which the initial states and anchors fix."""
    _, z_star, _ = objective(cfg)
    x0 = cfg["init"]["x0"]
    start = math.fsum(math.fsum((x[k] - z_star[k]) ** 2 for k in range(len(z_star))) for x in x0) / len(x0)
    header, rows = read_rows(os.path.join(sweep_dir, "sweep_mean.csv"))
    if int(rows[0][0]) != 0 or abs(float(rows[0][1]) - start) > 1e-12 * max(1.0, start):
        raise CheckFailed(f"sweep_mean.csv starts at {rows[0]}, expected t=0 value {start!r}")
    header, rows = read_rows(os.path.join(sweep_dir, "sweep.csv"))
    seeds = [int(r[0]) for r in rows]
    if seeds != list(cfg["seeds"]):
        raise CheckFailed(f"sweep.csv has seeds {seeds}, config has {cfg['seeds']}")
    for seed, final in ((int(r[0]), float(r[1])) for r in rows):
        if not final < start:
            raise CheckFailed(f"seed {seed} ends at {final!r}, not below its t=0 value {start!r}")


def check_verify_passed(verify: dict) -> None:
    """verify.json lists no failed identity."""
    bad = [name for name, c in verify["checks"].items() if not c["ok"]]
    if verify["failed"] or bad or not verify["connectivity_ok"]:
        raise CheckFailed(f"verify failed: {verify['failed'] or bad}")
