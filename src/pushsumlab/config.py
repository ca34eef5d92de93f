"""Experiment configuration: a strict JSON-compatible schema.

One file describes one scenario: the algorithm, the graph process, the
weight policy, initial data, and (for optimizer runs) the objective,
step rule, switching signal, and noise oracle. Parsing is strict in
both directions: unknown keys are errors, and sections that the chosen
algorithm does not consume are errors too, so a typo cannot silently
change an experiment.

The run seed is the root of all randomness: oracle and switching seeds
default to it unless pinned explicitly, which is what makes seed sweeps
meaningful.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from .graphs import GENERATOR_KINDS, GraphSequence, generate_sequence, load_sequence
from .optim import (
    ALGORITHMS,
    OBJECTIVE_KINDS,
    GradientOracle,
    Objective,
    StepSchedule,
    SwitchingSignal,
    fixed_inv_sqrt,
    harmonic,
    sgp_strong,
    constant_step,
)
from .pushsum import DEGENERATE_Y
from .weights import WeightMatrix, load_weights

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_values",
    "parse_config",
    "load_config",
    "build_graph_sequence",
    "build_weights",
]

RUN_KINDS = ("pushsum", "weighted_pushsum") + ALGORITHMS
STEP_KINDS = ("fixed_inv_sqrt", "harmonic", "sgp_strong", "constant")
SIGMA_KINDS = ("all-ones", "all-zeros", "bernoulli", "alternating")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@contextmanager
def config_values():
    """A ValueError the library raises on a config's values (a step rule
    out of range, weights off the graph, unknown generator params, an
    objective the algorithm cannot use) becomes a ConfigError with the
    same message."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}.{key} is required")
    return section[key]


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys under {where}: {unknown}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_seed(value: Any, where: str) -> int:
    """An integer in [0, 2**128), the key range of Philox."""
    seed = _as_int(value, where)
    if not (0 <= seed < 2**128):
        raise ConfigError(f"{where} must lie in [0, 2**128), got {seed}")
    return seed


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_path(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _numbers_only(value: Any) -> bool:
    """Whether ``value`` is a number or nested lists of numbers; a JSON
    true or false is not a number here, though numpy would read it as one."""
    if isinstance(value, (list, tuple)):
        return all(map(_numbers_only, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_array(value: Any, where: str) -> np.ndarray:
    if _numbers_only(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged rows, an int beyond float range
            pass
    raise ConfigError(f"{where} must hold numbers only, got {value!r}")


def _as_vector(value: Any, n: int, where: str) -> np.ndarray:
    arr = _as_array(value, where)
    if arr.shape != (n,):
        raise ConfigError(f"{where} must be a flat list of {n} numbers")
    return arr


def _as_rows(value: Any, n: int, where: str) -> np.ndarray:
    """Accept a flat list (d = 1) or a list of per-agent rows."""
    arr = _as_array(value, where)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ConfigError(f"{where} must have one row per agent (n={n})")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated scenario description; see parse_config for the schema.

    The objective, step rule, switching signal and oracle are built at
    parse time (None where the algorithm takes none). ``source`` is the
    dict the config was parsed from: an override re-parses it with one
    key replaced, so it is checked and followed like the same value in
    the file.
    """

    algorithm: str
    n: int
    horizon: int
    graph_kind: str
    graph_seed: int
    graph_params: dict
    graph_file: str | None
    weights_policy: str
    weights_path: str | None
    weights_beta: float | None
    x0: np.ndarray | None
    c: np.ndarray | None
    x_init: np.ndarray | None
    objective: Objective | None
    schedule: StepSchedule | None
    sigma: SwitchingSignal | None
    oracle: GradientOracle | None
    seed: int
    seeds: tuple[int, ...] | None
    record_agent: int
    record_s: bool
    source: dict

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return parse_config({**self.source, "seed": seed})

    def with_horizon(self, horizon: int) -> "ExperimentConfig":
        return parse_config({**self.source, "horizon": horizon})


@config_values()
def parse_config(data: dict) -> ExperimentConfig:
    """Validate a nested dict (typically json.load output) and build the
    run objects it describes.

    Top-level sections: algorithm, n, horizon, seed, graph, weights,
    init, objective, stepsize, sigma, oracle, seeds, record. Unknown
    keys anywhere are errors, as are sections the algorithm ignores.
    Values only the library checks (a harmonic power above 1, say) are
    ConfigErrors too.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(
        data,
        {
            "algorithm",
            "n",
            "horizon",
            "seed",
            "graph",
            "weights",
            "init",
            "objective",
            "stepsize",
            "sigma",
            "oracle",
            "seeds",
            "record",
        },
        "config",
    )
    algorithm = _require(data, "algorithm", "config")
    if algorithm not in RUN_KINDS:
        raise ConfigError(f"config.algorithm must be one of {RUN_KINDS}, got {algorithm!r}")
    n = _as_int(_require(data, "n", "config"), "config.n")
    if n < 1:
        raise ConfigError(f"config.n must be >= 1, got {n}")
    horizon = _as_int(_require(data, "horizon", "config"), "config.horizon")
    if horizon < 1:
        raise ConfigError(f"config.horizon must be >= 1, got {horizon}")
    seed = _as_seed(data.get("seed", 0), "config.seed")

    # graph section
    graph = _require(data, "graph", "config")
    if not isinstance(graph, dict):
        raise ConfigError("config.graph must be an object")
    kind = _require(graph, "kind", "graph")
    graph_file = None
    graph_seed = 0
    graph_params: dict = {}
    if kind == "file":
        _reject_unknown(graph, {"kind", "path"}, "graph")
        graph_file = _as_path(_require(graph, "path", "graph"), "graph.path")
    else:
        _reject_unknown(graph, {"kind", "seed", "params"}, "graph")
        if kind not in GENERATOR_KINDS:
            raise ConfigError(
                f"graph.kind must be 'file' or one of {GENERATOR_KINDS}, got {kind!r}"
            )
        graph_seed = _as_seed(graph.get("seed", 0), "graph.seed")
        graph_params = graph.get("params", {})
        if not isinstance(graph_params, dict):
            raise ConfigError("graph.params must be an object")

    # weights section
    weights = data.get("weights", {"policy": "default"})
    if not isinstance(weights, dict):
        raise ConfigError("config.weights must be an object")
    _reject_unknown(weights, {"policy", "path", "beta"}, "weights")
    policy = weights.get("policy", "default")
    weights_path = None
    weights_beta = None
    if policy == "default":
        if "path" in weights:
            raise ConfigError("weights.path only applies to policy 'file'")
    elif policy == "file":
        weights_path = _as_path(_require(weights, "path", "weights"), "weights.path")
        if "beta" in weights:
            weights_beta = _as_float(weights["beta"], "weights.beta")
            if not (0.0 < weights_beta <= 1.0):
                raise ConfigError(f"weights.beta must lie in (0, 1], got {weights_beta}")
    else:
        raise ConfigError(f"weights.policy must be 'default' or 'file', got {policy!r}")

    # init section
    init = data.get("init", {})
    if not isinstance(init, dict):
        raise ConfigError("config.init must be an object")
    _reject_unknown(init, {"x0", "c", "x_init"}, "init")
    x0 = _as_rows(init["x0"], n, "init.x0") if "x0" in init else None
    c = _as_vector(init["c"], n, "init.c") if "c" in init else None
    x_init = _as_rows(init["x_init"], n, "init.x_init") if "x_init" in init else None
    if c is not None and np.any(c <= DEGENERATE_Y):
        raise ConfigError(f"init.c entries must be positive and exceed {DEGENERATE_Y:g}")

    is_optimizer = algorithm in ALGORITHMS
    if algorithm == "pushsum":
        if x0 is None:
            raise ConfigError("pushsum needs init.x0")
        if c is not None or x_init is not None:
            raise ConfigError("pushsum takes init.x0 only (no c / x_init)")
    elif algorithm == "weighted_pushsum":
        if c is None or x_init is None:
            raise ConfigError("weighted_pushsum needs init.c and init.x_init")
        if x0 is not None:
            raise ConfigError("weighted_pushsum derives x0 from c and x_init; drop init.x0")
    else:
        if x0 is None:
            raise ConfigError(f"{algorithm} needs init.x0")
        if x_init is not None:
            raise ConfigError("init.x_init only applies to weighted_pushsum")

    # objective section
    objective = None
    if "objective" in data:
        if not is_optimizer:
            raise ConfigError(f"config.objective does not apply to algorithm {algorithm!r}")
        section = data["objective"]
        if not isinstance(section, dict):
            raise ConfigError("config.objective must be an object")
        _reject_unknown(section, {"kind", "anchors", "scales", "delta"}, "objective")
        objective_kind = _require(section, "kind", "objective")
        if objective_kind not in OBJECTIVE_KINDS:
            raise ConfigError(
                f"objective.kind must be one of {OBJECTIVE_KINDS}, got {objective_kind!r}"
            )
        anchors = _as_rows(_require(section, "anchors", "objective"), n, "objective.anchors")
        scales = np.ones(n)
        if "scales" in section:
            if objective_kind != "quadratic":
                raise ConfigError("objective.scales only applies to quadratic objectives")
            scales = _as_vector(section["scales"], n, "objective.scales")
            if np.any(scales <= 0.0):
                raise ConfigError("objective.scales must be strictly positive")
        delta = None
        if "delta" in section:
            if objective_kind != "huber":
                raise ConfigError("objective.delta only applies to huber objectives")
            delta = _as_float(section["delta"], "objective.delta")
            if not (delta > 0.0):
                raise ConfigError(f"objective.delta must be positive, got {delta}")
        if objective_kind == "huber" and delta is None:
            delta = 1.0
        objective = Objective(objective_kind, anchors, scales, delta)
    elif is_optimizer:
        raise ConfigError(f"{algorithm} needs a config.objective section")

    # stepsize section
    schedule = None
    if "stepsize" in data:
        if not is_optimizer:
            raise ConfigError(f"config.stepsize does not apply to algorithm {algorithm!r}")
        step = data["stepsize"]
        if not isinstance(step, dict):
            raise ConfigError("config.stepsize must be an object")
        step_kind = _require(step, "kind", "stepsize")
        if step_kind == "fixed_inv_sqrt":
            _reject_unknown(step, {"kind"}, "stepsize")
            schedule = fixed_inv_sqrt(horizon)
        elif step_kind == "harmonic":
            _reject_unknown(step, {"kind", "scale", "power"}, "stepsize")
            scale = _as_float(_require(step, "scale", "stepsize"), "stepsize.scale")
            power = _as_float(_require(step, "power", "stepsize"), "stepsize.power")
            schedule = harmonic(scale, power)
        elif step_kind == "sgp_strong":
            _reject_unknown(step, {"kind", "lambda_bar"}, "stepsize")
            if "lambda_bar" in step:
                lam = _as_float(step["lambda_bar"], "stepsize.lambda_bar")
            elif objective.lambda_bar is None:
                raise ConfigError(
                    "stepsize.lambda_bar missing and the objective has no strong convexity"
                )
            else:
                lam = objective.lambda_bar
            schedule = sgp_strong(lam)
        elif step_kind == "constant":
            _reject_unknown(step, {"kind", "alpha"}, "stepsize")
            alpha = _as_float(_require(step, "alpha", "stepsize"), "stepsize.alpha")
            schedule = constant_step(alpha)
        else:
            raise ConfigError(f"stepsize.kind must be one of {STEP_KINDS}, got {step_kind!r}")
    elif is_optimizer:
        raise ConfigError(f"{algorithm} needs a config.stepsize section")

    # sigma section; a bernoulli seed follows the run seed unless pinned
    sigma = None
    if "sigma" in data:
        if algorithm != "heterogeneous":
            raise ConfigError("config.sigma only applies to the heterogeneous algorithm")
        section = data["sigma"]
        if not isinstance(section, dict):
            raise ConfigError("config.sigma must be an object")
        sigma_kind = _require(section, "kind", "sigma")
        if sigma_kind == "bernoulli":
            _reject_unknown(section, {"kind", "p", "seed"}, "sigma")
            p = _as_float(section.get("p", 0.5), "sigma.p")
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"sigma.p must lie in [0, 1], got {p}")
            sigma_seed = _as_seed(section.get("seed", seed), "sigma.seed")
            sigma = SwitchingSignal("bernoulli", p=p, seed=sigma_seed)
        elif sigma_kind in SIGMA_KINDS:
            _reject_unknown(section, {"kind"}, "sigma")
            sigma = SwitchingSignal(sigma_kind)
        else:
            raise ConfigError(f"sigma.kind must be one of {SIGMA_KINDS}, got {sigma_kind!r}")
    elif algorithm == "heterogeneous":
        sigma = SwitchingSignal("bernoulli", p=0.5, seed=seed)

    # oracle section; its seed follows the run seed unless pinned
    oracle = None
    if "oracle" in data:
        if algorithm != "sgp":
            raise ConfigError("config.oracle only applies to the sgp algorithm")
        section = data["oracle"]
        if not isinstance(section, dict):
            raise ConfigError("config.oracle must be an object")
        _reject_unknown(section, {"noise_bounds", "seed"}, "oracle")
        noise_bounds = _as_vector(
            _require(section, "noise_bounds", "oracle"), n, "oracle.noise_bounds"
        )
        if np.any(noise_bounds < 0.0):
            raise ConfigError("oracle.noise_bounds must be nonnegative")
        oracle_seed = _as_seed(section.get("seed", seed), "oracle.seed")
        oracle = GradientOracle(noise_bounds=noise_bounds, seed=oracle_seed)
    elif algorithm == "sgp":
        raise ConfigError("sgp needs a config.oracle section")

    # seeds list (replications)
    seeds = None
    if "seeds" in data:
        if algorithm not in ("sgp", "heterogeneous"):
            raise ConfigError("config.seeds applies only to randomized algorithms")
        raw = data["seeds"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.seeds must be a non-empty list of integers")
        seeds = tuple(_as_seed(s, "config.seeds[]") for s in raw)

    # record section
    record = data.get("record", {})
    if not isinstance(record, dict):
        raise ConfigError("config.record must be an object")
    _reject_unknown(record, {"agent", "record_s"}, "record")
    record_agent = _as_int(record.get("agent", 0), "record.agent")
    if not (0 <= record_agent < n):
        raise ConfigError(f"record.agent must lie in [0, {n}), got {record_agent}")
    record_s = record.get("record_s", False)
    if not isinstance(record_s, bool):
        raise ConfigError("record.record_s must be a boolean")

    return ExperimentConfig(
        algorithm=algorithm,
        n=n,
        horizon=horizon,
        graph_kind=kind,
        graph_seed=graph_seed,
        graph_params=graph_params,
        graph_file=graph_file,
        weights_policy=policy,
        weights_path=weights_path,
        weights_beta=weights_beta,
        x0=x0,
        c=c,
        x_init=x_init,
        objective=objective,
        schedule=schedule,
        sigma=sigma,
        oracle=oracle,
        seed=seed,
        seeds=seeds,
        record_agent=record_agent,
        record_s=record_s,
        source=dict(data),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return parse_config(data)


# ---------------------------------------------------------------------------
# builders


def build_graph_sequence(cfg: ExperimentConfig) -> GraphSequence:
    if cfg.graph_file is not None:
        seq = load_sequence(cfg.graph_file)
        if seq.n != cfg.n:
            raise ConfigError(f"graph file has n={seq.n} but config.n={cfg.n}")
        if len(seq) < cfg.horizon:
            raise ConfigError(
                f"graph file provides {len(seq)} steps but config.horizon={cfg.horizon}"
            )
        return seq
    return generate_sequence(cfg.graph_kind, cfg.n, cfg.horizon, cfg.graph_seed, cfg.graph_params)


def build_weights(cfg: ExperimentConfig) -> str | WeightMatrix:
    if cfg.weights_policy == "default":
        return "default"
    matrix = load_weights(cfg.weights_path)
    if matrix.shape[0] != cfg.n:
        raise ConfigError(f"weight file has n={matrix.shape[0]} but config.n={cfg.n}")
    beta = cfg.weights_beta
    if beta is None:  # the smallest positive entry; a matrix with none fails its column sums
        beta = float(np.min(matrix, where=matrix > 0.0, initial=1.0))
    return WeightMatrix(matrix, beta=beta)
