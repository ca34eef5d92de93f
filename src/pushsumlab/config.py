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
from dataclasses import dataclass, replace
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
    absolute_deviation_objective,
    fixed_inv_sqrt,
    harmonic,
    huber_objective,
    quadratic_objective,
    sgp_strong,
    constant_step,
)
from .weights import WeightMatrix, load_weights

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "build_graph_sequence",
    "build_weights",
    "build_objective",
    "build_schedule",
    "build_sigma",
    "build_oracle",
]

RUN_KINDS = ("pushsum", "weighted_pushsum") + ALGORITHMS
STEP_KINDS = ("fixed_inv_sqrt", "harmonic", "sgp_strong", "constant")
SIGMA_KINDS = ("all-ones", "all-zeros", "bernoulli", "alternating")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


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


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _horizon(value: Any) -> int:
    horizon = _as_int(value, "config.horizon")
    if horizon < 1:
        raise ConfigError(f"config.horizon must be >= 1, got {horizon}")
    return horizon


def _as_vector(value: Any, n: int, where: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"{where} must be a flat list of {n} numbers")
    return arr


def _as_rows(value: Any, n: int, where: str) -> np.ndarray:
    """Accept a flat list (d = 1) or a list of per-agent rows."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ConfigError(f"{where} must have one row per agent (n={n})")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated scenario description; see parse_config for the schema."""

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
    objective_kind: str | None
    anchors: np.ndarray | None
    scales: np.ndarray | None
    delta: float | None
    step_kind: str | None
    step_scale: float | None
    step_power: float | None
    step_lambda_bar: float | None
    sigma_kind: str | None
    sigma_p: float | None
    sigma_seed: int | None
    noise_bounds: np.ndarray | None
    oracle_seed: int | None
    seed: int
    seeds: tuple[int, ...] | None
    record_agent: int
    record_s: bool

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=_as_int(seed, "config.seed"))

    def with_horizon(self, horizon: int) -> "ExperimentConfig":
        return replace(self, horizon=_horizon(horizon))


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a nested dict (typically json.load output).

    Top-level sections: algorithm, n, horizon, seed, graph, weights,
    init, objective, stepsize, sigma, oracle, seeds, record. Unknown
    keys anywhere are errors, as are sections the algorithm ignores.
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
    horizon = _horizon(_require(data, "horizon", "config"))
    seed = _as_int(data.get("seed", 0), "config.seed")

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
        graph_file = _require(graph, "path", "graph")
    else:
        _reject_unknown(graph, {"kind", "seed", "params"}, "graph")
        if kind not in GENERATOR_KINDS:
            raise ConfigError(
                f"graph.kind must be 'file' or one of {GENERATOR_KINDS}, got {kind!r}"
            )
        graph_seed = _as_int(graph.get("seed", 0), "graph.seed")
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
        weights_path = _require(weights, "path", "weights")
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
    if c is not None and np.any(c <= 0.0):
        raise ConfigError("init.c entries must be strictly positive")

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
    objective_kind = anchors = scales = delta = None
    if "objective" in data:
        if not is_optimizer:
            raise ConfigError(f"config.objective does not apply to algorithm {algorithm!r}")
        objective = data["objective"]
        if not isinstance(objective, dict):
            raise ConfigError("config.objective must be an object")
        _reject_unknown(objective, {"kind", "anchors", "scales", "delta"}, "objective")
        objective_kind = _require(objective, "kind", "objective")
        if objective_kind not in OBJECTIVE_KINDS:
            raise ConfigError(
                f"objective.kind must be one of {OBJECTIVE_KINDS}, got {objective_kind!r}"
            )
        anchors = _as_rows(_require(objective, "anchors", "objective"), n, "objective.anchors")
        if "scales" in objective:
            if objective_kind != "quadratic":
                raise ConfigError("objective.scales only applies to quadratic objectives")
            scales = _as_vector(objective["scales"], n, "objective.scales")
            if np.any(scales <= 0.0):
                raise ConfigError("objective.scales must be strictly positive")
        if "delta" in objective:
            if objective_kind != "huber":
                raise ConfigError("objective.delta only applies to huber objectives")
            delta = _as_float(objective["delta"], "objective.delta")
            if not (delta > 0.0):
                raise ConfigError(f"objective.delta must be positive, got {delta}")
        if objective_kind == "huber" and delta is None:
            delta = 1.0
    elif is_optimizer:
        raise ConfigError(f"{algorithm} needs a config.objective section")

    # stepsize section
    step_kind = step_scale = step_power = step_lambda_bar = None
    if "stepsize" in data:
        if not is_optimizer:
            raise ConfigError(f"config.stepsize does not apply to algorithm {algorithm!r}")
        step = data["stepsize"]
        if not isinstance(step, dict):
            raise ConfigError("config.stepsize must be an object")
        step_kind = _require(step, "kind", "stepsize")
        if step_kind == "fixed_inv_sqrt":
            _reject_unknown(step, {"kind"}, "stepsize")
        elif step_kind == "harmonic":
            _reject_unknown(step, {"kind", "scale", "power"}, "stepsize")
            step_scale = _as_float(_require(step, "scale", "stepsize"), "stepsize.scale")
            step_power = _as_float(_require(step, "power", "stepsize"), "stepsize.power")
        elif step_kind == "sgp_strong":
            _reject_unknown(step, {"kind", "lambda_bar"}, "stepsize")
            if "lambda_bar" in step:
                step_lambda_bar = _as_float(step["lambda_bar"], "stepsize.lambda_bar")
        elif step_kind == "constant":
            _reject_unknown(step, {"kind", "alpha"}, "stepsize")
            step_scale = _as_float(_require(step, "alpha", "stepsize"), "stepsize.alpha")
        else:
            raise ConfigError(f"stepsize.kind must be one of {STEP_KINDS}, got {step_kind!r}")
    elif is_optimizer:
        raise ConfigError(f"{algorithm} needs a config.stepsize section")

    # sigma section
    sigma_kind = sigma_p = sigma_seed = None
    if "sigma" in data:
        if algorithm != "heterogeneous":
            raise ConfigError("config.sigma only applies to the heterogeneous algorithm")
        sigma = data["sigma"]
        if not isinstance(sigma, dict):
            raise ConfigError("config.sigma must be an object")
        sigma_kind = _require(sigma, "kind", "sigma")
        if sigma_kind == "bernoulli":
            _reject_unknown(sigma, {"kind", "p", "seed"}, "sigma")
            sigma_p = _as_float(sigma.get("p", 0.5), "sigma.p")
            if not (0.0 <= sigma_p <= 1.0):
                raise ConfigError(f"sigma.p must lie in [0, 1], got {sigma_p}")
            if "seed" in sigma:
                sigma_seed = _as_int(sigma["seed"], "sigma.seed")
        elif sigma_kind in SIGMA_KINDS:
            _reject_unknown(sigma, {"kind"}, "sigma")
        else:
            raise ConfigError(f"sigma.kind must be one of {SIGMA_KINDS}, got {sigma_kind!r}")
    elif algorithm == "heterogeneous":
        sigma_kind = "bernoulli"
        sigma_p = 0.5

    # oracle section
    noise_bounds = oracle_seed = None
    if "oracle" in data:
        if algorithm != "sgp":
            raise ConfigError("config.oracle only applies to the sgp algorithm")
        oracle = data["oracle"]
        if not isinstance(oracle, dict):
            raise ConfigError("config.oracle must be an object")
        _reject_unknown(oracle, {"noise_bounds", "seed"}, "oracle")
        noise_bounds = _as_vector(
            _require(oracle, "noise_bounds", "oracle"), n, "oracle.noise_bounds"
        )
        if np.any(noise_bounds < 0.0):
            raise ConfigError("oracle.noise_bounds must be nonnegative")
        if "seed" in oracle:
            oracle_seed = _as_int(oracle["seed"], "oracle.seed")
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
        seeds = tuple(_as_int(s, "config.seeds[]") for s in raw)

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
        objective_kind=objective_kind,
        anchors=anchors,
        scales=scales,
        delta=delta,
        step_kind=step_kind,
        step_scale=step_scale,
        step_power=step_power,
        step_lambda_bar=step_lambda_bar,
        sigma_kind=sigma_kind,
        sigma_p=sigma_p,
        sigma_seed=sigma_seed,
        noise_bounds=noise_bounds,
        oracle_seed=oracle_seed,
        seed=seed,
        seeds=seeds,
        record_agent=record_agent,
        record_s=record_s,
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
    if beta is None:
        positive = matrix[matrix > 0.0]
        if positive.size == 0:
            raise ConfigError("weight file has no positive entries")
        beta = float(positive.min())
    return WeightMatrix(matrix, beta=beta)


def build_objective(cfg: ExperimentConfig) -> Objective | None:
    if cfg.objective_kind is None:
        return None
    if cfg.objective_kind == "abs":
        return absolute_deviation_objective(cfg.anchors)
    if cfg.objective_kind == "quadratic":
        return quadratic_objective(cfg.anchors, cfg.scales)
    return huber_objective(cfg.anchors, cfg.delta)


def build_schedule(cfg: ExperimentConfig, obj: Objective | None) -> StepSchedule | None:
    if cfg.step_kind is None:
        return None
    if cfg.step_kind == "fixed_inv_sqrt":
        return fixed_inv_sqrt(cfg.horizon)
    if cfg.step_kind == "harmonic":
        return harmonic(cfg.step_scale, cfg.step_power)
    if cfg.step_kind == "sgp_strong":
        lam = cfg.step_lambda_bar
        if lam is None:
            if obj is None or obj.lambda_bar is None:
                raise ConfigError(
                    "stepsize.lambda_bar missing and the objective has no strong convexity"
                )
            lam = obj.lambda_bar
        return sgp_strong(lam)
    return constant_step(cfg.step_scale)


def build_sigma(cfg: ExperimentConfig) -> SwitchingSignal | None:
    if cfg.sigma_kind is None:
        return None
    if cfg.sigma_kind == "bernoulli":
        seed = cfg.seed if cfg.sigma_seed is None else cfg.sigma_seed
        return SwitchingSignal("bernoulli", p=cfg.sigma_p, seed=seed)
    return SwitchingSignal(cfg.sigma_kind)


def build_oracle(cfg: ExperimentConfig) -> GradientOracle | None:
    if cfg.noise_bounds is None:
        return None
    seed = cfg.seed if cfg.oracle_seed is None else cfg.oracle_seed
    return GradientOracle(noise_bounds=cfg.noise_bounds, seed=seed)
