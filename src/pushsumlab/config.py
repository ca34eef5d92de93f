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
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Collection

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

# The sections beyond COMMON_KEYS that each algorithm takes, each mapped
# to whether the algorithm needs it.
_OPTIMIZER_SECTIONS = {"objective": True, "stepsize": True}
SECTIONS: dict[str, dict[str, bool]] = {
    "pushsum": {},
    "weighted_pushsum": {},
    "subgradient_push": _OPTIMIZER_SECTIONS,
    "push_subgradient": _OPTIMIZER_SECTIONS,
    "heterogeneous": {**_OPTIMIZER_SECTIONS, "sigma": False, "seeds": False},
    "sgp": {**_OPTIMIZER_SECTIONS, "oracle": True, "seeds": False},
}
RUN_KINDS = tuple(SECTIONS)
COMMON_KEYS = ("algorithm", "n", "horizon", "seed", "graph", "weights", "init", "record")
_ALGORITHM_KEYS = tuple(dict.fromkeys(key for taken in SECTIONS.values() for key in taken))
CONFIG_KEYS = COMMON_KEYS + _ALGORITHM_KEYS

# The init keys each algorithm takes, each mapped to whether it needs it.
INIT_KEYS: dict[str, dict[str, bool]] = {
    "pushsum": {"x0": True},
    "weighted_pushsum": {"c": True, "x_init": True},
    **dict.fromkeys(ALGORITHMS, {"x0": True, "c": False}),
}

# The keys each kind of a section takes besides the kind (or policy) itself.
GRAPH_KEYS = {"file": ("path",), **dict.fromkeys(GENERATOR_KINDS, ("seed", "params"))}
WEIGHTS_KEYS = {"default": (), "file": ("path", "beta")}
OBJECTIVE_KEYS = {
    "abs": ("anchors",),
    "quadratic": ("anchors", "scales"),
    "huber": ("anchors", "delta"),
}
STEP_KEYS = {
    "fixed_inv_sqrt": (),
    "harmonic": ("scale", "power"),
    "sgp_strong": ("lambda_bar",),
    "constant": ("alpha",),
}
SIGMA_KEYS = {"all-ones": (), "all-zeros": (), "bernoulli": ("p", "seed"), "alternating": ()}


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


def _reject_unknown(section: dict, allowed: Collection[str], where: str) -> None:
    unknown = sorted(set(section).difference(allowed))
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


def _number(section: dict, where: str, key: str, default: float | None = None) -> float:
    """``section[key]``, required unless it has a ``default``, as a finite
    number: json.load reads the tokens Infinity and NaN too."""
    value = _require(section, key, where) if default is None else section.get(key, default)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # false for NaN and for an int beyond float range
            return float(value)
    raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")


def _section(
    data: dict,
    key: str,
    keys: Collection[str] | dict[str, Collection[str]],
    tag: str | None = None,
    default: str | None = None,
) -> dict:
    """``data[key]`` (empty when absent), checked to be an object with no
    keys beyond ``keys``. With a ``tag``, ``keys`` maps each value of the
    section's ``tag`` key (required unless it has a ``default``) to the
    keys that value takes, and the section is returned with the value set.
    """
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config.{key} must be an object")
    if tag is None:
        _reject_unknown(section, keys, key)
        return section
    kind = section.get(tag, default) if default is not None else _require(section, tag, key)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{key}.{tag} must be one of {tuple(keys)}, got {kind!r}")
    _reject_unknown(section, {tag, *keys[kind]}, f"{key} {tag} {kind!r}")
    return {**section, tag: kind}


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

    Every algorithm takes the COMMON_KEYS (algorithm, n, horizon and
    graph are required); SECTIONS gives the further sections each
    algorithm takes and which of them it needs, INIT_KEYS its init keys,
    and GRAPH_KEYS, WEIGHTS_KEYS, OBJECTIVE_KEYS, STEP_KEYS and
    SIGMA_KEYS the keys of each kind. Any other key is an error, and a
    scalar must be a finite number. The range of a value that goes into
    an object built here (a harmonic power above 1, a negative noise
    bound) is that object's check, raised as a ConfigError too.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(data, CONFIG_KEYS, "config")
    algorithm = _require(data, "algorithm", "config")
    if algorithm not in RUN_KINDS:
        raise ConfigError(f"config.algorithm must be one of {RUN_KINDS}, got {algorithm!r}")
    takes = SECTIONS[algorithm]
    for key in _ALGORITHM_KEYS:
        if key in data and key not in takes:
            raise ConfigError(f"config.{key} does not apply to algorithm {algorithm!r}")
        if takes.get(key) and key not in data:
            raise ConfigError(f"{algorithm} needs a config.{key} section")
    n = _as_int(_require(data, "n", "config"), "config.n")
    if n < 1:
        raise ConfigError(f"config.n must be >= 1, got {n}")
    horizon = _as_int(_require(data, "horizon", "config"), "config.horizon")
    if horizon < 1:
        raise ConfigError(f"config.horizon must be >= 1, got {horizon}")
    seed = _as_seed(data.get("seed", 0), "config.seed")

    _require(data, "graph", "config")
    graph = _section(data, "graph", GRAPH_KEYS, tag="kind")
    graph_file = None
    if graph["kind"] == "file":
        graph_file = _as_path(_require(graph, "path", "graph"), "graph.path")
    graph_seed = _as_seed(graph.get("seed", 0), "graph.seed")
    graph_params = graph.get("params", {})
    if not isinstance(graph_params, dict):
        raise ConfigError("graph.params must be an object")

    weights = _section(data, "weights", WEIGHTS_KEYS, tag="policy", default="default")
    weights_path = None
    if weights["policy"] == "file":
        weights_path = _as_path(_require(weights, "path", "weights"), "weights.path")
    weights_beta = None
    if "beta" in weights:  # checked here: the matrix it bounds is only built later
        weights_beta = _number(weights, "weights", "beta")
        if not (0.0 < weights_beta <= 1.0):
            raise ConfigError(f"weights.beta must lie in (0, 1], got {weights_beta}")

    init = _section(data, "init", {key for taken in INIT_KEYS.values() for key in taken})
    takes = INIT_KEYS[algorithm]
    needs = [key for key, needed in takes.items() if needed]
    if not set(needs) <= init.keys() <= takes.keys():
        raise ConfigError(
            f"{algorithm} takes init keys {list(takes)} and needs {needs}, got {sorted(init)}"
        )
    x0 = _as_rows(init["x0"], n, "init.x0") if "x0" in init else None
    c = _as_vector(init["c"], n, "init.c") if "c" in init else None
    x_init = _as_rows(init["x_init"], n, "init.x_init") if "x_init" in init else None
    # the library reports this floor as a run error (exit 1), not a config error
    if c is not None and np.any(c <= DEGENERATE_Y):
        raise ConfigError(f"init.c entries must be positive and exceed {DEGENERATE_Y:g}")

    objective = None
    if "objective" in data:
        section = _section(data, "objective", OBJECTIVE_KEYS, tag="kind")
        anchors = _as_rows(_require(section, "anchors", "objective"), n, "objective.anchors")
        scales = np.ones(n)
        if "scales" in section:
            scales = _as_vector(section["scales"], n, "objective.scales")
        delta = _number(section, "objective", "delta", 1.0) if section["kind"] == "huber" else None
        objective = Objective(section["kind"], anchors, scales, delta)

    schedule = None
    if "stepsize" in data:
        step = _section(data, "stepsize", STEP_KEYS, tag="kind")
        if step["kind"] == "fixed_inv_sqrt":
            schedule = fixed_inv_sqrt(horizon)
        elif step["kind"] == "harmonic":
            scale = _number(step, "stepsize", "scale")
            schedule = harmonic(scale, _number(step, "stepsize", "power"))
        elif step["kind"] == "sgp_strong":
            lam = objective.lambda_bar
            if lam is None and "lambda_bar" not in step:
                raise ConfigError(
                    "stepsize.lambda_bar missing and the objective has no strong convexity"
                )
            schedule = sgp_strong(_number(step, "stepsize", "lambda_bar", lam))
        else:
            schedule = constant_step(_number(step, "stepsize", "alpha"))

    # a bernoulli seed follows the run seed unless pinned
    sigma = None
    if "sigma" in data:
        section = _section(data, "sigma", SIGMA_KEYS, tag="kind")
        if section["kind"] == "bernoulli":
            p = _number(section, "sigma", "p", 0.5)
            sigma_seed = _as_seed(section.get("seed", seed), "sigma.seed")
            sigma = SwitchingSignal("bernoulli", p=p, seed=sigma_seed)
        else:
            sigma = SwitchingSignal(section["kind"])
    elif algorithm == "heterogeneous":
        sigma = SwitchingSignal("bernoulli", p=0.5, seed=seed)

    # the oracle seed follows the run seed unless pinned
    oracle = None
    if "oracle" in data:
        section = _section(data, "oracle", ("noise_bounds", "seed"))
        noise_bounds = _as_vector(
            _require(section, "noise_bounds", "oracle"), n, "oracle.noise_bounds"
        )
        oracle_seed = _as_seed(section.get("seed", seed), "oracle.seed")
        oracle = GradientOracle(noise_bounds=noise_bounds, seed=oracle_seed)

    seeds = None
    if "seeds" in data:
        raw = data["seeds"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("config.seeds must be a non-empty list of integers")
        seeds = tuple(_as_seed(s, "config.seeds[]") for s in raw)

    record = _section(data, "record", ("agent", "record_s"))
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
        graph_kind=graph["kind"],
        graph_seed=graph_seed,
        graph_params=graph_params,
        graph_file=graph_file,
        weights_policy=weights["policy"],
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
