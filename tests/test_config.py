import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from pushsumlab.config import (
    INIT_KEYS,
    RUN_KINDS,
    SECTIONS,
    STORAGE_BUDGET,
    ConfigError,
    build_graph_sequence,
    build_weights,
    load_config,
    parse_config,
    storage_estimate,
)
from pushsumlab.graphs import GENERATOR_KINDS, directed_ring, generate_sequence, save_sequence, GraphSequence
from pushsumlab.weights import default_weights, save_weights


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def pushsum_data(**over):
    data = {
        "algorithm": "pushsum",
        "n": 3,
        "horizon": 10,
        "graph": {"kind": "static-ring"},
        "init": {"x0": [1.0, 2.0, 3.0]},
    }
    data.update(over)
    return data


def optimizer_data(**over):
    data = {
        "algorithm": "subgradient_push",
        "n": 2,
        "horizon": 16,
        "graph": {"kind": "static-complete"},
        "init": {"x0": [[4.0], [6.0]]},
        "objective": {"kind": "abs", "anchors": [[0.0], [2.0]]},
        "stepsize": {"kind": "fixed_inv_sqrt"},
    }
    data.update(over)
    return data


class TestParseBasics:
    def test_minimal_pushsum(self):
        cfg = parse_config(pushsum_data())
        assert cfg.algorithm == "pushsum"
        assert cfg.seed == 0
        assert cfg.weights_policy == "default"
        assert cfg.record_agent == 0 and cfg.record_s is False
        assert cfg.x0.shape == (3, 1)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(pushsum_data(extra=1))

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(pushsum_data(algorithm="gossip"))

    def test_missing_required_key(self):
        data = pushsum_data()
        del data["graph"]
        with pytest.raises(ConfigError, match="graph"):
            parse_config(data)

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError):
            parse_config(pushsum_data(n=True))

    def test_bad_sizes(self):
        with pytest.raises(ConfigError, match="n"):
            parse_config(pushsum_data(n=0))
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(pushsum_data(horizon=0))


class TestInitRules:
    def test_pushsum_rejects_weighting(self):
        with pytest.raises(ConfigError, match="x0"):
            parse_config(pushsum_data(init={"x0": [1.0, 2.0, 3.0], "c": [1.0, 1.0, 1.0]}))

    def test_pushsum_needs_x0(self):
        with pytest.raises(ConfigError, match="x0"):
            parse_config(pushsum_data(init={}))

    def test_weighted_needs_both_vectors(self):
        data = pushsum_data(algorithm="weighted_pushsum", init={"c": [1.0, 1.0, 1.0]})
        with pytest.raises(ConfigError, match="x_init"):
            parse_config(data)

    def test_weighted_rejects_x0(self):
        data = pushsum_data(
            algorithm="weighted_pushsum",
            init={"c": [1.0, 1.0, 1.0], "x_init": [0.0, 1.0, 2.0], "x0": [0.0, 1.0, 2.0]},
        )
        with pytest.raises(ConfigError, match="x0"):
            parse_config(data)

    def test_weighted_positive_c(self):
        data = pushsum_data(
            algorithm="weighted_pushsum",
            init={"c": [1.0, 0.0, 1.0], "x_init": [0.0, 1.0, 2.0]},
        )
        with pytest.raises(ConfigError, match="positive"):
            parse_config(data)

    def test_x0_length_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            parse_config(pushsum_data(init={"x0": [1.0, 2.0]}))

    def test_flat_x0_promoted_to_column(self):
        cfg = parse_config(optimizer_data(init={"x0": [4.0, 6.0]}))
        assert cfg.x0.shape == (2, 1)


class TestSectionApplicability:
    def test_objective_rejected_for_pushsum(self):
        data = pushsum_data(objective={"kind": "abs", "anchors": [[0.0], [1.0], [2.0]]})
        with pytest.raises(ConfigError, match="objective"):
            parse_config(data)

    def test_optimizer_needs_objective_and_stepsize(self):
        data = optimizer_data()
        del data["objective"]
        with pytest.raises(ConfigError, match="objective"):
            parse_config(data)
        data = optimizer_data()
        del data["stepsize"]
        with pytest.raises(ConfigError, match="stepsize"):
            parse_config(data)

    def test_sigma_only_heterogeneous(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(optimizer_data(sigma={"kind": "bernoulli"}))
        cfg = parse_config(optimizer_data(algorithm="heterogeneous"))
        assert cfg.sigma.kind == "bernoulli" and cfg.sigma.p == 0.5

    def test_oracle_only_sgp(self):
        with pytest.raises(ConfigError, match="oracle"):
            parse_config(optimizer_data(oracle={"noise_bounds": [0.1, 0.1]}))
        data = optimizer_data(
            algorithm="sgp",
            objective={"kind": "quadratic", "anchors": [[0.0], [2.0]]},
            stepsize={"kind": "sgp_strong"},
        )
        with pytest.raises(ConfigError, match="oracle"):
            parse_config(data)

    def test_seeds_only_randomized(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(optimizer_data(seeds=[0, 1]))
        cfg = parse_config(optimizer_data(algorithm="heterogeneous", seeds=[0, 1, 2]))
        assert cfg.seeds == (0, 1, 2)

    def test_record_agent_range(self):
        with pytest.raises(ConfigError, match="agent"):
            parse_config(optimizer_data(record={"agent": 2}))
        cfg = parse_config(optimizer_data(record={"agent": 1, "record_s": True}))
        assert cfg.record_agent == 1 and cfg.record_s is True


class TestObjectiveAndStepParsing:
    def test_scales_only_quadratic(self):
        data = optimizer_data(
            objective={"kind": "abs", "anchors": [[0.0], [2.0]], "scales": [1.0, 1.0]}
        )
        with pytest.raises(ConfigError, match="scales"):
            parse_config(data)

    def test_delta_only_huber(self):
        data = optimizer_data(
            objective={"kind": "abs", "anchors": [[0.0], [2.0]], "delta": 1.0}
        )
        with pytest.raises(ConfigError, match="delta"):
            parse_config(data)

    def test_huber_delta_defaults(self):
        cfg = parse_config(
            optimizer_data(objective={"kind": "huber", "anchors": [[0.0], [2.0]]})
        )
        assert cfg.objective.delta == 1.0

    def test_anchor_rows_checked(self):
        data = optimizer_data(objective={"kind": "abs", "anchors": [[0.0]]})
        with pytest.raises(ConfigError, match="anchors"):
            parse_config(data)

    def test_harmonic_needs_scale_and_power(self):
        with pytest.raises(ConfigError, match="scale"):
            parse_config(optimizer_data(stepsize={"kind": "harmonic", "power": 1.0}))

    def test_unknown_step_kind(self):
        with pytest.raises(ConfigError, match="stepsize.kind"):
            parse_config(optimizer_data(stepsize={"kind": "polynomial"}))

    def test_unknown_sigma_kind(self):
        data = optimizer_data(algorithm="heterogeneous", sigma={"kind": "markov"})
        with pytest.raises(ConfigError, match="sigma.kind"):
            parse_config(data)


class TestRoundTripAndOverrides:
    def test_with_seed(self):
        cfg = parse_config(optimizer_data())
        cfg2 = cfg.with_seed(11)
        assert cfg2.seed == 11 and cfg.seed == 0
        assert cfg2.algorithm == cfg.algorithm

    def test_overrides_are_checked_like_the_file(self):
        cfg = parse_config(optimizer_data())
        with pytest.raises(ConfigError, match="config.horizon must be >= 1, got 0"):
            cfg.with_horizon(0)
        with pytest.raises(ConfigError, match="config.seed must be an integer"):
            cfg.with_seed(1.5)

    def test_with_horizon(self):
        cfg = parse_config(optimizer_data())
        cfg2 = cfg.with_horizon(64)
        assert cfg2.horizon == 64
        # fixed_inv_sqrt steps track the new horizon
        assert cfg2.schedule.alpha(0) == 0.125


class TestLoadConfig:
    def test_loads_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(pushsum_data()))
        cfg = load_config(str(path))
        assert cfg.n == 3

    def test_invalid_json_wrapped(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))


class TestBuilders:
    def test_graph_from_generator(self):
        cfg = parse_config(pushsum_data())
        seq = build_graph_sequence(cfg)
        assert len(seq) == 10 and seq.n == 3

    def test_graph_from_file(self, tmp_path):
        seq = generate_sequence("rotating-single-edge", n=3, horizon=10)
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        cfg = parse_config(pushsum_data(graph={"kind": "file", "path": str(path)}))
        loaded = build_graph_sequence(cfg)
        assert all(a.arcs == b.arcs for a, b in zip(loaded.graphs, seq.graphs))

    def test_graph_file_size_mismatch(self, tmp_path):
        seq = generate_sequence("static-ring", n=4, horizon=10)
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        cfg = parse_config(pushsum_data(graph={"kind": "file", "path": str(path)}))
        with pytest.raises(ConfigError, match="n="):
            build_graph_sequence(cfg)

    def test_graph_file_too_short(self, tmp_path):
        seq = generate_sequence("static-ring", n=3, horizon=5)
        path = tmp_path / "seq.txt"
        save_sequence(str(path), seq)
        cfg = parse_config(pushsum_data(graph={"kind": "file", "path": str(path)}))
        with pytest.raises(ConfigError, match="horizon"):
            build_graph_sequence(cfg)

    def test_weights_from_file(self, tmp_path):
        w = default_weights(directed_ring(3))
        path = tmp_path / "w.txt"
        save_weights(str(path), w)
        cfg = parse_config(
            pushsum_data(weights={"policy": "file", "path": str(path), "beta": 0.5})
        )
        built = build_weights(cfg)
        assert np.array_equal(built.matrix, w.matrix)
        assert built.beta == 0.5

    def test_weights_beta_defaults_to_min_positive(self, tmp_path):
        w = default_weights(directed_ring(3))
        path = tmp_path / "w.txt"
        save_weights(str(path), w)
        cfg = parse_config(pushsum_data(weights={"policy": "file", "path": str(path)}))
        assert build_weights(cfg).beta == 0.5

    def test_weights_beta_range(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(pushsum_data(weights={"policy": "file", "path": "w.txt", "beta": 2.0}))

    def test_schedule_lambda_bar_from_objective(self):
        data = optimizer_data(
            algorithm="sgp",
            objective={"kind": "quadratic", "anchors": [[0.0], [2.0]], "scales": [1.0, 3.0]},
            stepsize={"kind": "sgp_strong"},
            oracle={"noise_bounds": [0.1, 0.1]},
        )
        cfg = parse_config(data)
        assert cfg.schedule.alpha(1) == pytest.approx(2.0 / 2.0)

    def test_schedule_lambda_bar_needs_source(self):
        data = optimizer_data(stepsize={"kind": "sgp_strong"})
        with pytest.raises(ConfigError, match="lambda_bar"):
            parse_config(data)

    def test_sigma_seed_defaults_to_run_seed(self):
        data = optimizer_data(algorithm="heterogeneous", seed=9)
        cfg = parse_config(data)
        assert cfg.sigma.seed == 9
        explicit = parse_config(
            optimizer_data(algorithm="heterogeneous", seed=9, sigma={"kind": "bernoulli", "seed": 1})
        )
        assert explicit.sigma.seed == 1

    def test_oracle_seed_defaults_to_run_seed(self):
        data = optimizer_data(
            algorithm="sgp",
            seed=5,
            objective={"kind": "quadratic", "anchors": [[0.0], [2.0]]},
            stepsize={"kind": "sgp_strong"},
            oracle={"noise_bounds": [0.1, 0.1]},
        )
        cfg = parse_config(data)
        assert cfg.oracle.seed == 5

    def test_non_optimizer_builders_return_none(self):
        cfg = parse_config(pushsum_data())
        assert cfg.objective is None
        assert cfg.schedule is None
        assert cfg.sigma is None
        assert cfg.oracle is None


# one valid example of each section an algorithm may take beyond the common ones
SECTION_EXAMPLES = {
    "objective": {"kind": "quadratic", "anchors": [[0.0], [2.0]]},
    "stepsize": {"kind": "constant", "alpha": 0.1},
    "sigma": {"kind": "bernoulli"},
    "oracle": {"noise_bounds": [0.1, 0.1]},
    "seeds": [0, 1],
}


class TestStorageBudget:
    def test_estimate_counts_table_and_trace(self):
        # one graph for a static kind, n for the rotating edge, else one per step
        n, horizon = 20, 100
        trace = 8 * (horizon + 1) * n * 2  # x and y, d = 1
        x0 = [float(i) for i in range(n)]
        for kind, graphs in (("static-ring", 1), ("rotating-single-edge", n), ("random-spanning", horizon)):
            cfg = parse_config(pushsum_data(n=n, horizon=horizon, graph={"kind": kind}, init={"x0": x0}))
            assert storage_estimate(cfg) == graphs * n * 3 + trace
        # an optimizer records gradients and switching rows too
        cfg = parse_config(optimizer_data())
        assert storage_estimate(cfg) == 2 * 1 + 8 * 17 * 2 * 4

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_table_term_is_the_bytes_of_the_generated_table(self, kind):
        # the estimate restates how many graphs each generator stores; a
        # random-spanning table interns equal steps, so it may hold fewer
        for n, horizon in ((1, 1), (3, 2), (4, 9), (9, 40), (17, 5)):
            x0 = [float(i) for i in range(n)]
            cfg = parse_config(pushsum_data(n=n, horizon=horizon, graph={"kind": kind}, init={"x0": x0}))
            table = build_graph_sequence(cfg).table.nbytes
            term = storage_estimate(cfg) - 8 * (horizon + 1) * n * 2
            assert term >= table if kind == "random-spanning" else term == table, (n, horizon)

    def test_graph_file_counts_its_own_header(self, tmp_path):
        # the table term takes the header's n and steps, which
        # load_sequence builds whole; the trace term the config's horizon
        path = tmp_path / "seq.txt"
        save_sequence(str(path), generate_sequence("static-ring", n=3, horizon=50))
        cfg = parse_config(pushsum_data(graph={"kind": "file", "path": str(path)}))
        assert storage_estimate(cfg) == 50 * 3 * 1 + 8 * 11 * 3 * 2
        path.write_text("9 40\n")
        assert storage_estimate(cfg) == 40 * 9 * 2 + 8 * 11 * 3 * 2

    def test_budget_admits_the_bundled_configs_and_n200_at_ten_thousand_steps(self):
        for name in sorted(os.listdir(CONFIGS)):
            assert storage_estimate(load_config(os.path.join(CONFIGS, name))) <= STORAGE_BUDGET
        n = 200
        data = optimizer_data(
            algorithm="push_subgradient", n=n, horizon=10**4,
            graph={"kind": "random-spanning", "params": {"window": 2, "extra_arc_prob": 0.1}},
            init={"x0": [[float(i)] for i in range(n)]},
            objective={"kind": "abs", "anchors": [[0.0]] * n},
        )
        assert storage_estimate(parse_config(data)) <= STORAGE_BUDGET

    def test_past_the_budget_fails_before_any_array(self):
        n, horizon = 2000, 10**7
        cfg = parse_config(pushsum_data(
            n=n, horizon=horizon, graph={"kind": "random-spanning"}, init={"x0": [0.0] * n}
        ))
        need = storage_estimate(cfg)
        assert need > 1000 * STORAGE_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                build_graph_sequence(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"n={n}, horizon={horizon}: the graph table and trace need an estimated {need} "
            f"bytes, past the storage budget of {STORAGE_BUDGET} bytes"
        )
        # one packed graph alone would take n * n / 8 bytes
        assert peak < n * n / 8, peak


def minimal_data(algorithm):
    """A config with only the sections and init keys the algorithm needs."""
    takes = SECTIONS[algorithm]
    init = INIT_KEYS[algorithm]
    return {
        "algorithm": algorithm,
        "n": 2,
        "horizon": 4,
        "graph": {"kind": "static-complete"},
        "init": {key: [1.0, 2.0] for key, needed in init.items() if needed},
        **{key: SECTION_EXAMPLES[key] for key, needed in takes.items() if needed},
    }


# a config builder per scalar key, given the key's value
SCALAR_KEYS = {
    "weights.beta": lambda v: pushsum_data(weights={"policy": "file", "path": "w.txt", "beta": v}),
    "objective.delta": lambda v: optimizer_data(
        objective={"kind": "huber", "anchors": [[0.0], [2.0]], "delta": v}
    ),
    "stepsize.scale": lambda v: optimizer_data(
        stepsize={"kind": "harmonic", "scale": v, "power": 1.0}
    ),
    "stepsize.power": lambda v: optimizer_data(
        stepsize={"kind": "harmonic", "scale": 1.0, "power": v}
    ),
    "stepsize.alpha": lambda v: optimizer_data(stepsize={"kind": "constant", "alpha": v}),
    "stepsize.lambda_bar": lambda v: optimizer_data(
        stepsize={"kind": "sgp_strong", "lambda_bar": v}
    ),
    "sigma.p": lambda v: optimizer_data(
        algorithm="heterogeneous", sigma={"kind": "bernoulli", "p": v}
    ),
}


class TestSchemaTables:
    @pytest.mark.parametrize("algorithm", RUN_KINDS)
    @pytest.mark.parametrize("section", SECTION_EXAMPLES)
    def test_sections_follow_the_table(self, algorithm, section):
        data = minimal_data(algorithm)
        parse_config(data)
        takes = SECTIONS[algorithm]
        if takes.get(section):
            del data[section]
            with pytest.raises(ConfigError, match=rf"config\.{section}"):
                parse_config(data)
        elif section in takes:
            parse_config({**data, section: SECTION_EXAMPLES[section]})
        else:
            with pytest.raises(ConfigError, match=rf"config\.{section} does not apply"):
                parse_config({**data, section: SECTION_EXAMPLES[section]})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", SCALAR_KEYS)
    def test_scalar_keys_reject_non_finite_numbers(self, key, value):
        parse_config(SCALAR_KEYS[key](0.5))
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be a finite number"):
            parse_config(SCALAR_KEYS[key](value))

    def test_beta_applies_only_to_policy_file(self):
        for weights in ({"policy": "default", "beta": 0.5}, {"beta": 0.5}):
            with pytest.raises(ConfigError, match="beta"):
                parse_config(pushsum_data(weights=weights))

    def test_keys_of_another_kind_are_rejected(self):
        with pytest.raises(ConfigError, match=r"stepsize kind 'constant': \['power'\]"):
            parse_config(optimizer_data(stepsize={"kind": "constant", "alpha": 1.0, "power": 1.0}))
        with pytest.raises(ConfigError, match=r"sigma kind 'all-ones': \['p'\]"):
            parse_config(
                optimizer_data(algorithm="heterogeneous", sigma={"kind": "all-ones", "p": 1})
            )
