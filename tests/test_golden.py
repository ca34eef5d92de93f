"""Golden sha256 digests of every file the CLI writes for the bundled configs
and for the configs under ``tests/golden_configs``.

The digests in ``golden_digests.json`` were recorded from an earlier build;
a refactor that is meant to keep outputs byte-identical must keep them.
An intended output change regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints each (case, file) whose digest changed, appeared or
disappeared, and a count of the unchanged ones; the change states its
reason in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = os.path.join(ROOT, "configs")
# perfbench's random-n200 and hetero-sweep scenarios at seed 1, as written
# by perfbench/run.py's _random_scenario, and a config that reads its graphs
# from a file; kept out of configs/, which the acceptance tests and the loop
# below glob
GOLDEN_CONFIGS = os.path.join(HERE, "golden_configs")
DIGESTS = os.path.join(HERE, "golden_digests.json")

CONFIG_NAMES = sorted(f[: -len(".json")] for f in os.listdir(CONFIGS) if f.endswith(".json"))


def bundled(name: str) -> str:
    return os.path.join(CONFIGS, f"{name}.json")


def golden(name: str) -> str:
    return os.path.join(GOLDEN_CONFIGS, f"{name}.json")


# case name -> (subcommand, config path, CLI arguments after --config and
# --out, expected exit code)
CASES = {}
for _name in CONFIG_NAMES:
    CASES[f"run/{_name}"] = ("run", bundled(_name), [], 0)
    CASES[f"verify/{_name}"] = ("verify", bundled(_name), [], 0)
CASES["sweep-seeds/heterogeneous"] = (
    "sweep", bundled("heterogeneous"), ["--axis", "seeds", "--values", "0,1,2"], 0
)
CASES["sweep-horizon/subgradient_push_fixed"] = (
    "sweep", bundled("subgradient_push_fixed"), ["--axis", "horizon", "--values", "200,400,800"], 0
)
# n=200 with a fresh graph every step, default weights built per chunk
CASES["run/random_n200"] = ("run", golden("random_n200"), [], 0)
CASES["verify/random_n200"] = ("verify", golden("random_n200"), [], 0)
# replica groups of three seeds at n=51
CASES["sweep-seeds/hetero_sweep"] = ("sweep", golden("hetero_sweep"), ["--axis", "seeds"], 0)
# the 30 seeds of the SGP noise-table path
CASES["sweep-seeds/sgp_quadratic"] = ("sweep", bundled("sgp_quadratic"), ["--axis", "seeds"], 0)
# graphs read by load_sequence from a file holding more steps than the
# horizon; the config names the file relative to the repository root
CASES["run/graph_file"] = ("run", golden("graph_file"), [], 0)
CASES["verify/graph_file"] = ("verify", golden("graph_file"), [], 0)
# a failed verify, which writes where each check failed
CASES["verify-perturbed/pushsum_ring"] = (
    "verify", bundled("pushsum_ring"), ["--perturb-y", "1e-6"], 1
)


def produce(case: str, out: str) -> dict[str, str]:
    """Run one case into ``out`` from the repository root, check its exit
    code and return the sha256 of each file written."""
    from pushsumlab.cli import main

    command, path, extra, code = CASES[case]
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        assert main([command, "--config", path, "--out", out, *extra]) == code
    finally:
        os.chdir(cwd)
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS, encoding="ascii") as fh:
        return json.load(fh)


def test_every_case_has_digests():
    assert sorted(load_digests()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    assert produce(case, str(tmp_path / "out")) == load_digests()[case]


if __name__ == "__main__":
    import tempfile

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            recorded[case] = produce(case, os.path.join(tmp, case.replace("/", "_")))
    # name every (case, file) whose digest moved, so a declared output
    # change can list exactly what it changed
    before = load_digests() if os.path.exists(DIGESTS) else {}
    unchanged = 0
    for case in sorted(before.keys() | recorded.keys()):
        old, new = before.get(case, {}), recorded.get(case, {})
        for name in sorted(old.keys() | new.keys()):
            if name not in new:
                print(f"removed {case} {name}", file=sys.stderr)
            elif name not in old:
                print(f"added   {case} {name}", file=sys.stderr)
            elif old[name] != new[name]:
                print(f"changed {case} {name}", file=sys.stderr)
            else:
                unchanged += 1
    print(f"{unchanged} unchanged", file=sys.stderr)
    with open(DIGESTS, "w", encoding="ascii") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} cases to {DIGESTS}", file=sys.stderr)
