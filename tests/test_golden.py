"""Golden sha256 digests of every file the CLI writes for the bundled configs.

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
DIGESTS = os.path.join(HERE, "golden_digests.json")

CONFIG_NAMES = sorted(f[: -len(".json")] for f in os.listdir(CONFIGS) if f.endswith(".json"))

# case name -> CLI arguments after the subcommand's --config and --out
CASES = {}
for _name in CONFIG_NAMES:
    CASES[f"run/{_name}"] = ("run", _name, [])
    CASES[f"verify/{_name}"] = ("verify", _name, [])
CASES["sweep-seeds/heterogeneous"] = (
    "sweep", "heterogeneous", ["--axis", "seeds", "--values", "0,1,2"]
)
CASES["sweep-horizon/subgradient_push_fixed"] = (
    "sweep", "subgradient_push_fixed", ["--axis", "horizon", "--values", "200,400,800"]
)


def produce(case: str, out: str) -> dict[str, str]:
    """Run one case into ``out`` and return the sha256 of each file written."""
    from pushsumlab.cli import main

    command, config, extra = CASES[case]
    path = os.path.join(CONFIGS, f"{config}.json")
    assert main([command, "--config", path, "--out", out, *extra]) == 0
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
