"""Golden sha256 digests of every file the CLI writes for the bundled configs
and for the configs under ``tests/golden_configs``.

The digests in ``golden_digests.json`` were recorded from an earlier build;
a refactor that is meant to keep outputs byte-identical must keep them.
An intended output change regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints each (case, file) whose digest changed, appeared or
disappeared, and a count of the unchanged ones. Under a changed JSON file
it prints each dotted key whose value moved, old -> new; the old values
come from running the case with ``src/`` as of the commit that last wrote
the digests. The change states its reason in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

from test_blas_kernels import openblas_dynamic_arch, run_under_coretype

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


# Every case in one fresh interpreter whose OpenBLAS uses its Haswell
# (AVX2) kernels; prints case -> digests. The digests must not depend on
# which kernel family the host's OpenBLAS picks. Nehalem and Sandybridge
# are not checked: the dynamics' own products differ in bits under them.
UNDER_CORETYPE = f"""
import contextlib, io, json, os, sys, tempfile
sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {HERE!r}]
from test_golden import CASES, produce
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    found = {{case: produce(case, os.path.join(tmp, str(i))) for i, case in enumerate(sorted(CASES))}}
print(json.dumps(found))
"""


@pytest.fixture(scope="module")
def haswell_digests():
    if not openblas_dynamic_arch():
        pytest.skip("numpy's BLAS is not OpenBLAS with DYNAMIC_ARCH")
    return json.loads(run_under_coretype("Haswell", UNDER_CORETYPE))


@pytest.mark.parametrize("case", sorted(CASES))
def test_digests_hold_under_haswell_kernels(case, haswell_digests):
    assert haswell_digests[case] == load_digests()[case]


def _fields(value, path: str = "") -> dict[str, object]:
    """The leaves of parsed JSON by dotted path, as report writes them."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path[:-1]: value}
    return {k: v for key, item in items for k, v in _fields(item, f"{path}{key}.").items()}


def _recording_build_outputs(cases, tmp: str) -> dict[str, str]:
    """Run ``cases`` with ``src/`` as of the commit that last wrote the
    digests file, each into its own directory under ``tmp``, and return
    case -> directory for the cases that ran. Empty outside a git
    checkout."""
    import subprocess

    git = ["git", "-C", ROOT]
    try:
        commit = subprocess.run(
            [*git, "log", "-1", "--format=%H", "--", DIGESTS], capture_output=True, text=True, check=True
        ).stdout.strip()
        if not commit:
            return {}
        tree = subprocess.run([*git, "archive", commit, "src"], capture_output=True, check=True).stdout
        os.makedirs(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {}
    env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
    code = f"import sys; sys.path.insert(0, {HERE!r}); from test_golden import produce; produce(*sys.argv[1:])"
    dirs = {}
    for case in cases:
        out = os.path.join(tmp, case.replace("/", "_"))
        if subprocess.run([sys.executable, "-c", code, case, out], env=env, capture_output=True).returncode == 0:
            dirs[case] = out
    return dirs


if __name__ == "__main__":
    import tempfile

    before = load_digests() if os.path.exists(DIGESTS) else {}
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        new_dir = {case: os.path.join(tmp, "new", case.replace("/", "_")) for case in CASES}
        for case in sorted(CASES):
            recorded[case] = produce(case, new_dir[case])

        def changed(case):
            old, new = before.get(case, {}), recorded.get(case, {})
            return [n for n in sorted(old.keys() & new.keys()) if old[n] != new[n]]

        # a changed JSON file lists its moved fields against the build that
        # recorded the digests, so a declared output change shows them
        old_dir = _recording_build_outputs(
            [c for c in sorted(CASES) if any(n.endswith(".json") for n in changed(c))],
            os.path.join(tmp, "old"),
        )

        def field_changes(case, name):
            old_path = os.path.join(old_dir[case], name) if case in old_dir else None
            if old_path is None or not os.path.exists(old_path):
                return ["    (the recording build's file could not be made)"]
            with open(old_path, "rb") as fh:
                data = fh.read()
            if hashlib.sha256(data).hexdigest() != before[case][name]:
                return ["    (the recording build no longer makes the recorded file)"]
            with open(os.path.join(new_dir[case], name), encoding="ascii") as fh:
                texts = [data.decode("ascii"), fh.read()]
            # repr tells 1 from 1.0 and 0.0 from -0.0
            old, new = ({k: repr(v) for k, v in _fields(json.loads(t)).items()} for t in texts)
            return [
                f"    {key}: {old.get(key, '(absent)')} -> {new.get(key, '(absent)')}"
                for key in sorted(old.keys() | new.keys())
                if old.get(key) != new.get(key)
            ]

        # name every (case, file) whose digest moved, so a declared output
        # change can list exactly what it changed
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
                    if name.endswith(".json"):
                        print(*field_changes(case, name), sep="\n", file=sys.stderr)
                else:
                    unchanged += 1
    print(f"{unchanged} unchanged", file=sys.stderr)
    with open(DIGESTS, "w", encoding="ascii") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(recorded)} cases to {DIGESTS}", file=sys.stderr)
