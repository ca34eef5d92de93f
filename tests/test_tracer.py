"""Every function the benchmark's tracer wraps still exists under its name."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_in_a_fresh_interpreter():
    # a fresh interpreter keeps the wrappers out of this test process;
    # install() fails on the first traced name that no longer resolves
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tracer import Tracer; Tracer().install()"
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    done = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from pushsumlab import cli
work = sys.argv[3]
for name in ("pushsum", "optimizer"):
    for command in ("run", "verify"):
        args = [command, "--config", f"{work}/{name}.json", "--out", f"{work}/{command}_{name}"]
        assert cli.main(args) == 0, args
args = ["sweep", "--config", f"{work}/sweep.json", "--axis", "seeds", "--out", f"{work}/sweep"]
assert cli.main(args) == 0, args
print(json.dumps(layer_metrics(tracer.spans, tracer.counts, tracer.peak_trace_mb)))
"""


def test_traced_commands_fill_the_layers_they_run(tmp_path):
    """run and verify of a push-sum and an optimizer config, and a seeds
    sweep whose run_optimizer returns Replicas, under the installed
    tracer: a hook that reads an attribute the run records lost fails
    here, not only in the benchmark's traced rounds."""
    common = {"n": 3, "horizon": 20, "seed": 0, "graph": {"kind": "static-ring"}}
    optimizer = {
        **common,
        "init": {"x0": [[0.0], [0.0], [0.0]]},
        "objective": {"kind": "abs", "anchors": [[0.0], [1.0], [5.0]]},
        "stepsize": {"kind": "harmonic", "scale": 1.0, "power": 0.75},
    }
    configs = {
        "pushsum": {**common, "algorithm": "pushsum", "init": {"x0": [1.0, 2.0, 3.0]}},
        "optimizer": {**optimizer, "algorithm": "subgradient_push"},
        "sweep": {
            **optimizer,
            "algorithm": "heterogeneous",
            "sigma": {"kind": "bernoulli", "p": 0.5},
            "seeds": [0, 1, 2],
        },
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *paths, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    for name in (
        "cli.run_s", "cli.verify_s", "cli.sweep_s", "pushsum.loop_s", "optim.loop_s",
        "optim.agent_steps", "pushsum.trace_mb", "graphs.connectivity_calls", "report.bytes",
    ):
        assert metrics[name] > 0, name
