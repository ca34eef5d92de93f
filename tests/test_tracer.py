"""Every function the benchmark's tracer wraps still exists under its name."""

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
