"""The suite's warning filters let a failing property test be reported
while every later test still runs.

pyproject.toml turns DeprecationWarning into an error. When a ``@given``
test fails, hypothesis's report hook imports libcst, whose import warns
through ``mypy_extensions.TypedDict``; unfiltered, that warning stops
pytest with INTERNALERROR and no later test runs.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CASES = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_cases.py").write_text(textwrap.dedent(CASES))
    ini = os.path.join(ROOT, "pyproject.toml")
    argv = ["-q", "-p", "no:cacheprovider", "-c", ini, "--rootdir", str(tmp_path), "test_cases.py"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
