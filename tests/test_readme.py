"""The README's "Library use" block runs as written against the package."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def library_use_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    # the averaging part ends on mean(0..5) = 2.5 at every agent
    assert printed[:6] == ["[[2.5]", "[2.5]", "[2.5]", "[2.5]", "[2.5]", "[2.5]]"]
    assert float(printed[-1]) > 0.0
