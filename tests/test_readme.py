"""The README's "Library use" block runs as written against the package,
and its "Config schema" block lists the parser's keys and kinds."""

import json
import os
import re

from pushsumlab import config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(heading: str, lang: str) -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def library_use_block() -> str:
    return readme_block("## Library use", "python")


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    # the averaging part ends on mean(0..5) = 2.5 at every agent
    assert printed[:6] == ["[[2.5]", "[2.5]", "[2.5]", "[2.5]", "[2.5]", "[2.5]]"]
    assert float(printed[-1]) > 0.0


def test_config_schema_block_matches_the_parser():
    schema = json.loads(readme_block("## Config schema", "json"))
    assert set(schema) == set(config.CONFIG_KEYS)

    def choices(value):
        return set(value.split(" | "))

    assert choices(schema["algorithm"]) == set(config.RUN_KINDS)
    assert choices(schema["graph"]["kind"]) == set(config.GRAPH_KEYS)
    assert choices(schema["stepsize"]["kind"]) == set(config.STEP_KEYS)
    assert choices(schema["sigma"]["kind"]) == set(config.SIGMA_KEYS)
    assert choices(schema["objective"]["kind"]) == set(config.OBJECTIVE_KEYS)
    assert choices(schema["weights"]["policy"]) == set(config.WEIGHTS_KEYS)
