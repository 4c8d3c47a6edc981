"""Every fenced python block of README.md runs as written, and every
`ctctag` command in its sh blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from ctctag import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
COMMANDS = [shlex.split(line) for block in SH_BLOCKS
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("ctctag ")]


def test_readme_shows_every_subcommand():
    subcommands = ["decode", "eval", "gen-data", "timeline", "train"]
    assert sorted(argv[1] for argv in COMMANDS) == subcommands


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[1] for argv in COMMANDS])
def test_readme_command_parses(argv):
    cli._build_parser().parse_args(argv[1:])
