"""Every demo script runs to completion against the source tree, the
README's library quick start prints what its comments say, and each line
of its command-line block prints one JSON payload."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dessinlink
from dessinlink import cli

SRC = Path(dessinlink.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert {p.name for p in DEMOS} >= {"chord_pipeline.py", "family_laws.py", "table_tour.py"}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


README = SRC.parent / "README.md"


def leading_value(comment: str) -> str:
    """A quick-start comment up to its first comma outside brackets."""
    depth = 0
    for i, ch in enumerate(comment):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and not depth:
            return comment[:i]
    return comment


def test_readme_quick_start_prints_what_its_comments_say():
    # a public name gone from the package, or an output that drifted from
    # the README, fails here
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(prints)
    commented = [(p.split("#", 1)[1].strip(), out) for p, out in zip(prints, lines) if "#" in p]
    assert len(commented) >= 3
    for comment, out in commented:
        assert out.startswith(leading_value(comment)), (comment, out)


def readme_command_lines():
    """The `dessinlink ...` lines of README's "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("dessinlink ")]


COMMAND_LINES = readme_command_lines()


def test_readme_command_block_is_found():
    assert len(COMMAND_LINES) >= 8
    assert {shlex.split(line)[1] for line in COMMAND_LINES} >= {"det", "charpoly", "verify"}


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_prints_one_payload(line, capsys):
    code = cli.run_cli(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK, out
    payload = json.loads(out)  # one JSON object and nothing else
    assert isinstance(payload, dict) and payload["schema"] == "dessinlink/1"
    assert payload["command"] == shlex.split(line)[1]
