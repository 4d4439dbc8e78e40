"""Golden CLI outputs: every recorded command must print the same stdout,
byte for byte, and exit with the same code.

`golden/cli.jsonl` holds one JSON object per command: its argv, its
stdout and its exit code.  Regenerate it, after a deliberate and declared
output change only, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from dessinlink.cli import run_cli
from dessinlink.table import knot_table

GOLDEN = Path(__file__).parent / "golden" / "cli.jsonl"


def golden_commands():
    """The recorded argv lists: verify, the per-diagram commands on every
    table entry (with the all-A and all-B dessins and the reduced chord
    word's char poly), the two family commands, and the char poly of one
    seeded chord word at each of m = 12, 16, 20, 24 and 30 chords."""
    commands = [["verify"], ["verify", "--plain"]]
    for name in sorted(knot_table()):
        for command in ("quasitrees", "coeffs", "det", "bracket", "jones", "reduce"):
            argv = [command, "--name", name]
            argv += {"det": ["--method", "all"], "bracket": ["--oracle"]}.get(command, [])
            commands.append(argv)
        commands += [
            ["dessin", "--name", name, "--state", "A"],
            ["dessin", "--name", name, "--state", "B"],
            ["charpoly", "--name", name],
        ]
    commands += [["twist", "3", "4"], ["pretzel", "2", "3", "-5", "--det"]]
    for m in (12, 16, 20, 24, 30):
        word = list(range(1, m + 1)) * 2
        random.Random(m).shuffle(word)
        commands.append(["charpoly", "--chords", " ".join(map(str, word))])
    return commands


def run_captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return out.getvalue(), code


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open(encoding="utf-8") as fh:
        return {tuple(entry["argv"]): entry for entry in map(json.loads, fh)}


def test_golden_file_covers_every_command(golden):
    assert list(golden) == [tuple(argv) for argv in golden_commands()]


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_cli_output_matches_the_golden_file(golden, argv):
    entry = golden[tuple(argv)]
    stdout, code = run_captured(argv)
    assert code == entry["exit"]
    assert stdout == entry["stdout"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for argv in golden_commands():
            stdout, code = run_captured(argv)
            fh.write(json.dumps({"argv": argv, "exit": code, "stdout": stdout}) + "\n")
    sys.exit(0)
