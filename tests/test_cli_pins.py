"""Byte pins on the CLI's parser-made output.

cli_pins.json holds, for the top-level `--help`, the `--help` of every
command and a set of malformed command lines, the exit code, stdout and
stderr the CLI printed for them when each command's parser was still
written out by hand. argparse wraps help text to the terminal width, so
the width is fixed at 80 columns; its wording also moves between Python
releases, so the pins hold only on the release that wrote them. A new
command adds its own `--help` entry; the entries already there are not
rewritten.
"""

import json
import sys
from pathlib import Path

import pytest

import test_cli_fuzz
from hyperhom import cli
from hyperhom.cli import main

PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())

COMMAND_NAMES = [
    "closure", "combine", "join", "trace", "classify", "invariant-vertices",
    "invariant-trace", "homology", "cohomology", "act", "include", "duality", "mv",
    "persist", "barcode", "selftest",
]
# argv errors: the parser rejects each before any file is opened
ERROR_ARGVS = [
    ["bogus"],  # an unknown command
    [],  # no command
    ["classify", "--bogus", "h.json"],  # an unknown flag
    ["include", "--left", "a.json"],  # three of four required options missing
    ["persist", "--filtration", "f.json", "--ring", "Q"],
    ["classify"],  # a missing positional
    ["homology", "--operator", "op.json", "--ring", "R", "h.json"],  # a bad choice
    ["invariant-trace", "--mode", "x", "h.json"],
    ["homology", "--operator", "op.json", "--ring", "Q", "--q", "x", "h.json"],  # a bad int
    ["duality", "--vertices", "a", "--max-degree", "1.5"],
    ["duality", "--vertices=--", "--max-degree", "1"],  # a value of exactly '--'
    ["duality", "--vertices=a", "--max-degree=--"],
    ["selftest", "--suite=--"],
]
ARGVS = [["--help"]] + [[name, "--help"] for name in COMMAND_NAMES] + ERROR_ARGVS


def capture(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": out, "stderr": err}


@pytest.mark.skipif(sys.version_info[:2] != tuple(PINS["python"]),
                    reason="argparse wording differs between Python releases")
@pytest.mark.parametrize("pin", PINS["cases"], ids=lambda pin: " ".join(pin["argv"]) or "<none>")
def test_help_and_argv_errors_are_byte_identical(pin, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(pin["argv"], capsys) == pin


def test_pins_cover_every_argv():
    assert [pin["argv"] for pin in PINS["cases"]] == ARGVS


def test_every_command_is_pinned_fuzzed_and_documented():
    """A row added to `cli.COMMANDS` needs its help pinned, a fuzz
    template and a line in the README's CLI block."""
    names = [name for name, *_ in cli.COMMANDS]
    assert names == COMMAND_NAMES
    fuzzed = {template[0] for template in test_cli_fuzz.COMMANDS}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("hyperhom ")}
    assert set(names) <= fuzzed and set(names) <= documented
