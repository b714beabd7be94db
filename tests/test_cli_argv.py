"""How `cli.main` reads argv: straight from `cli.COMMANDS` for a plain
command line, and through argparse for help and argv errors only.

The table read (`cli._plain_args`) is checked against argparse, its
oracle, on argvs drawn from every command row and mutated: it either
leaves the line to argparse or gives what argparse gives. Fresh
interpreters check that a plain request never loads argparse while a bad
argv still gets the pinned error document. An argv that is not a list or
tuple of strings gets one error document before either reader runs.
"""

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperhom
import test_cli_fuzz
from hyperhom import cli
from hyperhom.cli import main
from hyperhom.errors import SchemaViolation

PARSER = cli.build_parser()
PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())
SRC = Path(hyperhom.__file__).resolve().parents[1]

FLAGS = sorted({flag for *_, arguments in cli.COMMANDS
                for flag, _ in arguments if flag.startswith("-")})
# tokens that start with '-': help, a lone dash, '--', negative numbers,
# an unknown flag, every flag alone (often of another command) and
# abbreviations such as --oper
DASH_TOKENS = (["-h", "--help", "-", "--", "-1", "-0", "--bogus", "-q", "--q=-1"]
               + FLAGS + [flag[:-2] for flag in FLAGS if len(flag) > 4])
INT_TEXTS = ["-3", "+3", " 4", "4 ", "٣", "1_0", "", "x", "1.5", "0x1", "--", "-"]
TEXTS = ["h.json", "a,b", "1/2", "", "--", "a=b", "-x", "Δ", " ", "=", "a b", "-", "٣"]
MUTATIONS = ["equals", "repeat", "drop", "cut", "dash", "extra", "value"]


def draw_value(rng, options):
    if "choices" in options:
        return rng.choice(options["choices"] + ["x", ""]) if rng.random() < 0.3 \
            else rng.choice(options["choices"])
    if options.get("type") is int:
        return rng.choice(INT_TEXTS) if rng.random() < 0.3 else str(rng.randint(0, 9))
    return rng.choice(TEXTS)


def draw_argv(rng):
    """A command row's arguments, each option as `--opt value` (optional
    ones half the time), then up to three mutations and a shuffle."""
    name, _, _, arguments = rng.choice(cli.COMMANDS)
    options = dict(arguments)
    pieces = []
    for flag, opts in arguments:
        if not flag.startswith("-"):
            pieces.append([rng.choice(TEXTS)])
        elif opts.get("required") or rng.random() < 0.5:
            pieces.append([flag, draw_value(rng, opts)])
    for _ in range(rng.randint(0, 3)):
        mutation = rng.choice(MUTATIONS)
        i = rng.randint(0, len(pieces))
        piece = pieces[i] if i < len(pieces) else None
        is_option = piece is not None and piece[0] in options and len(piece) == 2
        if mutation == "equals" and is_option:
            value = rng.choice([piece[1], "", "--", "a=b", "-3", "=x"])
            pieces[i] = [f"{piece[0]}={value}"]
        elif mutation == "repeat" and is_option:  # `--suite a --suite b` too
            pieces.append([piece[0], draw_value(rng, options[piece[0]])])
        elif mutation == "repeat" and piece is not None:
            pieces.append(list(piece))
        elif mutation == "drop" and piece is not None:
            del pieces[i]
        elif mutation == "cut" and piece is not None:
            pieces[i] = piece[:1]
        elif mutation == "dash":
            pieces.insert(i, [rng.choice(DASH_TOKENS)])
        elif mutation == "extra":
            pieces.append([rng.choice(TEXTS)])
        elif mutation == "value" and is_option:
            pieces[i] = [piece[0], rng.choice(INT_TEXTS + TEXTS)]
    rng.shuffle(pieces)
    return [name, *itertools.chain.from_iterable(pieces)]


def argparse_reading(argv):
    """`vars()` of what argparse reads from argv, or a text saying that it
    refused the line."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            args = PARSER.parse_args(argv)
        cli._check_option_values(args)
    except (SchemaViolation, SystemExit) as exc:
        return f"argparse refused it: {exc!r} {out.getvalue()}"
    return vars(args)


def outcome(argv) -> str:
    """'read' when the table read agrees with argparse, 'deferred' when it
    leaves the line to argparse."""
    args = cli._plain_args(argv)
    if args is None:
        return "deferred"
    assert vars(args) == argparse_reading(argv), argv
    return "read"


INT_FLAGS = {flag for *_, arguments in cli.COMMANDS
             for flag, options in arguments if options.get("type") is int}
ODD_INTS = {"+3", " 4", "4 ", "٣", "1_0"}


def read_features(argv) -> set:
    """What a line that the table read holds beyond `--opt value` pairs."""
    options = [token.partition("=") if "=" in token else (token, "", value)
               for token, value in zip(argv, argv[1:] + [None]) if token.startswith("-")]
    flags = [flag for flag, _, _ in options]
    return {feature for feature, hit in (
        ("--opt=value", any(eq for _, eq, _ in options)),
        ("repeated option", len(set(flags)) < len(flags)),
        ("odd int text", any(flag in INT_FLAGS and value in ODD_INTS
                             for flag, _, value in options)),
        ("empty value", any(value == "" for _, _, value in options)),
    ) if hit}


# each floor is about half of what the draw gives
READ_FLOORS = {"read": 1200, "deferred": 3800, "--opt=value": 80, "repeated option": 90,
               "odd int text": 90, "empty value": 140}


def test_table_read_agrees_with_argparse():
    counts = dict.fromkeys(READ_FLOORS, 0)

    @settings(max_examples=500)
    @given(st.integers(0, 2**32))
    def check(seed):
        rng = random.Random(seed)
        for _ in range(20):
            argv = draw_argv(rng)
            result = outcome(argv)
            counts[result] += 1
            for feature in read_features(argv) if result == "read" else ():
                counts[feature] += 1

    check()
    assert all(counts[key] >= floor for key, floor in READ_FLOORS.items()), counts


def fuzz_argvs():
    """Each `test_cli_fuzz.COMMANDS` template with its documents named and
    each of three rings."""
    for template, ring in itertools.product(
            test_cli_fuzz.COMMANDS, (["--ring", "Z"], ["--ring", "Q"], ["--ring", "Fp", "--p=5"])):
        argv = []
        for item in template:
            item = item.replace("{deg}", "1")
            argv += ring if item == "{ring}" else [item.replace("{", "").replace("}", ".json")]
        yield argv


def test_pinned_argvs_go_to_argparse_and_fuzz_templates_are_read():
    for pin in PINS["cases"]:
        assert outcome(pin["argv"]) == "deferred", pin["argv"]
    for argv in fuzz_argvs():
        assert outcome(argv) == "read", argv


@pytest.mark.parametrize("argv", [
    ["classify", 3],
    ["duality", "--vertices", "a", "--max-degree", 2],
    [b"classify"],
    ["homology", None],
], ids=repr)
def test_non_string_argv_items_get_one_error_document(capsys, monkeypatch, argv):
    def no_parser(*_):
        raise AssertionError("a parser ran on a non-string argv item")

    monkeypatch.setattr(cli, "_plain_args", no_parser)
    monkeypatch.setattr(cli, "_parser", no_parser)
    assert main(argv) == 2
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert captured.out.count("\n") == 1 and captured.err == ""
    assert doc["error"] == "SchemaViolation" and "not a string" in doc["detail"]


@pytest.mark.parametrize("argv, kind", [
    (3, "int"),
    ("classify", "str"),
    (b"classify", "bytes"),
    (iter(["classify", "h.json"]), "list_iterator"),
    ({"classify": "h.json"}, "dict"),
], ids=["int", "str", "bytes", "list_iterator", "dict"])
def test_argv_that_is_not_a_list_or_tuple_gets_one_error_document(capsys, monkeypatch,
                                                                   argv, kind):
    def no_parser(*_):
        raise AssertionError("a parser ran on an argv that is not a list or tuple")

    monkeypatch.setattr(cli, "_plain_args", no_parser)
    monkeypatch.setattr(cli, "_parser", no_parser)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.err == ""
    assert json.loads(captured.out) == {
        "error": "SchemaViolation",
        "detail": f"the command line is not a list or tuple of strings: {kind}"}


def test_tuple_argv_answers_as_the_list_and_none_reads_sys_argv(tmp_path, capsys, monkeypatch):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps({"vertices": ["a", "b"], "edges": [[], ["a"], ["b"], ["a", "b"]]}))
    answers = []
    for argv in (["classify", str(cx)], ("classify", str(cx))):
        answers.append((main(argv), capsys.readouterr()))
    monkeypatch.setattr(sys, "argv", ["hyperhom", "classify", str(cx)])
    answers.append((main(None), capsys.readouterr()))
    assert answers[0][0] == 0 and json.loads(answers[0][1].out)
    assert answers[1:] == answers[:1] * 2
    # a tuple holding a non-string is refused item by item, as a list is
    assert main(("classify", 3)) == 2
    assert "command line item 1 is not a string" in capsys.readouterr().out


def test_a_value_starting_with_a_dash_is_written_with_equals(capsys):
    """`--coeffs=-1,2` reads a negative first weight; `--coeffs -1,2`
    reads `-1,2` as a flag, leaving `--coeffs` without its value."""
    argv = ["duality", "--vertices", "a,b", "--max-degree", "2"]
    assert main(argv + ["--coeffs=-1,2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and json.loads(captured.out)["q"] == 0
    assert main(argv + ["--coeffs", "-1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and captured.err == ""
    assert json.loads(captured.out) == {"error": "SchemaViolation",
                                        "detail": "argument --coeffs: expected one argument"}


# A fresh isolated interpreter puts `src` on its path, answers argv[2:]
# through the CLI or as `python -m hyperhom` does (runpy; the package is
# not installed here), and reports on stderr whether argparse was loaded.
FRESH = """\
import runpy, sys
sys.path.insert(0, sys.argv[1])
how, argv = sys.argv[2], sys.argv[3:]
try:
    if how == "cli":
        from hyperhom import cli
        code = cli.main(argv)
    else:
        sys.argv[1:] = argv
        runpy.run_module("hyperhom", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("argparse" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def fresh(how, argv):
    return subprocess.run([sys.executable, "-I", "-c", FRESH, str(SRC), how, *argv],
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("how", ["cli", "-m"])
def test_cold_start_answers_without_argparse(tmp_path, how):
    cx, op = tmp_path / "cx.json", tmp_path / "op.json"
    cx.write_text(json.dumps({"vertices": ["a", "b"], "edges": [[], ["a"], ["b"], ["a", "b"]]}))
    op.write_text(json.dumps({"kind": "partial", "terms": [
        {"coeff": 1, "vertices": ["a"]}, {"coeff": 2, "vertices": ["b"]}]}))
    proc = fresh(how, ["homology", "--operator", str(op), "--ring", "Z", str(cx)])
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 and json.loads(proc.stdout)["ring"] == "Z"
    assert proc.stderr == "False\n"


@pytest.mark.parametrize("how", ["cli", "-m"])
def test_cold_start_bad_argv_prints_the_pinned_document(how):
    argv = ["classify", "--bogus", "h.json"]
    [pin] = [pin for pin in PINS["cases"] if pin["argv"] == argv]
    proc = fresh(how, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (pin["code"], pin["stdout"], "True\n")
