"""Fuzzing of the CLI contract at the file boundary: every command that
reads a file, run in-process on a copy of one valid document spoiled at
the byte level, exits 2 with one JSON error document and nothing on
stderr. The spoils are a truncation, invalid UTF-8, a byte-order mark,
deep nesting, a long integer and a directory in place of the file. A
shallow nesting or an integer within the bound may leave the document
valid, and then the command may answer with exit 0."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperhom.cli import main
from hyperhom.jsonio import MAX_DIGITS

from test_cli_fuzz import COMMANDS, DOCUMENTS, positions

FILE_COMMANDS = [c for c in COMMANDS if any(item.startswith("{") and item != "{ring}"
                                              for item in c)]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xc3(", b"\xed\xa0\x80", b"\xf5\x80\x80\x80", b"\x80"]
BOMS = [b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"]
# around the depth where parsing gives out, and far past it
DEPTHS = st.integers(1, 3) | st.integers(900, 1000) | st.sampled_from([5000, 100_000])
DIGITS = st.sampled_from([MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1, 5000, 100_000])
MARK = '"@@spoil@@"'


def with_value_at(doc, path, text: str) -> bytes:
    """The document with the value at `path` replaced by the JSON text."""
    if not path:
        return text.encode()
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = MARK.strip('"')
    return json.dumps(doc).replace(MARK, text).encode()


def spoiled(data, doc) -> tuple:
    """(bytes or None for a directory, whether no reading can succeed)."""
    text = json.dumps(doc).encode()
    kind = data.draw(st.sampled_from(["truncate", "utf8", "bom", "nest", "integer", "dir"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))], True
    if kind == "utf8":
        cut = data.draw(st.integers(0, len(text)))
        return text[:cut] + data.draw(st.sampled_from(INVALID_UTF8)) + text[cut:], True
    if kind == "bom":
        return data.draw(st.sampled_from(BOMS)) + text, True
    if kind == "dir":
        return None, True
    path = data.draw(st.sampled_from(list(positions(doc))))
    if kind == "nest":
        depth = data.draw(DEPTHS)
        opener, closer = data.draw(st.sampled_from([("[", "]"), ('{"x": ', "}")]))
        return with_value_at(doc, path, opener * depth + "0" + closer * depth), depth >= 5000
    digits = data.draw(DIGITS)
    sign = data.draw(st.sampled_from(["", "-"]))
    return with_value_at(doc, path, sign + "7" * digits), digits > MAX_DIGITS


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_on_spoiled_files(data):
    command = data.draw(st.sampled_from(FILE_COMMANDS))
    docs = DOCUMENTS[command[0]]
    target = data.draw(st.sampled_from([item.strip("{}") for item in command
                                        if item.strip("{}") in docs]))
    content, invalid = spoiled(data, docs[target])
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for item in command:
            if item == "{ring}":
                argv += ["--ring", "Q"]
            elif item.startswith("{"):
                name = item.strip("{}")
                path = os.path.join(tmp, name + ".json")
                if name != target:
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(docs[name], fh)
                elif content is None:
                    os.mkdir(path)
                else:
                    with open(path, "wb") as fh:
                        fh.write(content)
                argv.append(path)
            else:
                argv.append(item.replace("{deg}", "0"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = out.getvalue().splitlines()
    assert code == 2 if invalid else code in (0, 2), (argv, content and content[:200])
    assert len(lines) == 1 and err.getvalue() == "", (argv, out.getvalue(), err.getvalue())
    doc = json.loads(lines[0], parse_int=str)  # an answer's integers may be long
    assert code == 0 or set(doc) == {"error", "detail"}
