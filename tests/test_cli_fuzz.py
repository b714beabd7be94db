"""Fuzzing of the CLI contract: every command, run in-process on mutated
copies of small valid documents and mutated string and int options,
sometimes with a stray flag, exits 0 or 2, prints exactly one JSON
document on stdout, and never a traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperhom.cli import main

S3 = ["s0", "s1", "s2"]
COMPLEX = {"vertices": S3, "edges": [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"]]}
CIRCLE = {"vertices": S3,
          "edges": [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"], ["s0", "s2"]]}
SEGMENT = {"vertices": S3, "edges": [[], ["s0"], ["s1"], ["s0", "s1"]]}
# a point without the empty edge inside two points with it: bad input for
# a degree-lowering inclusion, and the right side's H_0 is not zero
BARE_POINT = {"vertices": S3, "edges": [["s0"]]}
TWO_POINTS = {"vertices": S3, "edges": [[], ["s0"], ["s1"]]}
INDEPENDENT = {"vertices": S3, "edges": [["s0", "s1"], ["s0", "s2"], ["s0", "s1", "s2"]]}
OTHER = {"vertices": ["t0", "t1"], "edges": [[], ["t0"], ["t0", "t1"]]}
ALPHA = {"kind": "partial", "terms": [{"coeff": 1, "vertices": [v]} for v in S3]}
OMEGA = {"kind": "d", "terms": [{"coeff": c, "vertices": [v]} for c, v in zip((1, 1, 2), S3)]}
EVEN = {"kind": "partial", "terms": [{"coeff": "1/2", "vertices": ["s0", "s1"]}]}
FILTRATION = {"vertices": S3, "class": "simplicial", "edges": [
    {"edge": [], "birth": 0}, {"edge": ["s0"], "birth": 0}, {"edge": ["s1"], "birth": "1/2"},
    {"edge": ["s2"], "birth": 1}, {"edge": ["s0", "s1"], "birth": 1},
    {"edge": ["s1", "s2"], "birth": "3"}, {"edge": ["s0", "s2"], "birth": 4}]}
UP_FILTRATION = {"vertices": S3, "class": "independence", "edges": [
    {"edge": ["s0", "s1", "s2"], "birth": 0}, {"edge": ["s0", "s1"], "birth": 1},
    {"edge": ["s1", "s2"], "birth": 2}]}

# Each command's argv: a "{name}" item is a document written to a file,
# "{ring}" and "{deg}" are drawn below, an "--opt=<text>" item is an option
# that may be mutated, and anything else is kept as it is.
COMMANDS = [
    ["closure", "--op=Delta", "{h}"],
    ["combine", "--op=union", "--left", "{a}", "--right", "{b}"],
    ["join", "--left", "{a}", "--right", "{b}"],
    ["trace", "--vertices=s0,s2", "{h}"],
    ["classify", "{h}"],
    ["invariant-vertices", "--mode", "partial", "{h}"],
    ["invariant-trace", "--mode", "d", "{h}"],
    ["homology", "--operator", "{op}", "{ring}", "{h}"],
    ["cohomology", "--operator", "{op}", "{ring}", "{h}"],
    ["act", "--operator", "{op}", "--even", "{even}", "{ring}", "{h}"],
    ["include", "--left", "{a}", "--right", "{b}", "--operator", "{op}", "{ring}"],
    ["include", "--left", "{point}", "--right", "{points}", "--operator", "{op}", "{ring}"],
    ["duality", "--vertices=a,b", "--coeffs=1,1/2", "--q=0", "--max-degree={deg}"],
    ["mv", "--left", "{a}", "--right", "{b}", "--operator", "{op}", "{ring}"],
    ["persist", "--filtration", "{f}", "--operator", "{op}", "{ring}", "--n=0"],
    ["barcode", "--filtration", "{f}", "--operator", "{op}", "{ring}", "--n={deg}"],
    ["selftest", "--suite=linalg-properties", "--seed=0"],
]
DOCUMENTS = {
    "closure": {"h": COMPLEX},
    "combine": {"a": COMPLEX, "b": CIRCLE},
    "join": {"a": COMPLEX, "b": OTHER},
    "trace": {"h": COMPLEX},
    "classify": {"h": INDEPENDENT},
    "invariant-vertices": {"h": COMPLEX},
    "invariant-trace": {"h": INDEPENDENT},
    "homology": {"op": ALPHA, "h": CIRCLE},
    "cohomology": {"op": OMEGA, "h": INDEPENDENT},
    "act": {"op": ALPHA, "even": EVEN, "h": CIRCLE},
    "include": {"a": SEGMENT, "b": CIRCLE, "point": BARE_POINT, "points": TWO_POINTS,
                "op": ALPHA},
    "duality": {},
    "mv": {"a": SEGMENT, "b": COMPLEX, "op": ALPHA},
    "persist": {"f": FILTRATION, "op": ALPHA},
    "barcode": {"f": UP_FILTRATION, "op": OMEGA},
    "selftest": {},
}

LABELS = S3 + ["t0", "a", ""]
KEYS = ["vertices", "edges", "kind", "terms", "coeff", "edge", "birth", "class", "x"]
LEAVES = (st.none() | st.booleans() | st.integers(-3, 5)
          | st.sampled_from([2**64, 1.5, -0.0, 1e308])
          | st.sampled_from(LABELS + ["1/2", "1/0", "-2", "x", "1e10000000", "0.5", "partial",
                                      "d", "simplicial", "independence"]))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids,
                                                              max_size=3),
    max_leaves=5,
)
# large primes: 2^61 - 1 is answered at once, 2^89 - 1 is past the 2^64
# bound of the primality test and is rejected
BIG_PRIMES = [str(2**61 - 1), str(2**89 - 1)]
RINGS = st.sampled_from([["--ring", "Q"], ["--ring", "Z"], ["--ring", "Fp", "--p=5"],
                         ["--ring", "Fp"], ["--ring", "Fp", "--p=4"],
                         ["--ring", "Fp", "--p=2"], ["--ring", "Q", "--p=3"],
                         ["--ring", "Q", "--q=-1"], ["--ring", "Z", "--q=2"],
                         ["--ring", "R"], ["--ring"]]
                        + [["--ring", "Fp", f"--p={p}"] for p in BIG_PRIMES])
INT_OPTIONS = ("--q", "--p", "--n", "--max-degree", "--seed")
# duality stays small: up to 6 letters through degree 2, or a huge degree
# that the carrier cap rejects before enumerating
DEGREES = st.sampled_from(["-2", "-1", "0", "1", "2", str(10**9)])
# int options take whole values: a text edit of a degree could give the
# 3-letter or 2-letter duality carriers a degree from 5 to 12, which the
# cap admits but which take seconds to a minute to reduce
INT_EDITS = DEGREES | st.sampled_from(["", "-", "x", "1.5", "1/2", "0x1", "1e3", " 1", "--",
                                       "-" + "9" * 30, "9" * 30, *BIG_PRIMES])
TEXT_EDITS = st.text(alphabet=",-/01abs", max_size=6)
# an unknown flag, or a known one with an empty or a missing value
STRAY_FLAGS = st.sampled_from(["--bogus", "--bogus=1", "-x", "--ring=", "--n"])


def positions(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from positions(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from positions(v, path + (i,))


def mutate_document(data, doc):
    """One structural edit of a JSON document: replace, delete, insert or
    duplicate at a drawn position."""
    path = data.draw(st.sampled_from(list(positions(doc))))
    action = data.draw(st.sampled_from(["replace", "delete", "insert", "duplicate"]))
    if not path:
        return data.draw(JSON_VALUES) if action == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[key]
    elif action == "insert" and isinstance(parent[key], list):
        parent[key].insert(data.draw(st.integers(0, len(parent[key]))), data.draw(JSON_VALUES))
    elif action == "insert" and isinstance(parent[key], dict):
        parent[key][data.draw(st.sampled_from(KEYS))] = data.draw(JSON_VALUES)
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def mutate_text(data, text):
    """One edit of a string: cut it, insert a few characters, or replace it."""
    cut = data.draw(st.integers(0, len(text)))
    action = data.draw(st.sampled_from(["cut", "insert", "replace"]))
    if action == "cut":
        return text[:cut]
    if action == "insert":
        return text[:cut] + data.draw(TEXT_EDITS) + text[cut:]
    return data.draw(TEXT_EDITS)


def draw_case(data) -> tuple:
    """One drawn command: its argv, whose "{name}" items are documents,
    and the text of each document."""
    command = data.draw(st.sampled_from(COMMANDS))
    docs = {name: json.loads(json.dumps(doc)) for name, doc in DOCUMENTS[command[0]].items()}
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    template = []
    for item in command:
        if item == "{ring}":
            template += data.draw(RINGS)
        elif "{deg}" in item:
            template.append(item.replace("{deg}", data.draw(DEGREES)))
        else:
            template.append(item)
    options = [i for i, item in enumerate(template) if item.startswith("--") and "=" in item]
    targets = list(docs) + options
    for _ in range(data.draw(st.integers(0, 3))):
        target = data.draw(st.sampled_from(targets)) if targets else None
        if target in docs and data.draw(st.booleans()):
            docs[target] = mutate_document(data, docs[target])
            texts[target] = json.dumps(docs[target])
        elif target in docs:
            texts[target] = mutate_text(data, texts[target])
        elif target is not None:
            flag, value = template[target].split("=", 1)
            value = data.draw(INT_EDITS) if flag in INT_OPTIONS else mutate_text(data, value)
            template[target] = f"{flag}={value}"
    if data.draw(st.integers(0, 4)) == 0:
        template.insert(data.draw(st.integers(1, len(template))), data.draw(STRAY_FLAGS))
    return template, texts


@settings(max_examples=250, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_on_mutated_documents(data):
    template, texts = draw_case(data)
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for item in template:
            if item.startswith("{"):
                path = os.path.join(tmp, item.strip("{}") + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(texts[item.strip("{}")])
                argv.append(path)
            else:
                argv.append(item)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = out.getvalue().splitlines()
    assert code in (0, 2), (argv, texts, out.getvalue())
    assert len(lines) == 1, (argv, texts, out.getvalue(), err.getvalue())
    json.loads(lines[0])
    assert "Traceback" not in out.getvalue() + err.getvalue()
