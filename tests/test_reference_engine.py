"""The frozen reference engine as a whole-CLI oracle.

`perfbench/reference/hyperhom_reference` is a copy of the engine as it
was when the benchmark was defined. It is imported here by path, with no
bytecode written, and is never changed. Both engines run the same
command lines on the same documents, in one process:

* where the reference exits 0 or 2 with one JSON line, the engine prints
  the same bytes with the same exit code, unless an entry of `INTENDED`
  explains the difference; each entry names the PR that made it, and
  `PINNED` holds one case that shows it;
* where the reference raises, or prints no JSON line (argparse's usage
  text on an argv error), the engine exits 2 with one error document.

A difference that no entry explains fails the test. It is a fault to
report, not an entry to add.

The command lines are drawn twice: the shapes of `draw_command` (arity 3,
weights that share factors, non-integral weights, F_p, both classes,
filtrations with tied births, every command but `selftest`), and the
mutated documents and options of `test_cli_fuzz`. `selftest` is left
out: its suites and case counts grow by design. The sizes stay small,
as the reference keeps the seed's slow paths.
"""

import contextlib
import importlib.util
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperhom import cli

import test_cli_fuzz

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "hyperhom_reference"


def _import_reference():
    """The reference's `cli` module, imported from its files by path, with
    no bytecode written beside them."""
    name = "hyperhom_reference"
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        if name not in sys.modules:
            spec = importlib.util.spec_from_file_location(
                name, REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)])
            sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(sys.modules[name])
        return importlib.import_module(f"{name}.cli")
    finally:
        sys.dont_write_bytecode = dont_write


reference_cli = _import_reference()


def run(main, argv) -> tuple:
    """(exit code, stdout) of main(argv), or (the exception, stdout) when
    it raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except Exception as exc:  # the reference's contract breaks
            code = exc
    return code, out.getvalue()


def one_document(text: str):
    """The JSON document of one line of output, else None."""
    lines = text.splitlines()
    if len(lines) != 1 or not text.endswith("\n"):
        return None
    try:
        return json.loads(lines[0])
    except ValueError:
        return None


def is_error(doc) -> bool:
    return isinstance(doc, dict) and set(doc) == {"error", "detail"}


def option(argv, flag):
    """The value of the last `flag` option in argv, or None."""
    value = None
    for i, item in enumerate(argv):
        if item == flag and i + 1 < len(argv):
            value = argv[i + 1]
        elif item.startswith(flag + "="):
            value = item.split("=", 1)[1]
    return value


def vertex_lists(docs, where: str):
    """The vertex lists of the documents: each edge of a hypergraph or a
    filtration (where="edge"), or each term's vertices (where="term"), as
    given, lists or not."""
    for doc in docs:
        rows = doc.get("edges" if where == "edge" else "terms") if isinstance(doc, dict) else None
        for row in rows if isinstance(rows, list) else ():
            if where == "edge" and not isinstance(row, dict):
                yield row
            elif isinstance(row, dict):
                yield row.get("edge" if where == "edge" else "vertices")


def held(docs, where: str, text: str) -> bool:
    """Whether a vertex list of the documents holds a value printed as text."""
    return any(isinstance(row, list) and any(repr(v) == text for v in row)
               for row in vertex_lists(docs, where))


# --- intended differences ---------------------------------------------------
#
# Each entry: the PR that made the difference, what it is, and a test of one
# case: (argv, documents, reference outcome, engine outcome) -> bool, each
# outcome an (exit code, document) pair. A test says which answer the
# engine gives; the reference's answer is the one the PR changed.


def _detail(outcome, pattern):
    """The match of an error outcome's detail against pattern, or None."""
    code, doc = outcome
    return code == 2 and is_error(doc) and re.fullmatch(pattern, doc["detail"]) or None


NEITHER = r"vertex (.+) is neither a label nor an index"
OFF_GRID = r"degree (-?\d+) is not on the (?:offset-(-?\d+) )?grid"


def _edge_vertex_read(argv, docs, ref, eng):
    # the reference read true, false and 1.0 as indices, raised on other
    # values, and iterated a filtration edge that was no list
    match = _detail(eng, NEITHER)
    if match:
        return held(docs, "edge", match[1])
    return bool(_detail(eng, r"each edge must be a list")) and any(
        not isinstance(row, list) for row in vertex_lists(docs, "edge"))


def _births_read_as_coefficients(argv, docs, ref, eng):
    return (bool(_detail(ref, r"births are integers or 'a/b' strings"))
            and bool(_detail(eng, r"bad coefficient .*")))


def _term_vertex_read(argv, docs, ref, eng):
    # the reference iterated a string or an object, and read true as 1
    match = _detail(eng, NEITHER) or _detail(eng, r"vertex index (-?\d+) out of range")
    if match:
        return held(docs, "term", match[1])
    return bool(_detail(eng, r"term vertices must be a list")) and any(
        not isinstance(row, list) for row in vertex_lists(docs, "term"))


def _double_dash_value(argv, docs, ref, eng):
    match = _detail(eng, r"option (--\S+) needs one value")
    return bool(match) and f"{match[1]}=--" in argv


def _coefficient_grammar(argv, docs, ref, eng):
    # the reference read anything that Fraction reads: '0.5', '1e3', ' 1'
    match = _detail(eng, r"bad coefficient '(.*)'")
    if not match:
        return False
    try:
        Fraction(match[1])
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _reduced_offset(argv, docs, ref, eng):
    # persist and barcode named the offset as given, homology the reduced one
    r, e = _detail(ref, OFF_GRID), _detail(eng, OFF_GRID)
    return (argv[0] in ("persist", "barcode") and bool(r and e)
            and r[1] == e[1] and None not in (r[2], e[2]))


def _include_grid_wording(argv, docs, ref, eng):
    r, e = _detail(ref, OFF_GRID), _detail(eng, OFF_GRID)
    return (argv[0] == "include" and bool(r and e)
            and r[1] == e[1] and r[2] is None and e[2] is not None)


def _include_above_the_top(argv, docs, ref, eng):
    # an on-grid degree above the top prints the zero map, as `homology` does
    r, (code, doc) = _detail(ref, OFF_GRID), eng
    return (argv[0] == "include" and code == 0 and bool(r) and r[2] is None
            and r[1] == str(doc["source_n"])
            and (doc["source_rank"], doc["target_rank"], doc["matrix"]) == (0, 0, []))


def _torsion_as_text(doc):
    """doc with every torsion factor printed as a string read as an int."""
    if isinstance(doc, dict):
        return {k: ([int(t) if isinstance(t, str) else t for t in v] if k == "torsion"
                    else _torsion_as_text(v)) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_torsion_as_text(x) for x in doc]
    return doc


def _big_torsion(argv, docs, ref, eng):
    return ref[0] == eng[0] == 0 and _torsion_as_text(eng[1]) == ref[1]


def _modulus_on_z_or_q(argv, docs, ref, eng):
    ring = option(argv, "--ring")
    return (ring in ("Z", "Q") and option(argv, "--p") is not None
            and eng == (2, {"error": "SchemaViolation",
                            "detail": f"ring {ring} takes no modulus"}))


def _fp_without_modulus(argv, docs, ref, eng):
    return (ref == (2, {"error": "SchemaViolation", "detail": "ring Fp requires --p"})
            and eng == (2, {"error": "SchemaViolation",
                            "detail": "Fp requires a prime modulus, got None"}))


def _empty_weight_slot(argv, docs, ref, eng):
    coeffs = option(argv, "--coeffs")
    return (argv[0] == "duality" and bool(coeffs) and "" in coeffs.split(",")
            and eng == (2, {"error": "SchemaViolation", "detail": "bad coefficient ''"}))


def _trace_vertex_wording(argv, docs, ref, eng):
    r = _detail(ref, r"vertex ('.*') is not in the vertex set")
    return (argv[0] == "trace" and bool(r)
            and eng == (2, {"error": "NotASubset", "detail": f"unknown vertex {r[1]}"}))


INTENDED = [
    ("PR 5", "an edge is a list of labels and indices, nothing else", _edge_vertex_read),
    ("PR 5", "births are read by the coefficient reader", _births_read_as_coefficients),
    ("PR 6", "operator term vertices are read as edge vertices are", _term_vertex_read),
    ("PR 7", "an option value of exactly '--' is refused", _double_dash_value),
    ("PR 13", "a coefficient is an integer or 'a/b', nothing else Fraction reads",
     _coefficient_grammar),
    ("PR 16", "persist and barcode name the reduced offset, as homology does", _reduced_offset),
    ("PR 17", "include names the offset of an off-grid degree", _include_grid_wording),
    ("PR 17", "include above the top prints the zero map", _include_above_the_top),
    ("PR 27", "a torsion factor past 2^53 prints as a string", _big_torsion),
    ("PR 32", "--p with --ring Z or Q is refused", _modulus_on_z_or_q),
    ("PR 32", "--ring Fp without --p is Ring's own error", _fp_without_modulus),
    ("PR 32", "an empty --coeffs slot is a bad weight", _empty_weight_slot),
    ("PR 32", "trace reads its vertices as documents do", _trace_vertex_wording),
]
# Where the reference raised, the engine exits 2 with one error document
# (the `known_defects` of the benchmark among them). Where it printed no
# document, it was an argv error, which argparse answered with its usage
# text: since PR 8 that is one error document too.
MISPRINTED = "PR 8: an argv error is one error document"


def explained(argv, docs, ref, eng):
    """The first entry of INTENDED that explains the difference, or None."""
    for pr, what, test in INTENDED:
        if test(argv, docs, ref, eng):
            return pr, what
    return None


SAME = "same bytes"


def compare(argv, docs) -> tuple:
    """(verdict, problem) for argv on the parsed documents `docs`: the
    verdict is SAME, the PR and text of the INTENDED entry that explains
    a difference, or how the reference broke its contract; the problem is
    None when the engine keeps the contract, else what went wrong."""
    ref_code, ref_out = run(reference_cli.main, argv)
    eng_code, eng_out = run(cli.main, argv)
    if isinstance(eng_code, Exception):
        return "engine raised", f"the engine raised {eng_code!r}"
    ref_doc, eng_doc = one_document(ref_out), one_document(eng_out)
    seen = f"reference {ref_code!r} {ref_out!r}, engine {eng_code} {eng_out!r}"
    if ref_code in (0, 2) and ref_doc is not None:
        if (eng_code, eng_out) == (ref_code, ref_out):
            return SAME, None
        entry = eng_doc is not None and explained(
            argv, docs, (ref_code, ref_doc), (eng_code, eng_doc))
        return (": ".join(entry), None) if entry else ("differs", seen)
    verdict = "reference raised" if isinstance(ref_code, Exception) else MISPRINTED
    return verdict, None if eng_code == 2 and is_error(eng_doc) else seen


def run_case(argv_template, docs: dict) -> tuple:
    """compare() on argv_template, whose "{name}" items are the documents
    of `docs` (JSON values, or text as it is) written to files."""
    parsed = []
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for item in argv_template:
            if item.startswith("{") and item.endswith("}"):
                name = item[1:-1]
                path = os.path.join(tmp, name + ".json")
                doc = docs[name]
                text = doc if isinstance(doc, str) else json.dumps(doc)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                with contextlib.suppress(ValueError):
                    parsed.append(json.loads(text))
                argv.append(path)
            else:
                argv.append(item)
        verdict, problem = compare(argv, parsed)
    return verdict, problem and f"{argv_template} {docs}: {problem}"


# --- drawn shapes -------------------------------------------------------------

# weights that share factors, and non-integral ones (refused over Z)
INT_WEIGHTS = [1, -1, 2, 3, 4, 6, -9]
WEIGHTS = INT_WEIGHTS + ["1/2", "-2/3", "3/4"]
# mostly rings that answer, and a few that are refused
RINGS = [["--ring", "Z"], ["--ring", "Q"], ["--ring", "Fp", "--p", "3"],
         ["--ring", "Fp", "--p", "5"], ["--ring", "Fp", "--p", "7"]] * 4 + [
    ["--ring", "Q", "--p", "5"], ["--ring", "Fp"], ["--ring", "Fp", "--p", "9"]]


def labels(rng, n) -> list:
    return [f"{rng.choice('uvw')}{i}" for i in range(n)]


def down_closed(rng, n, empty) -> set:
    """A simplicial family on n vertices: the nonempty faces of random seeds."""
    out = {()} if empty else set()
    for _ in range(rng.randint(1, 3)):
        seed = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        for k in range(1, len(seed) + 1):
            out.update(itertools.combinations(seed, k))
    return out


def up_closed(rng, n) -> set:
    """An independence family on n vertices: the supersets of random seeds."""
    out = set()
    for _ in range(rng.randint(1, 2)):
        seed = set(rng.sample(range(n), rng.randint(1, n)))
        rest = [v for v in range(n) if v not in seed]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                out.add(tuple(sorted(seed.union(extra))))
    return out


def hypergraph(vs, edges) -> dict:
    return {"vertices": vs, "edges": [[vs[v] for v in e] for e in
                                      sorted(edges, key=lambda e: (len(e), e))]}


def operator(rng, kind, vs, arity, weights) -> dict:
    gens = list(itertools.combinations(range(len(vs)), arity))
    picked = sorted(rng.sample(gens, rng.randint(1, len(gens))))
    return {"kind": kind, "terms": [{"coeff": rng.choice(weights),
                                     "vertices": [vs[v] for v in g]} for g in picked]}


def filtration(rng, vs, cls) -> dict:
    """A filtration of both classes, with tied births (values 0 to 2)."""
    n = len(vs)
    value = [rng.choice([0, 1, "1/2", 2]) for _ in range(n)]
    rank = {0: 0, "1/2": 1, 1: 2, 2: 3}
    top = lambda vals: max(vals, key=rank.get, default=0)  # noqa: E731
    if cls == "simplicial":
        edges = down_closed(rng, n, True)
        births = {e: top(value[v] for v in e) for e in edges}
    else:
        edges = up_closed(rng, n)
        births = {e: top(value[v] for v in range(n) if v not in e) for e in edges}
    rows = sorted(births.items(), key=lambda kv: (rank[kv[1]], len(kv[0]), kv[0]))
    return {"vertices": vs, "class": cls,
            "edges": [{"edge": [vs[v] for v in e], "birth": b} for e, b in rows]}


def draw_command(rng) -> tuple:
    """One drawn (argv template, documents)."""
    n = rng.randint(2, 4)
    vs = labels(rng, n)
    arity = 3 if n >= 3 and rng.random() < 0.3 else 1
    ring = rng.choice(RINGS)
    weights = INT_WEIGHTS if ring[1] == "Z" and rng.random() < 0.8 else WEIGHTS
    q = [] if rng.random() < 0.6 else ["--q", str(rng.randint(-1, arity))]
    degree = [] if rng.random() < 0.6 else ["--n", str(rng.randint(-1, 3))]
    empty = rng.random() < 0.5
    command = rng.choice(["closure", "combine", "join", "trace", "classify",
                          "invariant-vertices", "invariant-trace", "homology", "homology",
                          "cohomology", "cohomology", "act", "include", "include", "mv", "mv",
                          "duality", "persist", "barcode", "barcode"])
    family = rng.choice([down_closed(rng, n, empty), up_closed(rng, n),
                         {tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                          for _ in range(3)}])
    h = hypergraph(vs, family)
    if command == "closure":
        op = rng.choice(["Delta", "delta", "barDelta", "bardelta", "gamma", "Gamma"])
        return ["closure", "--op", op, "{h}"], {"h": h}
    if command in ("combine", "join"):
        other = (labels(rng, 2) if command == "join" else vs)
        b = hypergraph(other, down_closed(rng, len(other), empty))
        op = ["--op", rng.choice(["union", "intersect"])] if command == "combine" else []
        return [command, *op, "--left", "{h}", "--right", "{b}"], {"h": h, "b": b}
    if command == "trace":
        subset = rng.sample(vs + ["zz"], rng.randint(0, 3))
        return ["trace", "--vertices", ",".join(subset), "{h}"], {"h": h}
    if command == "classify":
        return ["classify", "{h}"], {"h": h}
    if command.startswith("invariant"):
        return [command, "--mode", rng.choice(["partial", "d"]), "{h}"], {"h": h}
    if command == "duality":
        letters = labels(rng, rng.randint(1, 3))
        slots = [str(rng.choice(WEIGHTS)) for _ in letters] + [""] * (rng.random() < 0.1)
        coeffs = [] if rng.random() < 0.3 else ["--coeffs", ",".join(slots)]
        return (["duality", "--vertices", ",".join(letters), *coeffs, "--q",
                 str(rng.randint(0, 1)), "--max-degree", str(rng.randint(1, 3))], {})
    if command in ("persist", "barcode"):
        cls = rng.choice(["simplicial", "independence"])
        kind = "partial" if cls == "simplicial" else "d"
        docs = {"f": filtration(rng, vs, cls), "op": operator(rng, kind, vs, arity, weights)}
        return ([command, "--filtration", "{f}", "--operator", "{op}", *ring, *q,
                 "--n", str(rng.randint(-1, 2))], docs)
    cohomology = command == "cohomology" or (command != "homology" and rng.random() < 0.3)
    kind = "d" if cohomology else "partial"
    family = down_closed(rng, n, empty) if kind == "partial" else up_closed(rng, n)
    docs = {"h": hypergraph(vs, family), "op": operator(rng, kind, vs, arity, weights)}
    if command in ("homology", "cohomology"):
        return [command, "--operator", "{op}", *ring, *q, *degree, "{h}"], docs
    if command == "act":
        docs["even"] = operator(rng, kind, vs, 2, weights)
        return ["act", "--operator", "{op}", "--even", "{even}", *ring, *q, "{h}"], docs
    if command == "include":
        extra = down_closed(rng, n, empty) if kind == "partial" else up_closed(rng, n)
        docs["b"] = hypergraph(vs, family | extra)
        return (["include", "--left", "{h}", "--right", "{b}", "--operator", "{op}", *ring,
                 *q, *degree], docs)
    other = down_closed(rng, n, empty) if kind == "partial" else up_closed(rng, n)
    docs["b"] = hypergraph(vs, other)
    return ["mv", "--left", "{h}", "--right", "{b}", "--operator", "{op}", *ring, *q], docs


# --- one case for each intended difference -------------------------------------

SEG = {"vertices": ["s0", "s1"], "edges": [[], ["s0"], ["s1"], ["s0", "s1"]]}
S3 = ["s0", "s1", "s2"]


def alpha(*weights):
    return {"kind": "partial", "terms": [{"coeff": w, "vertices": [v]}
                                         for w, v in zip(weights, ["s0", "s1"])]}


def seg_filtration(birth):
    return {"vertices": ["s0", "s1"], "class": "simplicial", "edges": [
        {"edge": [], "birth": 0}, {"edge": ["s0"], "birth": 0}, {"edge": ["s1"], "birth": birth}]}


HOMOLOGY = ["homology", "--operator", "{op}"]
PINNED = [
    (["classify", "{h}"], {"h": {"vertices": ["s0", "s1"], "edges": [[], [1.5]]}},
     "PR 5: an edge is a list of labels and indices, nothing else"),
    (["persist", "--filtration", "{f}", "--operator", "{op}", "--ring", "Q", "--n", "0"],
     {"f": seg_filtration(1.5), "op": alpha(1, 1)},
     "PR 5: births are read by the coefficient reader"),
    (HOMOLOGY + ["--ring", "Q", "{h}"],
     {"op": {"kind": "partial", "terms": [{"coeff": 1, "vertices": [True]}]}, "h": SEG},
     "PR 6: operator term vertices are read as edge vertices are"),
    (["duality", "--vertices=a,b", "--coeffs=1", "--q=--", "--max-degree=1"], {},
     "PR 7: an option value of exactly '--' is refused"),
    (["duality", "--vertices", "a,b", "--coeffs", "0.5,1", "--max-degree", "1"], {},
     "PR 13: a coefficient is an integer or 'a/b', nothing else Fraction reads"),
    (["barcode", "--filtration", "{f}", "--operator", "{op}", "--ring", "Q", "--q", "3",
      "--n", "1"],
     {"f": {"vertices": S3, "class": "simplicial", "edges": [
         {"edge": [], "birth": 0}, {"edge": ["s0"], "birth": 0}]},
      "op": {"kind": "partial", "terms": [{"coeff": 1, "vertices": S3}]}},
     "PR 16: persist and barcode name the reduced offset, as homology does"),
    (["include", "--left", "{h}", "--right", "{h}", "--operator", "{op}", "--ring", "Q",
      "--n", "-2"], {"h": SEG, "op": alpha(1, 1)},
     "PR 17: include names the offset of an off-grid degree"),
    (["include", "--left", "{h}", "--right", "{h}", "--operator", "{op}", "--ring", "Q",
      "--n", "3"], {"h": SEG, "op": alpha(1, 1)},
     "PR 17: include above the top prints the zero map"),
    (HOMOLOGY + ["--ring", "Z", "--n", "-1", "{h}"], {"h": SEG, "op": alpha(2**60, 2**60)},
     "PR 27: a torsion factor past 2^53 prints as a string"),
    (HOMOLOGY + ["--ring", "Q", "--p", "5", "{h}"], {"h": SEG, "op": alpha(1, 1)},
     "PR 32: --p with --ring Z or Q is refused"),
    (HOMOLOGY + ["--ring", "Fp", "{h}"], {"h": SEG, "op": alpha(1, 1)},
     "PR 32: --ring Fp without --p is Ring's own error"),
    (["duality", "--vertices", "a,b", "--coeffs", "1,,2", "--max-degree", "1"], {},
     "PR 32: an empty --coeffs slot is a bad weight"),
    (["trace", "--vertices", "s0,zz", "{h}"], {"h": SEG},
     "PR 32: trace reads its vertices as documents do"),
    (["classify", "--bogus", "{h}"], {"h": SEG}, MISPRINTED),
    (["persist", "--filtration", "{f}", "--operator", "{op}", "--ring", "Q", "--n", "0"],
     {"f": seg_filtration("abc"), "op": alpha(1, 1)}, "reference raised"),
]


# --- the tests ------------------------------------------------------------------


@pytest.mark.parametrize("template, docs, verdict", PINNED, ids=[v for *_, v in PINNED])
def test_each_intended_difference_is_seen(template, docs, verdict):
    assert run_case(template, docs) == (verdict, None)


def test_every_intended_difference_has_its_case():
    # the last two cases show the rules for a reference that broke its contract
    assert [f"{pr}: {what}" for pr, what, _ in INTENDED] == [v for *_, v in PINNED[:-2]]


def test_engine_matches_reference_on_drawn_shapes():
    rng = random.Random(32)
    verdicts, problems = Counter(), []
    for _ in range(150):
        verdict, problem = run_case(*draw_command(rng))
        verdicts[verdict] += 1
        if problem:
            problems.append(problem)
    assert not problems, problems[:3]
    assert verdicts[SAME] >= 100, verdicts


def fast_for_reference(argv) -> bool:
    """Whether argv is a command the reference answers at once. It tests a
    modulus for primality by trial division and caps no word carrier, so
    a --p or --max-degree of five digits or more can keep it busy for
    hours; and `selftest` runs suites that grow by design."""
    return argv[0] != "selftest" and not any(re.search(r"\d{5}", item) for item in argv)


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_engine_matches_reference_on_mutated_documents(data):
    template, texts = test_cli_fuzz.draw_case(data)
    assume(fast_for_reference(template))
    verdict, problem = run_case(template, texts)
    assert problem is None, problem
