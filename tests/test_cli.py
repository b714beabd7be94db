import argparse
import json
import sys
import time
from fractions import Fraction

import pytest

from hyperhom import cli
from hyperhom.cli import main
from hyperhom.jsonio import (
    filtration_from_json,
    filtration_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    operator_from_json,
    operator_to_json,
)
from hyperhom.words import VertexSet

H_DOC = {
    "vertices": ["s0", "s1", "s2"],
    "edges": [[], ["s0"], ["s0", "s1"], ["s0", "s2"], ["s1", "s2"], ["s0", "s1", "s2"]],
}
CIRCLE_DOC = {
    "vertices": ["s0", "s1", "s2"],
    "edges": [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s1", "s2"], ["s0", "s2"]],
}
ALPHA_DOC = {
    "kind": "partial",
    "terms": [
        {"coeff": 1, "vertices": ["s0"]},
        {"coeff": 1, "vertices": ["s1"]},
        {"coeff": 1, "vertices": ["s2"]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_closure_command(tmp_path, capsys):
    f = write(tmp_path, "h.json", H_DOC)
    code, doc = run(capsys, "closure", "--op", "Delta", f)
    assert code == 0
    assert doc["edges"] == [
        [],
        ["s0"], ["s1"], ["s2"],
        ["s0", "s1"], ["s0", "s2"], ["s1", "s2"],
        ["s0", "s1", "s2"],
    ]


def test_trace_command(tmp_path, capsys):
    f = write(tmp_path, "h.json", H_DOC)
    code, doc = run(capsys, "trace", "--vertices", "s0,s1", f)
    assert code == 0
    assert doc == {
        "vertices": ["s0", "s1"],
        "edges": [[], ["s0"], ["s1"], ["s0", "s1"]],
    }


def test_classify_command(tmp_path, capsys):
    f = write(tmp_path, "h.json", H_DOC)
    code, doc = run(capsys, "classify", f)
    assert code == 0 and doc == {"class": "neither"}


def test_invariant_commands(tmp_path, capsys):
    hp = {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0"], ["s1"], ["s2"], ["s0", "s1"], ["s0", "s2"],
                  ["s0", "s1", "s2"]],
    }
    f = write(tmp_path, "hp.json", hp)
    code, doc = run(capsys, "invariant-vertices", "--mode", "partial", f)
    assert code == 0 and doc["vertices"] == ["s1", "s2"]
    code, doc = run(capsys, "invariant-trace", "--mode", "partial", f)
    assert code == 0
    assert doc["trace"]["edges"] == [["s1"], ["s2"], ["s1", "s2"]]
    code, doc = run(capsys, "invariant-vertices", "--mode", "d", f)
    assert code == 0 and doc["vertices"] == ["s0"]


def test_homology_command_reports_verified_groups(tmp_path, capsys):
    k = write(tmp_path, "k.json", CIRCLE_DOC)
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "homology", "--operator", op, "--q", "0",
                    "--ring", "Z", k)
    assert code == 0
    rows = {row["n"]: row for row in doc["groups"]}
    assert rows[1] == {"n": 1, "free_rank": 1, "torsion": []}
    assert rows[0] == {"n": 0, "free_rank": 0, "torsion": []}
    assert rows[-1] == {"n": -1, "free_rank": 0, "torsion": []}


def test_cohomology_command_torsion(tmp_path, capsys):
    ell = write(tmp_path, "l.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0", "s1"], ["s0", "s1", "s2"]],
    })
    op = write(tmp_path, "w.json", {
        "kind": "d",
        "terms": [
            {"coeff": 1, "vertices": ["s0"]},
            {"coeff": 1, "vertices": ["s1"]},
            {"coeff": 2, "vertices": ["s2"]},
        ],
    })
    code, doc = run(capsys, "cohomology", "--operator", op, "--q", "0",
                    "--ring", "Z", "--n", "2", ell)
    assert code == 0 and doc == {"n": 2, "free_rank": 0, "torsion": [2]}


def test_include_and_act(tmp_path, capsys):
    # a segment and a point: two components, joined up by the circle
    seg = write(tmp_path, "seg.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [[], ["s0"], ["s1"], ["s2"], ["s0", "s1"]],
    })
    circ = write(tmp_path, "circ.json", CIRCLE_DOC)
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "include", "--left", seg, "--right", circ,
                    "--operator", op, "--ring", "Q", "--n", "0")
    assert code == 0
    assert doc["source_rank"] == 1 and doc["target_rank"] == 0

    even = write(tmp_path, "even.json", {
        "kind": "partial",
        "terms": [{"coeff": 1, "vertices": ["s0", "s1"]}],
    })
    code, doc = run(capsys, "act", "--operator", op, "--even", even,
                    "--ring", "Q", circ)
    assert code == 0
    by_src = {m["source_n"]: m for m in doc["maps"]}
    assert by_src[1]["target_n"] == -1


@pytest.mark.parametrize("right", [[[], ["s0"], ["s1"]], [[], ["s0"]]])
def test_include_rejects_differing_empty_edge_membership(tmp_path, capsys, right):
    """A degree-lowering inclusion with the empty edge on one side only is
    not a chain map; it is bad input whatever the right side's H_0."""
    vs = ["s0", "s1"]
    left = write(tmp_path, "left.json", {"vertices": vs, "edges": [["s0"]]})
    right = write(tmp_path, "right.json", {"vertices": vs, "edges": right})
    op = write(tmp_path, "op.json", {"kind": "partial", "terms": [
        {"coeff": 1, "vertices": ["s0"]}, {"coeff": 1, "vertices": ["s1"]}]})
    for ring in (["--ring", "Q"], ["--ring", "Fp", "--p", "5"]):
        code, doc = run(capsys, "include", "--left", left, "--right", right,
                        "--operator", op, *ring)
        assert code == 2 and doc == {
            "error": "ClassMismatch",
            "detail": "empty edge membership differs between the two sides"}


def test_mv_command(tmp_path, capsys):
    a = write(tmp_path, "a.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0"], ["s1"], ["s0", "s1"]],
    })
    b = write(tmp_path, "b.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s1"], ["s2"], ["s1", "s2"]],
    })
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "mv", "--left", a, "--right", b,
                    "--operator", op, "--ring", "Q")
    assert code == 0 and doc["exact"] is True


def test_duality_command(capsys):
    code, doc = run(capsys, "duality", "--vertices", "a,b", "--coeffs", "1,1/2",
                    "--q", "0", "--max-degree", "4")
    assert code == 0 and doc["all_equal"] is True


def test_persist_and_barcode(tmp_path, capsys):
    filt = write(tmp_path, "f.json", {
        "vertices": ["s0", "s1", "s2"],
        "class": "simplicial",
        "edges": [
            {"edge": ["s0"], "birth": 0},
            {"edge": ["s1"], "birth": "0"},
            {"edge": ["s0", "s1"], "birth": 1},
        ],
    })
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "persist", "--filtration", filt, "--operator", op,
                    "--ring", "Q", "--n", "0")
    assert code == 0
    ranks = {(r["from"], r["to"]): r["rank"] for r in doc["ranks"]}
    assert ranks == {("0", "0"): 2, ("0", "1"): 1, ("1", "1"): 1}
    code, doc = run(capsys, "barcode", "--filtration", filt, "--operator", op,
                    "--ring", "Q", "--n", "0")
    assert code == 0
    assert doc["bars"] == [
        {"birth": "0", "death": "1", "mult": 1},
        {"birth": "0", "death": "inf", "mult": 1},
    ]


@pytest.mark.parametrize("command", ["homology", "barcode", "persist", "include"])
def test_off_grid_degrees_are_rejected(tmp_path, capsys, command):
    """An arity-3 boundary at offset 0 has degrees -1, 2, 5, ..., and so
    has one at offset 5: asking for degree 1 is an input error with the
    same text on every command, naming the offset reduced modulo the
    arity."""
    op = write(tmp_path, "op.json", {
        "kind": "partial", "terms": [{"coeff": 1, "vertices": ["s0", "s1", "s2"]}]})
    triangle = CIRCLE_DOC["edges"] + [["s0", "s1", "s2"]]
    h = write(tmp_path, "h.json", {"vertices": ["s0", "s1", "s2"], "edges": triangle})
    filt = write(tmp_path, "f.json", {
        "vertices": ["s0", "s1", "s2"], "class": "simplicial",
        "edges": [{"edge": e, "birth": max(len(e), 1)} for e in triangle]})
    for q, offset in (("0", 0), ("5", 2)):
        if command == "homology":
            argv = ["homology", "--operator", op, "--ring", "Q", "--q", q, "--n", "1", h]
        elif command == "include":
            argv = ["include", "--left", h, "--right", h, "--operator", op, "--ring", "Q",
                    "--q", q, "--n", "1"]
        else:
            argv = [command, "--filtration", filt, "--operator", op, "--ring", "Q",
                    "--q", q, "--n", "1"]
        assert assert_one_error_document(capsys, main(argv)) == {
            "error": "SchemaViolation",
            "detail": f"degree 1 is not on the offset-{offset} grid"}


def test_include_above_the_top_prints_the_zero_map(tmp_path, capsys):
    """An on-grid degree above the top of the complex has zero homology,
    on `include` as on `homology`."""
    circ = write(tmp_path, "circ.json", CIRCLE_DOC)
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "homology", "--operator", op, "--ring", "Q", "--n", "4", circ)
    assert code == 0 and doc == {"n": 4, "free_rank": 0, "torsion": []}
    code, doc = run(capsys, "include", "--left", circ, "--right", circ,
                    "--operator", op, "--ring", "Q", "--n", "4")
    assert code == 0 and doc == {"source_n": 4, "target_n": 4, "source_rank": 0,
                                 "target_rank": 0, "matrix": []}


def test_validation_exit_codes(tmp_path, capsys):
    code, doc = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 2 and doc["error"] == "InputError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run(capsys, "classify", str(bad))
    assert code == 2 and doc["error"] == "SchemaViolation"
    f = write(tmp_path, "h.json", H_DOC)
    code, doc = run(capsys, "closure", "--op", "bogus", f)
    assert code == 2 and doc["error"] == "SchemaViolation"
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code, doc = run(capsys, "homology", "--operator", op, "--ring", "Fp",
                    "--p", "2", f)
    assert code == 2 and "invertible" in doc["detail"]
    # decreasing generator order in a term is rejected, not sign-normalized
    badop = write(tmp_path, "badop.json", {
        "kind": "partial",
        "terms": [{"coeff": 1, "vertices": ["s1", "s0"]}],
    })
    code, doc = run(capsys, "homology", "--operator", badop, "--ring", "Z", f)
    assert code == 2 and doc["error"] == "SchemaViolation"
    # feeding a non-complex to homology is a class mismatch
    code, doc = run(capsys, "homology", "--operator", op, "--ring", "Z", f)
    assert code == 2 and doc["error"] == "ClassMismatch"


@pytest.mark.parametrize("ring, detail", [
    (["--ring", "Z", "--p", "5"], "ring Z takes no modulus"),
    (["--ring", "Q", "--p", "5"], "ring Q takes no modulus"),
    (["--ring", "Fp"], "Fp requires a prime modulus, got None"),
], ids=["Z-with-p", "Q-with-p", "Fp-without-p"])
def test_ring_options_are_read_by_ring(tmp_path, capsys, ring, detail):
    circle = write(tmp_path, "circle.json", CIRCLE_DOC)
    op = write(tmp_path, "op.json", ALPHA_DOC)
    code = main(["homology", "--operator", op, *ring, circle])
    assert assert_one_error_document(capsys, code) == {
        "error": "SchemaViolation", "detail": detail}


def test_trace_reads_vertex_labels_as_documents_do(tmp_path, capsys):
    f = write(tmp_path, "h.json", H_DOC)
    code = main(["trace", "--vertices", "s0,zz", f])
    assert assert_one_error_document(capsys, code) == {
        "error": "NotASubset", "detail": "unknown vertex 'zz'"}


# an empty slot is the label "", found or refused like any other
def test_vertices_keep_their_empty_slots(tmp_path, capsys):
    labelled = write(tmp_path, "l.json", {"vertices": ["", "a"], "edges": [[], [""], ["a"]]})
    code, doc = run(capsys, "trace", "--vertices", ",a", labelled)
    assert (code, doc) == (0, {"vertices": ["", "a"], "edges": [[], [""], ["a"]]})
    code, doc = run(capsys, "trace", "--vertices", "", labelled)
    assert (code, doc) == (0, {"vertices": [], "edges": [[]]})
    code = main(["trace", "--vertices", "s0,", write(tmp_path, "h.json", H_DOC)])
    assert assert_one_error_document(capsys, code) == {
        "error": "NotASubset", "detail": "unknown vertex ''"}
    # three vertices, so two weights are too few
    code = main(["duality", "--vertices", "a,,b", "--coeffs", "1,2", "--max-degree", "2"])
    assert assert_one_error_document(capsys, code) == {
        "error": "SchemaViolation", "detail": "one weight per vertex required"}
    assert main(["duality", "--vertices", "a,,b", "--coeffs", "1,2,3", "--max-degree", "2"]) == 0
    capsys.readouterr()


def test_unknown_flag_rejected(tmp_path, capsys):
    f = write(tmp_path, "h.json", H_DOC)
    code = main(["classify", "--bogus", f])
    capsys.readouterr()
    assert code == 2


def test_roundtrip_and_determinism(tmp_path, capsys):
    h = hypergraph_from_json(H_DOC)
    assert hypergraph_from_json(hypergraph_to_json(h)) == h
    vs = VertexSet.of("s0", "s1", "s2")
    op = operator_from_json(ALPHA_DOC, vs)
    assert operator_from_json(operator_to_json(op, vs), vs) == op
    filt_doc = {
        "vertices": ["s0", "s1"],
        "class": "simplicial",
        "edges": [
            {"edge": ["s0"], "birth": "1/2"},
            {"edge": ["s1"], "birth": "1/2"},
        ],
    }
    f = filtration_from_json(filt_doc)
    assert filtration_from_json(filtration_to_json(f)) == f

    path = write(tmp_path, "h.json", H_DOC)
    code1 = main(["closure", "--op", "Gamma", path])
    out1 = capsys.readouterr().out
    code2 = main(["closure", "--op", "Gamma", path])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


def test_big_integer_and_rational_serialization(tmp_path, capsys):
    from hyperhom.jsonio import coefficient_from_json, coefficient_to_json

    big = 2**60 + 3
    assert coefficient_to_json(big) == str(big)
    assert coefficient_from_json(str(big)) == big
    assert coefficient_to_json(2**50) == 2**50
    assert coefficient_from_json("1/3") * 3 == 1

    ell = write(tmp_path, "l.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0", "s1"], ["s0", "s1", "s2"]],
    })
    op = write(tmp_path, "w.json", {
        "kind": "d",
        "terms": [
            {"coeff": 1, "vertices": ["s0"]},
            {"coeff": 1, "vertices": ["s1"]},
            {"coeff": str(big), "vertices": ["s2"]},
        ],
    })
    code, doc = run(capsys, "cohomology", "--operator", op, "--ring", "Z",
                    "--n", "2", ell)
    # a torsion factor past 2**53 prints as a string, as coefficients do
    assert code == 0 and doc["torsion"] == [str(big)]


def test_off_grid_degree_is_rejected(tmp_path, capsys):
    ell = write(tmp_path, "l.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0", "s1"], ["s0", "s1", "s2"]],
    })
    op = write(tmp_path, "w3.json", {
        "kind": "d",
        "terms": [{"coeff": 1, "vertices": ["s0", "s1", "s2"]}],
    })
    code, doc = run(capsys, "cohomology", "--operator", op, "--ring", "Z",
                    "--q", "0", "--n", "2", ell)
    assert code == 2 and doc["error"] == "SchemaViolation"


def test_selftest_single_suite(capsys):
    code = main(["selftest", "--suite", "linalg-properties"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 0 and doc["ok"] is True
    assert doc["suites"][0]["failures"] == 0
    assert doc["suites"][0]["cases"] >= 1000


def test_a_suite_that_raises_is_a_failed_suite(monkeypatch, capsys):
    """A suite that raises reports one failed case naming the exception,
    the suites after it still run, and `selftest` exits 1 with its one
    document, whatever the exception's type."""
    from hyperhom import selftest
    from hyperhom.errors import SchemaViolation

    def index_error(rng):
        return [][1]

    def schema_violation(rng):
        raise SchemaViolation("dimension mismatch in matrix product")

    monkeypatch.setattr(selftest, "SUITES", {
        "index": index_error, "schema": schema_violation,
        "linalg-properties": selftest.SUITES["linalg-properties"]})
    code = main(["selftest"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 1 and len(lines) == 1
    assert "Traceback" not in captured.out + captured.err
    doc = json.loads(lines[0])
    assert doc["ok"] is False
    assert doc["suites"] == [
        {"name": "index", "cases": 1, "failures": 1,
         "detail": "IndexError: list index out of range"},
        {"name": "schema", "cases": 1, "failures": 1,
         "detail": "SchemaViolation: dimension mismatch in matrix product"},
        {"name": "linalg-properties", "cases": 2100, "failures": 0},
    ]


def test_selftest_rejects_unknown_suite(capsys):
    code = main(["selftest", "--suite", "nope"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2 and doc["error"] == "SchemaViolation"


SEG_OP_DOC = {"kind": "partial",
              "terms": [{"coeff": 1, "vertices": ["s0"]}, {"coeff": 1, "vertices": ["s1"]}]}


def seg_filtration(edge, birth):
    return {"vertices": ["s0", "s1"], "class": "simplicial",
            "edges": [{"edge": [], "birth": 0}, {"edge": ["s0"], "birth": 0},
                      {"edge": edge, "birth": birth}]}


@pytest.mark.parametrize("command, doc", [
    ("persist", seg_filtration(["s1"], "abc")),
    ("persist", seg_filtration(["s1"], "1/0")),
    ("persist", seg_filtration([None], 0)),
    ("persist", seg_filtration([7], 0)),
    ("classify", {"vertices": ["s0", "s1"], "edges": [[], [1.5]]}),
], ids=["birth-abc", "birth-1/0", "null-in-edge", "vertex-index-7", "float-vertex"])
def test_malformed_edges_and_births_are_rejected(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    if command == "persist":
        op = write(tmp_path, "op.json", SEG_OP_DOC)
        argv = ["persist", "--filtration", path, "--operator", op,
                "--ring", "Q", "--n", "0"]
    else:
        argv = ["classify", path]
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 2
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
    assert "Traceback" not in captured.out + captured.err


def assert_one_error_document(capsys, code):
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 2
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
    assert "Traceback" not in captured.out + captured.err
    return json.loads(lines[0])


AB_SEGMENT = {"vertices": ["a", "b"], "edges": [[], ["a"], ["b"], ["a", "b"]]}


@pytest.mark.parametrize("term_vertices", [[True], "b", [None], [1.5], [["a"]]],
                         ids=["bool", "bare-string", "null", "float", "nested-list"])
def test_malformed_operator_vertices_are_rejected(tmp_path, capsys, term_vertices):
    h = write(tmp_path, "h.json", AB_SEGMENT)
    op = write(tmp_path, "op.json", {"kind": "partial",
                                     "terms": [{"coeff": 1, "vertices": term_vertices}]})
    code = main(["homology", "--operator", op, "--ring", "Q", h])
    assert_one_error_document(capsys, code)


# an empty slot is a bad weight, not a dropped one
@pytest.mark.parametrize("coeffs", ["1/0,1", "x,1", "1,,2", "1,2,", ",1,2"])
def test_duality_rejects_bad_weights(capsys, coeffs):
    code = main(["duality", "--vertices", "a,b", "--coeffs", coeffs, "--max-degree", "2"])
    bad = next(c for c in coeffs.split(",") if c not in ("1", "2"))
    assert assert_one_error_document(capsys, code) == {
        "error": "SchemaViolation", "detail": f"bad coefficient {bad!r}"}


def test_duality_empty_coeffs_are_all_ones(capsys):
    argv = ["duality", "--vertices", "a,b,c", "--q", "1", "--max-degree", "3"]
    outputs = []
    for extra in ([], ["--coeffs", ""], ["--coeffs=1,1,1"]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


# an exponent once took Fraction 14 s to expand; 4,301 digits pass the
# grammar but not int()
BAD_COEFFICIENTS = ["1e10000000", "0.5", "1 ", "1_000", "+1", "1/-2", "1/0", "9" * 4301]


@pytest.mark.parametrize("bad", BAD_COEFFICIENTS, ids=lambda v: v[:12])
@pytest.mark.parametrize("entry", ["operator", "birth", "duality"])
def test_coefficients_outside_the_grammar_are_rejected_at_once(tmp_path, capsys, entry, bad):
    if entry == "operator":
        h = write(tmp_path, "h.json", AB_SEGMENT)
        op = write(tmp_path, "op.json", {"kind": "partial",
                                         "terms": [{"coeff": bad, "vertices": ["a"]}]})
        argv = ["homology", "--operator", op, "--ring", "Q", h]
    elif entry == "birth":
        path = write(tmp_path, "f.json", seg_filtration(["s1"], bad))
        op = write(tmp_path, "op.json", SEG_OP_DOC)
        argv = ["persist", "--filtration", path, "--operator", op, "--ring", "Q", "--n", "0"]
    else:
        argv = ["duality", "--vertices", "a,b", "--coeffs", f"{bad},1", "--max-degree", "2"]
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert_one_error_document(capsys, code)


def test_coefficient_grammar_accepts_signed_integers_and_fractions():
    from hyperhom.jsonio import coefficient_from_json

    assert coefficient_from_json("-10/4") == Fraction(-5, 2)
    assert coefficient_from_json("-0") == 0 and type(coefficient_from_json("6/3")) is int
    assert coefficient_from_json("9" * 4300) == int("9" * 4300)


@pytest.mark.parametrize("content, error, detail", [
    (b"\xff\xfe{}", "SchemaViolation", "{path} is not UTF-8: invalid start byte at byte 0"),
    (None, "InputError", "cannot read {path}: Is a directory"),
    (b"[" * 5000 + b"]" * 5000, "SchemaViolation", "{path} nests too deeply to parse"),
    (b'{"vertices": [], "edges": [], "x": ' + b"9" * 5000 + b"}", "SchemaViolation",
     "{path} holds an integer of more than 4300 digits"),
], ids=["not-utf8", "directory", "nested-5000", "integer-5000-digits"])
def test_unreadable_file_exits_two(tmp_path, capsys, content, error, detail):
    path = tmp_path / "h.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out) == {"error": error, "detail": detail.format(path=path)}


def test_integer_digits_read_up_to_the_bound(tmp_path, capsys):
    from hyperhom.jsonio import MAX_DIGITS

    h = write(tmp_path, "h.json", CIRCLE_DOC)
    for digits, code in ((MAX_DIGITS, 0), (MAX_DIGITS + 1, 2)):
        op = tmp_path / "op.json"
        text = json.dumps(ALPHA_DOC).replace('"coeff": 1,', f'"coeff": -{"7" * digits},', 1)
        op.write_text(text)
        assert main(["homology", "--operator", str(op), "--ring", "Q", h]) == code
        capsys.readouterr()


def test_answers_print_integers_past_the_conversion_bound(tmp_path, capsys):
    # weights of 4,300 digits, within what is read, give H_0 a torsion
    # factor of 8,600 digits, past Python's default bound on int-to-str
    labels = ["s0", "s1", "s2", "s3"]
    h = write(tmp_path, "h.json", {"vertices": labels, "edges": [
        [], ["s0"], ["s1"], ["s2"], ["s3"], ["s0", "s3"], ["s1", "s2"], ["s1", "s3"]]})
    weights = ["3" * 4300, "8" * 4299 + "1", "9" * 4300, "3" * 4300]
    op = write(tmp_path, "op.json", {"kind": "partial", "terms": [
        {"coeff": w, "vertices": [v]} for w, v in zip(weights, labels)]})
    limit = sys.get_int_max_str_digits()
    code = main(["homology", "--operator", op, "--ring", "Z", "--n", "0", h])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    # past 2**53 a factor prints as a JSON string, which plain `json.loads` reads
    torsion = json.loads(capsys.readouterr().out)["torsion"]
    assert all(isinstance(t, str) for t in torsion) and max(map(len, torsion)) > limit


@pytest.mark.parametrize("op,edge", [("Delta", 21), ("barDelta", 0)])
def test_closure_rejects_oversized_enumeration(tmp_path, capsys, op, edge):
    # one edge of 21 vertices (Delta) or the empty edge on 21 vertices
    # (barDelta) would enumerate 2**21 subsets
    labels = [f"v{i}" for i in range(21)]
    f = write(tmp_path, "h.json", {"vertices": labels, "edges": [labels[:edge]]})
    code = main(["closure", "--op", op, f])
    assert_one_error_document(capsys, code)


@pytest.mark.parametrize("argv", [
    ["duality", "--vertices=--", "--max-degree", "1"],
    ["duality", "--vertices=a", "--max-degree=--"],
    ["combine", "--op=--", "--left", "a.json", "--right", "b.json"],
    ["selftest", "--suite=--"],
])
def test_double_dash_option_values_are_rejected(capsys, argv):
    # argparse reads a value of exactly '--' as an empty list
    assert_one_error_document(capsys, main(argv))


def test_duality_rejects_oversized_carrier(capsys):
    # the size is estimated before any word is enumerated: two letters by
    # their word count, one letter by its letter count
    for vertices, degree in (("a,b", "1000000000"), ("a", "65534")):
        start = time.perf_counter()
        code = main(["duality", "--vertices", vertices, "--max-degree", degree])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 2
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "detail"}
        assert "Traceback" not in captured.out + captured.err
        assert json.loads(lines[0])["error"] == "CarrierTooLarge"


@pytest.mark.parametrize("argv", [
    ["homology", "--operator", "op.json", "--ring", "Q", "--q", "x", "h.json"],
    ["classify", "--bogus", "h.json"],
    ["homology", "--ring", "Q", "h.json"],
    ["homology", "--operator", "op.json", "--ring", "R", "h.json"],
])
def test_argv_errors_emit_one_error_document(capsys, argv):
    # a bad int, an unknown flag, a missing option and a bad choice
    assert_one_error_document(capsys, main(argv))


def test_help_still_prints_usage_and_exits_zero(capsys):
    assert main(["homology", "--help"]) == 0
    assert "--operator" in capsys.readouterr().out


def test_shared_parser_keeps_no_state_between_calls(capsys):
    details = []
    for suite in ("no-such-suite", "other-suite"):
        assert main(["selftest", "--suite", suite]) == 2
        details.append(json.loads(capsys.readouterr().out)["detail"])
    assert "'no-such-suite'" in details[0] and "other-suite" not in details[0]
    assert "'other-suite'" in details[1] and "no-such-suite" not in details[1]


def test_parser_is_built_at_most_once(tmp_path, capsys, monkeypatch):
    """A well-formed command line builds no parser at all; bad ones build
    the one parser once."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()  # start from no parser, whatever ran before
    h = write(tmp_path, "h.json", {"vertices": ["a"], "edges": [[], ["a"]]})
    for _ in range(20):
        assert main(["classify", h]) == 0
    assert built == []
    for _ in range(20):
        assert main(["classify", "--bogus"]) == 2
    capsys.readouterr()
    assert built.count("hyperhom") == 1
