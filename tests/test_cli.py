import json

import pytest

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
    seg = write(tmp_path, "seg.json", {
        "vertices": ["s0", "s1", "s2"],
        "edges": [["s0"], ["s1"], ["s0", "s1"]],
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
    assert code == 0 and doc["torsion"] == [big]


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


AB_SEGMENT = {"vertices": ["a", "b"], "edges": [[], ["a"], ["b"], ["a", "b"]]}


@pytest.mark.parametrize("term_vertices", [[True], "b", [None], [1.5], [["a"]]],
                         ids=["bool", "bare-string", "null", "float", "nested-list"])
def test_malformed_operator_vertices_are_rejected(tmp_path, capsys, term_vertices):
    h = write(tmp_path, "h.json", AB_SEGMENT)
    op = write(tmp_path, "op.json", {"kind": "partial",
                                     "terms": [{"coeff": 1, "vertices": term_vertices}]})
    code = main(["homology", "--operator", op, "--ring", "Q", h])
    assert_one_error_document(capsys, code)


@pytest.mark.parametrize("coeffs", ["1/0,1", "x,1"])
def test_duality_rejects_bad_weights(capsys, coeffs):
    code = main(["duality", "--vertices", "a,b", "--coeffs", coeffs, "--max-degree", "2"])
    assert_one_error_document(capsys, code)


def test_duality_rejects_oversized_carrier(capsys):
    # the size is estimated before any word is enumerated
    code = main(["duality", "--vertices", "a,b", "--max-degree", "1000000000"])
    assert_one_error_document(capsys, code)
