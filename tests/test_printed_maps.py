"""Byte pins on the homology-level maps that `mv`, `include` and `act`
print.

Each case in printed_maps.json holds the input documents, the flags and
the full stdout the CLI printed for them when the maps were still dense
row tuples. The cases run over Q and F_5, with both operator families
and arity-three boundaries, and they print maps of shape 0 x k and
k x 0.
"""

import json
from pathlib import Path

import pytest

from hyperhom.cli import main

CASES = json.loads((Path(__file__).parent / "printed_maps.json").read_text())


def case_id(case):
    ring = "Q" if case["flags"][1] == "Q" else "F" + case["flags"][3]
    return f"{case['command']}-{case['docs']['operator']['kind']}-{ring}"


def argv_of(case, tmp_path):
    argv = [case["command"]]
    for key, doc in case["docs"].items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        argv += [str(path)] if key == "file" else [f"--{key}", str(path)]
    return argv + case["flags"]


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_printed_maps_are_byte_identical(case, tmp_path, capsys):
    assert main(argv_of(case, tmp_path)) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_pins_cover_rings_families_arity_three_and_empty_shapes():
    covered, shapes = set(), set()
    for case in CASES:
        op = case["docs"]["operator"]
        if all(len(term["vertices"]) == 3 for term in op["terms"]):
            covered.add(case_id(case))
        if case["command"] != "mv":
            for m in json.loads(case["stdout"])["maps"]:
                shapes.add((m["target_rank"] > 0, m["source_rank"] > 0))
    assert covered == {f"{command}-{kind}-{ring}" for command in ("mv", "include", "act")
                       for kind in ("partial", "d") for ring in ("Q", "F5")}
    # rows are target classes, columns source classes
    assert {(False, True), (True, False)} <= shapes
