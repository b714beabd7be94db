"""Byte pins on what `persist` and `barcode` print for persistence edge
cases.

Each case in persistence_pins.json holds a filtration document, an
operator document and, for each run, the flags, the exit code, stdout
and stderr the CLI printed when births were still compared as Fractions
at every stage. The cases cover an empty edge list, a filtration of the
empty edge alone, negative and non-integral births, one value spelled
several ways ("2/4", "1/2", 1, "01"), a degree on the grid but above the
top, the independence class, and the error documents: non-monotone
families, an edge listed twice, and inputs with several faults, where
the first one in document order is reported (a row's edge before its
birth).
"""

import json
from pathlib import Path

import pytest

from hyperhom.cli import main

CASES = json.loads((Path(__file__).parent / "persistence_pins.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_persistence_output_is_byte_identical(case, tmp_path, capsys):
    docs = {}
    for key in ("filtration", "operator"):
        docs[key] = tmp_path / f"{key}.json"
        docs[key].write_text(json.dumps(case[key]))
    for run in case["runs"]:
        argv = [run["command"], "--filtration", str(docs["filtration"]),
                "--operator", str(docs["operator"]), *run["flags"]]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (run["code"], run["stdout"], run["stderr"]), argv


def test_pins_cover_the_edge_cases():
    names = {case["name"] for case in CASES}
    assert {"empty-edge-list", "only-the-empty-edge", "negative-and-non-integral",
            "one-value-spelled-several-ways", "on-the-grid-above-the-top",
            "non-monotone", "listed-twice"} <= names
    errors = {json.loads(run["stdout"]).get("error") for case in CASES for run in case["runs"]}
    assert errors == {None, "MonotonicityViolation", "SchemaViolation"}
    # both commands on every case
    for case in CASES:
        assert {run["command"] for run in case["runs"]} == {"persist", "barcode"}
