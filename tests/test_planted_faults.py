"""Planted faults: each test patches one engine function with one named
fault and asserts that the named check reports it. A check that no
planted fault trips gives no assurance.

* `classify` accepting one missing codimension-1 face, or one missing
  coface: `test_fast_paths.test_classify_matches_two_comprehension_check`.
* The edge ingest accepting a repeated vertex:
  `test_fast_paths.test_ingest_matches_old_route`.
* `barcode` dropping one bar: the `persistence` selftest suite.
"""

import pytest

from hyperhom import hypergraphs, persistence, selftest
from hyperhom.hypergraphs import Hypergraph

import test_fast_paths
from test_fast_paths import CLASSES


def class_with_slack(faces_allowed, cofaces_allowed):
    """`Hypergraph._class` that lets the given number of missing faces
    and cofaces pass unseen."""

    def _class(self):
        faces = cofaces = 0
        for v in range(len(self.vertices)):
            b = 1 << v
            missing = {m ^ b for m in self._masks} - self._masks - {0}
            faces += sum(1 for m in missing if not m & b)
            cofaces += sum(1 for m in missing if m & b)
        return CLASSES[faces <= faces_allowed, cofaces <= cofaces_allowed]

    return property(_class)


@pytest.mark.parametrize("faces, cofaces", [(1, 0), (0, 1)])
def test_classify_accepting_one_missing_neighbour_is_caught(monkeypatch, faces, cofaces):
    monkeypatch.setattr(Hypergraph, "_class", class_with_slack(0, 0))
    test_fast_paths.test_classify_matches_two_comprehension_check()  # the rewrite holds
    monkeypatch.setattr(Hypergraph, "_class", class_with_slack(faces, cofaces))
    with pytest.raises(AssertionError):
        test_fast_paths.test_classify_matches_two_comprehension_check()


def test_ingest_accepting_a_repeated_vertex_is_caught(monkeypatch):
    indexer = hypergraphs._indexer

    def forgiving_indexer(vertices):
        indices = indexer(vertices)
        return lambda raw: list(dict.fromkeys(indices(raw)))

    monkeypatch.setattr(hypergraphs, "_indexer", forgiving_indexer)
    with pytest.raises(AssertionError):
        test_fast_paths.test_ingest_matches_old_route()


def test_barcode_dropping_one_bar_is_caught(monkeypatch):
    barcode = persistence.barcode

    def drop_one_bar(*args):
        bc = barcode(*args)
        if not bc.bars:
            return bc
        (birth, death, mult), *rest = bc.bars
        kept = [(birth, death, mult - 1)] if mult > 1 else []
        return persistence.Barcode(bc.degree, tuple(kept + rest))

    assert selftest.run_suite("persistence").failures == 0
    monkeypatch.setattr(persistence, "barcode", drop_one_bar)
    result = selftest.run_suite("persistence")
    assert result.failures > 0 and result.detail == "bars count the inclusion rank"
