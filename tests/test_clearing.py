"""Clearing across degrees against the full-row route.

Over a field, `BuiltComplex.invariants(n)` hands `forward_pivots` the
rows of matrix(n) less those at the leads of matrix(n + shift), when
those are cached, and `persistence._negative_edges` drops, degree by
degree, the rows at the negative edges of the degree before. The oracle
is `forward_pivots` on every row, the route both took before: each
cleared rank, lead set and negative set must equal it. The ranks are
checked for the table walk in the operator's order (where clearing
pays), for the opposite order (where the leads of the wrong neighbour
are the ones cached) and for one degree alone, with the rows each matrix
was handed counted against the rule itself.
"""

import random
from fractions import Fraction

import pytest

from hyperhom import persistence
from hyperhom.homology import BuiltComplex, ComplexSpec, build_complex, edge_carrier, word_carrier
from hyperhom.linalg import forward_pivots
from hyperhom.persistence import Filtration, barcode
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet, WedgeOperator

import persistence_oracle
from test_map_route import random_family
from test_persistence import random_operator, rips_filtration

WEIGHTS = {
    "Q-integral": (QQ, (1, 2, 3, -2)),
    "Q-fractional": (QQ, (1, Fraction(1, 2), Fraction(-2, 3), 3)),
    "F5": (GF(5), (1, 2, 3, 4)),
}
GRIDS = [(1, 0), (3, 0), (3, 1), (3, 2)]  # (arity, q)


def full_leads(m) -> set:
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    return set(forward_pivots(rows, m.ring))


def random_spec(rng, kind, arity, q, weights, carrier):
    """A complex of the operator family on 3-6 vertices: an edge family
    with or without the empty edge, or all words on three letters through
    degree 1-3 (arity 1) or 5 (arity 3, so that some grid has three
    degrees)."""
    ring, pool = WEIGHTS[weights]
    nv = 3 if carrier == "words" else rng.randint(3, 6)
    vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
    if arity == 1:
        op = WedgeOperator.weighted_sum(kind, [rng.choice(pool) for _ in range(nv)])
    else:
        terms = [(rng.choice(pool), tuple(sorted(rng.sample(range(nv), 3))))
                 for _ in range(rng.randint(1, 3))]
        op = WedgeOperator.build(kind, 3, terms)
    if carrier == "words":
        return ComplexSpec(word_carrier(vs, rng.randint(1, 3) if arity == 1 else 5), op, q, ring)
    return ComplexSpec(edge_carrier(random_family(rng, vs, kind, carrier == "empty")), op, q, ring)


def check_leads(built) -> None:
    """Every matrix `built` ranked: its rank and lead set are the full rows'."""
    for n, invariants in built._invariants.items():
        leads = full_leads(built.matrix(n))
        assert set(built._leads[n]) == leads, ("leads", built.spec, n)
        assert invariants == (len(leads), ()), ("rank", built.spec, n)


def check_handed(built, handed) -> int:
    """Each matrix was handed its rows less those at the leads of matrix(n +
    shift) when that was ranked before it; `handed` counts the rows in
    the order `built` ranked them. Returns the rows left out."""
    shift = built.spec.operator.shift
    assert len(handed) == len(built._invariants)
    ranked, cleared = set(), 0
    for n, rows in zip(built._invariants, handed):
        dropped = len(built._leads[n + shift]) if n + shift in ranked else 0
        assert rows == built.matrix(n).rows - dropped, ("rows handed", built.spec, n)
        ranked.add(n)
        cleared += dropped
    return cleared


@pytest.mark.parametrize("kind", ["partial", "d"])
def test_cleared_ranks_match_full_rows(monkeypatch, kind):
    handed = []

    def counting(rows, ring):
        handed.append(len(rows))
        return forward_pivots(rows, ring)

    # where `invariants` looks it up, also when a test plants a fault there
    monkeypatch.setitem(BuiltComplex.invariants.__globals__, "forward_pivots", counting)
    rng = random.Random(f"clearing:{kind}")
    cleared = 0
    for arity, q in GRIDS:
        for weights in WEIGHTS:
            for carrier in ("empty", "no-empty", "words"):
                for _ in range(2):
                    built = build_complex(random_spec(rng, kind, arity, q, weights, carrier))
                    spec, degrees = built.spec, built.spec.degrees()
                    order = degrees if kind == "partial" else degrees[::-1]
                    n = rng.choice(degrees) if degrees else None

                    def walk(visit):
                        """A complex on built's matrices with nothing ranked,
                        what `visit` returns from it, and the rows handed."""
                        handed.clear()
                        fresh = BuiltComplex(spec, built.bases, built.mats)
                        return fresh, visit(fresh), handed[:]

                    walks = [walk(BuiltComplex.table), walk(lambda b: sorted(
                        (b.homology(m) for m in order[::-1]), key=lambda g: g.degree))]
                    (table, groups, _), (_, against, _) = walks
                    assert [g.degree for g in groups] == degrees
                    assert against == groups, "groups against the operator's order"
                    assert list(table._invariants)[:len(order)] == order
                    if n is not None:
                        walks.append(walk(lambda b: b.homology(n)))
                        alone, group, _ = walks[-1]
                        assert group == groups[degrees.index(n)]
                        assert list(alone._invariants) == [n, n - spec.operator.shift]
                    for ranked, _, rows in walks:
                        check_leads(ranked)
                    cleared += sum(check_handed(ranked, rows) for ranked, _, rows in walks)
    assert cleared >= 400


@pytest.mark.parametrize("cls", ["simplicial", "independence"])
def test_barcode_negative_sets_match_full_rows(cls):
    """Rips filtrations whose births are coarsened so that many tie; the
    negative sets at every degree, and the bars at two, against the
    full-row route and `persistence_oracle.barcode`."""
    kind = "partial" if cls == "simplicial" else "d"
    rng = random.Random(f"clearing:{cls}")
    negatives = 0
    for arity, q in GRIDS:
        for ring in (QQ, GF(5)):
            fine = rips_filtration(rng, 9, 4, cls)
            f = Filtration.of(fine.vertices, [(e, b // 400000) for e, b in fine.births], cls)
            assert len(f.grid) < len(fine.grid)
            op = random_operator(rng, kind, 9, arity)
            built = build_complex(ComplexSpec(edge_carrier(f.final_complex), op, q, ring))
            pos = {e: k for k, (e, _) in enumerate(f.births)}
            for n in built.spec.degrees():
                found = persistence._negative_edges(built, pos, n)
                assert found.keys() == persistence_oracle.full_row_negatives(built, pos, n)
                negatives += len(found)
            for n in rng.sample(built.spec.degrees(), min(2, len(built.spec.degrees()))):
                assert barcode(f, op, q, ring, n) == persistence_oracle.barcode(f, op, q, ring, n)
    assert negatives >= 150
