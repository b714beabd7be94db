"""Differential test of the unit stage of the Smith normal form.

`linalg._eliminate_units` takes +-1 pivots in least Markowitz cost order
from a heap. After a row update it pushes only the entries that the
update turned into units; a stale cost is re-keyed when it is popped.
The oracle here is the route it replaced, which pushed every unit of a
row again after each update of that row. Both must leave blocks with the
same invariant factors, so the Smith diagonals agree; on the arity-3
coefficient patterns the unit counts and the rows left over agree too.
"""

import heapq
import random
from collections import Counter
from itertools import combinations

from hyperhom import linalg
from hyperhom.homology import ComplexSpec, build_complex, edge_carrier
from hyperhom.hypergraphs import Hypergraph
from hyperhom.linalg import SparseMatrix
from hyperhom.rings import ZZ
from hyperhom.words import VertexSet, WedgeOperator


def eliminate_units_oracle(rows: dict) -> int:
    """`linalg._eliminate_units` as it was: every unit of an updated row
    is pushed again."""
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, pi, pj = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or prow.get(pj) not in (1, -1):
            continue
        now = (len(prow) - 1) * (len(cols[pj]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, pi, pj))
            continue
        units += 1
        pv = prow.pop(pj)
        del rows[pi]
        for j in prow:
            cols[j].discard(pi)
        for i in cols.pop(pj) - {pi}:
            row = rows[i]
            f = row.pop(pj) * pv
            for j, w in prow.items():
                nv = row.get(j, 0) - f * w
                if nv:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = nv
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
                continue
            for j, v in row.items():
                if v in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
    return units


def row_dicts(m: SparseMatrix) -> dict:
    rows = {}
    for (i, j), v in m.entries:
        rows.setdefault(i, {})[j] = v
    return rows


def both_stages(m: SparseMatrix) -> tuple:
    """(units, leftover rows) of the engine's unit stage and the oracle's."""
    mine, theirs = row_dicts(m), row_dicts(m)
    return (linalg._eliminate_units(mine), mine), (eliminate_units_oracle(theirs), theirs)


def diagonal(units: int, rows: dict, size: int) -> list:
    diag = [1] * units + linalg._residual_factors(rows)
    return diag + [0] * (size - len(diag))


def test_unit_stage_matches_oracle_on_random_matrices():
    rng = random.Random(83)
    seen = Counter()
    for trial in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice([0.2, 0.45, 0.8])
        values = rng.choice([(1, -1, 2), (1, -1, 1, -1, 3, -2), (1, 2, 3, 4, 6)])
        m = SparseMatrix.from_entries(nrows, ncols, ZZ, [
            ((i, j), rng.choice(values)) for i in range(nrows) for j in range(ncols)
            if rng.random() < density])
        (units, left), (want_units, want_left) = both_stages(m)
        size = min(nrows, ncols)
        assert not any(v in (1, -1) for row in left.values() for v in row.values())
        assert diagonal(units, left, size) == diagonal(want_units, want_left, size)
        assert diagonal(units, left, size) == linalg.smith_normal_form(m)
        seen["units"] += units > 0
        seen["left"] += bool(left)
        seen["torsion"] += any(d > 1 for d in diagonal(units, left, size))
        seen["differ"] += units != want_units
    # the pivot order may differ from the oracle's, and with it how many
    # pivots are units, but never the invariant factors
    assert seen["units"] > 200 and seen["left"] > 100 and seen["torsion"] > 100, seen
    assert seen["differ"] < 30, seen


PATTERNS = {"snf": lambda i: ((3 * i + 3) % 5) + 1, "torsion": lambda i: ((i + 3) % 5) + 1}


def test_unit_stage_matches_oracle_on_arity_three_patterns():
    """Both arity-3 coefficient patterns of the integer route on 8
    vertices, every boundary at every offset."""
    vs = VertexSet.of(*[f"v{i}" for i in range(8)])
    edges = [c for r in range(6) for c in combinations(range(8), r)]
    carrier = edge_carrier(Hypergraph.of(vs, edges))
    gens = list(combinations(range(8), 3))
    shapes = set()
    for coeff in PATTERNS.values():
        op = WedgeOperator.build("partial", 3, [(coeff(i), g) for i, g in enumerate(gens)])
        for q in range(3):
            built = build_complex(ComplexSpec(carrier, op, q, ZZ))
            for m in built.mats.values():
                if m.is_zero():
                    continue
                (units, left), (want_units, want_left) = both_stages(m)
                assert (units, len(left)) == (want_units, len(want_left))
                size = min(m.rows, m.cols)
                assert diagonal(units, left, size) == diagonal(want_units, want_left, size)
                shapes.add((m.rows, m.cols))
    assert shapes == {(28, 56), (8, 70), (1, 56)}, shapes
