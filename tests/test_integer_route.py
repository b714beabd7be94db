"""Differential test of integer homology: the rank/Smith-normal-form route
against the kernel-lattice route it replaced, and against sympy.

The lattice route takes a saturated basis of Ker(out), solves every
column of the incoming boundary in it with Fraction row reduction, and
reads the group off a dense Smith normal form of the coordinates. It is
slow but independent of the sparse SNF, so it serves as the oracle here.
The sympy route reads H_n as free of rank dim - rank(out) - rank(in),
the ranks from `field_oracle.q_rank`, plus the nonunit invariant factors
of the incoming boundary from sympy. It shares no code with the engine's
Smith normal form either, and it is faster on the arity-3 patterns, so
it checks all of them and the lattice route a fixed subset.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from hyperhom.homology import (
    ComplexSpec,
    build_complex,
    edge_carrier,
    homology_table,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set
from hyperhom.linalg import SubquotientPresentation
from hyperhom.rings import QQ, ZZ
from hyperhom.words import VertexSet, WedgeOperator

from field_oracle import column, field_rref, integer_kernel, q_rank

try:
    from sympy import ZZ as SYMPY_ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import hermite_normal_form, invariant_factors
except ImportError:  # the lattice route then checks every pattern
    DomainMatrix = None


def lattice_snf(a: list, nrows: int, ncols: int) -> list:
    """Dense Smith normal form diagonal by repeated least-entry division.
    Of the least entries the pivot is one in a shortest row, which keeps
    fill-in and entry growth down: with the first least entry instead,
    the 28 x 56 degree-1 boundary of one arity-3 pattern took 20 s."""
    n = min(nrows, ncols)
    diag = []
    t = 0
    while t < n:
        best = None
        for i in range(t, nrows):
            length = sum(1 for v in a[i][t:] if v)
            for j in range(t, ncols):
                v = a[i][j]
                if v and (best is None or (abs(v), length) < best[0]):
                    best = ((abs(v), length), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            pv = a[t][t]
            done = True
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // pv
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // pv
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        done = False
                        break
            if done:
                break
        pv = a[t][t]
        # enforce divisibility of the remaining block by the pivot
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % pv != 0:
                    for jj in range(t, ncols):
                        a[t][jj] += a[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(pv))
        t += 1
    return diag + [0] * (n - len(diag))


def solve_in_lattice(basis: list, targets: list, dim: int) -> list:
    """Integer coordinates of each target in the lattice spanned by basis."""
    k = len(basis)
    dense = [[Fraction(0)] * (k + len(targets)) for _ in range(dim)]
    for j, vec in enumerate(basis + targets):
        for i, v in enumerate(vec):
            dense[i][j] = Fraction(v)
    pivots = field_rref(dense, k, QQ)
    assert len(pivots) == k, "kernel basis is not independent"
    sols = []
    for j in range(len(targets)):
        assert all(dense[r][k + j] == 0 for r in range(k, dim)), "target outside the lattice"
        x = [Fraction(0)] * k
        for r, c in enumerate(pivots):
            x[c] = dense[r][k + j]
        assert all(v.denominator == 1 for v in x), "kernel lattice is not saturated"
        sols.append([int(v) for v in x])
    return sols


def lattice_presentation(out, inn) -> SubquotientPresentation:
    kernel = integer_kernel(out)
    if not kernel:
        return SubquotientPresentation(0)
    targets = [column(inn, j) for j in range(inn.cols)]
    coords = solve_in_lattice(kernel, targets, out.cols)
    rel = [[coords[j][i] for j in range(len(coords))] for i in range(len(kernel))]
    factors = [d for d in lattice_snf(rel, len(kernel), len(coords)) if d]
    return SubquotientPresentation(
        len(kernel) - len(factors), tuple(d for d in factors if d >= 2)
    )


def lattice_table(spec: ComplexSpec) -> list:
    built = build_complex(spec)
    return [
        lattice_presentation(built.matrix(n), built.incoming_matrix(n))
        for n in spec.degrees()
    ]


def without_unit_pivots(m) -> tuple:
    """(count, rest): the +-1 entries of an integer matrix taken as pivots
    one at a time, in row order, each clearing its column from the other
    rows before its row and column go; rest is what is left, as dense
    rows over its nonzero columns."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    rows = [row for row in rows if row]
    count = 0
    while pick := next(((k, j) for k, row in enumerate(rows)
                        for j, v in row.items() if v in (1, -1)), None):
        k, j = pick
        prow = rows.pop(k)
        pv = prow.pop(j)
        count += 1
        for row in rows:
            f = row.pop(j, 0) * pv
            for c, w in prow.items() if f else ():
                v = row.get(c, 0) - f * w
                if v:
                    row[c] = v
                else:
                    del row[c]
        rows = [row for row in rows if row]
    cols = sorted({j for row in rows for j in row})
    return count, [[row.get(j, 0) for j in cols] for row in rows]


def sympy_factors(m) -> list:
    """Nonzero invariant factors of an integer matrix: its unit pivots
    taken here, those of the rest from sympy, as the invariant factors of
    the column Hermite form of its transpose (on the arity-3 patterns the
    Hermite form of the rest itself, or its Smith form, took seconds)."""
    units, rest = without_unit_pivots(m)
    if not rest:
        return [1] * units
    a = DomainMatrix([[SYMPY_ZZ(v) for v in row] for row in rest],
                     (len(rest), len(rest[0])), SYMPY_ZZ)
    h = hermite_normal_form(a.transpose())
    return [1] * units + [abs(int(d)) for d in invariant_factors(h) if d]


def sympy_table(spec: ComplexSpec) -> list:
    built = build_complex(spec)
    table = []
    for n in spec.degrees():
        out, inn = built.matrix(n), built.incoming_matrix(n)
        factors = sympy_factors(inn)
        assert len(factors) == q_rank(inn)
        table.append(SubquotientPresentation(
            out.cols - q_rank(out) - len(factors), tuple(sorted(d for d in factors if d > 1))))
    return table


def random_operator(rng, kind: str, nverts: int, arity: int) -> WedgeOperator:
    weights = [-3, -2, -1, 1, 1, 2, 2, 3, 4, 6]
    gens = list(combinations(range(nverts), arity))
    terms = [(rng.choice(weights), g) for g in gens if rng.random() < 0.8]
    return WedgeOperator.build(kind, arity, terms or [(2, gens[0])])


def random_family(rng, nverts: int, op: ClosureOp, with_empty: bool) -> Hypergraph:
    vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
    seeds = frozenset(m for m in power_set(vs) if m and rng.random() < 0.35)
    h = closure(Hypergraph(vs, seeds or frozenset({0b1})), op)
    masks = h.masks - {0}
    if with_empty:
        # an upward-closed family holding the empty edge is the power set
        masks = {0} | (masks if op == ClosureOp.DELTA_UP else power_set(vs))
    return Hypergraph(vs, frozenset(masks))


def test_rank_snf_route_matches_lattice_route():
    rng = random.Random(2024)
    cases = torsion = 0
    seen = set()
    for trial in range(300):
        lowering = trial % 2 == 0
        arity = 3 if trial % 4 >= 2 else 1
        with_empty = trial % 8 < 4
        nverts = rng.randint(arity + 1, 6 if arity == 3 else 5)
        h = random_family(rng, nverts, ClosureOp.DELTA_UP if lowering
                          else ClosureOp.BAR_DELTA_UP, with_empty)
        if not (lowering or h.edges):
            continue
        carrier = edge_carrier(h)
        op = random_operator(rng, "partial" if lowering else "d", nverts, arity)
        for q in range(arity):
            spec = ComplexSpec(carrier, op, q, ZZ)
            got = [g.presentation for g in homology_table(spec)]
            assert got == lattice_table(spec), (h.sorted_edges(), op, q)
            cases += len(got)
            torsion += sum(1 for p in got if p.torsion_factors)
            seen.add((lowering, arity, q, h.has_empty_edge))
    assert cases > 1200 and torsion > 100, (cases, torsion)
    # both operator families, arity 1 and 3, every offset, empty edge in and out
    assert seen == {
        (low, a, q, e) for low in (True, False) for a in (1, 3) for q in range(a)
        for e in (True, False)
    }


# (mult, shift, mod) of the patterns below whose group at degree one has
# torsion, and one without
LATTICE_PATTERNS = {(1, 0, 5), (1, 3, 5), (1, 4, 5), (2, 0, 5), (2, 2, 5), (3, 2, 5),
                    (3, 4, 5), (4, 0, 5), (4, 1, 5), (4, 4, 5), (1, 0, 7)}


def test_arity_three_coefficient_patterns():
    """Every pattern against the sympy route, and the patterns of
    `LATTICE_PATTERNS` against the lattice route (every pattern without
    sympy)."""
    vs = VertexSet.of(*[f"v{i}" for i in range(8)])
    edges = [c for r in range(6) for c in combinations(range(8), r)]
    carrier = edge_carrier(Hypergraph.of(vs, edges))
    gens = list(combinations(range(8), 3))
    with_torsion = 0
    for mult in range(1, 5):
        for shift in range(5):
            for mod in (5, 7):
                op = WedgeOperator.build(
                    "partial", 3, [(((mult * i + shift) % mod) + 1, g) for i, g in enumerate(gens)]
                )
                spec = ComplexSpec(carrier, op, 1, ZZ)
                got = [g.presentation for g in homology_table(spec)]
                if DomainMatrix is not None:
                    assert got == sympy_table(spec), (mult, shift, mod)
                if DomainMatrix is None or (mult, shift, mod) in LATTICE_PATTERNS:
                    assert got == lattice_table(spec), (mult, shift, mod)
                with_torsion += any(p.torsion_factors for p in got)
    # [3,3,3,3], [9,9] or [2,2] at degree one
    assert with_torsion == 10


def test_weighted_nine_vertex_four_skeleton_is_fast():
    # the lattice route ran for more than nine minutes on this complex
    vs = VertexSet.of(*[f"v{i}" for i in range(9)])
    edges = [c for r in range(6) for c in combinations(range(9), r)]
    op = WedgeOperator.weighted_sum("partial", range(1, 10))
    start = time.perf_counter()
    table = homology_table(ComplexSpec(edge_carrier(Hypergraph.of(vs, edges)), op, 0, ZZ))
    elapsed = time.perf_counter() - start
    assert {g.degree: g.presentation for g in table} == {
        n: SubquotientPresentation(56 if n == 4 else 0) for n in range(-1, 5)
    }
    assert elapsed < 10.0, elapsed
