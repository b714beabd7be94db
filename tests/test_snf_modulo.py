"""Differential test of the modulo-D stage of the Smith normal form.

`linalg._factors_mod` finishes the dense block that unit elimination
leaves, modulo D, the absolute value of a nonzero r x r minor from
`_bareiss`. It pivots on an entry of least gcd g with D, clears every
entry that g divides in one exact step, and zeroes the pivot row in place
when g divides it. The oracle here is the route it replaced: pivot on the
first nonzero entry, scale a unit pivot to 1, and clear the column by
Euclidean row steps, then the row by the same steps on the transposed
block. Both must give sympy's invariant factors, where sympy is installed.
"""

import inspect
import random
import sys
from collections import Counter
from itertools import combinations
from math import gcd

from hyperhom import linalg
from hyperhom.homology import ComplexSpec, edge_carrier, homology_table
from hyperhom.hypergraphs import Hypergraph
from hyperhom.rings import ZZ
from hyperhom.words import VertexSet, WedgeOperator

try:
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
except ImportError:  # the oracle comparison still runs
    sympy = None


def oracle_factors_mod(a: list, r: int, d: int) -> list:
    """The r nonzero invariant factors of a, by Euclidean steps modulo d."""
    nrows = len(a)
    a = [[v % d for v in row] for row in a]
    orders = []
    for t in range(min(nrows, len(a[0]))):
        if not oracle_pivot_to(a, t):
            break
        oracle_clear_column(a, t, d)
        while any(a[t][t + 1:]):
            # column operations are row operations on the transpose
            a = [list(col) for col in zip(*a)]
            oracle_clear_column(a, t, d)
        orders.append(gcd(a[t][t], d))
    orders += [d] * (nrows - len(orders))
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    return orders[:r]


def oracle_pivot_to(a: list, t: int) -> bool:
    """Swap the first nonzero entry of the trailing block into (t, t)."""
    for i in range(t, len(a)):
        for j in range(t, len(a[i])):
            if a[i][j]:
                a[t], a[i] = a[i], a[t]
                for row in a:
                    row[t], row[j] = row[j], row[t]
                return True
    return False


def oracle_clear_column(a: list, t: int, d: int) -> None:
    """Zero column t below the pivot by Euclidean row steps modulo d; a
    unit pivot is scaled to 1 first."""
    if gcd(a[t][t], d) == 1:
        inv = pow(a[t][t], -1, d)
        a[t] = [v * inv % d for v in a[t]]
    i = t + 1
    while i < len(a):
        if a[i][t]:
            q = a[i][t] // a[t][t]
            a[i] = [(w - q * v) % d for v, w in zip(a[t], a[i])]
            if a[i][t]:
                a[t], a[i] = a[i], a[t]
                continue
        i += 1


def arity_three_blocks() -> list:
    """The blocks unit elimination leaves of the degree-one boundaries of
    the 8-vertex 4-skeleton at q = 1, with all 56 generator triples: the
    coefficient patterns with torsion [3, 3, 3, 3], none (the one whose
    Smith normal form grows its coefficients), [9, 9] and [2, 2]."""
    vs = VertexSet.of(*[f"v{i}" for i in range(8)])
    carrier = edge_carrier(Hypergraph(vs, frozenset(
        c for r in range(6) for c in combinations(range(8), r))))
    gens = list(combinations(range(8), 3))
    blocks = []
    factors_mod = linalg._factors_mod

    def record(a, r, d):
        blocks.append([list(row) for row in a])
        return factors_mod(a, r, d)

    linalg._factors_mod = record
    try:
        for mult, shift in ((1, 3), (3, 3), (1, 4), (2, 0)):
            op = WedgeOperator.build(
                "partial", 3, [(((mult * i + shift) % 5) + 1, g) for i, g in enumerate(gens)])
            homology_table(ComplexSpec(carrier, op, 1, ZZ))
    finally:
        linalg._factors_mod = factors_mod
    return blocks


def random_blocks(rng):
    """Random dense blocks of the kinds that reach the modulo-D stage."""
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        # repeated nonunit entries
        yield [[rng.choice((0, 2, -2, 2, 4, 6)) for _ in range(cols)] for _ in range(rows)]
        # entries that share factors pairwise
        yield [[rng.choice((0, 6, 10, 15, -6, 30, 12, 9)) for _ in range(cols)]
               for _ in range(rows)]
        # one factor in every entry, so no unit modulo D
        scale = rng.choice((2, 3, 4, 6, 9))
        yield [[scale * rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        # rank-deficient rows: the last is a combination of the first two
        dense = [[rng.choice((0, 1, 2, 3, 5, -4, 7)) for _ in range(cols)]
                 for _ in range(max(rows, 3))]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        dense[-1] = [a * x + b * y for x, y in zip(dense[0], dense[1])]
        yield dense


ARITY_THREE = arity_three_blocks()


def all_blocks() -> list:
    return list(random_blocks(random.Random(41))) + ARITY_THREE


def sympy_factors(block: list) -> list:
    diag = sympy_snf(sympy.Matrix(block), domain=sympy.ZZ)
    return sorted(abs(int(diag[i, i])) for i in range(min(diag.shape)) if diag[i, i])


def test_factors_mod_matches_euclidean_oracle_and_sympy():
    torsion = []
    for block in all_blocks():
        r, det = linalg._bareiss([list(row) for row in block])
        got = linalg._factors_mod([list(row) for row in block], r, abs(det))
        assert got == oracle_factors_mod([list(row) for row in block], r, abs(det)), block
        if sympy is not None:
            assert got == sympy_factors(block), block
        torsion.append(tuple(f for f in got if f > 1))
    assert torsion[-len(ARITY_THREE):] == [(3, 3, 3, 3), (), (9, 9), (2, 2)]


def steps_taken(blocks) -> Counter:
    """The steps of `_factors_mod`, by kind, while it finishes `blocks`:
    read off the lines they run on, with the locals at that point."""
    probes = {
        (linalg._clear_column, "a[i] = [(x - f * y)"): lambda v: (
            "unit clear" if v["g"] == 1 else "exact clear" if v["exact"] else "euclidean step"),
        (linalg._factors_mod, "a[t][t + 1:] = [0]"): lambda v: (
            "unit row zeroed" if v["g"] == 1 else "row zeroed"),
        (linalg._factors_mod, "zip(*a)"): lambda v: "transpose",
        (linalg._factors_mod, "orders.append("): lambda v: (
            "unit pivot" if gcd(v["a"][v["t"]][v["t"]], v["d"]) == 1 else "nonunit pivot"),
    }
    at = {}
    for (func, fragment), probe in probes.items():
        lines, first = inspect.getsourcelines(func)
        hits = [first + k for k, line in enumerate(lines) if fragment in line]
        assert len(hits) == 1, fragment
        at[func.__code__, hits[0]] = probe
    codes = {code for code, _ in at}
    counts = Counter()

    def local(frame, event, arg):
        probe = at.get((frame.f_code, frame.f_lineno))
        if event == "line" and probe:
            counts[probe(frame.f_locals)] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        for block in blocks:
            r, det = linalg._bareiss([list(row) for row in block])
            linalg._factors_mod([list(row) for row in block], r, abs(det))
    finally:
        sys.settrace(previous)
    return counts


def test_every_step_of_the_modulo_stage_is_reached():
    counts = steps_taken(all_blocks())
    floors = {"unit pivot": 100, "nonunit pivot": 100, "unit clear": 100, "exact clear": 100,
              "row zeroed": 50, "euclidean step": 20, "transpose": 20}
    assert all(counts[k] >= n for k, n in floors.items()), counts
