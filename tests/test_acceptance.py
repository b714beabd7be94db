"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print. Every expected value below is pinned exactly; timed criteria use
wall-clock bounds.
"""

import time

from hyperhom import selftest
from hyperhom.homology import (
    ComplexSpec,
    edge_carrier,
    homology_table,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set, trace
from hyperhom.invariance import DIFFERENTIAL, PARTIAL, invariant_trace, invariant_vertices
from hyperhom.rings import ZZ
from hyperhom.words import VertexSet, WedgeOperator

S3 = VertexSet.of("s0", "s1", "s2")
K_SEGMENT = Hypergraph.of(S3, [[0], [1], [0, 1]])
K_CIRCLE = Hypergraph.of(S3, [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]])
L_PAIR = Hypergraph.of(S3, [[0, 1], [0, 1, 2]])
L_TRIPLE = Hypergraph.of(S3, [[0, 1], [0, 2], [0, 1, 2]])


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    return ok


def groups_of(h, kind, weights, ring):
    op = WedgeOperator.weighted_sum(kind, weights)
    table = homology_table(ComplexSpec(edge_carrier(h), op, 0, ring))
    return {
        g.degree: (g.presentation.free_rank, list(g.presentation.torsion_factors))
        for g in table
    }


def test_criterion_1_segment_homology():
    t0 = time.monotonic()
    got = groups_of(K_SEGMENT, "partial", [1, 1, 1], ZZ)
    elapsed = time.monotonic() - t0
    ok = got.get(0) == (1, []) and all(
        v == (0, []) for n, v in got.items() if n != 0
    )
    ok = ok and elapsed < 1.0
    assert report(
        1, ok, f"segment complex: H_0 = Z, others zero, in {elapsed:.3f}s"
    ), got


def test_criterion_2_circle_homology_with_torsion():
    # Derivation from the deletion rule (alpha = sum w_s d_s, d_s deletes
    # letter i when it equals s, sign (-1)^i), with g = gcd(w0, w1, w2):
    #   d_0 = (w0, w1, w2), since alpha(s_v) = w_v * empty word;
    #   d_1 columns alpha(s_a s_b) = w_a s_b - w_b s_a: rank 2, entry gcd g,
    #   2x2 minor gcd (w_i w_j, w_i^2) = g^2, so invariant factors (g, g);
    #   hence H_1 = Z, H_0 = (Z/g)^2, H_-1 = Z/g (torsion only when g > 1).
    t0 = time.monotonic()
    got_111 = groups_of(K_CIRCLE, "partial", [1, 1, 1], ZZ)
    got_123 = groups_of(K_CIRCLE, "partial", [1, 2, 3], ZZ)
    got_246 = groups_of(K_CIRCLE, "partial", [2, 4, 6], ZZ)
    elapsed = time.monotonic() - t0
    checks = {
        "H_1 = Z (weights 1,1,1)": got_111.get(1) == (1, []),
        "H_0 = 0 (weights 1,1,1)": got_111.get(0) == (0, []),
        "H_-1 = 0 (weights 1,1,1)": got_111.get(-1) == (0, []),
        "H_-1 = 0 (weights 1,2,3)": got_123.get(-1) == (0, []),
        "H_1 = Z (weights 2,4,6)": got_246.get(1) == (1, []),
        "H_0 torsion [2, 2] (weights 2,4,6)": got_246.get(0) == (0, [2, 2]),
        "H_-1 torsion [2] (weights 2,4,6)": got_246.get(-1) == (0, [2]),
    }
    failed = [k for k, v in checks.items() if not v]
    ok = not failed and elapsed < 1.0
    assert report(
        2,
        ok,
        "circle complex groups"
        + (f"; failed: {failed}; computed {got_111}, {got_123} and {got_246}"
           if failed else f" in {elapsed:.3f}s"),
    )


def test_criterion_3_cohomology_torsion():
    t0 = time.monotonic()
    got_pair = groups_of(L_PAIR, "d", [1, 1, 2], ZZ)
    got_triple_24 = groups_of(L_TRIPLE, "d", [1, 2, 4], ZZ)
    got_triple_23 = groups_of(L_TRIPLE, "d", [1, 2, 3], ZZ)
    elapsed = time.monotonic() - t0
    ok = (
        got_pair.get(2) == (0, [2])
        and got_triple_24.get(2) == (0, [2])
        and got_triple_23.get(2) == (0, [])
        and elapsed < 1.0
    )
    assert report(
        3,
        ok,
        f"degree-two cohomology torsion [2], [2], none, in {elapsed:.3f}s",
    ), (got_pair, got_triple_24, got_triple_23)


def test_criterion_4_closure_and_trace_tables():
    h = Hypergraph.of(S3, [[], [0], [0, 1], [0, 2], [1, 2], [0, 1, 2]])

    def edges(*es):
        return frozenset(tuple(e) for e in es)

    want = {
        ClosureOp.DELTA_UP: Hypergraph(S3, power_set(S3)).edges,
        ClosureOp.DELTA_DOWN: edges((), (0,)),
        ClosureOp.BAR_DELTA_UP: Hypergraph(S3, power_set(S3)).edges,
        ClosureOp.BAR_DELTA_DOWN: edges((0,), (0, 1), (0, 2), (1, 2), (0, 1, 2)),
        ClosureOp.GAMMA_GLOBAL: edges((1,), (2,)),
        ClosureOp.GAMMA_LOCAL: edges((), (0,), (1,), (2,), (1, 2), (0, 1, 2)),
    }
    ok = all(closure(h, op).edges == target for op, target in want.items())

    t = ["s0", "s1"]
    traces = {
        None: edges((), (0,), (1,), (0, 1)),
        ClosureOp.DELTA_UP: edges((), (0,), (1,), (0, 1)),
        ClosureOp.DELTA_DOWN: edges((), (0,)),
        ClosureOp.BAR_DELTA_UP: edges((), (0,), (1,), (0, 1)),
        ClosureOp.BAR_DELTA_DOWN: edges((0,), (1,), (0, 1)),
        ClosureOp.GAMMA_GLOBAL: edges((1,)),
        ClosureOp.GAMMA_LOCAL: edges((), (0,), (1,), (0, 1)),
    }
    for op, target in traces.items():
        src = h if op is None else closure(h, op)
        ok = ok and trace(src, t).edges == target
    assert report(4, ok, "all closure, complement, and trace tables verbatim")


def test_criterion_5_invariant_vertices_and_traces():
    h = Hypergraph.of(S3, [[1], [2], [0, 1], [0, 2]])
    hp = Hypergraph.of(S3, [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]])
    ok = invariant_vertices(h, PARTIAL) == (0,)
    ok = ok and invariant_vertices(h, DIFFERENTIAL) == (0,)
    ok = ok and invariant_vertices(hp, PARTIAL) == (1, 2)
    ok = ok and invariant_vertices(hp, DIFFERENTIAL) == (0,)
    rep = invariant_trace(hp, PARTIAL)
    ok = ok and rep.trace.edges == frozenset({(0,), (1,), (0, 1)})
    ok = ok and invariant_trace(h, PARTIAL).trace.edges == frozenset({(0,)})
    assert report(5, ok, "invariant vertex sets and traces match the worked examples")


def test_criterion_6_property_suites():
    t0 = time.monotonic()
    results = [selftest.run_suite(name) for name in selftest.CRITERION_SUITES]
    elapsed = time.monotonic() - t0
    failures = {r.name: (r.failures, r.detail) for r in results if r.failures}
    enough = all(r.cases >= 1000 or r.name == "projection-compatibility"
                 for r in results)
    ok = not failures and enough and elapsed < 60.0
    assert report(
        6,
        ok,
        f"{len(results)} suites, "
        f"{sum(r.cases for r in results)} cases, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_7_duality():
    t0 = time.monotonic()
    result = selftest.run_suite("duality")
    elapsed = time.monotonic() - t0
    ok = result.failures == 0 and elapsed < 30.0
    assert report(
        7,
        ok,
        f"Betti equality and adjoint pairing, {result.cases} cases, {elapsed:.1f}s"
        + (f"; first failure: {result.detail}" if result.failures else ""),
    )


def test_criterion_8_functoriality():
    t0 = time.monotonic()
    result = selftest.run_suite("homology-functoriality")
    elapsed = time.monotonic() - t0
    ok = result.failures == 0
    assert report(
        8,
        ok,
        f"100 random instances of the commuting squares, "
        f"{result.cases} checks, {elapsed:.1f}s"
        + (f"; first failure: {result.detail}" if result.failures else ""),
    )
