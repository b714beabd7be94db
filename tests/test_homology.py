import math
import random
from fractions import Fraction

import pytest

from hyperhom.errors import CarrierTooLarge, ClassMismatch, NotIncluded, SchemaViolation
from hyperhom.homology import (
    ComplexSpec,
    _word_count,
    build_complex,
    delta_pairing,
    duality_check,
    homology,
    homology_table,
    inclusion_induced,
    independence_carrier,
    mayer_vietoris,
    operator_action,
    simplicial_carrier,
    simplicial_word_carrier,
    word_carrier,
)
from hyperhom.hypergraphs import WORDS_CAP, ClosureOp, Hypergraph, closure, power_set
from hyperhom.linalg import SparseMatrix, kernel_basis, rank
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import FULL, FreeChain, VertexSet, WedgeOperator, wedge_apply

S3 = VertexSet.of("s0", "s1", "s2")
SEGMENT = Hypergraph.of(S3, [[0], [1], [0, 1]])
CIRCLE = Hypergraph.of(S3, [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]])
L1 = Hypergraph.of(S3, [[0, 1], [0, 1, 2]])
L2 = Hypergraph.of(S3, [[0, 1], [0, 2], [0, 1, 2]])


def alpha(*r):
    return WedgeOperator.weighted_sum("partial", r)


def omega(*r):
    return WedgeOperator.weighted_sum("d", r)


def spec(h, op, ring, q=0):
    make = simplicial_carrier if op.kind == "partial" else independence_carrier
    return ComplexSpec(make(h), op, q, ring)


def groups(h, op, ring, q=0):
    return {
        g.degree: (g.presentation.free_rank, list(g.presentation.torsion_factors))
        for g in homology_table(spec(h, op, ring, q))
    }


def test_build_segment_complex():
    built = build_complex(spec(SEGMENT, alpha(1, 1, 1), ZZ))
    assert built.basis(0) == [(0,), (1,)]
    assert built.basis(1) == [(0, 1)]
    assert built.basis(-1) == []
    mat = built.matrix(1)
    assert mat.entry_dict() == {(0, 0): -1, (1, 0): 1}
    # no empty edge: the degree-zero boundary is truncated to zero
    assert built.matrix(0).is_zero()


def test_build_independence_complex():
    built = build_complex(spec(L1, omega(1, 1, 1), ZZ))
    assert built.basis(1) == [(0, 1)]
    assert built.basis(2) == [(0, 1, 2)]
    assert built.matrix(1).entry_dict() == {(0, 0): 1}


def test_empty_hypergraph_is_all_zero():
    h = Hypergraph.of(S3, [])
    assert groups(h, alpha(1, 1, 1), ZZ) == {}


def test_segment_homology_matches_reduced_line():
    got = groups(SEGMENT, alpha(1, 1, 1), ZZ)
    assert got == {-1: (0, []), 0: (1, []), 1: (0, [])}


def test_circle_homology_weighted():
    # augmented triangle boundary: reduced circle homology
    got = groups(CIRCLE, alpha(1, 1, 1), ZZ)
    assert got == {-1: (0, []), 0: (0, []), 1: (1, [])}
    # coprime weights (gcd 1) do not change the answer; weights with a
    # common factor g add Z/g torsion in degree -1 and (Z/g)^2 in degree 0
    got = groups(CIRCLE, alpha(1, 2, 3), ZZ)
    assert got == {-1: (0, []), 0: (0, []), 1: (1, [])}


CIRCLE_WEIGHTS = [(1, 1, 1), (1, 2, 3), (2, 4, 6), (4, 6, 8), (3, 6, 9)]
CIRCLE_WORDS = {-1: [()], 0: [(0,), (1,), (2,)], 1: [(0, 1), (1, 2), (0, 2)]}


def circle_boundaries(w):
    """The circle's d_0 and d_1 written out from the deletion rule.

    Keys are (target word, source word): alpha(s_v) = w_v * empty word and
    alpha(s_a s_b) = w_a s_b - w_b s_a.
    """
    d0 = {((), (v,)): w[v] for v in range(3)}
    d1 = {}
    for a, b in CIRCLE_WORDS[1]:
        d1[(a,), (a, b)] = -w[b]
        d1[(b,), (a, b)] = w[a]
    return d0, d1


@pytest.mark.parametrize("w", CIRCLE_WEIGHTS)
def test_circle_boundaries_match_deletion_rule(w):
    built = build_complex(spec(CIRCLE, alpha(*w), ZZ))
    for n, entries in zip((0, 1), circle_boundaries(w)):
        rows, cols = built.basis(n - 1), built.basis(n)
        assert sorted(rows) == sorted(CIRCLE_WORDS[n - 1])
        assert sorted(cols) == sorted(CIRCLE_WORDS[n])
        want = [[entries.get((r, c), 0) for c in cols] for r in rows]
        assert built.matrix(n).dense_rows() == want


@pytest.mark.parametrize("w", CIRCLE_WEIGHTS)
def test_circle_torsion_against_sympy(w):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def diagonal(entries, n):
        rows, cols = CIRCLE_WORDS[n - 1], CIRCLE_WORDS[n]
        m = sympy.zeros(len(rows), len(cols))
        for (r, c), v in entries.items():
            m[rows.index(r), cols.index(c)] = v
        snf = sympy_snf(m, domain=sympy.ZZ)
        return sorted(abs(int(snf[i, i])) for i in range(min(m.shape)))

    def torsion(diag):
        return [d for d in diag if d > 1]

    d0, d1 = circle_boundaries(w)
    diag0, diag1 = diagonal(d0, 0), diagonal(d1, 1)
    g = math.gcd(*w)
    assert diag0 == [g]
    assert diag1 == [0, g, g]
    # H_-1 = C_-1 / im d_0 = Z/g; H_0 = ker d_0 / im d_1, both of rank 2,
    # so its torsion is the nonunit invariant factors of d_1, (Z/g)^2
    assert groups(CIRCLE, alpha(*w), ZZ) == {
        -1: (0, torsion(diag0)),
        0: (0, torsion(diag1)),
        1: (1, []),
    }


def test_cohomology_torsion_examples():
    got = groups(L1, omega(1, 1, 2), ZZ)
    assert got[2] == (0, [2])
    assert all(v == (0, []) for n, v in got.items() if n != 2)

    got = groups(L2, omega(1, 2, 4), ZZ)
    assert got[2] == (0, [2])
    got = groups(L2, omega(1, 2, 3), ZZ)
    assert got[2] == (0, [])
    # the rank-one kernel in degree one survives any weights
    assert got[1] == (1, [])


def test_cohomology_over_f3():
    got = groups(L1, omega(1, 1, 2), GF(3))
    assert got[2] == (0, [])
    got = groups(L2, omega(1, 2, 4), GF(3))
    assert got[2] == (0, [])


def test_full_power_set_cohomology():
    # the only independence hypergraph containing the empty edge is the
    # full power set; its bottom map sends the empty edge to the weighted
    # vertex sum, and over a field the whole complex is exact
    full = Hypergraph(S3, power_set(S3))
    built = build_complex(spec(full, omega(1, 1, 2), QQ))
    assert built.basis(-1) == [()]
    assert built.matrix(-1).entry_dict() == {(0, 0): 1, (1, 0): 1, (2, 0): 2}
    assert all(
        g.presentation.is_zero for g in homology_table(spec(full, omega(1, 1, 2), QQ))
    )


def test_carrier_validation():
    with pytest.raises(ClassMismatch):
        spec(L1, alpha(1, 1, 1), ZZ)
    with pytest.raises(ClassMismatch):
        spec(SEGMENT, omega(1, 1, 1), ZZ)
    with pytest.raises(SchemaViolation):
        ComplexSpec(
            simplicial_carrier(SEGMENT), WedgeOperator.scalar("partial"), 0, ZZ
        )


def test_higher_arity_grading():
    # arity-three boundary on the full simplicial word module
    op = WedgeOperator.build("partial", 3, [(1, (0, 1, 2))])
    cx = ComplexSpec(simplicial_word_carrier(S3), op, 2, QQ)
    built = build_complex(cx)
    assert cx.degrees() == [-1, 2]
    # rightmost generator first: +(0,1), then -(0,), then -()
    assert built.matrix(2).entry_dict() == {(0, 0): -1}
    assert built.homology(2).presentation.is_zero
    assert built.homology(-1).presentation.is_zero


def test_arity_three_on_edge_carrier():
    # full power set on three vertices, single arity-three monomial with
    # weight 2: the only nonzero matrix is the 1x1 map {s0,s1,s2} -> empty
    # edge with entry -2, leaving Z/2 at the bottom of the offset-2 grid
    full = Hypergraph(S3, power_set(S3))
    op = WedgeOperator.build("partial", 3, [(2, (0, 1, 2))])
    by_q = {}
    for q in (0, 1, 2):
        cx = ComplexSpec(simplicial_carrier(full), op, q, ZZ)
        by_q[q] = {
            g.degree: (g.presentation.free_rank, list(g.presentation.torsion_factors))
            for g in homology_table(cx)
        }
    assert by_q[0] == {0: (3, [])}
    assert by_q[1] == {1: (3, [])}
    assert by_q[2] == {-1: (0, [2]), 2: (0, [])}
    built = build_complex(ComplexSpec(simplicial_carrier(full), op, 2, ZZ))
    assert built.matrix(2).entry_dict() == {(0, 0): -2}


def test_raising_action_beyond_top_degree():
    s = spec(L2, omega(1, 1, 1), QQ)
    mu = WedgeOperator.build("d", 2, [(1, (1, 2))])
    act = operator_action(s, mu)
    # the degree-one class maps into degree three, where the module is zero
    assert act[1].source_rank == 1 and act[1].target_rank == 0
    ident = operator_action(s, WedgeOperator.scalar("d", 1))
    assert ident[1].matrix == ((1,),)


def test_operator_action_scalars():
    s = spec(SEGMENT, alpha(1, 1, 1), QQ)
    ident = operator_action(s, WedgeOperator.scalar("partial", 1))
    assert ident[0].matrix == ((1,),)
    tripled = operator_action(s, WedgeOperator.scalar("partial", 3))
    assert tripled[0].matrix == ((3,),)


def test_operator_action_two_step_composition():
    s = spec(CIRCLE, alpha(1, 1, 1), QQ)
    beta = WedgeOperator.build("partial", 2, [(1, (0, 1))])
    act = operator_action(s, beta)
    # chain level: the action applied to the degree-one cycle
    z = (
        FreeChain.single(QQ, (1, 2))
        - FreeChain.single(QQ, (0, 2))
        + FreeChain.single(QQ, (0, 1))
    )
    val = wedge_apply(beta, z, FULL)
    assert val == FreeChain(QQ, -1, {(): -1})
    # its class in degree -1 dies (the group vanishes over a field)
    assert act[1].source_rank == 1 and act[1].target_rank == 0


def test_operator_action_functoriality_random():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        pool = sorted(power_set(vs), key=lambda e: (len(e), e))
        seed = [e for e in pool if rng.random() < 0.4]
        h = closure(Hypergraph(vs, frozenset(seed)), ClosureOp.DELTA_UP)
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        s = ComplexSpec(simplicial_carrier(h), op, 0, QQ)
        b1 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))]
        )
        b2 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))]
        )
        act1 = operator_action(s, b1)
        act12 = operator_action(s, b1.wedge(b2))
        act2 = operator_action(s, b2)
        for deg, m12 in act12.items():
            inner = act2[deg]
            outer = act1.get(inner.target_degree)
            if outer is None:
                assert m12.target_rank == 0
                continue
            assert outer.compose(inner, QQ).matrix == m12.matrix


def greedy_representatives(in_cols, cycles, ring, dim):
    """Each in-column, then each cycle, kept when it raises the rank of the
    vectors kept before it; the kept cycles are the representatives."""
    kept, reps = [], []
    for k, v in enumerate(in_cols + cycles):
        if rank(SparseMatrix.from_rows(kept + [v], dim, ring)) > len(kept):
            kept.append(v)
            if k >= len(in_cols):
                reps.append(v)
    return reps


def random_operator(rng, kind, nverts, arity):
    if arity == 1:
        return WedgeOperator.weighted_sum(kind, [rng.randint(1, 3) for _ in range(nverts)])
    terms = [(rng.randint(1, 3), tuple(sorted(rng.sample(range(nverts), 3))))
             for _ in range(rng.randint(1, 2))]
    return WedgeOperator.build(kind, 3, terms)


def test_degree_solver_against_greedy_rank_oracle():
    rng = random.Random(101)
    seen = {"reps": 0, "non_cycles": 0, "partial": 0, "d": 0}
    for trial in range(40):
        kind = ("partial", "d")[trial % 2]
        ring = (QQ, GF(5))[trial // 2 % 2]
        nverts = rng.randint(3, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
        seed = [e for e in power_set(vs) if e and rng.random() < 0.35]
        up = ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP
        h = closure(Hypergraph(vs, frozenset(seed)), up)
        if kind == "partial" and rng.random() < 0.5:
            h = h.with_edges(h.edges | {()})
        op = random_operator(rng, kind, nverts, rng.choice([1, 1, 3]))
        if op.is_zero or not h.edges:
            continue
        built = build_complex(spec(h, op, ring, rng.randint(0, op.arity - 1)))
        zero, one = ring.zero, ring.one
        for n in built.spec.degrees():
            solver = built.solver(n)
            dim = built.dim(n)
            in_mat = built.incoming_matrix(n)
            in_cols = [in_mat.column(j) for j in range(in_mat.cols)]
            cycles = kernel_basis(built.matrix(n))
            assert solver.reps == greedy_representatives(in_cols, cycles, ring, dim)
            assert solver.betti == built.homology(n).presentation.free_rank
            for k, z in enumerate(solver.reps):
                assert solver.coords(z) == tuple(one if i == k else zero
                                                 for i in range(solver.betti))
            for col in in_cols:
                assert solver.coords(col) == (zero,) * solver.betti
            for i in range(dim):
                e = [one if j == i else zero for j in range(dim)]
                if not solver.is_cycle(e):
                    assert solver.coords(e) is None
                    seen["non_cycles"] += 1
            seen["reps"] += solver.betti
        off_grid = [h.top_degree + op.arity, -1 - op.arity]
        if op.arity > 1:
            off_grid.append(built.spec.q + 1)
        for m in off_grid:
            assert built.solver(m).betti == 0 and built.solver(m).dim == 0
        seen[kind] += 1
    assert min(seen.values()) >= 10


def test_inclusion_zero_map_into_vanishing_group():
    maps = inclusion_induced(SEGMENT, CIRCLE, alpha(1, 1, 1), 0, QQ)
    assert maps[0].source_rank == 1
    assert maps[0].target_rank == 0
    assert maps[1].source_rank == 0 and maps[1].target_rank == 1


def test_inclusion_identity():
    maps = inclusion_induced(CIRCLE, CIRCLE, alpha(1, 1, 1), 0, QQ)
    assert maps[1].matrix == ((1,),)


def test_inclusion_requires_containment():
    with pytest.raises(NotIncluded):
        inclusion_induced(CIRCLE, SEGMENT, alpha(1, 1, 1), 0, QQ)


def test_inclusion_cohomology_over_f3():
    maps = inclusion_induced(L1, L2, omega(1, 1, 2), 0, GF(3))
    assert maps[2].source_rank == 0 and maps[2].target_rank == 0
    # over Q both degree-two groups vanish as well, and the degree-one
    # kernel class of the larger family receives nothing
    maps = inclusion_induced(L1, L2, omega(1, 1, 2), 0, QQ)
    assert maps[1].source_rank == 0 and maps[1].target_rank == 1


def test_inclusion_commutes_with_action():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        pool = sorted(power_set(vs), key=lambda e: (len(e), e))
        small_seed = [e for e in pool if rng.random() < 0.3]
        extra = [e for e in pool if rng.random() < 0.3]
        small = closure(Hypergraph(vs, frozenset(small_seed)), ClosureOp.DELTA_UP)
        large = closure(
            Hypergraph(vs, small.edges | frozenset(extra)), ClosureOp.DELTA_UP
        )
        if small.has_empty_edge != large.has_empty_edge:
            large = large.with_edges(large.edges | {()})
            small = small.with_edges(small.edges | {()})
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        beta = WedgeOperator.build(
            "partial", 2, [(1, tuple(sorted(rng.sample(range(n), 2))))]
        )
        incl = inclusion_induced(small, large, op, 0, QQ)
        act_small = operator_action(ComplexSpec(simplicial_carrier(small), op, 0, QQ), beta)
        act_large = operator_action(ComplexSpec(simplicial_carrier(large), op, 0, QQ), beta)
        for deg, m in act_small.items():
            tgt = m.target_degree
            if tgt < -1:
                continue
            lhs = act_large[deg].compose(incl[deg], QQ)
            rhs = incl.get(tgt)
            if rhs is None:
                assert all(not row or set(row) == {QQ.zero} for row in lhs.matrix)
                continue
            assert lhs.matrix == rhs.compose(m, QQ).matrix


def test_mayer_vietoris_two_segments():
    a = Hypergraph.of(S3, [[0], [1], [0, 1]])
    b = Hypergraph.of(S3, [[1], [2], [1, 2]])
    les = mayer_vietoris(a, b, alpha(1, 1, 1), 0, QQ)
    assert les.all_exact
    by_label = {
        (node.label, node.degree): node.free_rank for node in les.nodes
    }
    assert by_label[("union", 0)] == 1
    assert by_label[("sum", 0)] == 2
    assert by_label[("intersection", 0)] == 1
    assert by_label[("union", 1)] == 0
    total = sum(
        (-1) ** i * n.free_rank
        for i, n in enumerate(les.nodes)
    )
    assert total == 0


def test_mayer_vietoris_identical_pair_degenerates():
    les = mayer_vietoris(CIRCLE, CIRCLE, alpha(1, 1, 1), 0, QQ)
    assert les.all_exact


def test_mayer_vietoris_disjoint_edges_split():
    a = Hypergraph.of(S3, [[0]])
    b = Hypergraph.of(S3, [[1], [2], [1, 2]])
    les = mayer_vietoris(a, b, alpha(1, 1, 1), 0, QQ)
    assert les.all_exact
    ranks = {(n.label, n.degree): n.free_rank for n in les.nodes}
    assert ranks[("union", 0)] == ranks[("sum", 0)]


def test_mayer_vietoris_rejects_empty_edge_mismatch():
    a = Hypergraph.of(S3, [[], [0]])
    b = Hypergraph.of(S3, [[1]])
    with pytest.raises(ClassMismatch):
        mayer_vietoris(a, b, alpha(1, 1, 1), 0, QQ)


def test_mayer_vietoris_cohomology():
    les = mayer_vietoris(L1, L2, omega(1, 1, 1), 0, QQ)
    assert les.all_exact


def test_word_carrier_size_is_checked_before_enumeration():
    # the estimate is the basis size, one per degree at least
    for nv in range(4):
        vs = VertexSet.of(*"abc"[:nv])
        for d in range(-1, 4):
            carrier = word_carrier(vs, d)
            sizes = [max(1, len(carrier.basis(n))) for n in range(-1, d + 1)]
            assert _word_count(nv, d) == sum(sizes)
    # carriers are lazy: at the cap nothing is enumerated, one past it raises
    two = VertexSet.of("a", "b")
    assert _word_count(2, 14) == 2**16 - 1 <= WORDS_CAP
    assert word_carrier(two, 14).max_degree == 14
    assert word_carrier(VertexSet.of("a"), WORDS_CAP - 2).max_degree == WORDS_CAP - 2
    for vs, d in ((two, 15), (two, 10**9), (VertexSet.of("a"), WORDS_CAP - 1),
                  (VertexSet(()), 10**9), (VertexSet.of(*"abcdefgh"), 10**6)):
        with pytest.raises(CarrierTooLarge):
            word_carrier(vs, d)


def test_duality_single_vertex():
    report = duality_check(VertexSet.of("s"), [1], 0, 5)
    assert report.all_equal
    assert all(x == 0 for _, x, _ in report.degrees)


def test_duality_two_vertices():
    report = duality_check(VertexSet.of("a", "b"), [1, 1], 0, 4)
    assert report.all_equal
    assert [n for n, _, _ in report.degrees] == [-1, 0, 1, 2, 3]


def test_duality_rational_weights():
    report = duality_check(
        VertexSet.of("a", "b", "c"), [Fraction(1, 2), 2, Fraction(3, 5)], 0, 3
    )
    assert report.all_equal


def test_duality_betti_against_independent_elimination():
    # cross-check one instance against a direct Fraction row reduction
    vs = VertexSet.of("a", "b")
    z = [Fraction(1), Fraction(1)]
    report = duality_check(vs, z, 0, 4)

    def words(n):
        out = [()]
        for _ in range(n + 1):
            out = [w + (v,) for w in out for v in range(2)]
        return out

    def alpha_matrix(n):
        src = words(n)
        tgt = {w: i for i, w in enumerate(words(n - 1))}
        rows = [[Fraction(0)] * len(src) for _ in tgt]
        for j, w in enumerate(src):
            for i in range(n + 1):
                sub = w[:i] + w[i + 1 :]
                rows[tgt[sub]][j] += (-1) ** i * z[w[i]]
        return rows

    def frac_rank(rows):
        rows = [r[:] for r in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [v / rows[r][c] for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
            rank += 1
        return rank

    expected = {}
    for n in range(0, 4):
        dim = 2 ** (n + 1)
        expected[n] = dim - frac_rank(alpha_matrix(n)) - frac_rank(alpha_matrix(n + 1))
    got = {n: x for n, x, _ in report.degrees if n >= 0}
    assert got == expected


def test_adjointness_of_weighted_operators():
    rng = random.Random(59)
    z = [Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4)), Fraction(2, 3)]
    a = WedgeOperator.weighted_sum("partial", z)
    w = WedgeOperator.weighted_sum("d", z)

    def words(maxlen):
        out = [()]
        acc = [()]
        for _ in range(maxlen):
            acc = [t + (v,) for t in acc for v in range(3)]
            out.extend(acc)
        return out

    ws = words(3)
    for xi in ws:
        for eta in ws:
            if len(xi) != len(eta) + 1:
                continue
            cx = FreeChain.single(QQ, xi)
            ce = FreeChain.single(QQ, eta)
            lhs = delta_pairing(wedge_apply(a, cx, FULL), ce)
            rhs = delta_pairing(cx, wedge_apply(w, ce, FULL))
            assert lhs == rhs


def test_adjointness_arity_three_sign():
    # reversal of three anticommuting generators contributes the sign -1
    z = [Fraction(1), Fraction(1), Fraction(1)]
    a = WedgeOperator.build("partial", 3, [(1, (0, 1, 2))])
    w = WedgeOperator.build("d", 3, [(-1, (0, 1, 2))])
    for xi in [(0, 1, 2), (2, 1, 0), (0, 2, 1)]:
        cx = FreeChain.single(QQ, xi)
        ce = FreeChain(QQ, -1, {(): 1})
        lhs = delta_pairing(wedge_apply(a, cx, FULL), ce)
        rhs = delta_pairing(cx, wedge_apply(w, ce, FULL))
        assert lhs == rhs


def test_word_module_complex_agrees_with_edge_complex():
    # the edge complex of a simplicial complex is the sub-block of the
    # full increasing-word complex spanned by its edges
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        pool = sorted(power_set(vs), key=lambda e: (len(e), e))
        h = closure(
            Hypergraph(vs, frozenset(e for e in pool if rng.random() < 0.35)),
            ClosureOp.DELTA_UP,
        )
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        edge_cx = build_complex(ComplexSpec(simplicial_carrier(h), op, 0, QQ))
        word_cx = build_complex(ComplexSpec(simplicial_word_carrier(vs), op, 0, QQ))
        for deg in edge_cx.spec.degrees():
            rows = {w: i for i, w in enumerate(word_cx.basis(deg - 1))}
            cols = {w: j for j, w in enumerate(word_cx.basis(deg))}
            sub = {}
            for (i, j), v in word_cx.matrix(deg).entries:
                sub[(word_cx.basis(deg - 1)[i], word_cx.basis(deg)[j])] = v
            for (i, j), v in edge_cx.matrix(deg).entries:
                key = (edge_cx.basis(deg - 1)[i], edge_cx.basis(deg)[j])
                assert sub.get(key) == v
