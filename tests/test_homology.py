import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import hyperhom.homology
import hyperhom.hypergraphs
from hyperhom.errors import (
    CarrierTooLarge,
    ClassMismatch,
    NotAChainMap,
    NotIncluded,
    PowerSetTooLarge,
    SchemaViolation,
)
from hyperhom.homology import (
    _word_count,
    ComplexSpec,
    build_complex,
    delta_pairing,
    duality_check,
    edge_carrier,
    homology_table,
    inclusion_induced,
    inclusion_map,
    mayer_vietoris,
    mv_complexes,
    mv_sequence,
    operator_action,
    word_carrier,
)
from hyperhom.hypergraphs import (
    POWERSET_CAP,
    WORDS_CAP,
    ClosureOp,
    Hypergraph,
    closure,
    power_set,
    proved_closed,
)
from hyperhom.linalg import SparseMatrix, kernel_basis, rank
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import FULL, FreeChain, VertexSet, WedgeOperator, wedge_chain

from field_oracle import (
    DenseSolver,
    apply,
    columns,
    matrix_of_columns,
    matrix_of_rows,
    well_formed,
)
from test_map_route import random_boundary, random_family

S3 = VertexSet.of("s0", "s1", "s2")
SEGMENT = Hypergraph.of(S3, [[0], [1], [0, 1]])
CIRCLE = Hypergraph.of(S3, [[], [0], [1], [2], [0, 1], [1, 2], [0, 2]])
L1 = Hypergraph.of(S3, [[0, 1], [0, 1, 2]])
L2 = Hypergraph.of(S3, [[0, 1], [0, 2], [0, 1, 2]])
# a circle split into two arcs that meet in s0 and s2
ARC_A = Hypergraph.of(S3, [[0], [1], [2], [0, 1], [1, 2]])
ARC_B = Hypergraph.of(S3, [[0], [2], [0, 2]])


def alpha(*r):
    return WedgeOperator.weighted_sum("partial", r)


def omega(*r):
    return WedgeOperator.weighted_sum("d", r)


def spec(h, op, ring, q=0):
    return ComplexSpec(edge_carrier(h), op, q, ring)


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
            edge_carrier(SEGMENT), WedgeOperator.scalar("partial"), 0, ZZ
        )


def closed_down(h):
    """Every nonempty proper subface of every edge is an edge."""
    return all(f in h.edges for e in h.edges
               for k in range(1, len(e)) for f in itertools.combinations(e, k))


def closed_up(h):
    """Every superset of every edge is an edge."""
    everything = Hypergraph(h.vertices, power_set(h.vertices)).edges
    return all(f in h.edges for e in h.edges for f in everything if set(e) <= set(f))


def test_complex_spec_is_the_one_class_rule():
    """`ComplexSpec(edge_carrier(h), op, 0, QQ)` accepts h exactly when h is
    closed in the operator's direction, down under deletions and up under
    insertions, and otherwise raises `ClassMismatch` naming the class: on
    every family of 0-3 vertices, and on 4-6 vertices on random closed
    families, the same less one edge, and random families, under both
    kinds. The class check comes before the odd-arity check, and
    `proved_closed` gives each closed family the class `classify` finds."""
    rng = random.Random(211)
    families = []
    for nv in range(4):
        vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
        subsets = sorted(Hypergraph(vs, power_set(vs)).edges)
        families += [Hypergraph.of(vs, [e for i, e in enumerate(subsets) if k >> i & 1])
                     for k in range(2 ** len(subsets))]
    for nv in (4, 5, 6):
        vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
        for _ in range(30):
            h = random_family(rng, vs, rng.choice(["partial", "d"]), rng.random() < 0.3)
            families += [h, Hypergraph(vs, frozenset(
                m for m in power_set(vs) if rng.random() < 0.3))]
            if h.edges:
                families.append(Hypergraph.of(vs, h.edges - {rng.choice(sorted(h.edges))}))
    seen = Counter()
    for h in families:
        for kind, closed, text in (
                ("partial", closed_down(h), "carrier is not an augmented simplicial complex"),
                ("d", closed_up(h), "carrier is not an augmented independence hypergraph")):
            odd = WedgeOperator.weighted_sum(kind, [1] * len(h.vertices))
            even = WedgeOperator.build(kind, 2, [])
            if closed:
                assert ComplexSpec(edge_carrier(h), odd, 0, QQ).carrier.hypergraph is h
                # the O(1) class of a family its caller proved closed
                proved = proved_closed(Hypergraph(h.vertices, h.masks), kind == "partial")
                assert proved.classify() is h.classify()
                with pytest.raises(SchemaViolation, match="odd arity"):
                    ComplexSpec(edge_carrier(h), even, 0, QQ)
            else:
                for op in (odd, even):
                    with pytest.raises(ClassMismatch) as raised:
                        ComplexSpec(edge_carrier(h), op, 0, QQ)
                    assert str(raised.value) == text
            seen[kind, closed, len(h.vertices) > 3] += 1
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def test_higher_arity_grading():
    # arity-three boundary on the full simplicial word module
    op = WedgeOperator.build("partial", 3, [(1, (0, 1, 2))])
    cx = ComplexSpec(edge_carrier(Hypergraph(S3, power_set(S3))), op, 2, QQ)
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
        cx = ComplexSpec(edge_carrier(full), op, q, ZZ)
        by_q[q] = {
            g.degree: (g.presentation.free_rank, list(g.presentation.torsion_factors))
            for g in homology_table(cx)
        }
    assert by_q[0] == {0: (3, [])}
    assert by_q[1] == {1: (3, [])}
    assert by_q[2] == {-1: (0, [2]), 2: (0, [])}
    built = build_complex(ComplexSpec(edge_carrier(full), op, 2, ZZ))
    assert built.matrix(2).entry_dict() == {(0, 0): -2}


def test_raising_action_beyond_top_degree():
    s = spec(L2, omega(1, 1, 1), QQ)
    mu = WedgeOperator.build("d", 2, [(1, (1, 2))])
    act = operator_action(s, mu)
    # the degree-one class maps into degree three, where the module is zero
    assert act[1].source_rank == 1 and act[1].target_rank == 0
    ident = operator_action(s, WedgeOperator.scalar("d", 1))
    assert ident[1].matrix.dense_rows() == [[1]]


def test_operator_action_scalars():
    s = spec(SEGMENT, alpha(1, 1, 1), QQ)
    ident = operator_action(s, WedgeOperator.scalar("partial", 1))
    assert ident[0].matrix.dense_rows() == [[1]]
    tripled = operator_action(s, WedgeOperator.scalar("partial", 3))
    assert tripled[0].matrix.dense_rows() == [[3]]


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
    val = wedge_chain(beta, z, FULL)
    assert val == FreeChain(QQ, -1, {(): -1})
    # its class in degree -1 dies (the group vanishes over a field)
    assert act[1].source_rank == 1 and act[1].target_rank == 0


def test_operator_action_functoriality_random():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        pool = Hypergraph(vs, power_set(vs)).sorted_edges()
        seed = [e for e in pool if rng.random() < 0.4]
        h = closure(Hypergraph.of(vs, seed), ClosureOp.DELTA_UP)
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        s = ComplexSpec(edge_carrier(h), op, 0, QQ)
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
            assert outer.compose(inner).matrix == m12.matrix


def greedy_representatives(in_cols, cycles, ring, dim):
    """Each in-column, then each cycle, kept when it raises the rank of the
    vectors kept before it; the kept cycles are the representatives."""
    kept, reps = [], []
    for k, v in enumerate(in_cols + cycles):
        if rank(matrix_of_rows(kept + [v], dim, ring)) > len(kept):
            kept.append(v)
            if k >= len(in_cols):
                reps.append(v)
    return reps


def random_operator(rng, kind, nverts, arity, weights=(1, 2, 3)):
    if arity == 1:
        return WedgeOperator.weighted_sum(kind, [rng.choice(weights) for _ in range(nverts)])
    terms = [(rng.choice(weights), tuple(sorted(rng.sample(range(nverts), 3))))
             for _ in range(rng.randint(1, 2))]
    return WedgeOperator.build(kind, 3, terms)


def raises_off_cycles(solver, vecs) -> bool:
    """Whether `coords` rejects vecs, with the text it was given."""
    try:
        solver.coords(vecs, "off the cycles")
    except NotAChainMap as exc:
        assert str(exc) == "off the cycles"
        return True
    return False


def test_degree_solver_against_greedy_rank_oracle():
    rng = random.Random(101)
    seen = {"reps": 0, "non_cycles": 0, "mixed": 0, "partial": 0, "d": 0}
    drawn = {"arity3": 0, "empty": 0, "fraction_pivots": 0}
    for trial in range(40):
        kind = ("partial", "d")[trial % 2]
        ring = (QQ, GF(5))[trial // 2 % 2]
        nverts = rng.randint(3, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
        seed = [m for m in power_set(vs) if m and rng.random() < 0.35]
        up = ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP
        h = closure(Hypergraph(vs, frozenset(seed)), up)
        if kind == "partial" and rng.random() < 0.5:
            h = h.with_masks(h.masks | {0})
        # over Q, weights like 1/2 and -2/3 give Fraction pivots
        weights = (1, 2, 3, Fraction(1, 2), Fraction(-2, 3)) if ring == QQ else (1, 2, 3)
        op = random_operator(rng, kind, nverts, rng.choice([1, 1, 3]), weights)
        if op.is_zero or not h.edges:
            continue
        built = build_complex(spec(h, op, ring, rng.randint(0, op.arity - 1)))
        zero, one = ring.zero, ring.one
        mix = random.Random(trial)
        drawn["arity3"] += op.arity == 3
        drawn["empty"] += h.has_empty_edge
        drawn["fraction_pivots"] += any(type(c) is Fraction for c, _ in op.terms)
        for n in built.spec.degrees():
            solver = built.solver(n)
            dim = built.dim(n)
            in_mat = built.incoming_matrix(n)
            in_cols = columns(in_mat)
            cycles = kernel_basis(built.matrix(n))
            assert well_formed(cycles) and well_formed(solver.reps)
            assert (solver.reps.rows, solver.reps.cols) == (dim, solver.betti)
            reps = columns(solver.reps)
            assert reps == greedy_representatives(in_cols, columns(cycles), ring, dim)
            dense = DenseSolver(ring, dim, built.matrix(n), in_mat)
            assert reps == dense.reps
            mixed = []
            for _ in range(3):
                z = [zero] * dim
                for c in columns(cycles) + in_cols:
                    f = ring.coerce(mix.randint(-2, 2))
                    z = [ring.add(a, ring.mul(f, b)) for a, b in zip(z, c)]
                mixed.append(z)
                seen["mixed"] += 1
            got = solver.coords(matrix_of_columns(mixed, dim, ring), "mixed")
            assert well_formed(got) and (got.rows, got.cols) == (solver.betti, 3)
            assert [tuple(c) for c in columns(got)] == [dense.coords(z) for z in mixed]
            assert solver.betti == built.homology(n).presentation.free_rank
            assert solver.coords(solver.reps, "reps") == SparseMatrix.identity(solver.betti, ring)
            assert solver.coords(in_mat, "boundaries") == SparseMatrix.zero(
                solver.betti, in_mat.cols, ring)
            assert all(dense.coords(col) == (zero,) * solver.betti for col in in_cols)
            got = solver.coords(cycles, "cycles")
            assert well_formed(got)
            assert [tuple(c) for c in columns(got)] == [dense.coords(z) for z in columns(cycles)]
            # coords doubles as the cycle test: NotAChainMap exactly off the
            # cycles, also when betti == 0
            units = []
            for i in range(dim):
                e = [one if j == i else zero for j in range(dim)]
                is_cycle = all(ring.is_zero(v) for v in apply(built.matrix(n), e))
                assert raises_off_cycles(solver, matrix_of_columns([e], dim, ring)) == (
                    not is_cycle)
                if not is_cycle:
                    assert dense.coords(e) is None
                    seen["non_cycles"] += 1
                units.append(is_cycle)
            assert raises_off_cycles(solver, SparseMatrix.identity(dim, ring)) == (not all(units))
            seen["reps"] += solver.betti
        off_grid = [h.top_degree + op.arity, -1 - op.arity]
        if op.arity > 1:
            off_grid.append(built.spec.q + 1)
        for m in off_grid:
            assert built.solver(m).betti == 0 and built.solver(m).dim == 0
        seen[kind] += 1
    assert min(seen.values()) >= 10, seen
    assert min(drawn.values()) >= 5, drawn


def test_inclusion_zero_map_into_vanishing_group():
    # a segment and a point: two components, joined up by the circle
    two_pieces = Hypergraph.of(S3, [[], [0], [1], [2], [0, 1]])
    maps = inclusion_induced(two_pieces, CIRCLE, alpha(1, 1, 1), 0, QQ)
    assert maps[0].source_rank == 1
    assert maps[0].target_rank == 0
    assert maps[1].source_rank == 0 and maps[1].target_rank == 1


def test_inclusion_identity():
    maps = inclusion_induced(CIRCLE, CIRCLE, alpha(1, 1, 1), 0, QQ)
    assert maps[1].matrix.dense_rows() == [[1]]


def test_inclusion_requires_containment():
    with pytest.raises(NotIncluded):
        inclusion_induced(CIRCLE, SEGMENT, alpha(1, 1, 1), 0, QQ)


def test_inclusion_requires_matching_empty_edges_for_lowering_operators():
    with pytest.raises(ClassMismatch):
        inclusion_induced(SEGMENT, CIRCLE, alpha(1, 1, 1), 0, QQ)
    # a degree-raising operator never has the empty word as an image
    full = Hypergraph(S3, power_set(S3))
    nonaug = full.with_masks(full.masks - {0})
    maps = inclusion_induced(nonaug, full, omega(1, 1, 2), 0, QQ)
    assert maps[-1].source_rank == 0


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
        pool = Hypergraph(vs, power_set(vs)).sorted_edges()
        small_seed = [e for e in pool if rng.random() < 0.3]
        extra = [e for e in pool if rng.random() < 0.3]
        small = closure(Hypergraph.of(vs, small_seed), ClosureOp.DELTA_UP)
        large = closure(Hypergraph.of(vs, small.edges | frozenset(extra)), ClosureOp.DELTA_UP)
        if small.has_empty_edge != large.has_empty_edge:
            large = large.with_masks(large.masks | {0})
            small = small.with_masks(small.masks | {0})
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        beta = WedgeOperator.build(
            "partial", 2, [(1, tuple(sorted(rng.sample(range(n), 2))))]
        )
        incl = inclusion_induced(small, large, op, 0, QQ)
        act_small = operator_action(ComplexSpec(edge_carrier(small), op, 0, QQ), beta)
        act_large = operator_action(ComplexSpec(edge_carrier(large), op, 0, QQ), beta)
        for deg, m in act_small.items():
            tgt = m.target_degree
            if tgt < -1:
                continue
            lhs = act_large[deg].compose(incl[deg])
            rhs = incl.get(tgt)
            if rhs is None:
                assert lhs.matrix.is_zero()
                continue
            assert lhs.matrix == rhs.compose(m).matrix


def test_descend_rejects_a_map_off_the_cycles():
    built = build_complex(spec(CIRCLE, alpha(1, 1, 1), QQ))
    solver = built.solver(1)
    assert solver.betti == 1
    identity = SparseMatrix.identity(3, QQ)
    assert solver.coords(identity.mul(solver.reps),
                         "identity sends a cycle to a non-cycle").dense_rows() == [[1]]
    # keep only the first edge: the circle's cycle goes to a multiple of
    # that edge, whose boundary is nonzero
    first_edge = SparseMatrix.from_entries(3, 3, QQ, [((0, 0), 1)])
    assert not built.matrix(1).mul(first_edge).mul(solver.reps).is_zero()
    with pytest.raises(NotAChainMap, match="^first edge sends a cycle to a non-cycle$"):
        solver.coords(first_edge.mul(solver.reps), "first edge sends a cycle to a non-cycle")


def test_inclusion_into_a_vanishing_group_is_checked():
    """The vertex classes of the segment are one class, and the segment
    with the empty edge has no homology in degree 0; a vertex is no cycle
    there, so the inclusion is not a chain map though its target vanishes."""
    small = build_complex(spec(SEGMENT, alpha(1, 1, 1), QQ))
    large = build_complex(spec(SEGMENT.with_masks(SEGMENT.masks | {0}), alpha(1, 1, 1), QQ))
    assert (small.solver(0).betti, large.solver(0).betti) == (1, 0)
    with pytest.raises(NotAChainMap, match="inclusion sends a cycle to a non-cycle"):
        inclusion_map(small, large, 0)


def test_connecting_map_rejects_an_image_outside_the_intersection():
    # the zig-zag lands on both meeting points of the arcs, so an
    # intersection holding only s0 is too small
    op = alpha(1, 1, 1)
    complexes = mv_complexes(ARC_A, ARC_B, op, QQ,
                             lambda union: build_complex(spec(union, op, QQ)))
    les = mv_sequence(complexes)
    assert les.all_exact and any(not m.is_zero() for m in les.maps)
    complexes["cap"] = build_complex(spec(Hypergraph.of(S3, [[0]]), op, QQ))
    with pytest.raises(NotAChainMap, match="leaves the intersection"):
        mv_sequence(complexes)


def test_mv_sequence_ranks_each_map_once(monkeypatch):
    calls = []

    def counting_rank(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(hyperhom.homology, "rank", counting_rank)
    les = mayer_vietoris(ARC_A, ARC_B, alpha(1, 1, 1), 0, QQ)
    assert len(calls) == len(les.maps)
    assert [id(m) for m in calls] == [id(m) for m in les.maps]


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
    for vs, d in ((two, 15), (two, 10**9), (VertexSet.of("a"), WORDS_CAP - 1),
                  (VertexSet(()), 10**9), (VertexSet.of(*"abcdefgh"), 10**6)):
        with pytest.raises(CarrierTooLarge, match="exceed the cap"):
            word_carrier(vs, d)


def test_increasing_words_are_the_capped_power_set_span(monkeypatch):
    """The complex on every strictly increasing word is the edge complex of
    the power set, in the order of `combinations`, so its size is checked
    by `power_set` before anything is enumerated."""
    for nv in range(5):
        vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
        carrier = edge_carrier(Hypergraph(vs, power_set(vs)))
        assert carrier.top_degree == nv - 1
        assert carrier.basis(-2) == []
        for n in range(-1, nv + 1):
            assert carrier.basis(n) == list(itertools.combinations(range(nv), n + 1))

    def enumerate_nothing(*args):
        raise AssertionError("enumerated")

    # the subsets are the masks in range(2**n)
    monkeypatch.setattr(hyperhom.hypergraphs, "range", enumerate_nothing, raising=False)
    at_cap = VertexSet.of(*[f"v{i}" for i in range(POWERSET_CAP)])
    with pytest.raises(AssertionError, match="enumerated"):
        power_set(at_cap)
    one_past = VertexSet.of(*[f"v{i}" for i in range(POWERSET_CAP + 1)])
    with pytest.raises(PowerSetTooLarge, match=f"capped at {POWERSET_CAP} vertices"):
        power_set(one_past)


def test_one_letter_word_carrier_is_bounded_by_its_letters():
    # one letter: d + 2 words but (d + 1)(d + 2)/2 letters, capped at 16 * WORDS_CAP
    a = VertexSet.of("a")
    assert word_carrier(a, 1446).max_degree == 1446
    for d in (1447, WORDS_CAP - 2):
        with pytest.raises(CarrierTooLarge, match=f"more than {16 * WORDS_CAP} letters"):
            word_carrier(a, d)
    # every word has at most 15 letters on two or more, so the word cap binds first
    for nv, top in ((2, 14), (3, 8), (4, 6), (5, 5), (6, 5), (7, 4), (8, 4)):
        vs = VertexSet.of(*"abcdefgh"[:nv])
        assert word_carrier(vs, top).max_degree == top
        with pytest.raises(CarrierTooLarge, match="exceed the cap"):
            word_carrier(vs, top + 1)


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
            lhs = delta_pairing(wedge_chain(a, cx, FULL), ce)
            rhs = delta_pairing(cx, wedge_chain(w, ce, FULL))
            assert lhs == rhs


def test_adjointness_arity_three_sign():
    # reversal of three anticommuting generators contributes the sign -1
    z = [Fraction(1), Fraction(1), Fraction(1)]
    a = WedgeOperator.build("partial", 3, [(1, (0, 1, 2))])
    w = WedgeOperator.build("d", 3, [(-1, (0, 1, 2))])
    for xi in [(0, 1, 2), (2, 1, 0), (0, 2, 1)]:
        cx = FreeChain.single(QQ, xi)
        ce = FreeChain(QQ, -1, {(): 1})
        lhs = delta_pairing(wedge_chain(a, cx, FULL), ce)
        rhs = delta_pairing(cx, wedge_chain(w, ce, FULL))
        assert lhs == rhs


def test_word_module_complex_agrees_with_edge_complex():
    # the edge complex of a simplicial complex is the sub-block of the
    # full increasing-word complex spanned by its edges; the empty word
    # is a row of that block only when the empty edge is in h
    rng = random.Random(61)
    empty = set()
    for _ in range(10):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        pool = Hypergraph(vs, power_set(vs)).sorted_edges()
        h = closure(Hypergraph.of(vs, [e for e in pool if rng.random() < 0.35]),
                    ClosureOp.DELTA_UP)
        op = alpha(*[rng.randint(1, 3) for _ in range(n)])
        edge_cx = build_complex(ComplexSpec(edge_carrier(h), op, 0, QQ))
        word_cx = build_complex(ComplexSpec(edge_carrier(Hypergraph(vs, power_set(vs))),
                                            op, 0, QQ))
        for deg in edge_cx.spec.degrees():
            rows, cols = word_cx.basis(deg - 1), word_cx.basis(deg)
            sub = {(rows[i], cols[j]): v for (i, j), v in word_cx.matrix(deg).entries
                   if rows[i] in h.edges and cols[j] in h.edges}
            rows, cols = edge_cx.basis(deg - 1), edge_cx.basis(deg)
            assert sub == {(rows[i], cols[j]): v for (i, j), v in edge_cx.matrix(deg).entries}
        empty.add(h.has_empty_edge)
    assert empty == {True, False}


def random_subfamily(rng, h, kind, empty):
    """A family of h's class inside h, closed from some of its edges; with
    `empty` it also holds the empty edge (h must hold it too), which for
    an independence hypergraph makes it the whole power set."""
    up = ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP
    seed = frozenset(m for m in h.masks if m and rng.random() < 0.4)
    sub = closure(Hypergraph(h.vertices, seed), up)
    if not empty:
        return sub
    return sub.with_masks(sub.masks | {0}) if kind == "partial" else h


def test_restrict_matches_build_complex():
    """A subfamily's complex restricted from an ambient complex has the
    bases and matrices that `build_complex` gives it: over Z, Q and F_p,
    for both operator families, arity 1 and 3 and every offset, from edge,
    increasing-word and all-words ambients, with the empty edge on both
    sides, on neither, or on the ambient alone."""
    rng = random.Random(83)
    seen = {"entries": 0, "increasing words": 0, "all words": 0}
    for trial in range(240):
        ring = (ZZ, QQ, GF(5))[trial % 3]
        kind = ("partial", "d")[trial // 3 % 2]
        arity = (1, 3)[trial // 6 % 2]
        empty = trial // 12 % 2 == 1
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(3, 5))])
        ambient = random_family(rng, vs, kind, empty)
        sub = random_subfamily(rng, ambient, kind, empty and rng.random() < 0.5)
        op = random_boundary(rng, ring, kind, len(vs), arity)
        # all words on five letters through degree 4 would be slow to build
        words = rng.choice(["increasing words", "all words" if len(vs) < 5 else None,
                            None, None, None, None])
        carrier = {"increasing words": edge_carrier(Hypergraph(vs, power_set(vs))),
                   "all words": word_carrier(vs, max(ambient.top_degree, -1)),
                   None: edge_carrier(ambient)}[words]
        for q in range(arity):
            cut = build_complex(ComplexSpec(carrier, op, q, ring)).restrict(sub)
            want = build_complex(ComplexSpec(edge_carrier(sub), op, q, ring))
            assert cut.spec == want.spec
            assert cut.bases == want.bases and cut.mats == want.mats
            seen["entries"] += sum(len(m.entries) for m in cut.mats.values())
        seen[words] = seen.get(words, 0) + 1
        key = (kind, arity, bool(carrier.basis(-1)), sub.has_empty_edge)
        seen[key] = seen.get(key, 0) + 1
    assert seen["entries"] >= 2000, seen
    assert seen["increasing words"] >= 30 and seen["all words"] >= 20, seen
    for kind in ("partial", "d"):
        for arity in (1, 3):
            for has in ((False, False), (True, False), (True, True)):
                assert seen.get((kind, arity, *has), 0) >= 5, seen


def test_restrict_rejects_a_family_outside_the_complex():
    built = build_complex(spec(ARC_B, alpha(1, 1, 1), QQ))
    with pytest.raises(NotIncluded):
        built.restrict(ARC_A)
    with pytest.raises(NotIncluded):
        built.restrict(Hypergraph.of(VertexSet.of("t0", "t1", "t2"), [[0], [2], [0, 2]]))
    # the extra edge lies off the arity-3 grid, so no basis misses it
    points = Hypergraph.of(S3, [[0], [1], [2]])
    op = WedgeOperator.build("partial", 3, [(1, (0, 1, 2))])
    with pytest.raises(NotIncluded):
        build_complex(spec(points, op, QQ)).restrict(SEGMENT.with_masks(SEGMENT.masks | {0b100}))
    # an edge above the truncation of an all-words complex
    words = build_complex(ComplexSpec(word_carrier(S3, 0), alpha(1, 1, 1), 0, QQ))
    assert words.restrict(ARC_B.with_masks({0b001, 0b100})).dim(0) == 2
    with pytest.raises(NotIncluded):
        words.restrict(ARC_B)
    # the class check and its text are those of the subfamily's own build
    with pytest.raises(ClassMismatch, match="not an augmented simplicial complex"):
        built.restrict(L1)


def test_readme_library_block_runs(capsys):
    """The README's Library example runs as printed, on the public names,
    and prints the circle's groups: H_1 = Z and nothing below."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```\n", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == [
        f"{n} SubquotientPresentation(free_rank={free}, torsion_factors=())"
        for n, free in ((-1, 0), (0, 0), (1, 1))]
