import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from hyperhom.errors import MonotonicityViolation, SchemaViolation
from hyperhom.homology import (
    ComplexSpec,
    homology_table,
    inclusion_induced,
    independence_carrier,
    mayer_vietoris,
    mv_complexes,
    mv_sequence,
    operator_action,
    simplicial_carrier,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set
from hyperhom.persistence import (
    Filtration,
    _mv_square_check,
    barcode,
    complex_at,
    persistent_mv,
    persistent_ranks,
)
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet, WedgeOperator

S3 = VertexSet.of("s0", "s1", "s2")


def alpha(*r):
    return WedgeOperator.weighted_sum("partial", r)


def omega(*r):
    return WedgeOperator.weighted_sum("d", r)


SEG = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")


def test_complex_at():
    assert complex_at(SEG, -1).edges == frozenset()
    assert complex_at(SEG, 5).edges == {(0,), (1,), (0, 1)}
    assert complex_at(SEG, Fraction(1, 2)).edges == {(0,), (1,)}


def test_monotonicity_validation():
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0, 1), 0), ((0,), 1), ((1,), 1)], "simplicial")
    # an independence filtration must contain supersets from the start:
    # a lone two-vertex edge on three vertices is not upward closed
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0, 1), 0), ((0, 1, 2), 1)], "independence")
    with pytest.raises(MonotonicityViolation):
        Filtration.of(S3, [((0,), 0), ((), 1)], "simplicial")


def test_persistent_ranks_segment():
    pr = persistent_ranks(SEG, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.grid == (0, 1)
    assert pr.rank(0, 0) == 2
    assert pr.rank(0, 1) == 1
    assert pr.rank(1, 1) == 1


def test_single_threshold_ranks_equal_betti():
    f = Filtration.of(S3, [((0,), 0), ((1,), 0)], "simplicial")
    pr = persistent_ranks(f, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.grid == (0,)
    assert pr.betti_diagonal == [2]


def test_constant_filtration_constant_ranks():
    f = Filtration.of(S3, [((0,), 2), ((1,), 2), ((0, 1), 2)], "simplicial")
    pr = persistent_ranks(f, alpha(1, 1, 1), 0, QQ, 0)
    assert pr.ranks == {(0, 0): 1}


def test_barcode_segment():
    bc = barcode(SEG, alpha(1, 1, 1), 0, QQ, 0)
    assert set(bc.bars) == {(Fraction(0), Fraction(1), 1), (Fraction(0), None, 1)}


def test_barcode_empty_filtration():
    f = Filtration.of(S3, [], "simplicial")
    assert barcode(f, alpha(1, 1, 1), 0, QQ, 0).bars == ()


def test_independence_barcode_class_dies():
    # top simplex first, then a smaller edge whose insertion image fills
    # the degree-two group (weight 2 is invertible mod 3)
    f = Filtration.of(S3, [((0, 1, 2), 0), ((0, 1), 1)], "independence")
    bc = barcode(f, omega(1, 1, 2), 0, GF(3), 2)
    assert bc.bars == ((Fraction(0), Fraction(1), 1),)


def test_barcode_rank_duality():
    pr = persistent_ranks(SEG, alpha(1, 1, 1), 0, QQ, 0)
    bc = barcode(SEG, alpha(1, 1, 1), 0, QQ, 0)
    for i in range(len(pr.grid)):
        for j in range(i, len(pr.grid)):
            assert bc.rank_between(pr.grid[i], pr.grid[j]) == pr.rank(i, j)


def random_simplicial_filtration(rng, nverts, with_empty=None):
    vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
    pool = sorted(power_set(vs), key=lambda e: (len(e), e))
    final = closure(
        Hypergraph(vs, frozenset(e for e in pool if e and rng.random() < 0.5)),
        ClosureOp.DELTA_UP,
    )
    births = {}
    for e in sorted(final.edges, key=len):
        floor = max((births[tuple(f)] for k in range(1, len(e))
                     for f in itertools.combinations(e, k)), default=0)
        births[e] = floor + rng.choice([0, 0, 1, Fraction(1, 2)])
    if with_empty is None:
        with_empty = rng.random() < 0.3
    if with_empty and births:
        births[()] = 0
    return Filtration.of(vs, list(births.items()), "simplicial")


def random_independence_filtration(rng, nverts):
    """Edgewise complement of a simplicial filtration that has the empty
    edge but not the full simplex: an independence filtration."""
    f = random_simplicial_filtration(rng, nverts, with_empty=True)
    full = tuple(range(nverts))
    births = [(tuple(v for v in full if v not in e), b) for e, b in f.births if e != full]
    return Filtration.of(f.vertices, births, "independence")


def random_operator(rng, kind, nverts, arity):
    if arity == 1:
        return WedgeOperator.weighted_sum(kind, [rng.randint(1, 3) for _ in range(nverts)])
    terms = [(rng.randint(1, 3), tuple(sorted(rng.sample(range(nverts), 3))))
             for _ in range(rng.randint(1, 2))]
    return WedgeOperator.build(kind, 3, terms)


def ranks_by_pairs(f, op, q, ring):
    """The per-pair route: one inclusion_induced call per grid pair and the
    Betti number of each threshold on the diagonal, for every degree."""
    grid = f.critical_values()
    make = simplicial_carrier if f.monotonicity_class == "simplicial" else independence_carrier
    degrees = [n for n in range(-1, f.final_complex.top_degree + 1)
               if (n - q) % op.arity == 0]
    out = {n: {} for n in degrees}
    for i, x in enumerate(grid):
        betti = {g.degree: g.presentation.free_rank
                 for g in homology_table(ComplexSpec(make(f.complex_at(x)), op, q, ring))}
        for n in degrees:
            out[n][(i, i)] = betti.get(n, 0)
        for j in range(i + 1, len(grid)):
            maps = inclusion_induced(f.complex_at(x), f.complex_at(grid[j]), op, q, ring)
            for n in degrees:
                out[n][(i, j)] = maps[n].rank(ring) if n in maps else 0
    return out


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize("cls", ["simplicial", "independence"])
def test_persistent_ranks_match_per_pair_route(cls, arity, ring):
    rng = random.Random(f"{cls}:{arity}:{ring}")
    kind = "partial" if cls == "simplicial" else "d"
    persisting = dying = 0
    for t in range(8):
        nverts = rng.randint(3, 4) if arity == 1 else rng.randint(4, 5)
        if cls == "simplicial":
            f = random_simplicial_filtration(rng, nverts, with_empty=t % 2 == 0)
        else:
            f = random_independence_filtration(rng, nverts)
        op = random_operator(rng, kind, nverts, arity)
        if op.is_zero:
            continue
        for q in range(arity):
            for n, expected in ranks_by_pairs(f, op, q, ring).items():
                got = persistent_ranks(f, op, q, ring, n).ranks
                assert got == expected
                for (i, j), r in got.items():
                    if i < j:
                        persisting += r > 0
                        dying += r < got[(i, i)]
    assert persisting > 0 and dying > 0


def test_rank_monotonicity_and_functoriality_random():
    rng = random.Random(67)
    for _ in range(15):
        f = random_simplicial_filtration(rng, rng.randint(2, 4))
        op = alpha(*[rng.randint(1, 3) for _ in range(len(f.vertices))])
        for n in (0, 1):
            pr = persistent_ranks(f, op, 0, QQ, n)
            m = len(pr.grid)
            for i in range(m):
                for j in range(i, m):
                    if j + 1 < m:
                        assert pr.rank(i, j) >= pr.rank(i, j + 1)
                    if i > 0:
                        assert pr.rank(i, j) >= pr.rank(i - 1, j)
            bc = barcode(f, op, 0, QQ, n)
            for i in range(m):
                for j in range(i, m):
                    assert bc.rank_between(pr.grid[i], pr.grid[j]) == pr.rank(i, j)


def test_inclusion_composition_functoriality():
    rng = random.Random(71)
    for _ in range(10):
        f = random_simplicial_filtration(rng, 3)
        grid = f.critical_values()
        if len(grid) < 3:
            continue
        op = alpha(1, 1, 1)
        x, y, z = grid[0], grid[len(grid) // 2], grid[-1]
        for n in (0, 1):
            m_xy = inclusion_induced(f.complex_at(x), f.complex_at(y), op, 0, QQ)
            m_yz = inclusion_induced(f.complex_at(y), f.complex_at(z), op, 0, QQ)
            m_xz = inclusion_induced(f.complex_at(x), f.complex_at(z), op, 0, QQ)
            if n in m_xz and n in m_yz and n in m_xy:
                assert m_yz[n].compose(m_xy[n], QQ).matrix == m_xz[n].matrix


def test_action_commutes_with_persistence_maps():
    rng = random.Random(73)
    for _ in range(10):
        f = random_simplicial_filtration(rng, 3)
        grid = f.critical_values()
        if len(grid) < 2:
            continue
        op = alpha(*[rng.randint(1, 2) for _ in range(3)])
        beta = WedgeOperator.build("partial", 2, [(1, (0, 1))])
        x, y = grid[0], grid[-1]
        kx, ky = f.complex_at(x), f.complex_at(y)
        act_x = operator_action(ComplexSpec(simplicial_carrier(kx), op, 0, QQ), beta)
        act_y = operator_action(ComplexSpec(simplicial_carrier(ky), op, 0, QQ), beta)
        incl = inclusion_induced(kx, ky, op, 0, QQ)
        for n, m in act_x.items():
            tgt = m.target_degree
            if tgt < -1 or n not in incl:
                continue
            lhs = act_y[n].compose(incl[n], QQ)
            if tgt in incl:
                rhs = incl[tgt].compose(m, QQ)
                assert lhs.matrix == rhs.matrix


def test_persistent_mv_identical_filtrations():
    rep = persistent_mv(SEG, SEG, alpha(1, 1, 1), 0, QQ)
    assert rep.squares_commute
    assert all(seq.all_exact for seq in rep.sequences)


def test_persistent_mv_grown_pair():
    fa = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")
    fb = Filtration.of(S3, [((1,), 0), ((2,), 0), ((1, 2), 2)], "simplicial")
    rep = persistent_mv(fa, fb, alpha(1, 1, 1), 0, QQ)
    assert rep.grid == (0, 1, 2)
    assert rep.squares_commute
    assert all(seq.all_exact for seq in rep.sequences)


def test_persistent_mv_random():
    rng = random.Random(79)
    cases = [("simplicial", False)] * 4 + [("simplicial", True)] * 4 + [("independence", None)] * 4
    for cls, with_empty in cases:
        if cls == "simplicial":
            fa = random_simplicial_filtration(rng, 3, with_empty=with_empty)
            fb = random_simplicial_filtration(rng, 3, with_empty=with_empty)
            op = alpha(1, 1, 1)
        else:
            fa = random_independence_filtration(rng, 3)
            fb = random_independence_filtration(rng, 3)
            op = omega(*[rng.randint(1, 3) for _ in range(3)])
        rep = persistent_mv(fa, fb, op, 0, QQ)
        assert rep.squares_commute
        assert all(seq.all_exact for seq in rep.sequences)
        for x, seq in zip(rep.grid, rep.sequences):
            assert seq == mayer_vietoris(fa.complex_at(x), fb.complex_at(x), op, 0, QQ)


def test_mv_square_check_sees_a_changed_entry():
    fa = Filtration.of(S3, [((0,), 0), ((1,), 0), ((0, 1), 1)], "simplicial")
    fb = Filtration.of(S3, [((1,), 0), ((2,), 0), ((1, 2), 2)], "simplicial")
    op = alpha(1, 1, 1)
    cx_x = mv_complexes(fa.complex_at(0), fb.complex_at(0), op, 0, QQ)
    cx_y = mv_complexes(fa.complex_at(1), fb.complex_at(1), op, 0, QQ)
    seq_x, seq_y = mv_sequence(cx_x), mv_sequence(cx_y)
    assert _mv_square_check(cx_x, cx_y, seq_x, seq_y)
    # change the later intersection-to-sum map in degree 0: its source, the
    # class of s1, maps isomorphically between the thresholds, so the
    # square through it must fail
    k = [(node.label, node.degree) for node in seq_y.nodes].index(("intersection", 0))
    rows = seq_y.maps[k]
    assert len(rows) == 3 and len(rows[0]) == 1
    changed = ((rows[0][0] + 1,),) + rows[1:]
    maps = seq_y.maps[:k] + (changed,) + seq_y.maps[k + 1:]
    assert not _mv_square_check(cx_x, cx_y, seq_x, dataclasses.replace(seq_y, maps=maps))


def test_operator_kind_must_match_class():
    with pytest.raises(SchemaViolation):
        persistent_ranks(SEG, omega(1, 1, 1), 0, QQ, 0)
