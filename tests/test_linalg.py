import random
from fractions import Fraction
from itertools import combinations

import pytest

from hyperhom.errors import CompositionNotZero, SchemaViolation
from hyperhom.homology import (
    ComplexSpec,
    build_complex,
    edge_carrier,
)
from hyperhom.hypergraphs import Hypergraph
from hyperhom.linalg import (
    SparseMatrix,
    SubquotientPresentation,
    field_reduce,
    homology_presentation,
    kernel_basis,
    rank,
    smith_normal_form,
)
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import VertexSet, WedgeOperator

from field_oracle import (
    apply,
    columns,
    dense_kernel,
    field_rref,
    gauss_jordan_rank,
    integer_kernel,
    modp_row_rank,
    q_rank,
    well_formed,
)


def mat(rows, cols, ring, dense):
    items = []
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                items.append(((i, j), v))
    return SparseMatrix.from_entries(rows, cols, ring, items)


def test_rank_empty_and_identity():
    assert rank(SparseMatrix.zero(0, 0, QQ)) == 0
    assert rank(SparseMatrix.identity(3, QQ)) == 3


def test_rank_dependent_rows():
    m = mat(3, 3, QQ, [[1, -1, 0], [0, 1, -1], [1, 0, -1]])
    assert rank(m) == 2


def test_rank_over_fp_differs_from_q():
    m = mat(1, 1, GF(5), [[5]])
    assert rank(m) == 0
    assert rank(mat(1, 1, ZZ, [[5]])) == 1


def test_kernel_zero_matrix_and_identity():
    assert kernel_basis(SparseMatrix.zero(2, 2, QQ)) == SparseMatrix.identity(2, QQ)
    assert kernel_basis(SparseMatrix.identity(3, QQ)) == SparseMatrix.zero(3, 0, QQ)


def test_kernel_basis_is_field_only():
    with pytest.raises(SchemaViolation):
        kernel_basis(mat(1, 2, ZZ, [[2, 4]]))
    with pytest.raises(SchemaViolation):
        kernel_basis(SparseMatrix.zero(0, 3, ZZ))


def test_kernel_weighted_boundary_over_z():
    # the lattice oracle on the degree-one boundary of the three-edge cycle
    # with weights (1, 1, 1); columns ordered (01), (02), (12), rows (0),
    # (1), (2)
    m = mat(3, 3, ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    basis = integer_kernel(m)
    assert len(basis) == 1
    v = basis[0]
    assert v in ([1, -1, 1], [-1, 1, -1])
    assert apply(m, v) == [0, 0, 0]


def test_integer_kernel_is_saturated():
    # rows (2, 4): rational kernel is spanned by (2, -1); the saturated
    # integer kernel is exactly that, not some index-2 sublattice
    m = mat(1, 2, ZZ, [[2, 4]])
    basis = integer_kernel(m)
    assert basis == [[2, -1]]


def test_snf_trivial_cases():
    assert smith_normal_form(SparseMatrix.identity(2, ZZ)) == [1, 1]
    assert smith_normal_form(mat(2, 2, ZZ, [[2, 0], [0, 3]])) == [1, 6]
    # the residual block is finished modulo D = |minor|; a pivot that
    # reduces to zero there stands for the factor D itself
    for d in (3, 2, 6, 12, 97, 2**70 + 1):
        assert smith_normal_form(mat(1, 1, ZZ, [[d]])) == [d]
        assert smith_normal_form(mat(1, 1, ZZ, [[-d]])) == [d]
    assert smith_normal_form(mat(2, 2, ZZ, [[0, 3], [2, 0]])) == [1, 6]
    assert smith_normal_form(mat(2, 3, ZZ, [[2, 0, 4], [0, 3, 0]])) == [1, 6]


def test_snf_with_zero_rows():
    m = mat(3, 2, ZZ, [[2, 0], [0, 2], [0, 0]])
    assert smith_normal_form(m) == [2, 2]
    assert smith_normal_form(SparseMatrix.zero(2, 3, ZZ)) == [0, 0]


def test_snf_permutation_invariance():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = mat(rows, cols, ZZ, dense)
        base = smith_normal_form(m)
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert smith_normal_form(m.permuted(rp, cp)) == base


def test_rank_plus_nullity():
    rng = random.Random(11)
    for ring in (QQ, GF(3), GF(7)):
        for _ in range(30):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            dense = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            m = mat(rows, cols, ring, dense)
            kb = kernel_basis(m)
            assert well_formed(kb) and kb.rows == cols
            assert rank(m) + kb.cols == cols
            assert m.mul(kb).is_zero()


def random_field_matrices(rng, ring):
    """Random small matrices, with the edge shapes spelled out: 0 x n,
    n x 0, zero, full rank (unit diagonal, zeros below it), repeated rows,
    and over Q non-integer entries."""
    yield mat(0, 4, ring, [])
    yield mat(3, 0, ring, [[], [], []])
    yield SparseMatrix.zero(3, 5, ring)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -4, 6]) for _ in range(cols)]
                 for _ in range(rows)]
        shape = rng.randrange(4)
        if shape == 1:
            for i in range(min(rows, cols)):
                dense[i][i] = 1
                for j in range(i):
                    dense[i][j] = 0
        elif shape == 2:
            dense += [list(dense[rng.randrange(rows)]) for _ in range(rng.randint(1, 3))]
            rng.shuffle(dense)
        elif shape == 3 and ring == QQ:
            dense = [[Fraction(v, rng.choice([1, 2, 3])) for v in row] for row in dense]
        yield mat(len(dense), cols, ring, dense)


@pytest.mark.parametrize("ring", [QQ, GF(3), GF(5), GF(7)], ids=str)
def test_sparse_field_reduction_matches_dense_oracle(ring):
    rng = random.Random(31 + (ring.p or 0))
    full_rank = 0
    for m in random_field_matrices(rng, ring):
        kb = kernel_basis(m)
        assert well_formed(kb) and kb.rows == m.cols
        assert columns(kb) == dense_kernel(m)
        r = rank(m)
        full_rank += 0 < r == min(m.rows, m.cols)
        if ring.p:
            rows = [dict() for _ in range(m.rows)]
            for (i, j), v in m.entries:
                rows[i][j] = v
            assert r == modp_row_rank(rows, ring.p)
        # reduce [m | I] on the m block: the pivot rows there are the
        # dense RREF, the other rows cancel on it, and the identity block
        # records an invertible transform onto those rows
        aug = [{m.cols + i: ring.one} for i in range(m.rows)]
        for (i, j), v in m.entries:
            aug[i][j] = v
        given = list(aug)
        pivots, pivot_rows, zero_rows = field_reduce(aug, m.cols, ring)
        # the rows come back as the caller's own dicts, each exactly once
        assert sorted(map(id, pivot_rows + zero_rows)) == sorted(map(id, given))
        dense = m.dense_rows()
        assert pivots == field_rref(dense, m.cols, ring)
        assert len(pivots) == r and len(zero_rows) == m.rows - r
        for row, want in zip(pivot_rows, dense):
            assert [row.get(j, ring.zero) for j in range(m.cols)] == want
        assert all(j >= m.cols for row in zero_rows for j in row)
        out = pivot_rows + zero_rows
        transform = SparseMatrix.from_entries(m.rows, m.rows, ring, [
            ((i, j - m.cols), v) for i, row in enumerate(out) for j, v in row.items()
            if j >= m.cols
        ])
        assert rank(transform) == m.rows
        reduced = transform.mul(m).dense_rows()
        assert reduced == dense[:r] + [[ring.zero] * m.cols] * (m.rows - r)
    assert full_rank >= 10


def fraction_combinations(rng):
    """Q matrices whose rows are random Fraction combinations of a few
    random Fraction rows, so that their rank is mostly deficient."""
    for _ in range(40):
        k, cols = rng.randint(1, 4), rng.randint(2, 7)
        basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(cols)]
                 for _ in range(k)]
        rows = []
        for _ in range(rng.randint(k, k + 3)):
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)]
            rows.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols)])
        yield mat(len(rows), cols, QQ, rows)


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=str)
def test_rank_matches_fraction_free_oracle(ring):
    rng = random.Random(37)
    matrices = list(random_field_matrices(rng, ring))
    if ring == QQ:
        matrices += fraction_combinations(rng)
    deficient = 0
    for m in matrices:
        r = rank(m)
        assert r == q_rank(m)
        if any(type(v) is Fraction for _, v in m.entries):
            deficient += r < min(m.rows, m.cols)
    assert (deficient >= 10) == (ring == QQ)


def deficient_dense(rng, ring, rows=60, cols=90):
    """A rows x cols matrix at density 0.3 with entries up to 9 in absolute
    value, whose rows from the 46th on are combinations of two earlier
    rows, so that its rank is at most 45; over Q every third row is
    divided by 2 or 3 into Fractions."""
    dense = [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(cols)]
             for _ in range(rows)]
    for i in range(45, rows):
        a, b = rng.sample(range(i), 2)
        c, d = rng.choice([-2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2, 3])
        dense[i] = [c * x + d * y for x, y in zip(dense[a], dense[b])]
    if ring == QQ:
        dense = [[Fraction(v, 2 + i % 2) for v in row] if i % 3 == 0 else row
                 for i, row in enumerate(dense)]
    rng.shuffle(dense)
    return mat(rows, cols, ring, dense)


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(3), GF(5), GF(7), GF(2**61 - 1)], ids=str)
def test_rank_matches_gauss_jordan_and_forward_oracles(ring):
    """The forward-elimination `rank` against the Gauss-Jordan pivot count
    and against the forward oracles, fraction-free over Q and Z and mod p
    over F_p, on the edge shapes of `random_field_matrices`, rows mixing
    ints and Fractions, and rank-deficient dense matrices, whose integer
    rows grow to thousands of bits."""
    rng = random.Random(43 + (ring.p or 0) % 1000)
    matrices = list(random_field_matrices(rng, ring))
    if ring == QQ:
        matrices += fraction_combinations(rng)
    matrices += [deficient_dense(rng, ring), deficient_dense(rng, ring, 90, 60)]
    ranks = []
    deficient = mixed = 0
    for m in matrices:
        entries = tuple(m.entries)
        r = rank(m)
        ranks.append(r)
        assert m.entries == entries
        assert r == gauss_jordan_rank(m)
        if ring.p:
            rows = [{} for _ in range(m.rows)]
            for (i, j), v in m.entries:
                rows[i][j] = v
            assert r == modp_row_rank(rows, ring.p)
        else:
            assert r == q_rank(m)
        deficient += r < min(m.rows, m.cols)
        kinds = {}
        for (i, _), v in m.entries:
            kinds.setdefault(i, set()).add(type(v))
        mixed += any(len(k) == 2 for k in kinds.values())
    assert deficient >= 5 and max(ranks[-2:]) <= 45
    assert (mixed >= 10) == (ring == QQ)


def skeleton(n, k):
    """The augmented k-skeleton of the (n-1)-simplex."""
    vs = VertexSet.of(*[f"v{i}" for i in range(n)])
    return Hypergraph(vs, frozenset(c for r in range(k + 2) for c in combinations(range(n), r)))


def cofaces(n, k):
    """The power set of n vertices minus its k-skeleton."""
    vs = VertexSet.of(*[f"v{i}" for i in range(n)])
    return Hypergraph(vs, frozenset(
        c for r in range(k + 2, n + 1) for c in combinations(range(n), r)))


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=str)
def test_rank_matches_fraction_free_oracle_on_boundaries(ring):
    """Every boundary of the 3-skeleton on 9 vertices, the 4-skeleton on 8
    and the cofaces of the 2-skeleton on 8, with weights 1..n; over Q
    also the 3-skeleton on 8 with weights 1/1..1/8, whose boundaries hold
    Fractions."""
    specs = [
        ComplexSpec(edge_carrier(skeleton(9, 3)),
                    WedgeOperator.weighted_sum("partial", range(1, 10)), 0, ring),
        ComplexSpec(edge_carrier(skeleton(8, 4)),
                    WedgeOperator.weighted_sum("partial", range(1, 9)), 0, ring),
        ComplexSpec(edge_carrier(cofaces(8, 2)),
                    WedgeOperator.weighted_sum("d", range(1, 9)), 0, ring),
    ]
    if ring == QQ:
        specs.append(ComplexSpec(
            edge_carrier(skeleton(8, 3)),
            WedgeOperator.weighted_sum("partial", [Fraction(1, k) for k in range(1, 9)]),
            0, ring))
    nonzero = fractional = 0
    for spec in specs:
        built = build_complex(spec)
        for n in spec.degrees():
            r = rank(built.matrix(n))
            assert r == q_rank(built.matrix(n)), (spec.carrier, n)
            nonzero += r > 0
            fractional += r > 0 and any(type(v) is Fraction for _, v in built.matrix(n).entries)
    assert nonzero >= 12 and (fractional >= 3) == (ring == QQ)


def test_presentation_zero_maps():
    out = SparseMatrix.zero(0, 2, QQ)
    inn = SparseMatrix.zero(2, 0, QQ)
    assert homology_presentation(out, inn) == SubquotientPresentation(2)


def test_presentation_composition_checked():
    out = mat(1, 1, ZZ, [[1]])
    inn = mat(1, 1, ZZ, [[1]])
    with pytest.raises(CompositionNotZero):
        homology_presentation(out, inn)


def test_presentation_on_weighted_circle_complex():
    # middle module: vertices (0),(1),(2); out: weighted augmentation onto
    # the empty edge; in: the three weighted edge boundaries. Weights (1,1,1).
    out = mat(1, 3, ZZ, [[1, 1, 1]])
    inn = mat(3, 3, ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    pres = homology_presentation(out, inn)
    assert pres == SubquotientPresentation(0)
    # bottom: Z modulo the ideal generated by the weights, here all of Z
    out_bottom = SparseMatrix.zero(0, 1, ZZ)
    pres2 = homology_presentation(out_bottom, out)
    assert pres2 == SubquotientPresentation(0)
    # top: rank-one kernel of the edge boundary, no incoming map
    top = homology_presentation(inn, SparseMatrix.zero(3, 0, ZZ))
    assert top == SubquotientPresentation(1)


def test_presentation_torsion():
    out = SparseMatrix.zero(0, 1, ZZ)
    assert homology_presentation(out, mat(1, 1, ZZ, [[2]])) == SubquotientPresentation(0, (2,))
    assert homology_presentation(out, mat(1, 2, ZZ, [[2, 3]])) == SubquotientPresentation(0)
    out2 = SparseMatrix.zero(0, 3, ZZ)
    inn2 = mat(3, 2, ZZ, [[2, 0], [0, 4], [0, 0]])
    assert homology_presentation(out2, inn2) == SubquotientPresentation(1, (2, 4))
    # torsion inside a nontrivial kernel: kernel of [1 1] is spanned by
    # (1, -1); the incoming image 3*(1, -1) leaves Z/3
    out3 = mat(1, 2, ZZ, [[1, 1]])
    inn3 = mat(2, 1, ZZ, [[3], [-3]])
    assert homology_presentation(out3, inn3) == SubquotientPresentation(0, (3,))


def test_presentation_field_vs_integer_consistency():
    rng = random.Random(23)
    for _ in range(20):
        dim = rng.randint(1, 4)
        up = rng.randint(0, 3)
        dense_in = [[rng.randint(-2, 2) for _ in range(up)] for _ in range(dim)]
        inn_z = mat(dim, up, ZZ, dense_in)
        out_z = SparseMatrix.zero(0, dim, ZZ)
        pres_z = homology_presentation(out_z, inn_z)
        inn_q = mat(dim, up, QQ, dense_in)
        out_q = SparseMatrix.zero(0, dim, QQ)
        pres_q = homology_presentation(out_q, inn_q)
        assert pres_q.free_rank == pres_z.free_rank
        assert pres_q.torsion_factors == ()


def test_subquotient_validation():
    with pytest.raises(SchemaViolation):
        SubquotientPresentation(0, (4, 6))
    with pytest.raises(SchemaViolation):
        SubquotientPresentation(0, (1,))
