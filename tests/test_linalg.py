import random

import pytest

from hyperhom.errors import CompositionNotZero, SchemaViolation
from hyperhom.linalg import (
    SparseMatrix,
    SubquotientPresentation,
    homology_presentation,
    kernel_basis,
    rank,
    smith_normal_form,
)
from hyperhom.rings import GF, QQ, ZZ


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
    assert len(kernel_basis(SparseMatrix.zero(2, 2, QQ))) == 2
    assert kernel_basis(SparseMatrix.identity(3, QQ)) == []


def test_kernel_weighted_boundary_over_z():
    # degree-one boundary of the three-edge cycle with weights (1, 1, 1);
    # columns ordered (01), (02), (12), rows (0), (1), (2)
    m = mat(3, 3, ZZ, [[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v in ([1, -1, 1], [-1, 1, -1])
    assert m.apply(v) == [0, 0, 0]


def test_integer_kernel_is_saturated():
    # rows (2, 4): rational kernel is spanned by (2, -1); the saturated
    # integer kernel is exactly that, not some index-2 sublattice
    m = mat(1, 2, ZZ, [[2, 4]])
    basis = kernel_basis(m)
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
            assert rank(m) + len(kernel_basis(m)) == cols
            for v in kernel_basis(m):
                assert all(ring.is_zero(x) for x in m.apply(v))


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
