"""Cross-checks against independent oracles: classical surface homology,
a third-party Smith normal form, lattice saturation via invariant
factors, and the diagonal change of basis that trivializes weights over a
field."""

import random

import pytest

from hyperhom.homology import ComplexSpec, edge_carrier, homology_table
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set
from hyperhom.linalg import SparseMatrix, smith_normal_form
from hyperhom.rings import GF, QQ, ZZ
from hyperhom.words import VertexSet, WedgeOperator

from field_oracle import apply, integer_kernel


def complex_from_faces(nverts, faces, with_empty=True):
    vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
    edges = {()} if with_empty else set()
    for f in faces:
        t = tuple(sorted(f))
        edges.add(t)
        for a in range(3):
            for b in range(a + 1, 3):
                edges.add((t[a], t[b]))
        for v in t:
            edges.add((v,))
    return Hypergraph.of(vs, edges)


def reduced_groups(h, weights, ring):
    op = WedgeOperator.weighted_sum("partial", weights)
    return {
        g.degree: (g.presentation.free_rank, list(g.presentation.torsion_factors))
        for g in homology_table(ComplexSpec(edge_carrier(h), op, 0, ring))
    }


def test_projective_plane_torsion():
    # minimal six-vertex triangulation (antipodal icosahedron): the only
    # nonvanishing reduced group is degree one, cyclic of order two
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    h = complex_from_faces(6, faces)
    got = reduced_groups(h, [1] * 6, ZZ)
    assert got == {-1: (0, []), 0: (0, []), 1: (0, [2]), 2: (0, [])}
    # two is invertible mod three, so the torsion class disappears
    got3 = reduced_groups(h, [1] * 6, GF(3))
    assert all(v == (0, []) for v in got3.values())


def test_seven_vertex_torus():
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    h = complex_from_faces(7, faces)
    assert len([e for e in h.edges if len(e) == 2]) == 21
    got = reduced_groups(h, [1] * 7, ZZ)
    assert got == {-1: (0, []), 0: (0, []), 1: (2, []), 2: (1, [])}


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    def check(dense):
        rows, cols = len(dense), len(dense[0])
        ours = smith_normal_form(
            SparseMatrix.from_entries(
                rows, cols, ZZ,
                [((i, j), v) for i, r in enumerate(dense) for j, v in enumerate(r) if v],
            )
        )
        theirs = sympy_snf(sympy.Matrix(dense), domain=sympy.ZZ)
        diag = [abs(int(theirs[i, i])) for i in range(min(rows, cols))]
        # align conventions: nonzero factors ascending, zeros trailing
        nonzero = sorted(d for d in diag if d)
        assert ours == nonzero + [0] * (len(diag) - len(nonzero)), (dense, ours, diag)

    rng = random.Random(7)
    for trial in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        dense = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0 and rows > 2:
            # dependent rows make the matrix rank deficient
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            dense[-1] = [a * x + b * y for x, y in zip(dense[0], dense[1])]
        scale = rng.choice((1, 2, 3, 4, 6, 9))
        check([[scale * v for v in row] for row in dense])
    # no unit entries, so the whole matrix is finished modulo a large minor
    for _ in range(20):
        n = rng.randint(4, 7)
        check([[rng.choice((-1, 1)) * rng.randint(2, 60) for _ in range(n)] for _ in range(n)])
    check([[6, 10, 15], [10, 15, 6], [15, 6, 10]])
    check([[2 * (i + j) + 4 for j in range(5)] for i in range(5)])


def test_integer_kernel_saturation_via_invariant_factors():
    # a lattice basis spans a saturated sublattice exactly when the matrix
    # of basis columns has all invariant factors equal to one
    rng = random.Random(11)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        dense = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        m = SparseMatrix.from_entries(
            rows, cols, ZZ,
            [((i, j), v) for i, r in enumerate(dense) for j, v in enumerate(r) if v],
        )
        basis = integer_kernel(m)
        if not basis:
            continue
        bmat = SparseMatrix.from_entries(
            cols, len(basis), ZZ,
            [((i, j), v) for j, vec in enumerate(basis) for i, v in enumerate(vec) if v],
        )
        factors = [d for d in smith_normal_form(bmat) if d]
        assert factors == [1] * len(basis)
        for vec in basis:
            assert all(x == 0 for x in apply(m, vec))


def test_field_homology_is_weight_independent():
    # conjugating by the diagonal of edge weight products turns the
    # weighted boundary into the classical one, so Betti numbers over a
    # field cannot depend on the (invertible) weights
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = closure(
            Hypergraph(
                vs,
                frozenset(m for m in power_set(vs) if m and rng.random() < 0.4),
            ),
            ClosureOp.DELTA_UP,
        )
        if rng.random() < 0.4:
            h = h.with_masks(h.masks | {0})
        for ring in (QQ, GF(5)):
            unit = reduced_groups(h, [1] * n, ring)
            weights = [rng.randint(1, 4) for _ in range(n)]
            weighted = reduced_groups(h, weights, ring)
            assert unit == weighted, (h.sorted_edges(), weights, ring)


def test_complementation_mirrors_raising_and_lowering():
    # complementing every edge turns insertion of s into deletion of s, so
    # the raising complex of an independence hypergraph and the lowering
    # complex of its local complement have equal Betti numbers in mirrored
    # degrees n <-> |S| - n - 2
    import random as _random

    from hyperhom.homology import ComplexSpec, build_complex, edge_carrier

    rng = _random.Random(21)
    checked = 0
    while checked < 40:
        n = rng.randint(2, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        ell = closure(
            Hypergraph(
                vs, frozenset(m for m in power_set(vs) if m and rng.random() < 0.4)
            ),
            ClosureOp.BAR_DELTA_UP,
        )
        if not ell.edges or ell.has_empty_edge:
            continue
        comp = closure(ell, ClosureOp.GAMMA_LOCAL)
        r = [rng.randint(1, 3) for _ in range(n)]
        ring = rng.choice([QQ, GF(5)])
        raising = build_complex(
            ComplexSpec(edge_carrier(ell), WedgeOperator.weighted_sum("d", r), 0, ring)
        )
        lowering = build_complex(
            ComplexSpec(edge_carrier(comp), WedgeOperator.weighted_sum("partial", r), 0, ring)
        )
        for deg in raising.spec.degrees():
            mirror = n - deg - 2
            expected = lowering.solver(mirror).betti if mirror >= -1 else 0
            assert raising.solver(deg).betti == expected
        checked += 1


def test_unimodular_weights_preserve_integer_torsion():
    # diagonal conjugation is defined over the integers when every weight
    # is a unit, so signs cannot change any homology group
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    h = complex_from_faces(6, faces)
    rng = random.Random(17)
    for _ in range(5):
        weights = [rng.choice([1, -1]) for _ in range(6)]
        assert reduced_groups(h, weights, ZZ) == reduced_groups(h, [1] * 6, ZZ)
