"""`DegreeSolver`, which reads representatives and coordinates on the free
coordinates of the cycles, against the solvers it replaced: the sparse
reduction of [in-columns | cycles | I] (`field_oracle.SparseSolver`) and
its dense form (`field_oracle.DenseSolver`).

Complexes are drawn over Q with non-unit weights and over F_p, for both
operator families, at arity 1 and 3, with and without the empty edge.
At every degree of the grid the three solvers must give the same
representatives, Betti number and boundary rank, the same coordinates
for random combinations of cycles and boundaries, and refuse the same
columns off the cycles, also where the group vanishes.
"""

import random

from hyperhom.homology import ComplexSpec, DegreeSolver, build_complex, edge_carrier
from hyperhom.linalg import SparseMatrix, kernel_basis
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet

from field_oracle import DenseSolver, SparseSolver, apply, columns, matrix_of_columns, well_formed
from test_homology import raises_off_cycles
from test_map_route import random_boundary, random_family


def combination(rng, ring, vecs, dim):
    """A random combination of the dense vectors `vecs`, each `dim` long."""
    out = [ring.zero] * dim
    for vec in vecs:
        f = ring.coerce(rng.randint(-2, 2))
        out = [ring.add(a, ring.mul(f, b)) for a, b in zip(out, vec)]
    return out


def test_degree_solver_matches_the_solvers_it_replaced():
    rng = random.Random(2026)
    seen = {"betti0": 0, "betti2+": 0, "refused_at_betti0": 0, "refused_with_classes": 0,
            "partial": 0, "d": 0, "arity3": 0, "empty": 0, "no_empty": 0,
            "Q": 0, "Fp": 0, "fraction_weights": 0}
    for trial in range(120):
        kind = ("partial", "d")[trial % 2]
        ring = (QQ, QQ, GF(5), GF(7))[trial // 2 % 4]
        nverts = rng.randint(3, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
        arity = 3 if trial % 4 >= 2 and nverts >= 3 else 1
        op = random_boundary(rng, ring, kind, nverts, arity)
        h = random_family(rng, vs, kind, empty=rng.random() < 0.4)
        if op.is_zero or not h.edges:
            continue
        built = build_complex(ComplexSpec(edge_carrier(h), op, rng.randrange(op.arity), ring))
        seen[kind] += 1
        seen["arity3"] += op.arity == 3
        seen["empty" if () in h.edges else "no_empty"] += 1
        seen["Q" if ring == QQ else "Fp"] += 1
        seen["fraction_weights"] += any(type(c) is not int for c, _ in op.terms)
        for n in built.spec.degrees():
            dim, out_mat, in_mat = built.dim(n), built.matrix(n), built.incoming_matrix(n)
            solver = DegreeSolver(out_mat, in_mat)
            sparse = SparseSolver(ring, dim, out_mat, in_mat)
            dense = DenseSolver(ring, dim, out_mat, in_mat)
            assert well_formed(solver.reps) and solver.reps == sparse.reps
            assert columns(solver.reps) == dense.reps
            assert solver.betti == sparse.betti == dense.betti
            assert solver.boundary_rank == sparse.boundary_rank == dense.boundary_rank
            seen["betti0"] += solver.betti == 0
            seen["betti2+"] += solver.betti >= 2
            # random combinations of the cycles and the boundaries
            cycles = columns(kernel_basis(out_mat)) + columns(in_mat)
            mixed = [combination(rng, ring, cycles, dim) for _ in range(4)]
            vecs = matrix_of_columns(mixed, dim, ring)
            got = solver.coords(vecs, "mixed")
            assert well_formed(got) and got == sparse.coords(vecs, "mixed")
            assert [tuple(c) for c in columns(got)] == [dense.coords(z) for z in mixed]
            assert solver.coords(solver.reps, "reps") == SparseMatrix.identity(solver.betti, ring)
            # random vectors, a cycle plus a unit vector now and then: the
            # three refuse the same ones, alone and among cycles
            for _ in range(4):
                vec = combination(rng, ring, cycles, dim)
                if dim and rng.random() < 0.7:
                    i = rng.randrange(dim)
                    vec[i] = ring.add(vec[i], ring.one)
                off = any(not ring.is_zero(v) for v in apply(out_mat, vec))
                alone = matrix_of_columns([vec], dim, ring)
                among = matrix_of_columns(mixed[:2] + [vec], dim, ring)
                assert raises_off_cycles(solver, alone) == raises_off_cycles(sparse, alone) == off
                assert raises_off_cycles(solver, among) == raises_off_cycles(sparse, among) == off
                assert (dense.coords(vec) is None) == off
                seen["refused_at_betti0" if solver.betti == 0 else "refused_with_classes"] += off
    assert min(seen.values()) >= 30, seen
