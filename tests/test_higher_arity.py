"""Arity-three boundaries: offset grids, cross-offset actions, and exact
sequences. The offset changes by two (mod three) under an arity-two
action, so these paths cross between genuinely different complexes."""

import random

from hyperhom.homology import (
    ComplexSpec,
    build_complex,
    edge_carrier,
    mayer_vietoris,
    operator_action,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet, WedgeOperator


def random_complex(rng, vs, p=0.5, with_empty=False):
    h = closure(
        Hypergraph(vs, frozenset(m for m in power_set(vs) if m and rng.random() < p)),
        ClosureOp.DELTA_UP,
    )
    if with_empty:
        h = h.with_masks(h.masks | {0})
    return h


def random_odd3(rng, n):
    terms = [
        (rng.randint(1, 3), tuple(sorted(rng.sample(range(n), 3))))
        for _ in range(rng.randint(1, 2))
    ]
    return WedgeOperator.build("partial", 3, terms)


def test_offset_grids_partition_the_degrees():
    rng = random.Random(5)
    vs = VertexSet.of(*"abcde")
    h = random_complex(rng, vs, 0.6, with_empty=True)
    op = random_odd3(rng, 5)
    seen = []
    for q in (0, 1, 2):
        spec = ComplexSpec(edge_carrier(h), op, q, QQ)
        grid = spec.degrees()
        assert all(n % 3 == (q % 3) or n == -1 for n in grid)
        seen.extend(grid)
        build_complex(spec)  # squares to zero on every offset
    assert sorted(seen) == list(range(-1, h.top_degree + 1))


def test_cross_offset_action_functoriality():
    rng = random.Random(3)
    done = 0
    while done < 25:
        n = rng.randint(3, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_complex(rng, vs, 0.5, with_empty=rng.random() < 0.5)
        alpha3 = random_odd3(rng, n)
        if alpha3.is_zero:
            continue
        q = rng.randint(0, 2)
        spec = ComplexSpec(edge_carrier(h), alpha3, q, QQ)
        b1 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))]
        )
        b2 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))]
        )
        act1 = operator_action(spec, b1)
        act12 = operator_action(spec, b1.wedge(b2))
        mid = ComplexSpec(edge_carrier(h), alpha3, q - 2, QQ)
        act2_mid = operator_action(mid, b2)
        for deg, m12 in act12.items():
            inner = act1[deg]
            outer = act2_mid.get(inner.target_degree)
            if outer is None:
                assert m12.target_rank == 0
                continue
            assert outer.compose(inner).matrix == m12.matrix
        done += 1


def test_arity_three_mayer_vietoris():
    rng = random.Random(9)
    for ring in (QQ, GF(5)):
        done = 0
        while done < 8:
            n = rng.randint(3, 5)
            vs = VertexSet.of(*[f"v{i}" for i in range(n)])
            with_empty = rng.random() < 0.5
            a = random_complex(rng, vs, 0.5, with_empty)
            b = random_complex(rng, vs, 0.5, with_empty)
            op = random_odd3(rng, n)
            if op.is_zero:
                continue
            les = mayer_vietoris(a, b, op, rng.randint(0, 2), ring)
            assert les.all_exact
            done += 1


def test_large_prime_field_smoke():
    rng = random.Random(11)
    vs = VertexSet.of(*"abcd")
    h = random_complex(rng, vs, 0.7, with_empty=True)
    op = WedgeOperator.weighted_sum("partial", [1, 96, 7, 50])
    built = build_complex(ComplexSpec(edge_carrier(h), op, 0, GF(97)))
    chi_dim = sum((-1) ** p * built.dim(n) for p, n in enumerate(built.spec.degrees()))
    chi_betti = sum(
        (-1) ** p * built.solver(n).betti for p, n in enumerate(built.spec.degrees())
    )
    assert chi_dim == chi_betti
