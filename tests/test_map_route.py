"""Homology-level maps against the per-vector route of `field_oracle`.

The engine applies a chain map to all the representatives in one product
(an inclusion re-indexes their rows instead) and reads all the
coordinates in another. The oracle applies it to one dense
representative at a time over `DenseSolver` and reads each image on its
own. Both must give the same matrices, and the same NotAChainMap on a
map that leaves the cycles. The inclusion maps are also compared with
the product route that the re-index replaced, `inclusion_by_product`.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hyperhom.errors import NotAChainMap, NotIncluded
from hyperhom.homology import (
    ComplexSpec,
    _assemble_matrix,
    build_complex,
    edge_carrier,
    inclusion_induced,
    inclusion_map,
    mv_complexes,
    mv_sequence,
    operator_action,
)
from hyperhom.hypergraphs import ClosureOp, Hypergraph, closure, power_set
from hyperhom.linalg import SparseMatrix
from hyperhom.rings import GF, QQ
from hyperhom.words import VertexSet, WedgeOperator

from field_oracle import dense_solver, descend, mv_connecting, well_formed

RINGS = [QQ, GF(5), GF(7)]


def random_family(rng, vs, kind, empty, seed=None):
    """A random simplicial complex ("partial") or independence hypergraph
    ("d"), closed from `seed` or from random edges; with `empty` it holds
    the empty edge, which for an independence hypergraph makes it the
    whole power set."""
    if seed is None:
        seed = [e for e in Hypergraph(vs, power_set(vs)).edges if e and rng.random() < 0.35]
    up = ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP
    h = closure(Hypergraph.of(vs, seed), up)
    if not empty:
        return h
    return h.with_masks(h.masks | {0}) if kind == "partial" else Hypergraph(vs, power_set(vs))


def small_seed(rng, vs, kind):
    """Random edges of at most two vertices ("partial") or all but at most
    two ("d"): their closures keep cycles of low degree."""
    return [e for e in Hypergraph(vs, power_set(vs)).edges
            if e and (len(e) if kind == "partial" else len(vs) - len(e)) <= 2
            and rng.random() < 0.6]


def random_cover(rng, vs, kind, empty):
    """Two families closed from the two halves of one `small_seed`, each
    seed edge going to one side or, now and then, to both: the union has
    cycles that neither side holds, so connecting maps are often nonzero."""
    sides = ([], [])
    for e in small_seed(rng, vs, kind):
        pick = rng.random()
        for k in ((0,) if pick < 0.45 else (1,) if pick < 0.9 else (0, 1)):
            sides[k].append(e)
    return tuple(random_family(rng, vs, kind, empty, side) for side in sides)


def random_boundary(rng, ring, kind, nverts, arity):
    weights = (1, 2, 3, Fraction(1, 2), Fraction(-2, 3)) if ring == QQ else (1, 2, 3, 4)
    if arity == 1:
        return WedgeOperator.weighted_sum(kind, [rng.choice(weights) for _ in range(nverts)])
    terms = [(rng.choice(weights), tuple(sorted(rng.sample(range(nverts), 3))))
             for _ in range(rng.randint(1, 2))]
    return WedgeOperator.build(kind, 3, terms)


def inclusion_oracle(small, large, n):
    index = {w: i for i, w in enumerate(large.basis(n))}
    ring = small.spec.ring
    mat = SparseMatrix.from_entries(len(index), small.dim(n), ring,
                                    [((index[w], j), 1) for j, w in enumerate(small.basis(n))])
    return descend(mat, dense_solver(small, n), dense_solver(large, n), "inclusion")


def mv_oracle(complexes):
    """Every map of the Mayer-Vietoris sequence, in `mv_sequence` order."""
    spec = complexes["cup"].spec
    shift = spec.operator.shift
    grid = sorted(spec.degrees(), reverse=shift < 0)
    maps = []
    for n in grid:
        ia = inclusion_oracle(complexes["cap"], complexes["a"], n)
        ib = inclusion_oracle(complexes["cap"], complexes["b"], n)
        maps.append(SparseMatrix.from_entries(
            ia.rows + ib.rows, ia.cols, ia.ring,
            list(ia.entries) + [((i + ia.rows, j), v) for (i, j), v in ib.entries]))
        ja = inclusion_oracle(complexes["a"], complexes["cup"], n)
        jb = inclusion_oracle(complexes["b"], complexes["cup"], n)
        maps.append(SparseMatrix.from_entries(
            ja.rows, ja.cols + jb.cols, ja.ring,
            list(ja.entries) + [((i, j + ja.cols), -v) for (i, j), v in jb.entries]))
        maps.append(mv_connecting(complexes, n, shift))
    return maps


def instances(seed, count):
    """(ring, kind, arity, empty, vertex set) over every combination the
    differential tests must cover, in turn."""
    rng = random.Random(seed)
    for trial in range(count):
        ring = RINGS[trial % 3]
        kind = ("partial", "d")[trial // 3 % 2]
        arity = (1, 3)[trial // 6 % 2]
        empty = trial // 12 % 2 == 1
        nverts = rng.randint(3, 5)
        yield rng, ring, kind, arity, empty, VertexSet.of(*[f"v{i}" for i in range(nverts)])


# a pair whose degree-0 inclusion map is square and not symmetric, so that
# a transposed square map cannot pass the comparison
FOUR = VertexSet.of("v0", "v1", "v2", "v3")
SQUARE_PAIR = (
    closure(Hypergraph.of(FOUR, [[1], [2, 3]]), ClosureOp.DELTA_UP),
    closure(Hypergraph.of(FOUR, [[1], [0, 2, 3]]), ClosureOp.DELTA_UP),
    WedgeOperator.weighted_sum("partial", [3, 1, 2, 3]), 0, QQ,
)


def inclusion_cases():
    """(small, large, operator, q, ring) for the inclusion comparison: the
    pinned `SQUARE_PAIR`, then random pairs over every combination."""
    yield SQUARE_PAIR
    for rng, ring, kind, arity, empty, vs in instances(61, 48):
        small = random_family(rng, vs, kind, empty)
        extra = random_family(rng, vs, kind, False)
        large = closure(Hypergraph(vs, small.masks | extra.masks),
                        ClosureOp.DELTA_UP if kind == "partial" else ClosureOp.BAR_DELTA_UP)
        if kind == "d" and rng.random() < 0.3:
            large = Hypergraph(vs, power_set(vs))  # raising: empty edge above only
        op = random_boundary(rng, ring, kind, len(vs), arity)
        if not op.is_zero:
            yield small, large, op, rng.randrange(arity), ring


def test_inclusion_maps_match_per_vector_route():
    square = inclusion_induced(*SQUARE_PAIR)[0].matrix
    assert square.rows == square.cols == 2
    assert dict(square.entries) != {(j, i): v for (i, j), v in square.entries}
    nonzero = 0
    for small, large, op, q, ring in inclusion_cases():
        maps = inclusion_induced(small, large, op, q, ring)
        src = build_complex(ComplexSpec(edge_carrier(small), op, q, ring))
        tgt = build_complex(ComplexSpec(edge_carrier(large), op, q, ring))
        for n, m in maps.items():
            assert well_formed(m.matrix)
            assert m.matrix == inclusion_oracle(src, tgt, n)
            nonzero += not m.matrix.is_zero()
    assert nonzero >= 20


def inclusion_by_product(small, large, n):
    """`inclusion_map` by the route the re-index replaced, kept as its
    oracle: the 0/1 matrix of the inclusion, built through `from_entries`,
    times the representatives, then read in the larger complex."""
    ring = small.spec.ring
    index = {w: i for i, w in enumerate(large.basis(n))}
    items = []
    for j, w in enumerate(small.basis(n)):
        if w not in index:
            raise NotIncluded(f"edge {w} of the smaller family is missing above")
        items.append(((index[w], j), ring.one))
    mat = SparseMatrix.from_entries(len(index), small.dim(n), ring, items)
    return large.solver(n).coords(mat.mul(small.solver(n).reps),
                                  "inclusion sends a cycle to a non-cycle")


def outcome(route, small, large, n):
    """The matrix of a route, or the type and text of what it raised."""
    try:
        return route(small, large, n)
    except (NotIncluded, NotAChainMap) as exc:
        return type(exc).__name__, str(exc)


def test_inclusion_reindex_matches_product_route():
    """Independently built and restricted sources, the reverse pair (a
    word missing above), and for degree-lowering operators a family
    without the empty edge into itself with it (a vertex is a cycle only
    below)."""
    seen = Counter()
    for small, large, op, q, ring in inclusion_cases():
        def built(h):
            return build_complex(ComplexSpec(edge_carrier(h), op, q, ring))

        tgt = built(large)
        pairs = [(built(small), tgt), (tgt.restrict(small), tgt), (tgt, built(small))]
        if op.kind == "partial" and () not in small.edges:
            pairs.append((built(small), built(small.with_masks(small.masks | {0}))))
        for src, dst in pairs:
            for n in dst.spec.degrees():
                want = outcome(inclusion_by_product, src, dst, n)
                got = outcome(lambda *args: inclusion_map(*args).matrix, src, dst, n)
                assert got == want, (small, large, op, q, ring, n)
                if isinstance(want, tuple):
                    seen[want[0]] += 1
                else:
                    assert well_formed(got)
                    seen["nonzero" if got.entries else "zero"] += 1
        seen[op.kind, op.arity, str(ring), () in small.edges] += 1
    assert seen["nonzero"] >= 50 and seen["NotIncluded"] >= 20, seen
    assert seen["NotAChainMap"] >= 5, seen
    assert all(seen[kind, arity, ring, empty] for kind in ("partial", "d") for arity in (1, 3)
               for ring in ("Q", "F5") for empty in (False, True)), seen


def test_operator_actions_match_per_vector_route():
    nonzero = {0: 0, 2: 0}
    for rng, ring, kind, arity, empty, vs in instances(67, 144):
        h = random_family(rng, vs, kind, empty)
        op = random_boundary(rng, ring, kind, len(vs), arity)
        if rng.random() < 0.25:
            even = WedgeOperator.scalar(kind, rng.choice([1, 2, -1]))
        else:
            even = WedgeOperator.build(kind, 2, [
                (rng.choice([1, 2, -1]), tuple(sorted(rng.sample(range(len(vs)), 2))))
                for _ in range(rng.randint(1, 3))])
        if op.is_zero or not h.edges:
            continue
        spec = ComplexSpec(edge_carrier(h), op, rng.randrange(arity), ring)
        action = operator_action(spec, even)
        shift = even.shift
        source = build_complex(spec)
        target = build_complex(ComplexSpec(spec.carrier, op, spec.q + shift, ring))
        for n, m in action.items():
            chain = _assemble_matrix(even, spec.carrier, ring, source.basis(n), n + shift)
            want = descend(chain, dense_solver(source, n), dense_solver(target, n + shift),
                           "even operator action")
            assert well_formed(m.matrix) and m.matrix == want
            nonzero[even.arity] += not m.matrix.is_zero()
    assert nonzero[0] >= 5 and nonzero[2] >= 5, nonzero


def test_mv_maps_match_per_vector_route():
    connecting = {"partial": 0, "d": 0}
    for rng, ring, kind, arity, empty, vs in instances(71, 144):
        a, b = random_cover(rng, vs, kind, empty)
        op = random_boundary(rng, ring, kind, len(vs), arity)
        if op.is_zero:
            continue
        q = rng.randrange(arity)
        complexes = mv_complexes(a, b, op, ring, lambda union: build_complex(
            ComplexSpec(edge_carrier(union), op, q, ring)))
        les = mv_sequence(complexes)
        assert les.all_exact
        assert all(well_formed(m) for m in les.maps)
        assert list(les.maps) == mv_oracle(complexes)
        connecting[kind] += sum(not m.is_zero() for m in les.maps[2::3])
    assert min(connecting.values()) >= 5, connecting


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_random_chain_maps_descend_like_the_oracle(ring):
    """Random matrices mostly leave the cycles: both routes must reject
    the same ones, and agree on the rest."""
    rejected = accepted = 0
    for rng, _, kind, arity, empty, vs in instances(73 + (ring.p or 0), 24):
        h = random_family(rng, vs, kind, empty, small_seed(rng, vs, kind))
        op = random_boundary(rng, ring, kind, len(vs), arity)
        if op.is_zero:
            continue
        built = build_complex(ComplexSpec(edge_carrier(h), op, rng.randrange(arity), ring))
        for n in built.spec.degrees():
            dim = built.dim(n)
            density = rng.choice([0.05, 0.3])
            chain = SparseMatrix.from_entries(dim, dim, ring, [
                ((i, j), rng.randint(1, 4)) for i in range(dim) for j in range(dim)
                if i == j or rng.random() < density])
            solver, dense = built.solver(n), dense_solver(built, n)
            try:
                want = descend(chain, dense, dense, "random map")
            except NotAChainMap:
                with pytest.raises(NotAChainMap, match="^random map sends a cycle"):
                    solver.coords(chain.mul(solver.reps), "random map sends a cycle to a non-cycle")
                rejected += 1
                continue
            assert solver.coords(chain.mul(solver.reps), "random map: not a cycle") == want
            accepted += solver.betti > 0
    assert rejected >= 5 and accepted >= 5
