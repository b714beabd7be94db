import random
import time
from itertools import combinations

import pytest

import hyperhom.hypergraphs
from hyperhom.errors import NotASubset, PowerSetTooLarge, VertexSetMismatch
from hyperhom.hypergraphs import (
    POWERSET_CAP,
    ClosureOp,
    CombineOp,
    Hypergraph,
    HypergraphClass,
    closure,
    closure_size,
    combine,
    join_hg,
    morphism_graph,
    morphism_image,
    power_set,
    trace,
)
from hyperhom.words import VertexMap, VertexSet

S3 = VertexSet.of("s0", "s1", "s2")

# the running three-vertex example family
H = Hypergraph.of(S3, [[], [0], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
H2 = Hypergraph.of(S3, [[], [0], [1], [0, 1], [0, 2], [1, 2], [0, 1, 2]])


def edges(*es):
    return frozenset(tuple(e) for e in es)


def test_closure_examples_of_h():
    assert closure(H, ClosureOp.DELTA_UP).edges == power_set(S3)
    assert closure(H, ClosureOp.DELTA_DOWN).edges == edges((), (0,))
    assert closure(H, ClosureOp.BAR_DELTA_UP).edges == power_set(S3)
    assert closure(H, ClosureOp.BAR_DELTA_DOWN).edges == edges(
        (0,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    )
    assert closure(H, ClosureOp.GAMMA_GLOBAL).edges == edges((1,), (2,))
    assert closure(H, ClosureOp.GAMMA_LOCAL).edges == edges(
        (0, 1, 2), (1, 2), (2,), (1,), (0,), ()
    )


def test_closure_examples_of_h2():
    assert closure(H2, ClosureOp.DELTA_UP).edges == power_set(S3)
    assert closure(H2, ClosureOp.DELTA_DOWN).edges == edges((), (0,), (1,), (0, 1))
    assert closure(H2, ClosureOp.BAR_DELTA_DOWN).edges == edges(
        (0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    )
    assert closure(H2, ClosureOp.GAMMA_GLOBAL).edges == edges((2,))


def test_trace_examples():
    t = trace(H, ["s0", "s1"])
    assert t.vertices == VertexSet.of("s0", "s1")
    assert t.edges == edges((), (0,), (1,), (0, 1))
    assert trace(H, ["s0", "s1", "s2"]).edges == H.edges
    only2 = Hypergraph.of(S3, [[2]])
    assert trace(only2, ["s0", "s1"]).edges == frozenset()
    with pytest.raises(NotASubset):
        trace(H, ["s0", "bad"])


@pytest.mark.parametrize("subset", [[True], [False], ["s0", True], [None], [1.0], [[0]], [3],
                                    [-1], [0, "s0"]],
                         ids=["true", "false", "label-and-true", "none", "float", "list",
                              "index-past-end", "negative", "repeat"])
def test_trace_rejects_bad_vertex_subsets(subset):
    with pytest.raises(NotASubset):
        trace(H, subset)


@pytest.mark.parametrize("subset, detail", [
    (["s0", "zz"], "unknown vertex 'zz'"),
    ([0, 3], "vertex index 3 out of range"),
    ([0, "s0"], "subset repeats a vertex"),
], ids=["unknown-label", "index-past-end", "repeat"])
def test_trace_errors_read_as_in_documents(subset, detail):
    # the subset is read by the document reader `_vertex_indices`
    with pytest.raises(NotASubset) as raised:
        trace(H, subset)
    assert str(raised.value) == detail


def test_trace_takes_indices_and_labels_alike():
    assert trace(H, [1, 0]) == trace(H, ["s0", "s1"]) == trace(H, ["s1", 0])


def test_trace_of_closures_match_displayed_sets():
    T = ["s0", "s1"]
    assert trace(closure(H, ClosureOp.DELTA_UP), T).edges == edges((), (0,), (1,), (0, 1))
    assert trace(closure(H, ClosureOp.DELTA_DOWN), T).edges == edges((), (0,))
    assert trace(closure(H, ClosureOp.BAR_DELTA_DOWN), T).edges == edges(
        (0,), (1,), (0, 1)
    )
    assert trace(closure(H, ClosureOp.GAMMA_GLOBAL), T).edges == edges((1,))
    assert trace(closure(H, ClosureOp.GAMMA_LOCAL), T).edges == edges(
        (), (0,), (1,), (0, 1)
    )


def test_combine():
    a = Hypergraph.of(S3, [[0]])
    b = Hypergraph.of(S3, [[1]])
    assert combine(a, a, CombineOp.INTERSECT).edges == a.edges
    assert combine(a, b, CombineOp.INTERSECT).edges == frozenset()
    empty = Hypergraph.of(S3, [])
    assert combine(a, empty, CombineOp.UNION).edges == a.edges
    with pytest.raises(VertexSetMismatch):
        combine(a, Hypergraph.of(VertexSet.of("x"), []), CombineOp.UNION)


def test_combine_carries_only_a_class_both_inputs_hold():
    """A union or an intersection carries the class its two inputs share,
    closed downward or upward, and it is the class a fresh classify finds;
    it carries none when an input holds no class yet, as a document just
    read, or when the two share no direction."""
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(1, 4))])
        pool = sorted(power_set(vs))
        pair = []
        for _ in range(2):
            h = Hypergraph(vs, frozenset(e for e in pool if rng.random() < 0.4))
            pick = rng.random()
            if pick < 0.35:
                h = closure(h, ClosureOp.DELTA_UP)
            elif pick < 0.7:
                h = closure(h, ClosureOp.BAR_DELTA_UP)
            elif pick < 0.75:
                h = Hypergraph(vs, power_set(vs) - {()} if rng.random() < 0.5 else power_set(vs))
            pair.append(h)
        a, b = pair
        for op in CombineOp:
            assert "_closed" not in vars(combine(a, b, op))  # no input classified yet
        a.classify(), b.classify()
        down = {a._closed, b._closed} <= {(True, True), (True, False)}
        up = {a._closed, b._closed} <= {(True, True), (False, True)}
        for op in CombineOp:
            h = combine(a, b, op)
            assert ("_closed" in vars(h)) == (down or up)
            fresh = Hypergraph(vs, h.edges).classify()
            assert h.classify() is fresh
            seen.add((down, up, fresh))
    assert {(True, False), (False, True), (True, True), (False, False)} <= {
        (down, up) for down, up, _ in seen}
    assert {fresh for *_, fresh in seen} == set(HypergraphClass)


def test_join():
    a = Hypergraph.of(VertexSet.of("s0"), [[0]])
    b = Hypergraph.of(VertexSet.of("t0"), [[0]])
    j = join_hg(a, b)
    assert j.vertices == VertexSet.of("s0", "t0")
    assert j.edges == edges((0,), (1,), (0, 1))
    assert join_hg(a, Hypergraph.of(VertexSet.of("t0"), [])).edges == edges((0,))
    withempty = join_hg(Hypergraph.of(VertexSet.of("s0"), [[]]), b)
    assert withempty.edges == edges((), (1,))
    with pytest.raises(VertexSetMismatch):
        join_hg(a, a)


def test_classify():
    full = Hypergraph(S3, power_set(S3))
    assert full.classify() is HypergraphClass.BOTH
    nonaug = Hypergraph(S3, power_set(S3) - {()})
    assert nonaug.classify() is HypergraphClass.BOTH
    k = Hypergraph.of(S3, [[0], [1], [0, 1]])
    assert k.classify() is HypergraphClass.SIMPLICIAL_COMPLEX
    ind = Hypergraph.of(S3, [[0, 1], [0, 1, 2]])
    assert ind.classify() is HypergraphClass.INDEPENDENCE_HYPERGRAPH
    assert H.classify() is HypergraphClass.NEITHER
    # hypergraph containing the empty edge is upward closed only if full
    aug = Hypergraph.of(S3, [[], [0]])
    assert aug.classify() is HypergraphClass.SIMPLICIAL_COMPLEX


def subface_classify(h):
    """Oracle: every nonempty proper subface and every superset, checked
    one by one."""
    n = len(h.vertices)
    down = all(
        tau in h.edges for e in h.edges for k in range(1, len(e))
        for tau in combinations(e, k)
    )
    up = all(
        tuple(sorted(e + extra)) in h.edges
        for e in h.edges
        for k in range(1, n - len(e) + 1)
        for extra in combinations([v for v in range(n) if v not in e], k)
    )
    return {
        (True, True): HypergraphClass.BOTH,
        (True, False): HypergraphClass.SIMPLICIAL_COMPLEX,
        (False, True): HypergraphClass.INDEPENDENCE_HYPERGRAPH,
        (False, False): HypergraphClass.NEITHER,
    }[(down, up)]


def test_classify_matches_subface_oracle():
    rng = random.Random(23)
    empty_vs = VertexSet(())
    families = [Hypergraph(empty_vs, frozenset()), Hypergraph(empty_vs, edges(()))]
    families += [Hypergraph(S3, edges(())), Hypergraph(S3, frozenset())]
    for _ in range(600):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(1, 5))])
        h = random_hypergraph(rng, vs, p=rng.choice([0.2, 0.5, 0.8]))
        op = rng.choice([None, ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP])
        if op is not None:
            h = closure(h, op)
        if h.edges and rng.random() < 0.5:
            # drop one edge: often just breaks a closure property
            h = h.with_edges(h.edges - {rng.choice(sorted(h.edges))})
        families.append(h)
    seen = set()
    for h in families:
        want = subface_classify(h)
        assert h.classify() is want, h
        assert h.classify() is want  # the cached class
        assert h.is_simplicial_complex == (
            want in (HypergraphClass.SIMPLICIAL_COMPLEX, HypergraphClass.BOTH))
        assert h.is_independence_hypergraph == (
            want in (HypergraphClass.INDEPENDENCE_HYPERGRAPH, HypergraphClass.BOTH))
        seen.add(want)
    assert seen == set(HypergraphClass)


def test_morphism_image():
    ident = VertexMap.identity(S3)
    assert morphism_image(ident, H) == H
    collapse = VertexMap(VertexSet.of("s0", "s1"), VertexSet.of("t0"), (0, 0))
    src = Hypergraph.of(VertexSet.of("s0", "s1"), [[0, 1]])
    assert morphism_image(collapse, src).edges == edges((0,))
    swap = VertexMap(S3, S3, (0, 2, 1))
    hh = Hypergraph.of(S3, [[1]])
    assert morphism_image(swap, hh).edges == edges((2,))


def random_hypergraph(rng, vs, p=0.4, allow_empty=True):
    pool = sorted(power_set(vs), key=lambda e: (len(e), e))
    picked = [e for e in pool if rng.random() < p and (allow_empty or e != ())]
    return Hypergraph(vs, frozenset(picked))


def test_trace_laws_random():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs)
        g = random_hypergraph(rng, vs)
        tsize = rng.randint(0, n)
        t = sorted(rng.sample(range(n), tsize))
        tl = [vs.labels[i] for i in t]

        # classes survive restriction
        k = closure(h, ClosureOp.DELTA_UP)
        assert trace(k, tl).is_simplicial_complex
        ell = closure(h, ClosureOp.BAR_DELTA_UP)
        assert trace(ell, tl).is_independence_hypergraph

        # downward closure commutes with restriction unconditionally
        assert trace(closure(h, ClosureOp.DELTA_UP), tl).edges == closure(
            trace(h, tl), ClosureOp.DELTA_UP
        ).edges
        # the upward analogue needs every nonempty edge to meet T (or the
        # empty edge present); the trace drops vanishing intersections and
        # only one inclusion survives otherwise
        lhs = trace(closure(h, ClosureOp.BAR_DELTA_UP), tl).edges
        rhs = closure(trace(h, tl), ClosureOp.BAR_DELTA_UP).edges
        assert rhs <= lhs
        if h.has_empty_edge or all(set(e) & set(t) for e in h.edges if e):
            assert lhs == rhs

        # union always distributes; intersection needs the pairwise hypothesis
        u = combine(h, g, CombineOp.UNION)
        assert trace(u, tl).edges == (trace(h, tl).edges | trace(g, tl).edges)
        hyp = all(
            tuple(sorted(set(a) & set(b))) in (h.edges & g.edges)
            for a in h.edges
            for b in g.edges
        )
        if hyp:
            i = combine(h, g, CombineOp.INTERSECT)
            assert trace(i, tl).edges == (trace(h, tl).edges & trace(g, tl).edges)

        # local complement commutes with restriction in general position:
        # no edge may miss T or contain it, and the empty edge pairs with
        # the full edge on the other side
        general = (
            all(e and set(e) & set(t) and not set(t) <= set(e) for e in h.edges)
            and tuple(range(n)) not in h.edges
        )
        if general:
            assert trace(closure(h, ClosureOp.GAMMA_LOCAL), tl).edges == closure(
                trace(h, tl), ClosureOp.GAMMA_LOCAL
            ).edges


def test_complement_involutions_and_class_swap():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs)
        for op in (ClosureOp.GAMMA_GLOBAL, ClosureOp.GAMMA_LOCAL):
            assert closure(closure(h, op), op).edges == h.edges
        # complements of an independence hypergraph are simplicial complexes;
        # the reverse direction needs the empty edge (the complement of a
        # nonempty complex without it contains the empty edge but not its
        # supersets)
        k = closure(h.with_edges(h.edges | {()}), ClosureOp.DELTA_UP)
        assert closure(k, ClosureOp.GAMMA_GLOBAL).is_independence_hypergraph
        assert closure(k, ClosureOp.GAMMA_LOCAL).is_independence_hypergraph
        ell = closure(h, ClosureOp.BAR_DELTA_UP)
        assert closure(ell, ClosureOp.GAMMA_GLOBAL).is_simplicial_complex
        assert closure(ell, ClosureOp.GAMMA_LOCAL).is_simplicial_complex


def test_closures_sandwich_and_fix():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs)
        up = closure(h, ClosureOp.DELTA_UP)
        down = closure(h, ClosureOp.DELTA_DOWN)
        assert down.edges <= h.edges <= up.edges
        bup = closure(h, ClosureOp.BAR_DELTA_UP)
        bdown = closure(h, ClosureOp.BAR_DELTA_DOWN)
        assert bdown.edges <= h.edges <= bup.edges
        # the four closures fix their own class
        assert closure(up, ClosureOp.DELTA_UP).edges == up.edges
        assert closure(up, ClosureOp.DELTA_DOWN).edges == up.edges
        assert closure(bup, ClosureOp.BAR_DELTA_UP).edges == bup.edges
        assert closure(bup, ClosureOp.BAR_DELTA_DOWN).edges == bup.edges
        # minimality: dropping any added edge breaks downward closure
        for extra in up.edges - h.edges:
            smaller = up.with_edges(up.edges - {extra})
            assert not (smaller.is_simplicial_complex and smaller.edges >= h.edges)


def test_join_of_traces():
    rng = random.Random(23)
    for _ in range(40):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        va = VertexSet.of(*[f"a{i}" for i in range(na)])
        vb = VertexSet.of(*[f"b{i}" for i in range(nb)])
        ha = random_hypergraph(rng, va)
        hb = random_hypergraph(rng, vb)
        ta = sorted(rng.sample(range(na), rng.randint(0, na)))
        tb = sorted(rng.sample(range(nb), rng.randint(0, nb)))
        joint = join_hg(ha, hb)
        tlabels = [va.labels[i] for i in ta] + [vb.labels[i] for i in tb]
        lhs = trace(joint, tlabels)
        rhs = join_hg(
            trace(ha, [va.labels[i] for i in ta]),
            trace(hb, [vb.labels[i] for i in tb]),
        )
        assert lhs.edges == rhs.edges and lhs.vertices == rhs.vertices


def test_morphism_restriction_commutes_with_upper_closure():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        ws = VertexSet.of(*[f"w{i}" for i in range(m)])
        f = VertexMap(vs, ws, tuple(rng.randrange(m) for _ in range(n)))
        h = random_hypergraph(rng, vs)
        hprime = morphism_image(f, h)
        t = sorted(rng.sample(range(n), rng.randint(0, n)))
        tl = [vs.labels[i] for i in t]
        tprime = sorted({f(i) for i in t})
        tpl = [ws.labels[i] for i in tprime]

        ft = VertexMap(
            trace(h, tl).vertices,
            trace(hprime, tpl).vertices,
            tuple(tprime.index(f(i)) for i in t),
        )
        lhs = morphism_graph(ft, closure(trace(h, tl), ClosureOp.DELTA_UP))
        rhs = morphism_graph(ft, trace(closure(h, ClosureOp.DELTA_UP), tl))
        assert lhs == rhs
        codomain = closure(trace(hprime, tpl), ClosureOp.DELTA_UP)
        assert all(img in codomain.edges for _, img in lhs)

        if m == n and f.injective:
            lhs = morphism_graph(ft, closure(trace(h, tl), ClosureOp.BAR_DELTA_UP))
            rhs = morphism_graph(ft, trace(closure(h, ClosureOp.BAR_DELTA_UP), tl))
            assert lhs == rhs


class Enumerated(Exception):
    pass


def test_upward_closure_size_is_checked_before_enumeration(monkeypatch):
    rng = random.Random(17)
    for _ in range(100):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(0, 5))])
        h = Hypergraph(vs, frozenset(e for e in power_set(vs) if rng.random() < 0.3))
        for op in (ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP):
            assert closure_size(h, op) >= len(closure(h, op).edges)
    assert closure_size(Hypergraph.of(S3, [[0, 1]]), ClosureOp.DELTA_UP) == 4
    assert closure_size(Hypergraph.of(S3, [[0], []]), ClosureOp.BAR_DELTA_UP) == 12
    assert closure_size(H, ClosureOp.GAMMA_GLOBAL) == 0

    # from here on, starting to enumerate subsets raises Enumerated
    def enumerate_nothing(*args):
        raise Enumerated

    monkeypatch.setattr(hyperhom.hypergraphs, "combinations", enumerate_nothing)
    vs = VertexSet.of(*[f"v{i}" for i in range(POWERSET_CAP)])
    full = tuple(range(POWERSET_CAP))
    for op, at_cap, extra in ((ClosureOp.DELTA_UP, full, ()),
                              (ClosureOp.BAR_DELTA_UP, (), full)):
        h = Hypergraph(vs, frozenset({at_cap}))
        assert closure_size(h, op) == 2**POWERSET_CAP
        with pytest.raises(Enumerated):
            closure(h, op)
        one_past = h.with_edges({at_cap, extra})
        assert closure_size(one_past, op) == 2**POWERSET_CAP + 1
        with pytest.raises(PowerSetTooLarge):
            closure(one_past, op)
    huge = VertexSet(tuple(f"v{i}" for i in range(10**5)))
    assert closure_size(Hypergraph(huge, frozenset({()})),
                        ClosureOp.BAR_DELTA_UP) == 2 ** (POWERSET_CAP + 1)


def delta_by_subfaces(h):
    """`delta` by the route the mask rule replaced, kept as its oracle: an
    edge stays when every nonempty proper subface is an edge."""
    return h.with_edges(e for e in h.edges if all(
        tau in h.edges for k in range(1, len(e)) for tau in combinations(e, k)))


def bardelta_by_supersets(h):
    """`bardelta` by the route the mask rule replaced, kept as its oracle:
    an edge stays when every proper superset is an edge."""
    out = set()
    for e in h.edges:
        rest = [v for v in range(len(h.vertices)) if v not in e]
        if all(tuple(sorted(e + extra)) in h.edges
               for k in range(1, len(rest) + 1) for extra in combinations(rest, k)):
            out.add(e)
    return h.with_edges(out)


def test_downward_closures_match_tuple_oracle():
    """Random families of up to 7 vertices, with and without the empty
    edge; many are closures with a few edges dropped, so that the closed
    part is neither empty nor everything."""
    rng = random.Random(101)
    seen = {"delta": 0, "bardelta": 0}
    for _ in range(500):
        vs = VertexSet.of(*[f"v{i}" for i in range(rng.randint(0, 7))])
        with_empty = rng.random() < 0.5
        h = random_hypergraph(rng, vs, p=rng.choice([0.2, 0.5]), allow_empty=with_empty)
        up = rng.choice([None, ClosureOp.DELTA_UP, ClosureOp.BAR_DELTA_UP])
        if up is not None:
            h = closure(h, up)
            h = h.with_edges(e for e in h.edges if rng.random() < 0.9)
        h = h.with_edges(h.edges | {()} if with_empty else h.edges - {()})
        for op, oracle in ((ClosureOp.DELTA_DOWN, delta_by_subfaces),
                           (ClosureOp.BAR_DELTA_DOWN, bardelta_by_supersets)):
            got = closure(h, op)
            assert got == oracle(h), (h, op)
            seen[op.value] += bool(got.edges) and got.edges != h.edges
    assert min(seen.values()) >= 50, seen


def test_downward_closures_of_large_families_are_fast():
    """The 14-vertex power set is closed both ways; without one edge e of
    two vertices, delta keeps the edges not above e and bardelta the edges
    not below it. The routes through every subface or superset took
    1.3 s and 6.4 s on the power set alone."""
    vs = VertexSet.of(*[f"v{i}" for i in range(14)])
    full = Hypergraph(vs, power_set(vs))
    e = (3, 8)
    holed = full.with_edges(full.edges - {e})
    for h, op, want in (
            (full, ClosureOp.DELTA_DOWN, full.edges),
            (full, ClosureOp.BAR_DELTA_DOWN, full.edges),
            (holed, ClosureOp.DELTA_DOWN, {f for f in full.edges if not set(e) <= set(f)}),
            (holed, ClosureOp.BAR_DELTA_DOWN, {f for f in full.edges if not set(f) <= set(e)})):
        start = time.perf_counter()
        got = closure(h, op)
        assert time.perf_counter() - start < 1.0, op
        assert got.edges == want
