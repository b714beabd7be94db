import random

import pytest

from hyperhom.errors import EmptyEdgePresent
from hyperhom.hypergraphs import Hypergraph, morphism_image, power_set
from hyperhom.invariance import (
    DIFFERENTIAL,
    PARTIAL,
    invariant_trace,
    invariant_vertices,
    is_invariant,
)
from hyperhom.rings import ZZ
from hyperhom.words import VertexMap, VertexSet, face, insert

S3 = VertexSet.of("s0", "s1", "s2")
H = Hypergraph.of(S3, [[1], [2], [0, 1], [0, 2]])
HP = Hypergraph.of(S3, [[0], [1], [2], [0, 1], [0, 2], [0, 1, 2]])


def test_pointwise_invariance():
    assert is_invariant(H, 0, PARTIAL)
    assert not is_invariant(H, 1, PARTIAL)
    assert is_invariant(H, 0, DIFFERENTIAL)
    assert not is_invariant(H, 1, DIFFERENTIAL)
    assert not is_invariant(H, 2, DIFFERENTIAL)


def test_invariant_vertex_sets():
    assert invariant_vertices(H, PARTIAL) == (0,)
    assert invariant_vertices(H, DIFFERENTIAL) == (0,)
    assert invariant_vertices(HP, PARTIAL) == (1, 2)
    assert invariant_vertices(HP, DIFFERENTIAL) == (0,)
    full = Hypergraph(S3, power_set(S3) - {0})
    assert invariant_vertices(full, PARTIAL) == (0, 1, 2)
    assert invariant_vertices(full, DIFFERENTIAL) == (0, 1, 2)


def test_invariant_traces():
    rep = invariant_trace(HP, PARTIAL)
    assert rep.invariant_vertices == (1, 2)
    assert rep.trace.vertices == VertexSet.of("s1", "s2")
    assert rep.trace.edges == frozenset({(0,), (1,), (0, 1)})

    rep = invariant_trace(H, PARTIAL)
    assert rep.trace.edges == frozenset({(0,)})
    rep = invariant_trace(H, DIFFERENTIAL)
    assert rep.trace.edges == frozenset({(0,)})

    k = Hypergraph.of(S3, [[0], [1], [0, 1]])
    rep = invariant_trace(k, PARTIAL)
    assert rep.trace.edges == k.edges and rep.invariant_vertices == (0, 1, 2)


def test_empty_edge_rejected_for_insertion_mode():
    aug = Hypergraph.of(S3, [[], [0]])
    with pytest.raises(EmptyEdgePresent):
        invariant_trace(aug, DIFFERENTIAL)
    # deletion mode keeps the empty edge in the trace
    rep = invariant_trace(aug, PARTIAL)
    assert rep.trace.has_empty_edge


def test_isolated_vertices_are_vacuously_invariant():
    h = Hypergraph.of(S3, [[0]])
    assert is_invariant(h, 1, PARTIAL) and is_invariant(h, 2, PARTIAL)


def random_hypergraph(rng, vs, p=0.4):
    pool = Hypergraph(vs, power_set(vs)).sorted_edges()
    return Hypergraph.of(vs, [e for e in pool if rng.random() < p])


def matrixwise_invariant(h: Hypergraph, s: int, mode: str) -> bool:
    """Definitional invariance: derivation images of the edge module stay
    supported on edges (bottom degree exempt for deletions, as the
    quantifier starts at the one-simplices)."""
    for e in h.edges:
        w = tuple(e)
        if mode == PARTIAL:
            if len(w) < 2:
                continue
            for i in range(len(w)):
                img = face(i, s, w, ZZ)
                if any(word not in h.edges for word in img.terms):
                    return False
        else:
            if not w:
                continue
            if s in w:
                continue
            for i in range(len(w) + 1):
                img = insert(i, s, w, ZZ)
                for word in img.terms:
                    if tuple(sorted(word)) != word:
                        continue  # non-monotone insertions die in the quotient
                    if word not in h.edges:
                        return False
    return True


def test_lemma_equivalences_random():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs)
        all_partial = all(is_invariant(h, s, PARTIAL) for s in range(n))
        assert all_partial == h.is_simplicial_complex
        all_diff = all(is_invariant(h, s, DIFFERENTIAL) for s in range(n))
        if not h.has_empty_edge:
            assert all_diff == h.is_independence_hypergraph
        for s in range(n):
            assert is_invariant(h, s, PARTIAL) == matrixwise_invariant(h, s, PARTIAL)
            assert is_invariant(h, s, DIFFERENTIAL) == matrixwise_invariant(
                h, s, DIFFERENTIAL
            )


def invariant_by_tuples(h: Hypergraph, s: int, mode: str) -> bool:
    """`is_invariant` by the route the mask flips replaced, kept as its
    oracle: delete s from every edge of two or more vertices holding it,
    or insert it into every nonempty edge missing it."""
    if mode == PARTIAL:
        return all(tuple(v for v in e if v != s) in h.edges
                   for e in h.edges if s in e and len(e) > 1)
    return all(tuple(sorted(e + (s,))) in h.edges for e in h.edges if e and s not in e)


def test_invariance_matches_tuple_oracle():
    """Random families of up to 7 vertices, with and without the empty
    edge, their edges read by the parser as tuples or as lists."""
    rng = random.Random(41)
    seen = {(mode, verdict): 0 for mode in (PARTIAL, DIFFERENTIAL) for verdict in (False, True)}
    for _ in range(300):
        n = rng.randint(1, 7)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs, p=rng.choice([0.3, 0.7, 0.95]))
        if rng.random() < 0.5:
            h = Hypergraph.of(vs, [list(e) for e in h.edges])
        for s in range(n):
            for mode in (PARTIAL, DIFFERENTIAL):
                want = invariant_by_tuples(h, s, mode)
                assert is_invariant(h, s, mode) == want, (h, s, mode)
                seen[mode, want] += 1
    assert min(seen.values()) >= 50, seen


def test_invariant_trace_classification_random():
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = random_hypergraph(rng, vs)
        rep = invariant_trace(h, PARTIAL)
        assert rep.trace.is_simplicial_complex
        assert rep.trace.has_empty_edge == h.has_empty_edge
        if not h.has_empty_edge:
            rep = invariant_trace(h, DIFFERENTIAL)
            assert rep.trace.is_independence_hypergraph


def test_edge_surjective_morphisms_shrink_invariant_sets():
    # Needs an injective vertex map: images of invariant and non-invariant
    # vertices may otherwise collide, for example collapsing v1 and v3 of
    # {(0,1),(0,2),(1,2),(0,1,2),(0,1,3),(0,2,3),(0,1,2,3)} onto one vertex
    # maps the invariant v3 onto a non-invariant image vertex.
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 2)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        ws = VertexSet.of(*[f"w{i}" for i in range(m)])
        f = VertexMap(vs, ws, tuple(rng.sample(range(m), n)))
        h = random_hypergraph(rng, vs)
        hprime = morphism_image(f, h)
        inv = set(invariant_vertices(hprime, PARTIAL))
        assert all(f(s) in inv for s in invariant_vertices(h, PARTIAL))
        if n == m and not h.has_empty_edge:
            invd = set(invariant_vertices(hprime, DIFFERENTIAL))
            assert all(f(s) in invd for s in invariant_vertices(h, DIFFERENTIAL))
