"""Randomized and exhaustive property suites, runnable from the CLI.

Each suite returns a case count and a failure count; a case is one
concrete instantiation of one property. Randomized suites draw from a
seeded generator, so repeated runs are identical.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import NotAChainMap
from .homology import (
    ComplexSpec,
    build_complex,
    duality_check,
    edge_carrier,
    inclusion_induced,
    inclusion_map,
    mayer_vietoris,
    operator_action,
)
from .hypergraphs import (
    ClosureOp,
    CombineOp,
    Hypergraph,
    closure,
    combine,
    join_hg,
    morphism_graph,
    morphism_image,
    power_set,
    trace,
)
from .invariance import DIFFERENTIAL, PARTIAL, invariant_trace, invariant_vertices, is_invariant
from .linalg import SparseMatrix, homology_presentation, kernel_basis, rank, smith_normal_form
from .persistence import Filtration, persistent_mv, persistent_ranks
from .records import record
from .rings import GF, QQ, ZZ
from .words import (
    FULL,
    SIMPLICIAL,
    FreeChain,
    VertexMap,
    VertexSet,
    WedgeOperator,
    WordClass,
    classify_word,
    wedge_apply,
    wedge_chain,
)


@record
class SuiteResult:
    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0


class _Tally:
    def __init__(self):
        self.cases = 0
        self.failures = 0
        self.detail = ""

    def check(self, ok: bool, detail: str = "") -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if not self.detail:
                self.detail = detail


def _words_upto(nletters, maxlen):
    for ln in range(maxlen + 1):
        yield from itertools.product(range(nletters), repeat=ln)


def _one(kind, s) -> WedgeOperator:
    """The single derivation at s: deletion for kind "partial", insertion
    for kind "d"."""
    return WedgeOperator(kind, 1, ((1, (s,)),))


def _concat(a, b) -> FreeChain:
    """The free-algebra product: concatenation, bilinear, with the empty
    word as its unit."""
    return FreeChain(a.ring, a.degree + b.degree + 1, (
        (w1 + w2, c1 * c2) for w1, c1 in a.terms.items() for w2, c2 in b.terms.items()))


def _relabel(images, c) -> FreeChain:
    """The chain map of a vertex map on the simplicial ambient: letter i of
    each word read as images[i], and the words that are not strictly
    increasing dropped."""
    return FreeChain(c.ring, c.degree, (
        (v, x) for w, x in c.terms.items()
        if classify_word(v := tuple(images[i] for i in w)) is WordClass.SIMPLICIAL_ACYCLIC))


def suite_free_calculus(rng) -> _Tally:
    """The laws of the single derivations, through `wedge_chain`:
    anticommutation, exhaustive over three letters and words of length up
    to 4; the derivation rules over concatenation, the insertion rule with
    its junction term; and naturality under strictly increasing vertex
    maps."""
    t = _Tally()
    for w in _words_upto(3, 4):
        c = FreeChain.single(ZZ, w)
        for kind in ("partial", "d"):
            for s in range(3):
                for tt in range(3):
                    a, b = _one(kind, s), _one(kind, tt)
                    t.check(wedge_chain(a, wedge_chain(b, c))
                            == -wedge_chain(b, wedge_chain(a, c)), f"{kind} anticommutation at {w}")
    for wl in _words_upto(3, 3):
        if not wl:
            continue
        for wr in _words_upto(3, 2):
            if not wr:
                continue
            xi = FreeChain.single(ZZ, wl)
            eta = FreeChain.single(ZZ, wr)
            sign = (-1) ** (xi.degree + 1)
            for s in range(3):
                delete, ins = _one("partial", s), _one("d", s)
                lhs = wedge_chain(delete, _concat(xi, eta))
                rhs = (_concat(wedge_chain(delete, xi), eta)
                       + _concat(xi, wedge_chain(delete, eta)).scaled(sign))
                t.check(lhs == rhs, "deletion derivation rule")
                lhs = wedge_chain(ins, _concat(xi, eta))
                junction = _concat(_concat(xi, FreeChain.single(ZZ, (s,))), eta)
                rhs = (_concat(wedge_chain(ins, xi), eta)
                       + _concat(xi, wedge_chain(ins, eta)).scaled(sign)
                       - junction.scaled(sign))
                t.check(lhs == rhs, "insertion derivation rule with junction term")
    for _ in range(500):
        k = rng.randint(2, 4)
        images = tuple(sorted(rng.sample(range(7), k)))
        w = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
        c = FreeChain.single(ZZ, w)
        s = rng.randrange(k)
        if len(w) > 1:
            t.check(_relabel(images, wedge_chain(_one("partial", s), c))
                    == wedge_chain(_one("partial", images[s]), _relabel(images, c)),
                    "naturality of deletions")
        t.check(_relabel(images, wedge_chain(_one("d", s), c, SIMPLICIAL))
                == wedge_chain(_one("d", images[s]), _relabel(images, c), SIMPLICIAL),
                "naturality of insertions")
    return t


def suite_projection_compatibility(rng) -> _Tally:
    """The simplicial insertion equals the full one projected onto the
    strictly increasing words, through `wedge_chain`, exhaustive over five
    vertices."""
    t = _Tally()
    for size in range(6):
        for w in itertools.combinations(range(5), size):
            c = FreeChain.single(ZZ, w)
            for s in range(5):
                quot = wedge_chain(_one("d", s), c, SIMPLICIAL)
                # the identity relabeling is the projection
                full = _relabel(range(5), wedge_chain(_one("d", s), c, FULL))
                t.check(quot == full, f"projection mismatch at {w} {s}")
    return t


def suite_boundary_squared(rng) -> _Tally:
    """Squares of random odd wedges vanish in both ambients."""
    t = _Tally()
    for _ in range(1000):
        arity = rng.choice([1, 3])
        nv = rng.randint(max(arity, 2), 4)
        terms = [
            (rng.randint(-3, 3), tuple(sorted(rng.sample(range(nv), arity))))
            for _ in range(rng.randint(1, 3))
        ]
        op = WedgeOperator.build(rng.choice(["partial", "d"]), arity, terms)
        w = tuple(rng.randrange(nv) for _ in range(rng.randint(0, 5)))
        c = FreeChain.single(ZZ, w)
        t.check(
            wedge_chain(op, wedge_chain(op, c, FULL), FULL).is_zero(),
            f"square of {op.kind} wedge on {w}",
        )
        sw = tuple(sorted(rng.sample(range(nv), rng.randint(0, nv))))
        sc = FreeChain.single(ZZ, sw)
        t.check(
            wedge_chain(op, wedge_chain(op, sc, SIMPLICIAL), SIMPLICIAL).is_zero(),
            f"square of {op.kind} wedge on increasing {sw}",
        )
    return t


def suite_linalg(rng) -> _Tally:
    """Rank plus nullity (over Q with Fraction entries too), permutation-stable
    invariant factors, and the trivial presentation."""
    t = _Tally()
    for _ in range(500):
        ring = rng.choice([QQ, GF(3), GF(7)])
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        dense = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3) if ring == QQ else 1)
                  for _ in range(cols)] for _ in range(rows)]
        m = SparseMatrix.from_entries(
            rows, cols, ring,
            [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v],
        )
        kb = kernel_basis(m)
        t.check(rank(m) + kb.cols == cols, "rank-nullity")
        t.check(m.mul(kb).is_zero(), "kernel vectors annihilate")
    for _ in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        m = SparseMatrix.from_entries(
            rows, cols, ZZ,
            [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v],
        )
        rp = list(range(rows))
        cp = list(range(cols))
        rng.shuffle(rp)
        rng.shuffle(cp)
        t.check(
            smith_normal_form(m) == smith_normal_form(m.permuted(rp, cp)),
            "invariant factors not permutation stable",
        )
        t.check(sum(map(bool, smith_normal_form(m))) == rank(m),
                "invariant factors count the rank")
    for _ in range(200):
        # a divisibility chain d with a nonunit term, hidden as U diag(d) V
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        chain = [rng.choice((1, 2, 3))]
        for _ in range(rng.randint(0, min(rows, cols) - 1)):
            chain.append(chain[-1] * rng.choice((1, 2, 3, 5)))
        chain[-1] *= rng.choice((2, 3, 5))
        dense = [[chain[i] if i == j and i < len(chain) else 0 for j in range(cols)]
                 for i in range(rows)]
        for _ in range(2):  # row additions, then column additions on the transpose
            for _ in range(rng.randint(2, 8) if len(dense) > 1 else 0):
                i, k = rng.sample(range(len(dense)), 2)
                c = rng.choice((-2, -1, 1, 2))
                dense[i] = [x + c * y for x, y in zip(dense[i], dense[k])]
            dense = [list(col) for col in zip(*dense)]
        m = SparseMatrix.from_entries(
            rows, cols, ZZ,
            [((i, j), v) for i, row in enumerate(dense) for j, v in enumerate(row) if v],
        )
        t.check(smith_normal_form(m) == chain + [0] * (min(rows, cols) - len(chain)),
                "invariant factors of U diag(d) V are d")
    for _ in range(100):
        n = rng.randint(0, 6)
        pres = homology_presentation(
            SparseMatrix.zero(0, n, ZZ), SparseMatrix.zero(n, 0, ZZ)
        )
        t.check(pres.free_rank == n and not pres.torsion_factors, "zero maps")
    return t


def _pool(vs) -> frozenset:
    """Every subset of vs as a word, a set built in the order the suites
    have always drawn from, so that a seed keeps its families."""
    return frozenset(itertools.chain.from_iterable(
        itertools.combinations(range(len(vs)), k) for k in range(len(vs) + 1)))


def _random_hypergraph(rng, vs, p=0.4):
    pool = sorted(_pool(vs), key=lambda e: (len(e), e))
    return Hypergraph.of(vs, [e for e in pool if rng.random() < p])


def suite_trace_laws(rng) -> _Tally:
    """Restriction against closures, complements, set operations, joins,
    and induced morphisms, on random families of up to six vertices."""
    t = _Tally()
    for _ in range(400):
        n = rng.randint(1, 6)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = _random_hypergraph(rng, vs)
        g = _random_hypergraph(rng, vs)
        tsub = sorted(rng.sample(range(n), rng.randint(0, n)))
        tl = [vs.labels[i] for i in tsub]

        k = closure(h, ClosureOp.DELTA_UP)
        t.check(trace(k, tl).is_simplicial_complex, "trace of complex")
        ell = closure(h, ClosureOp.BAR_DELTA_UP)
        t.check(trace(ell, tl).is_independence_hypergraph, "trace of independence")

        t.check(
            trace(closure(h, ClosureOp.DELTA_UP), tl).edges
            == closure(trace(h, tl), ClosureOp.DELTA_UP).edges,
            "downward closure vs trace",
        )
        lhs = trace(closure(h, ClosureOp.BAR_DELTA_UP), tl).edges
        rhs = closure(trace(h, tl), ClosureOp.BAR_DELTA_UP).edges
        t.check(rhs <= lhs, "upward closure inclusion")
        if h.has_empty_edge or all(set(e) & set(tsub) for e in h.edges if e):
            t.check(lhs == rhs, "upward closure vs trace under hypothesis")

        u = combine(h, g, CombineOp.UNION)
        t.check(
            trace(u, tl).edges == (trace(h, tl).edges | trace(g, tl).edges),
            "union vs trace",
        )
        hyp = all(
            tuple(sorted(set(a) & set(b))) in (h.edges & g.edges)
            for a in h.edges
            for b in g.edges
        )
        if hyp:
            i = combine(h, g, CombineOp.INTERSECT)
            t.check(
                trace(i, tl).edges == (trace(h, tl).edges & trace(g, tl).edges),
                "intersection vs trace under hypothesis",
            )
        general = (
            all(e and set(e) & set(tsub) and not set(tsub) <= set(e) for e in h.edges)
            and tuple(range(n)) not in h.edges
        )
        if general:
            t.check(
                trace(closure(h, ClosureOp.GAMMA_LOCAL), tl).edges
                == closure(trace(h, tl), ClosureOp.GAMMA_LOCAL).edges,
                "local complement vs trace in general position",
            )

        for op in (ClosureOp.GAMMA_GLOBAL, ClosureOp.GAMMA_LOCAL):
            t.check(closure(closure(h, op), op).edges == h.edges, "involution")
        kk = closure(h.with_masks(h.masks | {0}), ClosureOp.DELTA_UP)
        t.check(
            closure(kk, ClosureOp.GAMMA_GLOBAL).is_independence_hypergraph
            and closure(kk, ClosureOp.GAMMA_LOCAL).is_independence_hypergraph,
            "complements of complex with empty edge",
        )
        t.check(
            closure(ell, ClosureOp.GAMMA_GLOBAL).is_simplicial_complex
            and closure(ell, ClosureOp.GAMMA_LOCAL).is_simplicial_complex,
            "complements of independence hypergraph",
        )

        up = closure(h, ClosureOp.DELTA_UP)
        down = closure(h, ClosureOp.DELTA_DOWN)
        bup = closure(h, ClosureOp.BAR_DELTA_UP)
        bdown = closure(h, ClosureOp.BAR_DELTA_DOWN)
        t.check(down.edges <= h.edges <= up.edges, "sandwich, downward family")
        t.check(bdown.edges <= h.edges <= bup.edges, "sandwich, upward family")
        t.check(
            closure(up, ClosureOp.DELTA_UP).edges == up.edges
            and closure(up, ClosureOp.DELTA_DOWN).edges == up.edges,
            "closures fix complexes",
        )
        t.check(
            closure(bup, ClosureOp.BAR_DELTA_UP).edges == bup.edges
            and closure(bup, ClosureOp.BAR_DELTA_DOWN).edges == bup.edges,
            "closures fix independence hypergraphs",
        )
        if n <= 4:
            minimal = all(
                not (
                    up.with_masks(up.masks - {extra}).is_simplicial_complex
                    and up.masks - {extra} >= h.masks
                )
                for extra in (up.masks - h.masks)
            )
            t.check(minimal, "minimality of the downward closure")

        # joins and traces on split vertex sets
        if 2 <= n <= 5:
            cut = rng.randint(1, n - 1)
            va = VertexSet.of(*vs.labels[:cut])
            vb = VertexSet.of(*[f"w{i}" for i in range(n - cut)])
            ha = _random_hypergraph(rng, va)
            hb = _random_hypergraph(rng, vb)
            ta = sorted(rng.sample(range(cut), rng.randint(0, cut)))
            tb = sorted(rng.sample(range(n - cut), rng.randint(0, n - cut)))
            joint = join_hg(ha, hb)
            tlabels = [va.labels[i] for i in ta] + [vb.labels[i] for i in tb]
            lhs = trace(joint, tlabels)
            rhs = join_hg(
                trace(ha, [va.labels[i] for i in ta]),
                trace(hb, [vb.labels[i] for i in tb]),
            )
            t.check(
                lhs.edges == rhs.edges and lhs.vertices == rhs.vertices,
                "join vs trace",
            )

        # morphism graphs of restricted maps through the downward closure
        m = rng.randint(1, n)
        ws = VertexSet.of(*[f"u{i}" for i in range(m)])
        f = VertexMap(vs, ws, tuple(rng.randrange(m) for _ in range(n)))
        hprime = morphism_image(f, h)
        tprime = sorted({f(i) for i in tsub})
        ft = VertexMap(
            trace(h, tl).vertices,
            trace(hprime, [ws.labels[i] for i in tprime]).vertices,
            tuple(tprime.index(f(i)) for i in tsub),
        )
        lhs = morphism_graph(ft, closure(trace(h, tl), ClosureOp.DELTA_UP))
        rhs = morphism_graph(ft, trace(closure(h, ClosureOp.DELTA_UP), tl))
        t.check(lhs == rhs, "restricted morphism through downward closure")
        codomain = closure(
            trace(hprime, [ws.labels[i] for i in tprime]), ClosureOp.DELTA_UP
        )
        t.check(
            all(img in codomain.masks for _, img in lhs),
            "restricted morphism lands in the closed codomain",
        )
        if m == n and f.injective:
            lhs = morphism_graph(ft, closure(trace(h, tl), ClosureOp.BAR_DELTA_UP))
            rhs = morphism_graph(ft, trace(closure(h, ClosureOp.BAR_DELTA_UP), tl))
            if h.has_empty_edge or all(set(e) & set(tsub) for e in h.edges if e):
                t.check(lhs == rhs, "restricted morphism through upward closure")
    return t


def _matrixwise_invariant(h, s, mode):
    """Whether the single derivation at s keeps the edges of h among its
    edges, its images read from `wedge_apply`: deletions from the edges of
    two or more vertices, simplicial insertions into the nonempty edges
    without s."""
    if mode == PARTIAL:
        words = [e for e in h.edges if len(e) >= 2]
    else:
        words = [e for e in h.edges if e and s not in e]
    return all(v in h.edges for v, _, _ in wedge_apply(_one(mode, s), words, ZZ, SIMPLICIAL))


def suite_invariance(rng) -> _Tally:
    """Invariance predicates against the closure classes, matrix-level
    confirmation, and image families under injective vertex maps."""
    t = _Tally()
    for _ in range(400):
        n = rng.randint(1, 5)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        h = _random_hypergraph(rng, vs)
        all_partial = all(is_invariant(h, s, PARTIAL) for s in range(n))
        t.check(all_partial == h.is_simplicial_complex, "deletion equivalence")
        if not h.has_empty_edge:
            all_diff = all(is_invariant(h, s, DIFFERENTIAL) for s in range(n))
            t.check(all_diff == h.is_independence_hypergraph, "insertion equivalence")
        for s in range(n):
            t.check(
                is_invariant(h, s, PARTIAL) == _matrixwise_invariant(h, s, PARTIAL),
                "matrix-level deletion invariance",
            )
            t.check(
                is_invariant(h, s, DIFFERENTIAL)
                == _matrixwise_invariant(h, s, DIFFERENTIAL),
                "matrix-level insertion invariance",
            )
        rep = invariant_trace(h, PARTIAL)
        t.check(rep.trace.is_simplicial_complex, "deletion trace classifies")
        for s in range(len(rep.trace.vertices)):
            t.check(
                _matrixwise_invariant(rep.trace, s, PARTIAL),
                "deletion trace invariant at matrix level",
            )
        if not h.has_empty_edge:
            repd = invariant_trace(h, DIFFERENTIAL)
            t.check(repd.trace.is_independence_hypergraph, "insertion trace classifies")
            for s in range(len(repd.trace.vertices)):
                t.check(
                    _matrixwise_invariant(repd.trace, s, DIFFERENTIAL),
                    "insertion trace invariant at matrix level",
                )
        m = rng.randint(n, n + 2)
        ws = VertexSet.of(*[f"w{i}" for i in range(m)])
        f = VertexMap(vs, ws, tuple(rng.sample(range(m), n)))
        hprime = morphism_image(f, h)
        inv = set(invariant_vertices(hprime, PARTIAL))
        t.check(
            all(f(s) in inv for s in invariant_vertices(h, PARTIAL)),
            "deletion functoriality",
        )
        if n == m and not h.has_empty_edge:
            invd = set(invariant_vertices(hprime, DIFFERENTIAL))
            t.check(
                all(f(s) in invd for s in invariant_vertices(h, DIFFERENTIAL)),
                "insertion functoriality",
            )
    return t


def _random_complex(rng, vs, p=0.4, with_empty=None):
    h = closure(Hypergraph.of(vs, [e for e in _pool(vs) if e and rng.random() < p]),
                ClosureOp.DELTA_UP)
    if with_empty is None:
        with_empty = rng.random() < 0.3
    if with_empty:
        h = h.with_masks(h.masks | {0})
    return h


def suite_homology_functoriality(rng) -> _Tally:
    """Inclusion and even-operator actions commute; Euler characteristics
    agree; each solver's representatives are the greedy pick, which it
    reads as the unit vectors, and it refuses a basis vector that the
    boundary moves; edge complexes are restrictions of the word complex."""
    t = _Tally()
    for _ in range(100):
        n = rng.randint(2, 4)
        vs = VertexSet.of(*[f"v{i}" for i in range(n)])
        with_empty = rng.random() < 0.3
        small = _random_complex(rng, vs, 0.3, with_empty)
        drawn = [e for e in _pool(vs) if e and rng.random() < 0.3]
        large = closure(Hypergraph.of(vs, [*small.edges, *drawn]), ClosureOp.DELTA_UP)
        if with_empty:
            large = large.with_masks(large.masks | {0})
        op = WedgeOperator.weighted_sum("partial", [rng.randint(1, 3) for _ in range(n)])
        spec_small = ComplexSpec(edge_carrier(small), op, 0, QQ)
        spec_large = ComplexSpec(edge_carrier(large), op, 0, QQ)
        b1 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))])
        b2 = WedgeOperator.build(
            "partial", 2, [(rng.randint(-2, 2), tuple(sorted(rng.sample(range(n), 2))))])
        act1 = operator_action(spec_small, b1)
        act2 = operator_action(spec_small, b2)
        act12 = operator_action(spec_small, b1.wedge(b2))
        for deg, m12 in act12.items():
            inner = act2[deg]
            outer = act1.get(inner.target_degree)
            if outer is None:
                t.check(m12.target_rank == 0, "wedge action beyond the grid")
                continue
            t.check(outer.compose(inner).matrix == m12.matrix, "wedge action is composition")
        _check_action_commutes(t, act1, small, large, op, b1, "inclusion commutes with action")
        built = build_complex(spec_large)
        chi_dim = chi_betti = 0
        for p, nn in enumerate(spec_large.degrees()):
            solver = built.solver(nn)
            chi_dim += (-1) ** p * built.dim(nn)
            chi_betti += (-1) ** p * solver.betti
            t.check(solver.coords(solver.reps, "a representative is not a cycle")
                    == SparseMatrix.identity(solver.betti, QQ),
                    "representatives have unit coordinates")
            t.check(solver.reps == _greedy_pick(built, nn),
                    "representatives are the greedy pick")
            # a basis vector that the boundary moves is no cycle
            t.check(_refuses(solver, SparseMatrix.identity(built.dim(nn), QQ))
                    == (not built.matrix(nn).is_zero()), "coords refuses a non-cycle")
        t.check(chi_dim == chi_betti, "Euler characteristic")
        words = edge_carrier(Hypergraph(vs, power_set(vs)))  # every increasing word
        cut = build_complex(ComplexSpec(words, op, 0, QQ)).restrict(large)
        t.check((cut.bases, cut.mats) == (built.bases, built.mats),
                "edge complex is the word complex restricted")
        mid = large.with_masks(small.masks | {m for m in large.masks if m.bit_count() <= 2})
        _check_inclusions_compose(t, small, mid, large, op)
    a, b, op = _pinned_pair()
    _check_inclusions_compose(t, combine(a, b, CombineOp.INTERSECT), b,
                              combine(a, b, CombineOp.UNION), op)
    return t


def _greedy_pick(built, n) -> SparseMatrix:
    """The columns of `kernel_basis` at degree n, in order, each kept when it
    raises the rank of [incoming boundary | the columns kept before it]."""
    cycles, span = kernel_basis(built.matrix(n)), built.incoming_matrix(n)
    items, kept, r = list(span.entries), [], rank(span)
    for k in range(cycles.cols):
        col = [((i, span.cols + len(kept)), v) for (i, j), v in cycles.entries if j == k]
        trial = SparseMatrix(span.rows, span.cols + len(kept) + 1, span.ring,
                             tuple(sorted(items + col)))
        if rank(trial) > r:
            items, r = items + col, r + 1
            kept.append(k)
    slot = {k: c for c, k in enumerate(kept)}
    return SparseMatrix(cycles.rows, len(kept), cycles.ring, tuple(
        ((i, slot[k]), v) for (i, k), v in cycles.entries if k in slot))


def _refuses(solver, vecs) -> bool:
    """Whether the solver's `coords` refuses vecs as not all cycles."""
    try:
        solver.coords(vecs, "not a cycle")
    except NotAChainMap:
        return True
    return False


def _check_inclusions_compose(t: _Tally, small, mid, large, op,
                              detail="inclusions compose") -> tuple:
    """Inclusion is functorial: through `mid`, at every degree of `mid`.
    Returns the maps of `small` in `mid` and of `mid` in `large`."""
    first, second, direct = (inclusion_induced(x, y, op, 0, QQ) for x, y in (
        (small, mid), (mid, large), (small, large)))
    for n, m in first.items():
        t.check(second[n].compose(m).matrix == direct[n].matrix, detail)
    return first, second


def _check_action_commutes(t: _Tally, act_small, small, large, op, beta, detail) -> dict:
    """The action `act_small` of the even operator `beta` on `small`
    commutes with the inclusion in `large`. Returns the inclusion maps."""
    act_large = operator_action(ComplexSpec(edge_carrier(large), op, 0, QQ), beta)
    incl = inclusion_induced(small, large, op, 0, QQ)
    for n, m in act_small.items():
        if m.target_degree >= -1:
            t.check(act_large[n].compose(incl[n]).matrix
                    == incl[m.target_degree].compose(m).matrix, detail)
    return incl


def _pinned_pair():
    """a, b and a boundary: the degree-1 inclusion of a & b in b is square, not symmetric."""
    vs = VertexSet.of("v0", "v1", "v2", "v3")
    a = closure(Hypergraph.of(vs, [[0, 1, 2], [1, 3], [2, 3]]), ClosureOp.DELTA_UP)
    b = closure(Hypergraph.of(vs, [[0, 1], [0, 2], [0, 3], [1, 2, 3]]), ClosureOp.DELTA_UP)
    return a, b, WedgeOperator.weighted_sum("partial", [3, 2, 2, 2])


def _check_complement_law(t: _Tally, rng, ring, arity) -> None:
    """The law of `suite_duality` on a random complex K holding the empty
    edge, with weights that are units and non-units over Z and units mod 5
    on every generator set of the arity, at every offset."""
    nv = rng.randint(arity, 6)
    vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
    k = _random_complex(rng, vs, rng.choice([0.15, 0.3, 0.45]), with_empty=True)
    terms = [(rng.choice((1, 2, 3, -2, 4, 6)), g)
             for g in itertools.combinations(range(nv), arity)]
    deletion, insertion = (WedgeOperator.build(kind, arity, terms) for kind in ("partial", "d"))
    gamma = edge_carrier(closure(k, ClosureOp.GAMMA_LOCAL))
    for q in range(arity):
        low = build_complex(ComplexSpec(edge_carrier(k), deletion, q, ring))
        high = build_complex(ComplexSpec(gamma, insertion, nv - 2 - q, ring))
        for n in range(-1, nv):
            if low.spec.on_grid(n):
                t.check(low.homology(n).presentation == high.homology(nv - 2 - n).presentation,
                        f"complement law at degree {n} over {ring}")


def _delta_pairing(x, y):
    """The bilinear pairing in which the words are orthonormal."""
    return x.ring.normal(sum(c * y.terms[w] for w, c in x.terms.items() if w in y.terms))


def suite_duality(rng) -> _Tally:
    """Betti numbers of the two weighted complexes agree, the two weighted
    derivation families are adjoint under the word pairing, and the
    complement law H_n(K) = H^(N-2-n)(Gamma(K)) holds for complexes K on N
    vertices, over Z and F_5, at arity 1 and 3.

    The law. K holds the empty edge, so Gamma(K) = {V - e : e in K} is an
    independence hypergraph, and both operators weigh each generator set G
    by c_G. Deleting G from an increasing word e has sign -1 to the sum of
    G's positions in e; inserting G into f = V - e, -1 to the number of
    letters of f below each g, summed. Each g has g letters below it in V,
    so the two exponents differ by sum G, as sum f and sum (f + G) do:
    phi(e) = (-1)^(sum f) f is a bijection of the bases, from degree n to
    N - 2 - n, with phi(partial e) = d phi(e), and no image is cut, as the
    empty edge of K is the word V of Gamma(K). So the two homologies agree
    over any ring, torsion included, at degrees n and N - 2 - n, on the
    grids of offsets q and (N - 2 - q) mod arity."""
    t = _Tally()
    for nv in (1, 2, 3):
        vs = VertexSet.of(*[f"v{i}" for i in range(nv)])
        for _ in range(2):
            coeffs = [
                Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(nv)
            ]
            report = duality_check(vs, coeffs, 0, 4)
            for n, lo, hi in report.degrees:
                t.check(lo == hi, f"betti mismatch at degree {n} over {nv} vertices")
    coeffs = [Fraction(2), Fraction(1, 3), Fraction(5)]
    a = WedgeOperator.weighted_sum("partial", coeffs)
    w = WedgeOperator.weighted_sum("d", coeffs)
    ws = list(_words_upto(3, 3))
    for xi in ws:
        for eta in ws:
            if len(xi) != len(eta) + 1:
                continue
            cx = FreeChain.single(QQ, xi)
            ce = FreeChain.single(QQ, eta)
            t.check(
                _delta_pairing(wedge_chain(a, cx, FULL), ce)
                == _delta_pairing(cx, wedge_chain(w, ce, FULL)),
                f"adjointness at {xi} {eta}",
            )
    for ring in (ZZ, GF(5)):
        for arity in (1, 3):
            for _ in range(100):
                _check_complement_law(t, rng, ring, arity)
    return t


def _check_mv_maps(t: _Tally, a, b, op, ring, les) -> None:
    """The maps of `les` against the inclusion maps between the four
    complexes of its square, each built on its own: at each degree the
    first map stacks cap -> a over cap -> b, the second sets a -> cup
    beside minus b -> cup, and through either side the inclusions compose
    to cap -> cup. Each map of `les` composed with the next is zero."""
    families = {"cap": combine(a, b, CombineOp.INTERSECT), "a": a, "b": b,
                "cup": combine(a, b, CombineOp.UNION)}
    built = {k: build_complex(ComplexSpec(edge_carrier(h), op, 0, ring))
             for k, h in families.items()}
    for k in range(0, len(les.maps), 3):
        n = les.nodes[k].degree
        ia, ib, ja, jb, cap_cup = (inclusion_map(built[x], built[y], n).matrix for x, y in (
            ("cap", "a"), ("cap", "b"), ("a", "cup"), ("b", "cup"), ("cap", "cup")))
        minus_jb = SparseMatrix(jb.rows, jb.cols, ring,
                                tuple((i, ring.neg(v)) for i, v in jb.entries))
        first = SparseMatrix.blocks(ia.rows + ib.rows, ia.cols, ring,
                                    [((0, 0), ia), ((ia.rows, 0), ib)])
        second = SparseMatrix.blocks(ja.rows, ja.cols + jb.cols, ring,
                                     [((0, 0), ja), ((0, ja.cols), minus_jb)])
        t.check(les.maps[k:k + 2] == (first, second),
                f"maps at degree {n} are the inclusions over {ring}")
        t.check(ja.mul(ia) == cap_cup == jb.mul(ib),
                f"inclusions at degree {n} compose over {ring}")
    for inner, outer in zip(les.maps, les.maps[1:]):
        t.check(outer.mul(inner).is_zero(), f"consecutive maps compose to zero over {ring}")


def suite_mv_exactness(rng) -> _Tally:
    """Exactness at every junction for random simplicial pairs, and their
    maps against inclusion maps built on their own (see `_check_mv_maps`),
    first on a pair whose degree-1 inclusion of the intersection in b is
    square and not symmetric."""
    t = _Tally()
    a, b, op = _pinned_pair()
    _check_mv_maps(t, a, b, op, QQ, mayer_vietoris(a, b, op, 0, QQ))
    for ring in (QQ, GF(3)):
        for _ in range(100):
            n = rng.randint(2, 5)
            vs = VertexSet.of(*[f"v{i}" for i in range(n)])
            with_empty = rng.random() < 0.3
            a = _random_complex(rng, vs, 0.35, with_empty)
            b = _random_complex(rng, vs, 0.35, with_empty)
            op = WedgeOperator.weighted_sum(
                "partial", [rng.randint(1, 2) for _ in range(n)]
            )
            les = mayer_vietoris(a, b, op, 0, ring)
            for rank_in, nullity, exact in les.junctions:
                t.check(exact, f"junction {rank_in} vs {nullity} over {ring}")
            _check_mv_maps(t, a, b, op, ring, les)
            # degree-raising version: local complements of complexes that
            # contain the empty edge are independence hypergraphs
            la = closure(a.with_masks(a.masks | {0}), ClosureOp.GAMMA_LOCAL)
            lb = closure(b.with_masks(b.masks | {0}), ClosureOp.GAMMA_LOCAL)
            opd = WedgeOperator.weighted_sum(
                "d", [rng.randint(1, 2) for _ in range(n)]
            )
            les = mayer_vietoris(la, lb, opd, 0, ring)
            for rank_in, nullity, exact in les.junctions:
                t.check(exact, f"raising junction {rank_in} vs {nullity}")
            _check_mv_maps(t, la, lb, opd, ring, les)
    return t


def _random_filtration(rng, nverts, with_empty=None):
    vs = VertexSet.of(*[f"v{i}" for i in range(nverts)])
    # a random complex's faces, each given its birth in the order that
    # sets of words have always iterated them, so that a seed keeps its
    # filtrations
    faces = set()
    for e in frozenset(e for e in _pool(vs) if e and rng.random() < 0.5):
        for k in range(1, len(e) + 1):
            faces.update(itertools.combinations(e, k))
    births = {}
    for e in sorted(frozenset(faces), key=len):
        floor = max(
            (
                births[tuple(f)]
                for k in range(1, len(e))
                for f in itertools.combinations(e, k)
            ),
            default=Fraction(0),
        )
        births[e] = floor + rng.choice([0, 0, 1, Fraction(1, 2)])
    if with_empty is None:
        with_empty = rng.random() < 0.25
    if with_empty and births:
        births[()] = Fraction(0)
    return Filtration.of(vs, list(births.items()), "simplicial")


def suite_persistence(rng) -> _Tally:
    """The ranks read off the barcode against the maps induced by
    inclusion, composition of the structure maps, and the action squares
    along a filtration."""
    t = _Tally()
    for _ in range(110):
        nv = rng.randint(2, 4)
        f = _random_filtration(rng, nv)
        op = WedgeOperator.weighted_sum("partial", [rng.randint(1, 2) for _ in range(nv)])
        degree = rng.choice([0, 1])
        pr = persistent_ranks(f, op, 0, QQ, degree)
        m = len(pr.grid)
        # the rank grid read off the barcode against the inclusion maps
        # between the sublevels, each built once
        built = [build_complex(ComplexSpec(edge_carrier(f.complex_at(x)), op, 0, QQ))
                 for x in pr.grid]
        for i in range(m):
            for j in range(i, m):
                t.check(inclusion_map(built[i], built[j], degree).rank() == pr.rank(i, j),
                        "bars count the inclusion rank")
        # and at three pairs against `inclusion_induced`, which restricts
        # the smaller sublevel from the larger's build
        if m >= 3:
            x, y, z = (f.complex_at(pr.grid[i]) for i in (0, m // 2, m - 1))
            halves = _check_inclusions_compose(t, x, y, z, op, "structure maps compose")
            for (i, j), maps in zip(((0, m // 2), (m // 2, m - 1)), halves):
                t.check(pr.rank(i, j) == (maps[degree].rank() if degree in maps else 0),
                        "bars count the inclusion rank")
        if m >= 2 and nv >= 2:
            beta = WedgeOperator.build("partial", 2,
                                       [(1, tuple(sorted(rng.sample(range(nv), 2))))])
            kx, ky = f.complex_at(pr.grid[0]), f.complex_at(pr.grid[-1])
            act_x = operator_action(ComplexSpec(edge_carrier(kx), op, 0, QQ), beta)
            incl = _check_action_commutes(t, act_x, kx, ky, op, beta,
                                          "action commutes with structure maps")
            t.check(pr.rank(0, m - 1) == (incl[degree].rank() if degree in incl else 0),
                    "bars count the inclusion rank")
    for _ in range(15):
        fa = _random_filtration(rng, 3, with_empty=False)
        fb = _random_filtration(rng, 3, with_empty=False)
        op = WedgeOperator.weighted_sum("partial", [1, 1, 1])
        rep = persistent_mv(fa, fb, op, 0, QQ)
        t.check(rep.squares_commute, "persistent sequence squares")
        for seq in rep.sequences:
            t.check(seq.all_exact, "persistent sequence exactness")
    return t


SUITES = {
    "free-calculus": suite_free_calculus,
    "projection-compatibility": suite_projection_compatibility,
    "boundary-squared": suite_boundary_squared,
    "linalg-properties": suite_linalg,
    "trace-laws": suite_trace_laws,
    "invariance": suite_invariance,
    "homology-functoriality": suite_homology_functoriality,
    "duality": suite_duality,
    "mv-exactness": suite_mv_exactness,
    "persistence": suite_persistence,
}

# the suites named by the acceptance gate for the timed batch
CRITERION_SUITES = (
    "free-calculus",
    "projection-compatibility",
    "boundary-squared",
    "trace-laws",
    "invariance",
    "mv-exactness",
    "persistence",
)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(name)
    try:
        tally = SUITES[name](random.Random(seed))
    except Exception as exc:  # a suite that raises is one failed case, and the rest still run
        return SuiteResult(name, 1, 1, f"{type(exc).__name__}: {exc}")
    return SuiteResult(name, tally.cases, tally.failures, tally.detail)


def run_all(names=None, seed: int = 0, progress=None) -> list:
    results = []
    for name in names or SUITES:
        res = run_suite(name, seed)
        if progress:
            status = "PASS" if res.ok else "FAIL"
            progress(f"{status} {res.name} ({res.cases} cases)")
        results.append(res)
    return results
