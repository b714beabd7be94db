"""Augmented hypergraphs: set families over an ordered vertex set.

Edges are sorted index tuples; the empty tuple is the permitted empty
hyperedge. The closure operators produce the smallest/largest simplicial
complex or independence hypergraph around a family, `gamma`/`Gamma` are
the global and local complements, and `trace` restricts onto a vertex
subset. Full power-set enumeration is capped at 20 vertices, the upward
closures `Delta`/`barDelta` at 2**20 enumerated subsets, and all-words
carriers at 2**16 words. The downward closures `delta`/`bardelta` need no
cap: they look at each edge's one-vertex neighbours only, as `_closed` does.

A family's class is which ways it is closed: downward, under nonempty
subfaces (a simplicial complex), and upward, under supersets (an
independence hypergraph). `Hypergraph._closed` holds the pair, and
`classify` only names it.

Ingest is one pass per edge: a C-level `map` over the labels-only position
dict (True and 1.0 hash as 1), then the sorted tuple and bitmask together,
kept by `Hypergraph.of` for `_closed`. Where that lookup fails, the
checking loop `_vertex_indices` runs, so every error keeps its text.
`trace` reads its vertex subset with the same loop, so a subset's labels
and indices read as a document's do; its errors come out as `NotASubset`.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain as _ichain, combinations

from .errors import NotASubset, PowerSetTooLarge, SchemaViolation, VertexSetMismatch
from .records import record
from .words import VertexMap, VertexSet

_set = object.__setattr__

# Most vertices a power set may have, and log2 of the most subsets the
# upward closures may enumerate (`closure_size`); checked before enumerating.
POWERSET_CAP = 20
# Most basis words, summed over degrees -1..max_degree, that an all-words
# carrier (`homology.word_carrier`) may hold; checked before enumerating.
WORDS_CAP = 2**16


class HypergraphClass(Enum):
    SIMPLICIAL_COMPLEX = "simplicial-complex"
    INDEPENDENCE_HYPERGRAPH = "independence-hypergraph"
    BOTH = "both"
    NEITHER = "neither"


# the class of each (closed downward, closed upward), for `classify`
_NAMES = {(True, True): HypergraphClass.BOTH,
          (True, False): HypergraphClass.SIMPLICIAL_COMPLEX,
          (False, True): HypergraphClass.INDEPENDENCE_HYPERGRAPH,
          (False, False): HypergraphClass.NEITHER}


class ClosureOp(Enum):
    DELTA_UP = "Delta"          # smallest containing simplicial complex
    DELTA_DOWN = "delta"        # largest contained simplicial complex
    BAR_DELTA_UP = "barDelta"   # smallest containing independence hypergraph
    BAR_DELTA_DOWN = "bardelta" # largest contained independence hypergraph
    GAMMA_GLOBAL = "gamma"      # power set complement
    GAMMA_LOCAL = "Gamma"       # edgewise vertex complement


class CombineOp(Enum):
    INTERSECT = "intersect"
    UNION = "union"


def _vertex_indices(vertices, raw) -> list:
    """Indices of vertices given by labels or indices, in the given order."""
    n, index = len(vertices), vertices.index
    idx = []
    for v in raw:
        if isinstance(v, str):
            v = index(v)
        elif isinstance(v, bool) or not isinstance(v, int):
            raise SchemaViolation(f"vertex {v!r} is neither a label nor an index")
        elif not 0 <= v < n:
            raise SchemaViolation(f"vertex index {v} out of range")
        idx.append(v)
    return idx


def _indexer(vertices):
    """One document's lookup: the indices of the vertices of a list, in order."""
    get = vertices._position.__getitem__

    def indices(raw) -> list:
        try:
            return list(map(get, raw))
        except (KeyError, TypeError):
            return _vertex_indices(vertices, raw)

    return indices


def _edge_parser(vertices):
    """One document's edge parser: sorted index tuple and bitmask of an edge."""
    indices = _indexer(vertices)
    bit = [1 << v for v in range(len(vertices))].__getitem__

    def parse(raw) -> tuple:
        idx = indices(raw)  # a fresh list, sorted in place
        idx.sort()
        mask = sum(map(bit, idx))
        # a repeated vertex carries, leaving fewer bits than letters
        if mask.bit_count() != len(idx):
            raise SchemaViolation(f"edge {raw} repeats a vertex")
        return tuple(idx), mask

    return parse


@record
class Hypergraph:
    vertices: VertexSet
    edges: frozenset  # of sorted index tuples; () is the empty hyperedge

    def __init__(self, vertices, edges):
        # straight-line: built for every document and sublevel (see `records`)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    @staticmethod
    def of(vertices: VertexSet, edges) -> "Hypergraph":
        """The edges given by vertex labels or indices; keeps their bitmasks."""
        edge_masks = dict(map(_edge_parser(vertices), edges))
        h = Hypergraph(vertices, frozenset(edge_masks))
        _set(h, "_masks", frozenset(edge_masks.values()))
        return h

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=lambda e: (len(e), e))

    @property
    def has_empty_edge(self) -> bool:
        return () in self.edges

    @cached_property
    def _by_degree(self) -> dict:
        """The sorted edges of each degree, bucketed once."""
        out = {}
        for e in self.edges:
            out.setdefault(len(e) - 1, []).append(e)
        for bucket in out.values():
            bucket.sort()
        return out

    def degree_edges(self, n: int) -> list:
        return list(self._by_degree.get(n, ()))

    @property
    def top_degree(self) -> int:
        return max(self._by_degree, default=-2)

    def with_edges(self, edges) -> "Hypergraph":
        return Hypergraph(self.vertices, frozenset(edges))

    def classify(self) -> HypergraphClass:
        """`_closed` named: a simplicial complex, an independence hypergraph, both or neither."""
        return _NAMES[self._closed]

    @cached_property
    def _masks(self) -> frozenset:
        """The edges as bitmasks; `of` fills this in from its parser."""
        bit = [1 << v for v in range(len(self.vertices))].__getitem__
        return frozenset(sum(map(bit, e)) for e in self.edges)

    def missing_flips(self, v: int) -> set:
        """The flips m ^ (1 << v) of the edge masks m that are not edge
        masks, 0 aside ({v} needs no empty face): a missing face lacks bit
        v, a missing coface holds it."""
        b, masks = 1 << v, self._masks
        missing = {m ^ b for m in masks} - masks
        missing.discard(0)
        return missing

    @cached_property
    def _closed(self) -> tuple:
        """(closed downward, closed upward), found once per hypergraph
        unless `proved_closed` set it.

        Codimension 1 suffices both ways. Down: if every edge of size >= 2
        keeps all its one-vertex deletions, then so does each of those, and
        by induction every nonempty subface is present. Up: likewise, if
        every edge keeps all its one-vertex insertions, every superset is
        present.

        Edges are checked as bitmasks, bit v standing for vertex v. For
        each vertex bit b, the flips m ^ b of the masks that are not masks,
        0 aside ({b} need not keep its empty face), are what is missing:
        one without bit b is a missing face (not closed down), one with
        bit b a missing coface (not closed up). It stops once both fail.
        """
        down = up = True
        for v in range(len(self.vertices)):
            b = 1 << v
            missing = self.missing_flips(v)
            down = down and all(m & b for m in missing)
            up = up and not any(m & b for m in missing)
            if not (down or up):
                break
        return down, up

    @property
    def is_simplicial_complex(self) -> bool:
        return self._closed[0]

    @property
    def is_independence_hypergraph(self) -> bool:
        return self._closed[1]


def proved_closed(h: Hypergraph, down: bool) -> Hypergraph:
    """h, which its caller proved closed downward (simplicial) or upward, its
    `_closed` set in O(1) with no flip loop: a family closed one way is closed
    both ways exactly when it is empty or holds every nonempty subset."""
    both = not h.edges or len(h.edges) - h.has_empty_edge == 2 ** len(h.vertices) - 1
    _set(h, "_closed", (down or both, both or not down))
    return h


def power_set(vertices: VertexSet) -> frozenset:
    n = len(vertices)
    if n > POWERSET_CAP:
        raise PowerSetTooLarge(f"power set enumeration capped at {POWERSET_CAP} vertices")
    idx = range(n)
    return frozenset(
        _ichain.from_iterable(combinations(idx, k) for k in range(n + 1))
    )


def closure_size(h: Hypergraph, op: ClosureOp) -> int:
    """Subsets the upward closure `op` enumerates: the sum of 2^|e| over
    the edges for `Delta`, of 2^(n - |e|) for `barDelta`, 0 for the other
    operators. Exact up to 2^POWERSET_CAP; above it, only known to exceed
    it (each exponent is clipped, so no huge power is formed)."""
    if op is ClosureOp.DELTA_UP:
        exponents = (len(e) for e in h.edges)
    elif op is ClosureOp.BAR_DELTA_UP:
        exponents = (len(h.vertices) - len(e) for e in h.edges)
    else:
        return 0
    return sum(2 ** min(k, POWERSET_CAP + 1) for k in exponents)


def closure(h: Hypergraph, op: ClosureOp) -> Hypergraph:
    edges = h.edges
    if closure_size(h, op) > 2**POWERSET_CAP:
        raise PowerSetTooLarge(
            f"{op.value} closure would enumerate more than 2**{POWERSET_CAP} subsets"
        )
    if op is ClosureOp.DELTA_UP:
        out = set()
        for e in edges:
            if e == ():
                out.add(())
            else:
                for k in range(1, len(e) + 1):
                    out.update(combinations(e, k))
        return h.with_edges(out)
    if op is ClosureOp.DELTA_DOWN or op is ClosureOp.BAR_DELTA_DOWN:
        # smallest edges first, an edge of two or more vertices stays when its
        # codimension-1 faces stayed (delta), or largest first, when its
        # cofaces stayed (bardelta): by induction on size, the edges whose
        # nonempty subfaces, or supersets, are all edges
        down = op is ClosureOp.DELTA_DOWN
        bits = [1 << v for v in range(len(h.vertices))]
        kept = {}  # mask -> edge
        for size, mask, e in sorted(((len(e), sum(map(bits.__getitem__, e)), e)
                                     for e in edges), reverse=not down):
            if (down and size < 2) or all(
                    mask ^ b in kept for b in bits if (mask & b != 0) == down):
                kept[mask] = e
        return h.with_edges(kept.values())
    if op is ClosureOp.BAR_DELTA_UP:
        everything = range(len(h.vertices))
        out = set()
        for e in edges:
            rest = [v for v in everything if v not in e]
            for k in range(len(rest) + 1):
                for extra in combinations(rest, k):
                    out.add(tuple(sorted(e + extra)))
        return h.with_edges(out)
    if op is ClosureOp.GAMMA_GLOBAL:
        return h.with_edges(power_set(h.vertices) - edges)
    if op is ClosureOp.GAMMA_LOCAL:
        everything = set(range(len(h.vertices)))
        return h.with_edges(tuple(sorted(everything - set(e))) for e in edges)
    raise SchemaViolation(f"unknown closure operator {op!r}")


def combine(a: Hypergraph, b: Hypergraph, op: CombineOp) -> Hypergraph:
    """The intersection or union of a and b. When both already hold their
    `_closed`, the result carries the ways both are closed: an edge of
    either keeps its faces (cofaces) in its own family, and an edge of both
    in both, so unions and intersections of families closed one way stay
    closed that way."""
    if a.vertices != b.vertices:
        raise VertexSetMismatch("combine needs a common vertex set")
    h = a.with_edges(a.edges & b.edges if op is CombineOp.INTERSECT else a.edges | b.edges)
    closed = [x and y for x, y in zip(vars(a).get("_closed", ()), vars(b).get("_closed", ()))]
    if any(closed):
        proved_closed(h, closed[0])
    return h


def join_hg(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Join on the disjoint union, all of a's vertices before b's."""
    if set(a.vertices.labels) & set(b.vertices.labels):
        raise VertexSetMismatch("join needs disjoint vertex label sets")
    merged = VertexSet(a.vertices.labels + b.vertices.labels)
    shift = len(a.vertices)
    b_edges = [tuple(v + shift for v in e) for e in b.edges]
    out = set(a.edges) | set(b_edges)
    for e in a.edges:
        for f in b_edges:
            out.add(tuple(sorted(e + f)))
    return Hypergraph(merged, frozenset(out))


def subset_vertices(h: Hypergraph, t) -> tuple:
    """Sorted indices of a vertex subset given by labels or indices, read
    by `_vertex_indices`, whose errors it raises as NotASubset."""
    try:
        idx = _vertex_indices(h.vertices, t)
    except SchemaViolation as exc:
        raise NotASubset(str(exc)) from None
    if len(set(idx)) != len(idx):
        raise NotASubset("subset repeats a vertex")
    return tuple(sorted(idx))


def trace(h: Hypergraph, t) -> Hypergraph:
    """Restriction onto the vertex subset t: nonempty intersections, plus
    the empty edge exactly when h has it."""
    tidx = subset_vertices(h, t)
    tset = set(tidx)
    pos = {v: i for i, v in enumerate(tidx)}
    sub = VertexSet(tuple(h.vertices.labels[v] for v in tidx))
    out = set()
    for e in h.edges:
        cut = tuple(pos[v] for v in e if v in tset)
        if cut:
            out.add(cut)
    if h.has_empty_edge:
        out.add(())
    return Hypergraph(sub, frozenset(out))


def morphism_image(f: VertexMap, h: Hypergraph) -> Hypergraph:
    if f.domain != h.vertices:
        raise VertexSetMismatch("vertex map domain differs from the hypergraph's")
    return Hypergraph(
        f.codomain, frozenset(tuple(sorted({f(v) for v in e})) for e in h.edges)
    )


def morphism_graph(f: VertexMap, h: Hypergraph) -> frozenset:
    """The graph of the induced edge map: pairs (edge, image edge)."""
    return frozenset(
        (e, tuple(sorted({f(v) for v in e}))) for e in h.edges
    )
