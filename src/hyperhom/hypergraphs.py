"""Augmented hypergraphs: set families over an ordered vertex set.

An edge is an int bitmask, bit v standing for vertex v; 0 is the permitted
empty hyperedge. A `Hypergraph` holds the set of its masks. Words, sorted
index tuples, are made from masks by `_word` only where words are read:
the complex bases (`degree_edges`), the emitters, error texts and the
read-only view `edges`.

The closure operators produce the smallest/largest simplicial complex or
independence hypergraph around a family, `gamma`/`Gamma` are the global
and local complements, and `trace` restricts onto a vertex subset. Full
power-set enumeration is capped at 20 vertices, the upward closures
`Delta`/`barDelta` at 2**20 enumerated subsets, and all-words carriers at
2**16 words. The upward closures run through submasks, s = (s - 1) & m.
The downward closures `delta`/`bardelta` need no cap: they look at each
edge's one-vertex neighbours only, as `_closed` does.

A family's class is which ways it is closed: downward, under nonempty
subfaces (a simplicial complex), and upward, under supersets (an
independence hypergraph). `Hypergraph._closed` holds the pair, and
`classify` only names it.

Ingest is one pass per edge: a C-level `map` over the labels-only position
dict (True and 1.0 hash as 1), then the sum of the vertices' bits. Where
that lookup fails, the checking loop `_vertex_indices` runs, so every
error keeps its text. `trace` reads its vertex subset with the same loop,
so a subset's labels and indices read as a document's do; its errors come
out as `NotASubset`.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache, reduce
from itertools import chain as _ichain
from operator import or_

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
    """One document's edge parser: the bitmask of an edge."""
    indices = _indexer(vertices)
    bit = [1 << v for v in range(len(vertices))].__getitem__

    def parse(raw) -> int:
        idx = indices(raw)
        mask = sum(map(bit, idx))
        # a repeated vertex carries, leaving fewer bits than letters
        if mask.bit_count() != len(idx):
            raise SchemaViolation(f"edge {raw} repeats a vertex")
        return mask

    return parse


# cached: a filtration reads each edge's word three times (its order, the
# final complex's basis and the barcode's positions)
@lru_cache(maxsize=1 << 12)
def _word(mask: int) -> tuple:
    """The edge `mask` as a word: its vertex indices, ascending."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _submasks(m: int):
    """Every submask of m, from m itself down to 0."""
    s = m
    while s:
        yield s
        s = (s - 1) & m
    yield 0


@record
class Hypergraph:
    vertices: VertexSet
    masks: frozenset  # of edge bitmasks, bit v for vertex v; 0 is the empty hyperedge

    def __init__(self, vertices, masks):
        # straight-line: built for every document and sublevel (see `records`)
        _set(self, "vertices", vertices)
        _set(self, "masks", masks)

    @staticmethod
    def of(vertices: VertexSet, edges) -> "Hypergraph":
        """The edges given as lists of vertex labels or indices."""
        return Hypergraph(vertices, frozenset(map(_edge_parser(vertices), edges)))

    @cached_property
    def edges(self) -> frozenset:
        """The edges as words, () the empty one: a read-only view of `masks`."""
        return frozenset(map(_word, self.masks))

    def sorted_edges(self) -> list:
        """The words by size, then lexicographically."""
        return list(_ichain.from_iterable(self._by_degree[n] for n in sorted(self._by_degree)))

    @property
    def has_empty_edge(self) -> bool:
        return 0 in self.masks

    @cached_property
    def _by_degree(self) -> dict:
        """The sorted words of each degree, bucketed once."""
        out = {}
        for m in self.masks:
            out.setdefault(m.bit_count() - 1, []).append(_word(m))
        for bucket in out.values():
            bucket.sort()
        return out

    def degree_edges(self, n: int) -> list:
        return list(self._by_degree.get(n, ()))

    @property
    def top_degree(self) -> int:
        return max(self._by_degree, default=-2)

    def with_masks(self, masks) -> "Hypergraph":
        return Hypergraph(self.vertices, frozenset(masks))

    def classify(self) -> HypergraphClass:
        """`_closed` named: a simplicial complex, an independence hypergraph, both or neither."""
        return _NAMES[self._closed]

    def missing_flips(self, v: int) -> set:
        """The flips m ^ (1 << v) of the edge masks m that are not edge
        masks, 0 aside ({v} needs no empty face): a missing face lacks bit
        v, a missing coface holds it."""
        b, masks = 1 << v, self.masks
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

        For each vertex bit b, the flips m ^ b of the masks that are not masks,
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
    both = not h.masks or len(h.masks) - h.has_empty_edge == 2 ** len(h.vertices) - 1
    _set(h, "_closed", (down or both, both or not down))
    return h


def power_set(vertices: VertexSet) -> frozenset:
    """The mask of every subset of the vertices."""
    n = len(vertices)
    if n > POWERSET_CAP:
        raise PowerSetTooLarge(f"power set enumeration capped at {POWERSET_CAP} vertices")
    return frozenset(range(1 << n))


def closure_size(h: Hypergraph, op: ClosureOp) -> int:
    """Subsets the upward closure `op` enumerates: the sum of 2^|e| over
    the edges for `Delta`, of 2^(n - |e|) for `barDelta`, 0 for the other
    operators. Exact up to 2^POWERSET_CAP; above it, only known to exceed
    it (each exponent is clipped, so no huge power is formed)."""
    if op is ClosureOp.DELTA_UP:
        exponents = map(int.bit_count, h.masks)
    elif op is ClosureOp.BAR_DELTA_UP:
        exponents = (len(h.vertices) - m.bit_count() for m in h.masks)
    else:
        return 0
    return sum(2 ** min(k, POWERSET_CAP + 1) for k in exponents)


def closure(h: Hypergraph, op: ClosureOp) -> Hypergraph:
    masks, full = h.masks, (1 << len(h.vertices)) - 1
    if closure_size(h, op) > 2**POWERSET_CAP:
        raise PowerSetTooLarge(
            f"{op.value} closure would enumerate more than 2**{POWERSET_CAP} subsets"
        )
    if op is ClosureOp.DELTA_UP:
        # the nonempty subfaces of each edge; the empty edge only from itself
        return h.with_masks(s for m in masks for s in _submasks(m) if s or not m)
    if op is ClosureOp.DELTA_DOWN or op is ClosureOp.BAR_DELTA_DOWN:
        # smallest edges first, an edge of two or more vertices stays when its
        # codimension-1 faces stayed (delta), or largest first, when its
        # cofaces stayed (bardelta): by induction on size, the edges whose
        # nonempty subfaces, or supersets, are all edges
        down = op is ClosureOp.DELTA_DOWN
        bits = [1 << v for v in range(len(h.vertices))]
        kept = set()
        for m in sorted(masks, key=int.bit_count, reverse=not down):
            if (down and m.bit_count() < 2) or all(
                    m ^ b in kept for b in bits if (m & b != 0) == down):
                kept.add(m)
        return h.with_masks(kept)
    if op is ClosureOp.BAR_DELTA_UP:
        # each edge with every subset of the vertices it lacks
        return h.with_masks(m | s for m in masks for s in _submasks(full ^ m))
    if op is ClosureOp.GAMMA_GLOBAL:
        return h.with_masks(power_set(h.vertices) - masks)
    if op is ClosureOp.GAMMA_LOCAL:
        return h.with_masks(full ^ m for m in masks)
    raise SchemaViolation(f"unknown closure operator {op!r}")


def combine(a: Hypergraph, b: Hypergraph, op: CombineOp) -> Hypergraph:
    """The intersection or union of a and b. When both already hold their
    `_closed`, the result carries the ways both are closed: an edge of
    either keeps its faces (cofaces) in its own family, and an edge of both
    in both, so unions and intersections of families closed one way stay
    closed that way."""
    if a.vertices != b.vertices:
        raise VertexSetMismatch("combine needs a common vertex set")
    h = a.with_masks(a.masks & b.masks if op is CombineOp.INTERSECT else a.masks | b.masks)
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
    b_masks = [y << shift for y in b.masks]
    return Hypergraph(merged, frozenset(a.masks).union(
        b_masks, (x | y for x in a.masks for y in b_masks)))


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
    sub = VertexSet(tuple(h.vertices.labels[v] for v in tidx))
    cuts = {sum(1 << i for i, v in enumerate(tidx) if m >> v & 1) for m in h.masks}
    cuts.discard(0)
    return Hypergraph(sub, frozenset(cuts) | (h.masks & {0}))


def morphism_image(f: VertexMap, h: Hypergraph) -> Hypergraph:
    if f.domain != h.vertices:
        raise VertexSetMismatch("vertex map domain differs from the hypergraph's")
    return Hypergraph(f.codomain, frozenset(image for _, image in morphism_graph(f, h)))


def morphism_graph(f: VertexMap, h: Hypergraph) -> frozenset:
    """The graph of the induced edge map: pairs (edge mask, image edge mask)."""
    bits = [1 << f(v) for v in range(len(f.domain))]
    return frozenset((m, reduce(or_, (bits[v] for v in _word(m)), 0)) for m in h.masks)
