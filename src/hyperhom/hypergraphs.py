"""Augmented hypergraphs: set families over an ordered vertex set.

Edges are sorted index tuples; the empty tuple is the permitted empty
hyperedge. The closure operators produce the smallest/largest simplicial
complex or independence hypergraph around a family, `gamma`/`Gamma` are
the global and local complements, and `trace` restricts onto a vertex
subset. Full power-set enumeration is capped at 20 vertices, and all-words
carriers at 2**16 words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain as _ichain, combinations

from .errors import NotASubset, PowerSetTooLarge, SchemaViolation, VertexSetMismatch
from .words import VertexMap, VertexSet

POWERSET_CAP = 20
# Most basis words, summed over degrees -1..max_degree, that an all-words
# carrier (`homology.word_carrier`) may hold; checked before enumerating.
WORDS_CAP = 2**16


class HypergraphClass(Enum):
    SIMPLICIAL_COMPLEX = "simplicial-complex"
    INDEPENDENCE_HYPERGRAPH = "independence-hypergraph"
    BOTH = "both"
    NEITHER = "neither"


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
    idx = []
    for v in raw:
        if isinstance(v, str):
            v = vertices.index(v)
        elif isinstance(v, bool) or not isinstance(v, int):
            raise SchemaViolation(f"vertex {v!r} is neither a label nor an index")
        if not 0 <= v < len(vertices):
            raise SchemaViolation(f"vertex index {v} out of range")
        idx.append(v)
    return idx


def _as_edge(vertices, raw) -> tuple:
    """Sorted index tuple of an edge given by vertex labels or indices."""
    idx = _vertex_indices(vertices, raw)
    edge = tuple(sorted(set(idx)))
    if len(edge) != len(idx):
        raise SchemaViolation(f"edge {raw} repeats a vertex")
    return edge


@dataclass(frozen=True)
class Hypergraph:
    vertices: VertexSet
    edges: frozenset  # of sorted index tuples; () is the empty hyperedge

    @staticmethod
    def of(vertices: VertexSet, edges) -> "Hypergraph":
        return Hypergraph(vertices, frozenset(_as_edge(vertices, e) for e in edges))

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=lambda e: (len(e), e))

    @property
    def has_empty_edge(self) -> bool:
        return () in self.edges

    def degree_edges(self, n: int) -> list:
        return sorted(e for e in self.edges if len(e) == n + 1)

    @property
    def top_degree(self) -> int:
        return max((len(e) - 1 for e in self.edges), default=-2)

    def with_edges(self, edges) -> "Hypergraph":
        return Hypergraph(self.vertices, frozenset(edges))

    def classify(self) -> HypergraphClass:
        """Simplicial complex (closed under nonempty subfaces), independence
        hypergraph (closed under supersets), both, or neither; computed
        once per hypergraph.

        Codimension 1 suffices both ways. Down: if every edge of size >= 2
        keeps all its one-vertex deletions, then so does each of those, and
        by induction every nonempty subface is present. Up: likewise, if
        every edge keeps all its one-vertex insertions, every superset is
        present.
        """
        return self._class

    @cached_property
    def _class(self) -> HypergraphClass:
        edges = self.edges
        down = all(
            e[:i] + e[i + 1 :] in edges
            for e in edges
            if len(e) >= 2
            for i in range(len(e))
        )
        everything = range(len(self.vertices))
        up = all(
            tuple(sorted(e + (v,))) in edges
            for e in edges
            for v in everything
            if v not in e
        )
        if down and up:
            return HypergraphClass.BOTH
        if down:
            return HypergraphClass.SIMPLICIAL_COMPLEX
        if up:
            return HypergraphClass.INDEPENDENCE_HYPERGRAPH
        return HypergraphClass.NEITHER

    @property
    def is_simplicial_complex(self) -> bool:
        return self._class in (HypergraphClass.SIMPLICIAL_COMPLEX, HypergraphClass.BOTH)

    @property
    def is_independence_hypergraph(self) -> bool:
        return self._class in (
            HypergraphClass.INDEPENDENCE_HYPERGRAPH,
            HypergraphClass.BOTH,
        )


def power_set(vertices: VertexSet) -> frozenset:
    n = len(vertices)
    if n > POWERSET_CAP:
        raise PowerSetTooLarge(f"power set enumeration capped at {POWERSET_CAP} vertices")
    idx = range(n)
    return frozenset(
        _ichain.from_iterable(combinations(idx, k) for k in range(n + 1))
    )


def closure(h: Hypergraph, op: ClosureOp) -> Hypergraph:
    edges = h.edges
    if op is ClosureOp.DELTA_UP:
        out = set()
        for e in edges:
            if e == ():
                out.add(())
            else:
                for k in range(1, len(e) + 1):
                    out.update(combinations(e, k))
        return h.with_edges(out)
    if op is ClosureOp.DELTA_DOWN:
        out = {
            e
            for e in edges
            if all(
                tau in edges for k in range(1, len(e)) for tau in combinations(e, k)
            )
        }
        return h.with_edges(out)
    if op is ClosureOp.BAR_DELTA_UP:
        everything = range(len(h.vertices))
        out = set()
        for e in edges:
            rest = [v for v in everything if v not in e]
            for k in range(len(rest) + 1):
                for extra in combinations(rest, k):
                    out.add(tuple(sorted(e + extra)))
        return h.with_edges(out)
    if op is ClosureOp.BAR_DELTA_DOWN:
        everything = range(len(h.vertices))
        out = set()
        for e in edges:
            rest = [v for v in everything if v not in e]
            if all(
                tuple(sorted(e + extra)) in edges
                for k in range(1, len(rest) + 1)
                for extra in combinations(rest, k)
            ):
                out.add(e)
        return h.with_edges(out)
    if op is ClosureOp.GAMMA_GLOBAL:
        return h.with_edges(power_set(h.vertices) - edges)
    if op is ClosureOp.GAMMA_LOCAL:
        everything = set(range(len(h.vertices)))
        return h.with_edges(tuple(sorted(everything - set(e))) for e in edges)
    raise SchemaViolation(f"unknown closure operator {op!r}")


def combine(a: Hypergraph, b: Hypergraph, op: CombineOp) -> Hypergraph:
    if a.vertices != b.vertices:
        raise VertexSetMismatch("combine needs a common vertex set")
    if op is CombineOp.INTERSECT:
        return a.with_edges(a.edges & b.edges)
    return a.with_edges(a.edges | b.edges)


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
    """Normalize a vertex subset given as labels or indices; sorted indices."""
    idx = []
    for v in t:
        if isinstance(v, str):
            if v not in h.vertices.labels:
                raise NotASubset(f"vertex {v!r} is not in the vertex set")
            v = h.vertices.index(v)
        if not 0 <= v < len(h.vertices):
            raise NotASubset(f"vertex {v} is not in the vertex set")
        idx.append(v)
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
