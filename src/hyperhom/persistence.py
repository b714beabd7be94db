"""Filtrations, persistent ranks, barcodes, and persistent exact sequences.

A filtration lists birth thresholds (exact rationals) per hyperedge; the
sublevel family at x keeps the edges born at or before x. Every sublevel
family must classify according to the declared monotonicity class, and
when the empty edge participates it must be born with the first edges
(later arrival would change the bottom truncation midway and the
inclusion maps would stop being chain maps).

Until output, only the order of the births matters: a filtration keeps
its grid, the distinct births ascending, and each edge's birth as an
index into it, so validation, sublevels, pairing and rank grid compare ints.
Edges are the bitmasks of `hypergraphs`; words are made from them only for
output, error texts and the positions of basis words.

Every sublevel of a valid filtration is a subcomplex of the final one,
so barcodes are read off the final complex alone, by the pairing of
Zomorodian & Carlsson (Discrete Comput. Geom. 2005) computed as the
cohomology reduction with clearing (de Silva, Morozov & Vejdemo-Johansson,
Inverse Problems 2011; Bauer, Kerber & Reininghaus, "Clear and compress",
2014) in one walk through the degrees, and the rank grid counts the
bars alive over each pair of thresholds. Persistent Mayer-Vietoris
builds the union of the two final families once and cuts every
threshold's square from it.
Every sublevel carries the class `validate` proved, and `combine` keeps
it for their unions and intersections, so no square is classified. The
vertical maps of its naturality squares are the inclusions between
two thresholds' squares. A part of the square (intersection, either
side, union) whose family did not change since the previous threshold
keeps that threshold's complex, solvers included, and its vertical map
is the identity, read without a solve.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, repeat

from .errors import MonotonicityViolation, SchemaViolation
from .homology import (
    MV_NODE_PARTS,
    BuiltComplex,
    ComplexSpec,
    build_complex,
    edge_carrier,
    inclusion_map,
    mv_complexes,
    mv_sequence,
)
from .hypergraphs import CombineOp, Hypergraph, _edge_parser, _word, combine, proved_closed
from .linalg import SparseMatrix, forward_pivots
from .records import record
from .rings import Ring
from .words import VertexSet, WedgeOperator

SIMPLICIAL_CLASS = "simplicial"
INDEPENDENCE_CLASS = "independence"


@record
class Filtration:
    """Build with `of`, or pass `validate`: the operations trust the class."""

    vertices: VertexSet
    grid: tuple  # the distinct births, ascending Fractions
    indexed: tuple  # ((index of its birth in grid, edge mask), ...) by birth, then word
    monotonicity_class: str

    @staticmethod
    def of(vertices: VertexSet, births, monotonicity_class: str) -> "Filtration":
        """The filtration of (edge, birth) pairs, each edge given by vertex
        labels or indices in any order, parsed as `Hypergraph.of` parses it."""
        parse = _edge_parser(vertices)
        return Filtration.of_parsed(vertices, [(parse(edge), birth) for edge, birth in births],
                                    monotonicity_class)

    @staticmethod
    def of_parsed(vertices: VertexSet, rows, monotonicity_class: str) -> "Filtration":
        """The filtration of (edge mask, birth) rows, each mask as
        `hypergraphs._edge_parser` gives it."""
        if monotonicity_class not in (SIMPLICIAL_CLASS, INDEPENDENCE_CLASS):
            raise SchemaViolation(f"unknown filtration class {monotonicity_class!r}")
        seen, values = {}, {}  # values: each distinct birth, made a Fraction once
        for mask, birth in rows:
            if mask in seen:
                raise SchemaViolation(f"edge {_word(mask)} listed twice")
            if birth not in values:
                values[birth] = Fraction(birth)
            seen[mask] = birth
        grid = sorted(set(values.values()))
        slot = {birth: bisect_left(grid, x) for birth, x in values.items()}
        # by birth, then by word: the order `births` and the emitters read
        order = sorted(((slot[b], mask) for mask, b in seen.items()),
                       key=lambda row: (row[0], _word(row[1])))
        f = Filtration(vertices, tuple(grid), tuple(order), monotonicity_class)
        f.validate()
        return f

    @property
    def births(self) -> tuple:  # ((edge, Fraction birth), ...) by birth, then edge
        return tuple((_word(mask), self.grid[k]) for k, mask in self.indexed)

    def critical_values(self) -> list:
        return list(self.grid)

    def validate(self) -> None:
        """Every sublevel family classifies as the declared class, in one
        pass over the birth indices. A sublevel is closed when each of its
        edges keeps its codimension-1 faces (simplicial class, edges of
        size >= 2 only) or cofaces (independence class), the rule
        `Hypergraph` checks, on the masks as it does. So an edge breaks
        every sublevel from its own birth on when one of those neighbours
        is missing or born later, and never otherwise; the first
        sublevel that fails is at the birth of the first such edge in
        birth order."""
        births = {mask: k for k, mask in self.indexed}
        if births.get(0, 0) > 0:  # 0 is the empty edge's mask
            raise MonotonicityViolation("the empty edge must be born with the first edges")
        bits = [1 << v for v in range(len(self.vertices))]
        independence = self.monotonicity_class == INDEPENDENCE_CLASS
        never = repeat(len(self.grid))  # the birth index of a missing neighbour
        for k, mask in self.indexed:
            if independence:
                near = map(mask.__or__, bits)  # the cofaces, and the edge itself
            elif mask.bit_count() > 1:
                near = map(mask.__xor__, filter(mask.__and__, bits))
            else:
                continue
            if max(map(births.get, near, never), default=k) > k:  # no vertex: no coface
                offender = self._sublevel(k).sorted_edges()
                raise MonotonicityViolation(
                    f"sublevel family at {self.grid[k]} is not closed; edges {offender}")

    def complex_at(self, x) -> Hypergraph:
        """The edges born at or before x, their class the one `validate`
        proved for every sublevel."""
        k = bisect_right(self.grid, Fraction(x))
        return self._proved(self._sublevel(k - 1))

    @cached_property
    def final_complex(self) -> Hypergraph:
        """Every edge, its class the one `validate` proved."""
        return self._proved(self._sublevel(len(self.grid)))

    def _sublevel(self, k: int) -> Hypergraph:
        """The edges born at grid index k or before, unclassified."""
        return Hypergraph(self.vertices, frozenset(m for b, m in self.indexed if b <= k))

    def _proved(self, h: Hypergraph) -> Hypergraph:
        return proved_closed(h, self.monotonicity_class == SIMPLICIAL_CLASS)


@record
class PersistentRanks:
    degree: int
    grid: tuple  # critical thresholds, ascending
    ranks: dict  # (i, j) grid index pairs i <= j -> rank

    def rank(self, i: int, j: int) -> int:
        return self.ranks[(i, j)]

    @property
    def betti_diagonal(self) -> list:
        return [self.ranks[(i, i)] for i in range(len(self.grid))]


def _check_operator(f: Filtration, operator: WedgeOperator) -> None:
    wanted = "partial" if f.monotonicity_class == SIMPLICIAL_CLASS else "d"
    if operator.kind != wanted:
        raise SchemaViolation(
            f"{f.monotonicity_class} filtrations take {wanted!r} operators"
        )


def persistent_ranks(f: Filtration, operator: WedgeOperator, q: int,
                     ring: Ring, n: int) -> PersistentRanks:
    """Ranks of every inclusion-induced map on the critical grid: the
    bars alive over [i, j], born at i or before and dying after j, are the
    suffix sums of a tally, by death index, of the bars born by i."""
    m = len(f.grid)
    born = [[] for _ in range(m)]
    for birth, death, mult in _pairing(f, operator, q, ring, n):
        born[birth].append((death, mult))
    alive, ranks = [0] * (m + 1), {}
    for i in range(m):
        for death, mult in born[i]:
            alive[death] += mult
        suffix = list(accumulate(reversed(alive)))  # suffix[t]: dying at m - t or later
        ranks.update(zip([(i, j) for j in range(i, m)], reversed(suffix[:m - i])))
    return PersistentRanks(n, f.grid, ranks)


@record
class Barcode:
    degree: int
    bars: tuple  # (birth, death or None, multiplicity) by birth, then death


def barcode(f: Filtration, operator: WedgeOperator, q: int, ring: Ring, n: int) -> Barcode:
    """Interval decomposition in degree n: the bars of `_pairing`, their
    indices read as births on the grid."""
    ends = f.grid + (None,)  # an open bar dies at index len(grid), which reads as None
    return Barcode(n, tuple((ends[b], ends[d], mult)
                            for b, d, mult in _pairing(f, operator, q, ring, n)))


def _pairing(f: Filtration, operator: WedgeOperator, q: int, ring: Ring, n: int) -> list:
    """The bars in degree n as (birth index, death index, multiplicity), by
    birth, then death, an open bar dying at index len(f.grid): the pairs
    of `_clearing_walk` on the final complex, whose class `validate`
    proved, cleared by the rule of `linalg.forward_pivots`. A negative
    n-edge closes a bar where it maps and opens none; every other n-edge
    opens a bar that the coface paired with it closes, or none does.
    Bars of length zero are dropped."""
    _check_operator(f, operator)
    if not ring.is_field:
        raise SchemaViolation("persistence needs field coefficients")
    spec = ComplexSpec(edge_carrier(f.final_complex), operator, q, ring)
    spec.require_on_grid(n)
    built = build_complex(spec)
    if not built.basis(n):  # no n-edge, no bar: nothing to walk
        return []
    pos = {_word(mask): k for k, (_, mask) in enumerate(f.indexed)}
    births = [b for b, _ in f.indexed]
    negative, pairs = _clearing_walk(built, pos, n)
    bars = Counter((births[e], births[c]) for c, e in pairs.items())
    paired = negative.keys() | pairs.values()
    bars.update((births[pos[e]], len(f.grid)) for e in built.basis(n) if pos[e] not in paired)
    return [(b, d, bars[b, d]) for b, d in sorted(bars) if b != d]


def _clearing_walk(built: BuiltComplex, pos: dict, n: int) -> tuple:
    """(negative, pairs): the cohomology reduction with clearing in degree
    n, `pos` numbering the edges in birth order. It steps through the
    degrees in the operator's order (`ComplexSpec.walk`) up to n, and then
    to n - shift. A step hands `forward_pivots` the rows of matrix(t), its
    columns the t-edges, oldest row first so that the newest is reduced
    first, less the rows at the previous step's leads (the clearing rule
    of `linalg.forward_pivots`), and keeps its leads as {column: row}, both
    numbered by `pos`. At n the leads are the negative n-edges, whose
    column is independent of the columns of earlier edges; at n - shift
    they pair each coface with the n-edge whose coboundary row it leads."""
    spec = built.spec
    shift = spec.operator.shift
    leads = negative = {}
    at = []  # the previous step's columns: this step's rows
    for t in [t for t in spec.walk() if (t - n) * shift > 0] + [n, n - shift]:
        place = [pos[e] for e in built.basis(t)]
        order = sorted(k for k in at if k not in leads)
        rows = {k: {} for k in order}
        for (i, j), v in built.matrix(t).entries:
            row = rows.get(at[i])
            if row is not None:
                row[place[j]] = v
        negative, leads = leads, {c: order[k] for c, k in forward_pivots(
            [rows[k] for k in order], spec.ring).items()}
        at = place
    return negative, leads


@record
class PersistentMV:
    grid: tuple
    sequences: tuple  # LongExactSequence per threshold
    squares_commute: bool


def persistent_mv(fa: Filtration, fb: Filtration, operator: WedgeOperator,
                  q: int, ring: Ring) -> PersistentMV:
    """Mayer-Vietoris sequences along a pair of filtrations, with the
    naturality squares of consecutive thresholds checked as matrices. Every
    square is cut from one build of the final union, made once the first
    threshold has passed its side checks, so that their errors come first;
    a part whose family did not change is the previous threshold's."""
    if fa.vertices != fb.vertices or fa.monotonicity_class != fb.monotonicity_class:
        raise SchemaViolation("the two filtrations must share vertices and class")
    _check_operator(fa, operator)
    final = cache(lambda: build_complex(ComplexSpec(edge_carrier(
        combine(fa.final_complex, fb.final_complex, CombineOp.UNION)), operator, q, ring)))
    grid = sorted(set(fa.grid).union(fb.grid))
    sequences = []
    commute = True
    previous = None
    for x in grid:
        # beside the final build, only two thresholds' squares are alive at a time
        current = mv_complexes(fa.complex_at(x), fb.complex_at(x), operator, ring,
                               lambda union: final().restrict(union), previous)
        sequences.append(mv_sequence(current))
        if previous is not None and not _mv_square_check(
                previous, current, sequences[-2], sequences[-1]):
            commute = False
        previous = current
    return PersistentMV(tuple(grid), tuple(sequences), commute)


def _mv_square_check(cx_x, cx_y, seq_x, seq_y) -> bool:
    """Verify that the vertical inclusion maps from the complexes `cx_x` of
    one threshold into those of the next, `cx_y`, commute with every
    horizontal map of the two sequences. A part both thresholds share maps
    by the identity. Both grids start at the same bottom degree and the
    union's top degree never falls, so the earlier nodes are the first of
    the later ones (the last, when the grid runs down): one offset, where
    the first earlier node sits among the later ones, aligns them."""
    ring = cx_x["cup"].spec.ring

    def vertical(label, n):
        # block diagonal over the node's parts
        placed, rows, cols = [], 0, 0
        for part in MV_NODE_PARTS[label]:
            small, large = cx_x[part], cx_y[part]
            m = (SparseMatrix.identity(small.solver(n).betti, ring) if small is large
                 else inclusion_map(small, large, n).matrix)
            placed.append(((rows, cols), m))
            rows, cols = rows + m.rows, cols + m.cols
        return SparseMatrix.blocks(rows, cols, ring, placed)

    keys = [(node.label, node.degree) for node in seq_x.nodes]
    keys_y = [(node.label, node.degree) for node in seq_y.nodes]
    offset = keys_y.index(keys[0]) if keys and keys[0] in keys_y else 0
    if keys_y[offset:offset + len(keys)] != keys:
        return False
    vert = {key: vertical(*key) for key in keys}
    return all(vert[tgt].mul(m_x) == m_y.mul(vert[src]) for src, tgt, m_x, m_y in zip(
        keys, keys[1:], seq_x.maps, seq_y.maps[offset:]))
