"""Filtrations, persistent ranks, barcodes, and persistent exact sequences.

A filtration lists birth thresholds (exact rationals) per hyperedge; the
sublevel family at x keeps the edges born at or before x. Every sublevel
family must classify according to the declared monotonicity class, and
when the empty edge participates it must be born with the first edges
(later arrival would change the bottom truncation midway and the
inclusion maps would stop being chain maps).

Every sublevel of a valid filtration is a subcomplex of the final one,
so barcodes are read off the final complex alone, by the standard pairing
of Zomorodian & Carlsson (Discrete Comput. Geom. 2005) in two
`field_reduce` calls, and the rank grid counts the bars alive over each
pair of thresholds. Persistent Mayer-Vietoris builds the union of the two
final families once and cuts every threshold's square from it; the
vertical maps of its naturality squares are the inclusions between two
thresholds' squares.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, cached_property

from .errors import MonotonicityViolation, SchemaViolation
from .homology import (
    MV_NODE_PARTS,
    ComplexSpec,
    build_complex,
    edge_carrier,
    inclusion_map,
    mv_complexes,
    mv_sequence,
)
from .hypergraphs import CombineOp, Hypergraph, combine
from .linalg import SparseMatrix, field_reduce
from .records import record
from .rings import Ring
from .words import VertexSet, WedgeOperator

SIMPLICIAL_CLASS = "simplicial"
INDEPENDENCE_CLASS = "independence"


@record
class Filtration:
    vertices: VertexSet
    births: tuple  # ((edge, Fraction birth), ...) sorted
    monotonicity_class: str

    @staticmethod
    def of(vertices: VertexSet, births, monotonicity_class: str) -> "Filtration":
        if monotonicity_class not in (SIMPLICIAL_CLASS, INDEPENDENCE_CLASS):
            raise SchemaViolation(f"unknown filtration class {monotonicity_class!r}")
        seen = {}
        for edge, birth in births:
            edge = tuple(sorted(edge))
            if edge in seen:
                raise SchemaViolation(f"edge {edge} listed twice")
            seen[edge] = Fraction(birth)
        f = Filtration(
            vertices,
            tuple(sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))),
            monotonicity_class,
        )
        f.validate()
        return f

    def critical_values(self) -> list:
        return sorted({birth for _, birth in self.births})

    def validate(self) -> None:
        """Every sublevel family classifies as the declared class, in one
        pass over the births. A sublevel is closed when each of its edges
        keeps its codimension-1 faces (simplicial class, edges of size >= 2
        only) or cofaces (independence class), the rule `Hypergraph.classify`
        checks. So an edge breaks every sublevel from its own birth on when
        one of those neighbours is missing or born later, and never
        otherwise; the first sublevel that fails is at the least birth of
        such an edge."""
        births = dict(self.births)
        if () in births and births[()] > min(births.values()):
            raise MonotonicityViolation(
                "the empty edge must be born with the first edges"
            )
        simplicial = self.monotonicity_class == SIMPLICIAL_CLASS
        nv = len(self.vertices)
        broken = []
        for edge, birth in births.items():
            if not simplicial:
                near = [tuple(sorted(edge + (v,))) for v in range(nv) if v not in edge]
            elif len(edge) > 1:
                near = [edge[:i] + edge[i + 1:] for i in range(len(edge))]
            else:
                near = ()
            if any(births.get(e, birth + 1) > birth for e in near):
                broken.append(birth)
        if broken:
            x = min(broken)
            offender = sorted((e for e, b in self.births if b <= x), key=lambda e: (len(e), e))
            raise MonotonicityViolation(
                f"sublevel family at {x} is not closed; edges {offender}"
            )

    def complex_at(self, x) -> Hypergraph:
        x = Fraction(x)
        return Hypergraph(
            self.vertices,
            frozenset(edge for edge, birth in self.births if birth <= x),
        )

    @cached_property
    def final_complex(self) -> Hypergraph:
        return Hypergraph(self.vertices, frozenset(e for e, _ in self.births))


def complex_at(f: Filtration, x) -> Hypergraph:
    return f.complex_at(x)


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
    number of bars alive over each grid interval."""
    bc = barcode(f, operator, q, ring, n)
    grid = f.critical_values()
    ranks = {(i, j): bc.rank_between(grid[i], grid[j])
             for i in range(len(grid)) for j in range(i, len(grid))}
    return PersistentRanks(n, tuple(grid), ranks)


@record
class Barcode:
    degree: int
    bars: tuple  # (birth, death or None, multiplicity) by birth, then death

    def rank_between(self, x, y) -> int:
        """Number of bars alive on the whole closed interval [x, y]."""
        x, y = Fraction(x), Fraction(y)
        total = 0
        for birth, death, mult in self.bars:
            if birth <= x and (death is None or death > y):
                total += mult
        return total


def barcode(f: Filtration, operator: WedgeOperator, q: int, ring: Ring, n: int) -> Barcode:
    """Interval decomposition in degree n by the standard pairing on the
    final complex, its edges in birth order. An n-edge opens a bar unless
    its outgoing column is independent of the columns of earlier edges.
    The incoming edges, reduced earliest first as rows keyed latest n-edge
    first, each close the bar of the n-edge at their pivot. Bars of
    length zero are dropped."""
    _check_operator(f, operator)
    if not ring.is_field:
        raise SchemaViolation("persistence needs field coefficients")
    spec = ComplexSpec(edge_carrier(operator.kind, f.final_complex), operator, q, ring)
    spec.require_on_grid(n)
    built = build_complex(spec)
    pos = {edge: k for k, (edge, _) in enumerate(f.births)}
    births = [birth for _, birth in f.births]
    last = len(births) - 1
    edges = built.basis(n)
    src_edges = built.basis(n - operator.shift)
    out_rows, in_rows = {}, {}
    for (i, j), v in built.matrix(n).entries:
        out_rows.setdefault(i, {})[pos[edges[j]]] = v
    for (i, j), v in built.incoming_matrix(n).entries:
        in_rows.setdefault(pos[src_edges[j]], {})[last - pos[edges[i]]] = v
    negative = field_reduce(list(out_rows.values()), len(births), ring)[0]
    closer = {id(row): births[k] for k, row in in_rows.items()}
    pivots, pivot_rows, _ = field_reduce(
        [in_rows[k] for k in sorted(in_rows, reverse=True)], len(births), ring)
    paired = set(negative).union(last - c for c in pivots)
    bars = Counter((births[last - c], closer[id(row)]) for c, row in zip(pivots, pivot_rows))
    bars.update((births[pos[e]], None) for e in edges if pos[e] not in paired)
    order = sorted((bar for bar in bars if bar[0] != bar[1]),
                   key=lambda bar: (bar[0], bar[1] is None, bar[1] or 0))
    return Barcode(n, tuple((birth, death, bars[birth, death]) for birth, death in order))


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
    threshold has passed its side checks, so that their errors come first."""
    if fa.vertices != fb.vertices or fa.monotonicity_class != fb.monotonicity_class:
        raise SchemaViolation("the two filtrations must share vertices and class")
    _check_operator(fa, operator)
    final = cache(lambda: build_complex(ComplexSpec(edge_carrier(
        operator.kind, combine(fa.final_complex, fb.final_complex, CombineOp.UNION)),
        operator, q, ring)))
    grid = sorted(set(fa.critical_values()) | set(fb.critical_values()))
    sequences = []
    commute = True
    previous = None
    for x in grid:
        # beside the final build, only two thresholds' squares are alive at a time
        current = mv_complexes(fa.complex_at(x), fb.complex_at(x), operator, ring,
                               lambda union: final().restrict(union))
        sequences.append(mv_sequence(current))
        if previous is not None and not _mv_square_check(
                previous, current, sequences[-2], sequences[-1]):
            commute = False
        previous = current
    return PersistentMV(tuple(grid), tuple(sequences), commute)


def _mv_square_check(cx_x, cx_y, seq_x, seq_y) -> bool:
    """Verify that the vertical inclusion maps from the complexes `cx_x` of
    one threshold into those of the next, `cx_y`, commute with every
    horizontal map of the two sequences."""
    ring = cx_x["cup"].spec.ring

    def vertical(label, n):
        # block diagonal over the node's parts
        placed, rows, cols = [], 0, 0
        for part in MV_NODE_PARTS[label]:
            m = inclusion_map(cx_x[part], cx_y[part], n).matrix
            placed.append(((rows, cols), m))
            rows, cols = rows + m.rows, cols + m.cols
        return SparseMatrix.blocks(rows, cols, ring, placed)

    keys = [(node.label, node.degree) for node in seq_x.nodes]
    keys_y = [(node.label, node.degree) for node in seq_y.nodes]
    vert = {key: vertical(*key) for key in keys}
    for idx, (src, tgt) in enumerate(zip(keys, keys[1:])):
        if src not in keys_y or keys_y[keys_y.index(src) + 1] != tgt:
            return False
        ydx = keys_y.index(src)
        if vert[tgt].mul(seq_x.maps[idx]) != seq_y.maps[ydx].mul(vert[src]):
            return False
    return True
