"""Filtrations, persistent ranks, barcodes, and persistent exact sequences.

A filtration lists birth thresholds (exact rationals) per hyperedge; the
sublevel family at x keeps the edges born at or before x. Every sublevel
family must classify according to the declared monotonicity class, and
when the empty edge participates it must be born with the first edges
(later arrival would change the bottom truncation midway and the
inclusion maps would stop being chain maps).

The grading here steps by the full operator arity, so persistence is
computed from the ranks of inclusion-induced maps over the critical grid
rather than by a single filtered matrix reduction. Each threshold's
complex is built once, with its solvers, and every grid pair descends
the inclusion between two built complexes; barcodes then fall out by
inclusion-exclusion over grid pairs. Persistent Mayer-Vietoris builds the
four complexes of each threshold once and reads the vertical maps of its
naturality squares from the inclusions between consecutive thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MonotonicityViolation, SchemaViolation
from .homology import (
    ComplexSpec,
    build_complex,
    inclusion_map,
    independence_carrier,
    mv_complexes,
    mv_sequence,
    simplicial_carrier,
)
from .hypergraphs import Hypergraph
from .linalg import SparseMatrix
from .rings import Ring
from .words import VertexSet, WedgeOperator

SIMPLICIAL_CLASS = "simplicial"
INDEPENDENCE_CLASS = "independence"


@dataclass(frozen=True)
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
        births = dict(self.births)
        if () in births and self.births and births[()] > min(b for _, b in self.births):
            raise MonotonicityViolation(
                "the empty edge must be born with the first edges"
            )
        for x in self.critical_values():
            h = self.complex_at(x)
            ok = (
                h.is_simplicial_complex
                if self.monotonicity_class == SIMPLICIAL_CLASS
                else h.is_independence_hypergraph
            )
            if not ok:
                offender = sorted(h.edges, key=lambda e: (len(e), e))
                raise MonotonicityViolation(
                    f"sublevel family at {x} is not closed; edges {offender}"
                )

    def complex_at(self, x) -> Hypergraph:
        x = Fraction(x)
        return Hypergraph(
            self.vertices,
            frozenset(edge for edge, birth in self.births if birth <= x),
        )

    @property
    def final_complex(self) -> Hypergraph:
        return Hypergraph(self.vertices, frozenset(e for e, _ in self.births))


def complex_at(f: Filtration, x) -> Hypergraph:
    return f.complex_at(x)


@dataclass(frozen=True)
class PersistentRanks:
    degree: int
    grid: tuple  # critical thresholds, ascending
    ranks: dict  # (i, j) grid index pairs i <= j -> rank

    def rank(self, i: int, j: int) -> int:
        return self.ranks[(i, j)]

    @property
    def betti_diagonal(self) -> list:
        return [self.ranks[(i, i)] for i in range(len(self.grid))]


def _carrier_for(f: Filtration):
    return (
        simplicial_carrier
        if f.monotonicity_class == SIMPLICIAL_CLASS
        else independence_carrier
    )


def _check_operator(f: Filtration, operator: WedgeOperator) -> None:
    wanted = "partial" if f.monotonicity_class == SIMPLICIAL_CLASS else "d"
    if operator.kind != wanted:
        raise SchemaViolation(
            f"{f.monotonicity_class} filtrations take {wanted!r} operators"
        )


def persistent_ranks(f: Filtration, operator: WedgeOperator, q: int,
                     ring: Ring, n: int) -> PersistentRanks:
    """Ranks of every inclusion-induced map on the critical grid."""
    _check_operator(f, operator)
    if not ring.is_field:
        raise SchemaViolation("persistence needs field coefficients")
    if n < -1 or (n - q) % operator.arity != 0:
        raise SchemaViolation(f"degree {n} is not on the offset-{q} grid")
    grid = f.critical_values()
    make = _carrier_for(f)
    built = [build_complex(ComplexSpec(make(f.complex_at(x)), operator, q, ring))
             for x in grid]
    ranks = {}
    for i in range(len(grid)):
        ranks[(i, i)] = built[i].solver(n).betti
        for j in range(i + 1, len(grid)):
            ranks[(i, j)] = inclusion_map(built[i], built[j], n).rank(ring)
    return PersistentRanks(n, tuple(grid), ranks)


@dataclass(frozen=True)
class Barcode:
    degree: int
    bars: tuple  # (birth, death or None, multiplicity)

    def rank_between(self, x, y) -> int:
        """Number of bars alive on the whole closed interval [x, y]."""
        x, y = Fraction(x), Fraction(y)
        total = 0
        for birth, death, mult in self.bars:
            if birth <= x and (death is None or death > y):
                total += mult
        return total


def barcode(f: Filtration, operator: WedgeOperator, q: int, ring: Ring, n: int) -> Barcode:
    """Interval decomposition via inclusion-exclusion of the rank grid."""
    pr = persistent_ranks(f, operator, q, ring, n)
    grid = pr.grid
    m = len(grid)
    bars = []
    for i in range(m):
        for j in range(i + 1, m):
            mult = pr.rank(i, j - 1) - pr.rank(i, j)
            if i > 0:
                mult -= pr.rank(i - 1, j - 1) - pr.rank(i - 1, j)
            if mult > 0:
                bars.append((grid[i], grid[j], mult))
        mult = pr.rank(i, m - 1)
        if i > 0:
            mult -= pr.rank(i - 1, m - 1)
        if mult > 0:
            bars.append((grid[i], None, mult))
    return Barcode(n, tuple(bars))


@dataclass(frozen=True)
class PersistentMV:
    grid: tuple
    sequences: tuple  # LongExactSequence per threshold
    squares_commute: bool


def persistent_mv(fa: Filtration, fb: Filtration, operator: WedgeOperator,
                  q: int, ring: Ring) -> PersistentMV:
    """Mayer-Vietoris sequences along a pair of filtrations, with the
    naturality squares of consecutive thresholds checked as matrices."""
    if fa.vertices != fb.vertices or fa.monotonicity_class != fb.monotonicity_class:
        raise SchemaViolation("the two filtrations must share vertices and class")
    _check_operator(fa, operator)
    grid = sorted(set(fa.critical_values()) | set(fb.critical_values()))
    sequences = []
    commute = True
    previous = None
    for x in grid:
        # only two thresholds' complexes are alive at a time
        current = mv_complexes(fa.complex_at(x), fb.complex_at(x), operator, q, ring)
        sequences.append(mv_sequence(current))
        if previous is not None and not _mv_square_check(
                previous, current, sequences[-2], sequences[-1]):
            commute = False
        previous = current
    return PersistentMV(tuple(grid), tuple(sequences), commute)


# the complexes behind each node label of a Mayer-Vietoris sequence
_NODE_PARTS = {"intersection": ("cap",), "sum": ("a", "b"), "union": ("cup",)}


def _mv_square_check(cx_x, cx_y, seq_x, seq_y) -> bool:
    """Verify that the vertical inclusion maps from the complexes `cx_x` of
    one threshold into those of the next, `cx_y`, commute with every
    horizontal map of the two sequences."""
    ring = cx_x["cup"].spec.ring

    def vertical(label, n):
        # block diagonal over the node's parts
        rows, cols = [], 0
        for part in _NODE_PARTS[label]:
            m = inclusion_map(cx_x[part], cx_y[part], n)
            rows += [(0,) * cols + row for row in m.matrix]
            cols += m.source_rank
        return SparseMatrix.from_rows(rows, cols, ring)

    vert = {(node.label, node.degree): vertical(node.label, node.degree)
            for node in seq_x.nodes}
    pos_y = {(n.label, n.degree): i for i, n in enumerate(seq_y.nodes)}
    for idx in range(len(seq_x.nodes) - 1):
        src = seq_x.nodes[idx]
        tgt = seq_x.nodes[idx + 1]
        if (src.label, src.degree) not in pos_y:
            return False
        ydx = pos_y[(src.label, src.degree)]
        ytgt = seq_y.nodes[ydx + 1]
        if (ytgt.label, ytgt.degree) != (tgt.label, tgt.degree):
            return False
        h_x = SparseMatrix.from_rows(seq_x.maps[idx], src.free_rank, ring)
        h_y = SparseMatrix.from_rows(seq_y.maps[ydx], seq_y.nodes[ydx].free_rank, ring)
        lhs = vert[(tgt.label, tgt.degree)].mul(h_x)
        rhs = h_y.mul(vert[(src.label, src.degree)])
        if lhs != rhs:
            return False
    return True
