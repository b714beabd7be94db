"""Chain complexes of hypergraph modules under odd wedge operators.

A carrier selects the graded module: the edge span of a simplicial
complex (degree-lowering operators), the edge span of an independence
hypergraph (degree-raising operators), all words up to a truncation
degree, or all strictly increasing words. An odd-arity wedge operator of
arity 2k+1 together with an offset q cuts out the complex living in
degrees n = p(2k+1)+q, n >= -1.

Degree -1 bookkeeping follows the edge family: the module there is rank
one exactly when the empty edge is present, and otherwise the component
of an image falling on the empty word is truncated away (the one spot
where restriction of the word calculus is a quotient, not a submodule).

Homology at degree n is Ker(out_n)/Im(in_n) where `out` steps away from n
and `in` steps into it. Over a field the module also carries a solver
that fixes cycle representatives and homology coordinates, which powers
induced maps: even-wedge operator actions, inclusion maps, and the
Mayer-Vietoris long exact sequence with its zig-zag connecting map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import (
    ClassMismatch,
    CompositionNotZero,
    NotAChainMap,
    NotIncluded,
    OperatorLeavesCarrier,
    SchemaViolation,
    VertexSetMismatch,
)
from .hypergraphs import CombineOp, Hypergraph, combine
from .linalg import (
    SparseMatrix,
    SubquotientPresentation,
    _field_rref,
    boundary_invariants,
    homology_presentation,
    kernel_basis,
    rank,
)
from .rings import QQ, Ring
from .words import FULL, SIMPLICIAL, FreeChain, VertexSet, WedgeOperator, wedge_apply

SIMPLICIAL_EDGES = "simplicial"
INDEPENDENCE_EDGES = "independence"
ALL_WORDS = "words"
INCREASING_WORDS = "simplicial-words"


@dataclass(frozen=True)
class Carrier:
    kind: str
    vertices: VertexSet
    hypergraph: Hypergraph | None = None
    max_degree: int | None = None

    @property
    def ambient(self) -> str:
        return FULL if self.kind == ALL_WORDS else SIMPLICIAL

    @property
    def has_empty(self) -> bool:
        if self.hypergraph is not None:
            return self.hypergraph.has_empty_edge
        return True

    @property
    def top_degree(self) -> int:
        if self.kind == SIMPLICIAL_EDGES or self.kind == INDEPENDENCE_EDGES:
            return self.hypergraph.top_degree
        if self.kind == INCREASING_WORDS:
            return len(self.vertices) - 1
        return self.max_degree

    def basis(self, n: int) -> list:
        if n < -1 or n > self.top_degree:
            return []
        if n == -1:
            return [()] if self.has_empty else []
        nv = len(self.vertices)
        if self.kind in (SIMPLICIAL_EDGES, INDEPENDENCE_EDGES):
            return self.hypergraph.degree_edges(n)
        if self.kind == INCREASING_WORDS:
            return [tuple(c) for c in combinations(range(nv), n + 1)]
        return [tuple(w) for w in product(range(nv), repeat=n + 1)]


def simplicial_carrier(h: Hypergraph) -> Carrier:
    if not h.is_simplicial_complex:
        raise ClassMismatch("carrier is not an augmented simplicial complex")
    return Carrier(SIMPLICIAL_EDGES, h.vertices, hypergraph=h)


def independence_carrier(h: Hypergraph) -> Carrier:
    if not h.is_independence_hypergraph:
        raise ClassMismatch("carrier is not an augmented independence hypergraph")
    return Carrier(INDEPENDENCE_EDGES, h.vertices, hypergraph=h)


def word_carrier(vertices: VertexSet, max_degree: int) -> Carrier:
    if max_degree < -1:
        raise SchemaViolation("truncation degree must be at least -1")
    return Carrier(ALL_WORDS, vertices, max_degree=max_degree)


def simplicial_word_carrier(vertices: VertexSet) -> Carrier:
    return Carrier(INCREASING_WORDS, vertices)


@dataclass(frozen=True)
class ComplexSpec:
    carrier: Carrier
    operator: WedgeOperator
    q: int
    ring: Ring

    def __post_init__(self):
        if not self.operator.is_odd:
            raise SchemaViolation("boundary operators must have odd arity")
        if self.carrier.kind == SIMPLICIAL_EDGES and self.operator.kind != "partial":
            raise ClassMismatch("simplicial carriers take degree-lowering operators")
        if self.carrier.kind == INDEPENDENCE_EDGES and self.operator.kind != "d":
            raise ClassMismatch("independence carriers take degree-raising operators")
        object.__setattr__(self, "q", self.q % self.operator.arity)

    @property
    def step(self) -> int:
        return self.operator.arity

    @property
    def lowering(self) -> bool:
        return self.operator.kind == "partial"

    def degrees(self) -> list:
        step = self.step
        bottom = -1 if (-1 - self.q) % step == 0 else self.q
        top = self.carrier.top_degree
        return list(range(bottom, top + 1, step))


@dataclass(frozen=True)
class HomologyGroup:
    degree: int
    presentation: SubquotientPresentation


def _assemble_matrix(op, carrier, ring, src_basis, n_target, ambient) -> SparseMatrix:
    """Matrix of `op` from the span of src_basis into the carrier's degree
    n_target module. Word-carrier images above the truncation are cut;
    the empty-word component is cut when the carrier has no empty edge;
    any other image outside the carrier is an error."""
    target = carrier.basis(n_target)
    index = {w: i for i, w in enumerate(target)}
    items = []
    truncate_top = carrier.kind == ALL_WORDS and n_target > carrier.top_degree
    for j, w in enumerate(src_basis):
        image = wedge_apply(op, FreeChain.single(ring, w), ambient)
        for word, c in image.terms.items():
            i = index.get(word)
            if i is None:
                if word == () or truncate_top:
                    continue
                raise OperatorLeavesCarrier(
                    f"image word {word} of basis element {w} is outside the carrier"
                )
            items.append(((i, j), c))
    return SparseMatrix.from_entries(len(target), len(src_basis), ring, items)


class BuiltComplex:
    """Bases and operator matrices of one (carrier, operator, q) complex."""

    def __init__(self, spec: ComplexSpec):
        self.spec = spec
        self.bases = {}
        self.mats = {}
        self._solvers = {}
        self._invariants = {}
        carrier, ring = spec.carrier, spec.ring
        sgn = -1 if spec.lowering else 1
        for n in spec.degrees():
            self.bases[n] = carrier.basis(n)
            self.mats[n] = _assemble_matrix(
                spec.operator, carrier, ring, self.bases[n], n + sgn * spec.step,
                carrier.ambient,
            )
        for n in spec.degrees():
            m = n + sgn * spec.step
            if m in self.mats and not self.mats[m].mul(self.mats[n]).is_zero():
                raise CompositionNotZero(
                    f"operator squared is nonzero from degree {n}"
                )

    def dim(self, n: int) -> int:
        return len(self.bases.get(n, ()))

    def basis(self, n: int) -> list:
        return self.bases.get(n, [])

    def matrix(self, n: int) -> SparseMatrix:
        """Operator matrix leaving degree n (zero-shaped off the grid)."""
        if n in self.mats:
            return self.mats[n]
        sgn = -1 if self.spec.lowering else 1
        return SparseMatrix.zero(
            self.dim(n + sgn * self.spec.step), self.dim(n), self.spec.ring
        )

    def incoming_matrix(self, n: int) -> SparseMatrix:
        sgn = -1 if self.spec.lowering else 1
        return self.matrix(n - sgn * self.spec.step)

    def homology(self, n: int) -> HomologyGroup:
        if (n - self.spec.q) % self.spec.step != 0 or n < -1:
            raise SchemaViolation(f"degree {n} is not on the offset-{self.spec.q} grid")
        sgn = -1 if self.spec.lowering else 1
        return HomologyGroup(n, homology_presentation(
            self.matrix(n), self.incoming_matrix(n),
            self.invariants(n), self.invariants(n - sgn * self.spec.step),
        ))

    def invariants(self, n: int) -> tuple:
        """(rank, nonunit invariant factors) of the matrix leaving degree n,
        computed once: each matrix serves the degrees at both its ends."""
        if n not in self._invariants:
            self._invariants[n] = boundary_invariants(self.matrix(n))
        return self._invariants[n]

    def solver(self, n: int) -> "DegreeSolver":
        if n not in self._solvers:
            self._solvers[n] = DegreeSolver(
                self.spec.ring, self.dim(n), self.matrix(n), self.incoming_matrix(n)
            )
        return self._solvers[n]


def build_complex(spec: ComplexSpec) -> BuiltComplex:
    return BuiltComplex(spec)


def homology(spec: ComplexSpec, n: int) -> HomologyGroup:
    return build_complex(spec).homology(n)


def homology_table(spec: ComplexSpec) -> list:
    built = build_complex(spec)
    return [built.homology(n) for n in spec.degrees()]


class DegreeSolver:
    """Cycle representatives and homology coordinates at one degree,
    field coefficients only."""

    def __init__(self, ring: Ring, dim: int, out_mat: SparseMatrix, in_mat: SparseMatrix):
        if not ring.is_field:
            raise SchemaViolation("homology solvers need field coefficients")
        self.ring = ring
        self.dim = dim
        self.out_mat = out_mat
        cycles = kernel_basis(out_mat) if out_mat.rows else [
            [ring.one if i == j else ring.zero for i in range(dim)] for j in range(dim)
        ]
        boundary = []
        reducer = _IncrementalBasis(ring, dim)
        for j in range(in_mat.cols):
            col = in_mat.column(j)
            if reducer.add(col):
                boundary.append(col)
        self.reps = [z for z in cycles if reducer.add(z)]
        self.boundary_rank = len(boundary)
        self.betti = len(self.reps)
        # solving column basis: boundaries then representatives
        self._cols = boundary + self.reps
        self._dense = [
            [self._cols[j][i] for j in range(len(self._cols))] for i in range(dim)
        ]
        aug = [row + [ring.one if i == k else ring.zero for k in range(dim)]
               for i, row in enumerate(self._dense)]
        self._pivots = _field_rref(aug, len(self._cols), ring)
        self._transform = [row[len(self._cols):] for row in aug]

    def is_cycle(self, vec) -> bool:
        return all(self.ring.is_zero(v) for v in self.out_mat.apply(vec))

    def coords(self, vec) -> tuple:
        """Homology coordinates of a cycle; None when vec is outside the
        cycle space."""
        ring = self.ring
        w = [
            sum_ring(ring, (ring.mul(t, v) for t, v in zip(row, vec)))
            for row in self._transform
        ]
        for i in range(len(self._pivots), self.dim):
            if not ring.is_zero(w[i]):
                return None
        x = [ring.zero] * len(self._cols)
        for r, c in enumerate(self._pivots):
            x[c] = w[r]
        return tuple(x[self.boundary_rank :])


def sum_ring(ring, items):
    acc = ring.zero
    for v in items:
        acc = ring.add(acc, v)
    return acc


class _IncrementalBasis:
    def __init__(self, ring, dim):
        self.ring = ring
        self.dim = dim
        self.rows = {}  # pivot index -> reduced vector with unit pivot

    def add(self, vec) -> bool:
        ring = self.ring
        v = list(vec)
        for p, row in self.rows.items():
            c = v[p]
            if not ring.is_zero(c):
                v = [ring.sub(a, ring.mul(c, b)) for a, b in zip(v, row)]
        for p in range(self.dim):
            if not ring.is_zero(v[p]):
                inv = ring.inv(v[p])
                self.rows[p] = [ring.mul(inv, a) for a in v]
                return True
        return False


@dataclass(frozen=True)
class InducedMap:
    """A homology-level map, stored on the solvers' representative bases."""

    source_degree: int
    target_degree: int
    source_rank: int
    target_rank: int
    matrix: tuple  # target_rank rows, source_rank columns

    def compose(self, inner: "InducedMap", ring: Ring) -> "InducedMap":
        """self after inner."""
        if inner.target_degree != self.source_degree or inner.target_rank != self.source_rank:
            raise SchemaViolation("shape mismatch in composition")
        rows = []
        for row in self.matrix:
            out = []
            for j in range(inner.source_rank):
                out.append(
                    sum_ring(ring, (ring.mul(row[k], inner.matrix[k][j])
                                    for k in range(inner.target_rank)))
                )
            rows.append(tuple(out))
        return InducedMap(
            inner.source_degree, self.target_degree,
            inner.source_rank, self.target_rank, tuple(rows),
        )

    def rank(self, ring: Ring) -> int:
        dense = [list(r) for r in self.matrix]
        return len(_field_rref(dense, self.source_rank, ring))


def _descend_matrix(chain_mat: SparseMatrix, src: DegreeSolver, tgt: DegreeSolver,
                    what: str) -> tuple:
    cols = []
    for z in src.reps:
        v = chain_mat.apply(z)
        if tgt.betti == 0:
            cols.append(())
            continue
        if not tgt.is_cycle(v):
            raise NotAChainMap(f"{what} sends a cycle to a non-cycle")
        c = tgt.coords(v)
        if c is None:
            raise NotAChainMap(f"{what} leaves the cycle space")
        cols.append(c)
    return tuple(tuple(col[i] for col in cols) for i in range(tgt.betti))


def _descend(chain_mat, src, tgt, src_n, tgt_n, what) -> InducedMap:
    matrix = _descend_matrix(chain_mat, src, tgt, what)
    return InducedMap(src_n, tgt_n, src.betti, tgt.betti, matrix)


def operator_action(spec: ComplexSpec, evenop: WedgeOperator) -> dict:
    """Homology action of an even wedge operator, one InducedMap per
    degree of the source grid. The chain-level commutation with the
    boundary is checked before descending."""
    if not spec.ring.is_field:
        raise SchemaViolation("operator actions are computed over fields")
    if evenop.arity % 2 != 0:
        raise SchemaViolation("operator actions need even arity")
    if evenop.kind != spec.operator.kind:
        raise SchemaViolation("operator family mismatch")
    source = build_complex(spec)
    shift = -evenop.arity if spec.lowering else evenop.arity
    target_spec = ComplexSpec(spec.carrier, spec.operator, spec.q + shift, spec.ring)
    target = build_complex(target_spec)
    carrier, ring = spec.carrier, spec.ring
    sgn = -1 if spec.lowering else 1

    even_mats = {}
    for n in spec.degrees():
        even_mats[n] = _assemble_matrix(
            evenop, carrier, ring, source.basis(n), n + shift, carrier.ambient
        )
    for n in spec.degrees():
        m = n + shift
        lhs = target.matrix(m).mul(even_mats[n])
        nxt = n + sgn * spec.step
        rhs_inner = even_mats.get(nxt)
        if rhs_inner is None:
            rhs_inner = _assemble_matrix(
                evenop, carrier, ring, source.basis(nxt), nxt + shift, carrier.ambient
            )
        rhs = rhs_inner.mul(source.matrix(n))
        if lhs.entries != rhs.entries:
            raise NotAChainMap("even operator does not commute with the boundary")

    out = {}
    for n in spec.degrees():
        m = n + shift
        tgt_solver = (
            target.solver(m)
            if m >= -1
            else DegreeSolver(ring, 0, SparseMatrix.zero(0, 0, ring), SparseMatrix.zero(0, 0, ring))
        )
        out[n] = _descend(even_mats[n], source.solver(n), tgt_solver, n, m,
                          "even operator action")
    return out


def _inclusion_matrix(small_basis, large_basis, ring) -> SparseMatrix:
    index = {w: i for i, w in enumerate(large_basis)}
    items = []
    for j, w in enumerate(small_basis):
        if w not in index:
            raise NotIncluded(f"edge {w} of the smaller family is missing above")
        items.append(((index[w], j), ring.one))
    return SparseMatrix.from_entries(len(large_basis), len(small_basis), ring, items)


def inclusion_induced(small: Hypergraph, large: Hypergraph, operator: WedgeOperator,
                      q: int, ring: Ring) -> dict:
    """Per-degree homology maps induced by an edge-family inclusion."""
    if small.vertices != large.vertices:
        raise VertexSetMismatch("inclusion needs a common vertex set")
    if not small.edges <= large.edges:
        raise NotIncluded("left hypergraph is not contained in the right one")
    if not ring.is_field:
        raise SchemaViolation("induced maps are computed over fields")
    make = simplicial_carrier if operator.kind == "partial" else independence_carrier
    src = build_complex(ComplexSpec(make(small), operator, q, ring))
    tgt = build_complex(ComplexSpec(make(large), operator, q, ring))
    out = {}
    for n in tgt.spec.degrees():
        mat = _inclusion_matrix(src.basis(n), tgt.basis(n), ring)
        out[n] = _descend(mat, src.solver(n), tgt.solver(n), n, n, "inclusion")
    return out


@dataclass(frozen=True)
class SequenceNode:
    label: str  # "intersection" | "sum" | "union"
    degree: int
    free_rank: int


@dataclass(frozen=True)
class LongExactSequence:
    nodes: tuple
    maps: tuple  # matrices between consecutive nodes
    junctions: tuple  # (rank_in, nullity_out, exact) per node

    @property
    def all_exact(self) -> bool:
        return all(j[2] for j in self.junctions)


def _matrix_rank(matrix, ncols, ring) -> int:
    dense = [list(r) for r in matrix]
    return len(_field_rref(dense, ncols, ring))


def mayer_vietoris(a: Hypergraph, b: Hypergraph, operator: WedgeOperator,
                   q: int, ring: Ring) -> LongExactSequence:
    """The long exact sequence linking intersection, direct sum, and union.

    Degree-lowering operators need matching empty-edge membership: the
    degree -1 truncation of the two sides otherwise disagrees and the
    inclusion maps stop being chain maps.
    """
    if a.vertices != b.vertices:
        raise VertexSetMismatch("Mayer-Vietoris needs a common vertex set")
    if not ring.is_field:
        raise SchemaViolation("exactness reports are computed over fields")
    lowering = operator.kind == "partial"
    make = simplicial_carrier if lowering else independence_carrier
    if lowering and a.has_empty_edge != b.has_empty_edge:
        raise ClassMismatch(
            "empty edge membership differs between the two sides"
        )
    cap = combine(a, b, CombineOp.INTERSECT)
    cup = combine(a, b, CombineOp.UNION)
    complexes = {
        name: build_complex(ComplexSpec(make(h), operator, q, ring))
        for name, h in (("cap", cap), ("a", a), ("b", b), ("cup", cup))
    }
    grid = complexes["cup"].spec.degrees()
    if lowering:
        grid = list(reversed(grid))
    sgn = -1 if lowering else 1
    step = operator.arity

    nodes = []
    maps = []
    for n in grid:
        s_cap = complexes["cap"].solver(n)
        s_a = complexes["a"].solver(n)
        s_b = complexes["b"].solver(n)
        s_cup = complexes["cup"].solver(n)
        nodes.append(SequenceNode("intersection", n, s_cap.betti))
        maps.append(_mv_first_map(complexes, n, ring))
        nodes.append(SequenceNode("sum", n, s_a.betti + s_b.betti))
        maps.append(_mv_second_map(complexes, n, ring))
        nodes.append(SequenceNode("union", n, s_cup.betti))
        maps.append(_mv_connecting(complexes, n, sgn * step, ring))
    # final connecting map targets a vanishing group
    junctions = []
    for i, node in enumerate(nodes):
        rank_in = _matrix_rank(maps[i - 1], nodes[i - 1].free_rank, ring) if i else 0
        nullity = node.free_rank - _matrix_rank(maps[i], node.free_rank, ring)
        junctions.append((rank_in, nullity, rank_in == nullity))
    # the last map leaves the listed window; exactness there needs the
    # kernel of nothing, so fold it into a trailing zero-node junction
    tail_rank = _matrix_rank(maps[-1], nodes[-1].free_rank, ring) if maps else 0
    junctions.append((tail_rank, 0, tail_rank == 0))
    return LongExactSequence(tuple(nodes), tuple(maps), tuple(junctions))


def _mv_first_map(complexes, n, ring):
    s_cap = complexes["cap"].solver(n)
    incl_a = _inclusion_matrix(complexes["cap"].basis(n), complexes["a"].basis(n), ring)
    incl_b = _inclusion_matrix(complexes["cap"].basis(n), complexes["b"].basis(n), ring)
    ma = _descend_matrix(incl_a, s_cap, complexes["a"].solver(n), "intersection inclusion")
    mb = _descend_matrix(incl_b, s_cap, complexes["b"].solver(n), "intersection inclusion")
    return tuple(list(ma) + list(mb))


def _mv_second_map(complexes, n, ring):
    s_a = complexes["a"].solver(n)
    s_b = complexes["b"].solver(n)
    s_cup = complexes["cup"].solver(n)
    incl_a = _inclusion_matrix(complexes["a"].basis(n), complexes["cup"].basis(n), ring)
    incl_b = _inclusion_matrix(complexes["b"].basis(n), complexes["cup"].basis(n), ring)
    ma = _descend_matrix(incl_a, s_a, s_cup, "union inclusion")
    mb = _descend_matrix(incl_b, s_b, s_cup, "union inclusion")
    rows = []
    for i in range(s_cup.betti):
        rows.append(tuple(list(ma[i]) + [ring.neg(v) for v in mb[i]]))
    return tuple(rows)


def _mv_connecting(complexes, n, signed_step, ring):
    """Zig-zag: lift a union cycle to the two sides, push one side through
    the boundary, read the class in the intersection."""
    m = n + signed_step
    s_cup = complexes["cup"].solver(n)
    cap_cx = complexes["cap"]
    s_cap_next = cap_cx.solver(m) if m >= -1 else DegreeSolver(
        ring, 0, SparseMatrix.zero(0, 0, ring), SparseMatrix.zero(0, 0, ring)
    )
    a_basis = {w: i for i, w in enumerate(complexes["a"].basis(n))}
    cap_index = {w: i for i, w in enumerate(cap_cx.basis(m))}
    bnd_a = complexes["a"].matrix(n)
    a_target_basis = complexes["a"].basis(m) if m >= -1 else []
    cols = []
    for z in s_cup.reps:
        u = [ring.zero] * len(a_basis)
        for idx, w in enumerate(complexes["cup"].basis(n)):
            if not ring.is_zero(z[idx]) and w in a_basis:
                u[a_basis[w]] = z[idx]
        w_vec = bnd_a.apply(u)
        target = [ring.zero] * len(cap_index)
        for i, val in enumerate(w_vec):
            if ring.is_zero(val):
                continue
            word = a_target_basis[i]
            if word not in cap_index:
                raise NotAChainMap("connecting image leaves the intersection")
            target[cap_index[word]] = val
        if s_cap_next.betti == 0:
            cols.append(())
            continue
        c = s_cap_next.coords(target)
        if c is None:
            raise NotAChainMap("connecting image is not a cycle")
        cols.append(c)
    return tuple(
        tuple(col[i] for col in cols) for i in range(s_cap_next.betti)
    )


@dataclass(frozen=True)
class DualityReport:
    degrees: tuple  # (n, lowering_betti, raising_betti)

    @property
    def all_equal(self) -> bool:
        return all(x == y for _, x, y in self.degrees)


def duality_check(vertices: VertexSet, coeffs, q: int, max_degree: int) -> DualityReport:
    """Betti numbers of the weighted deletion complex against the weighted
    insertion complex on all words, compared on every degree one full step
    clear of the truncation."""
    coeffs = [QQ.coerce(c) for c in coeffs]
    if len(coeffs) != len(vertices):
        raise SchemaViolation("one weight per vertex required")
    alpha = WedgeOperator.weighted_sum("partial", coeffs)
    omega = WedgeOperator.weighted_sum("d", coeffs)
    carrier = word_carrier(vertices, max_degree)
    low = build_complex(ComplexSpec(carrier, alpha, q, QQ))
    high = build_complex(ComplexSpec(carrier, omega, q, QQ))
    step = alpha.arity
    rows = []
    for n in low.spec.degrees():
        if n > max_degree - step:
            continue
        dim = low.dim(n)
        beta_low = dim - rank(low.matrix(n)) - rank(low.incoming_matrix(n))
        beta_high = dim - rank(high.matrix(n)) - rank(high.incoming_matrix(n))
        rows.append((n, beta_low, beta_high))
    return DualityReport(tuple(rows))


def delta_pairing(x: FreeChain, y: FreeChain):
    """Bilinear pairing with orthonormal words."""
    if x.ring != y.ring:
        raise SchemaViolation("pairing needs one ring")
    return sum_ring(
        x.ring, (x.ring.mul(c, y.terms[w]) for w, c in x.terms.items() if w in y.terms)
    )
