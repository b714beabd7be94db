"""Chain complexes of hypergraph modules under odd wedge operators.

A carrier selects the graded module: the edge span of a hypergraph, or
all words up to a truncation degree. The operator's family fixes the
class of an edge family, checked once by `ComplexSpec`: degree-lowering
operators act on simplicial complexes, degree-raising ones on
independence hypergraphs. All strictly increasing words are the edge
span of the power set, which is both. An odd-arity wedge operator of
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
Mayer-Vietoris long exact sequence with its zig-zag connecting map. The
solver works on the free coordinates of the cycle space: a cycle is
fixed by its entries at the free columns of the outgoing boundary's
reduced echelon form, so after the kernel basis only the incoming
columns' rows there are reduced, and nothing is solved for.
Vectors are the columns of a `SparseMatrix`. An inclusion sends each
word to the same word, so the images of the representatives are the
representatives themselves, their rows re-indexed into the larger basis;
any other chain map applied to them is one product. One
`DegreeSolver.coords` call reads the coordinates of all the images: one
product with the outgoing boundary checks that they are cycles, or
raises NotAChainMap, and their free rows are reduced. Every induced map
and the connecting map leave through it.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    CarrierTooLarge,
    ClassMismatch,
    CompositionNotZero,
    NotAChainMap,
    NotIncluded,
    OperatorLeavesCarrier,
    SchemaViolation,
    VertexSetMismatch,
)
from .hypergraphs import WORDS_CAP, CombineOp, Hypergraph, combine
from .linalg import (
    SparseMatrix,
    SubquotientPresentation,
    _axpy,
    boundary_invariants,
    homology_presentation,
    kernel_basis,
    rank,
)
from .records import record
from .rings import QQ, Ring, canonical
from .words import FULL, SIMPLICIAL, FreeChain, VertexSet, WedgeOperator, wedge_apply


@record
class Carrier:
    """The edge span of a hypergraph or, without one, all words through
    max_degree; `ComplexSpec` checks an edge family's class."""

    vertices: VertexSet
    hypergraph: Hypergraph | None = None
    max_degree: int | None = None

    @property
    def ambient(self) -> str:
        return FULL if self.hypergraph is None else SIMPLICIAL

    @property
    def top_degree(self) -> int:
        return self.max_degree if self.hypergraph is None else self.hypergraph.top_degree

    def basis(self, n: int) -> list:
        if self.hypergraph is not None:
            return self.hypergraph.degree_edges(n)
        if n < -1 or n > self.max_degree:
            return []
        return list(product(range(len(self.vertices)), repeat=n + 1))


def edge_carrier(h: Hypergraph) -> Carrier:
    """The edge span of h; the all-increasing-words complex is the span of
    the power set."""
    return Carrier(h.vertices, hypergraph=h)


def _word_count(nv: int, max_degree: int) -> int:
    """Basis words of the all-words carrier on nv letters, counting each
    degree at least once. Exact up to WORDS_CAP; above it, only known to
    exceed it (the exponent is clipped, so no huge power is formed)."""
    if nv < 2:
        return max_degree + 2
    length = min(max_degree + 2, WORDS_CAP.bit_length() + 1)
    return (nv**length - 1) // (nv - 1)


def word_carrier(vertices: VertexSet, max_degree: int) -> Carrier:
    """All words through max_degree, at most WORDS_CAP of them holding at
    most 16 * WORDS_CAP letters in all. Only one letter can reach the
    letter bound: more letters reach the word cap by length 16."""
    if max_degree < -1:
        raise SchemaViolation("truncation degree must be at least -1")
    nv = len(vertices)
    if _word_count(nv, max_degree) > WORDS_CAP:
        raise CarrierTooLarge(
            f"all words through degree {max_degree} on {nv} letters "
            f"exceed the cap of {WORDS_CAP}"
        )
    # the word cap passed, so max_degree < WORDS_CAP and the sum is short
    if sum(n * nv**n for n in range(max_degree + 2)) > 16 * WORDS_CAP:
        raise CarrierTooLarge(
            f"all words through degree {max_degree} on {nv} letters "
            f"hold more than {16 * WORDS_CAP} letters"
        )
    return Carrier(vertices, max_degree=max_degree)


@record
class ComplexSpec:
    carrier: Carrier
    operator: WedgeOperator
    q: int
    ring: Ring

    def __post_init__(self):
        h = self.carrier.hypergraph  # the one class rule, before the arity check
        if h is not None and self.operator.kind == "partial" and not h.is_simplicial_complex:
            raise ClassMismatch("carrier is not an augmented simplicial complex")
        if h is not None and self.operator.kind == "d" and not h.is_independence_hypergraph:
            raise ClassMismatch("carrier is not an augmented independence hypergraph")
        if not self.operator.is_odd:
            raise SchemaViolation("boundary operators must have odd arity")
        object.__setattr__(self, "q", self.q % self.operator.arity)

    def on_grid(self, n: int) -> bool:
        return n >= -1 and (n - self.q) % self.operator.arity == 0

    def require_on_grid(self, n: int) -> None:
        """The one wording of the off-grid error, naming the reduced offset."""
        if not self.on_grid(n):
            raise SchemaViolation(f"degree {n} is not on the offset-{self.q} grid")

    def degrees(self) -> list:
        bottom = -1 if self.on_grid(-1) else self.q
        return list(range(bottom, self.carrier.top_degree + 1, self.operator.arity))


@record
class HomologyGroup:
    degree: int
    presentation: SubquotientPresentation


def _assemble_matrix(op, carrier, ring, src_basis, n_target) -> SparseMatrix:
    """Matrix of `op` from the span of src_basis into the carrier's degree
    n_target module, in the carrier's ambient word calculus. Word-carrier
    images above the truncation are cut; the empty-word component is cut
    when the carrier has no empty edge; any other image outside the
    carrier is an error.

    All the columns come from one `wedge_apply` call, whose entries are
    already distinct, nonzero and reduced; each entry is rewritten in
    place against the target index, so no second entry list is held. An
    image is cut only when the target module is empty, so a cut leaves
    the zero matrix.
    """
    target = carrier.basis(n_target)
    if not src_basis:
        return SparseMatrix.zero(len(target), 0, ring)
    truncate_top = carrier.hypergraph is None and n_target > carrier.top_degree
    # above the truncation every image is cut, so no column is formed; the
    # call still checks the operator's coefficients against the ring
    entries = wedge_apply(op, [] if truncate_top else src_basis, ring, carrier.ambient)
    index = {w: i for i, w in enumerate(target)}
    for t, (word, j, c) in enumerate(entries):
        i = index.get(word)
        if i is None:
            if word == ():
                continue
            raise OperatorLeavesCarrier(
                f"image word {word} of basis element {src_basis[j]} is outside the carrier"
            )
        entries[t] = ((i, j), c)
    if not target:
        return SparseMatrix.zero(0, len(src_basis), ring)
    entries.sort()
    return SparseMatrix(len(target), len(src_basis), ring, tuple(entries))


class BuiltComplex:
    """Bases and operator matrices of one (carrier, operator, q) complex."""

    def __init__(self, spec: ComplexSpec, bases: dict, mats: dict):
        self.spec, self.bases, self.mats = spec, bases, mats
        self._solvers, self._invariants = {}, {}

    def restrict(self, h: Hypergraph) -> "BuiltComplex":
        """The subcomplex on h, a family of the operator's class made of this
        complex's words: these bases and matrices cut to h, in their order,
        so a missing empty edge drops the empty-word row (the -1 truncation)."""
        carrier, op = self.spec.carrier, self.spec.operator
        spec = ComplexSpec(edge_carrier(h), op, self.spec.q, self.spec.ring)
        family = h.masks if carrier.hypergraph is None else carrier.hypergraph.masks
        if h.vertices != carrier.vertices or not h.masks <= family or (
                h.top_degree > carrier.top_degree):
            raise NotIncluded("the family is not a subfamily of the complex's words")
        index, bases = {}, {}
        for n in spec.degrees():
            # h's words, not the masks of these: a word carrier's may repeat letters
            words = set(h.degree_edges(n))
            kept = [j for j, w in enumerate(self.bases[n]) if w in words]
            index[n] = {j: k for k, j in enumerate(kept)}
            bases[n] = [self.bases[n][j] for j in kept]
        mats = {}
        for n, cols in index.items():
            rows = index.get(n + op.shift, {})
            mats[n] = SparseMatrix(len(rows), len(cols), spec.ring, tuple(
                ((rows[i], cols[j]), v) for (i, j), v in self.mats[n].entries
                if i in rows and j in cols))
        return BuiltComplex(spec, bases, mats)

    def dim(self, n: int) -> int:
        return len(self.bases.get(n, ()))

    def basis(self, n: int) -> list:
        return self.bases.get(n, [])

    def matrix(self, n: int) -> SparseMatrix:
        """Operator matrix leaving degree n (zero-shaped off the grid)."""
        if n in self.mats:
            return self.mats[n]
        return SparseMatrix.zero(
            self.dim(n + self.spec.operator.shift), self.dim(n), self.spec.ring)

    def incoming_matrix(self, n: int) -> SparseMatrix:
        return self.matrix(n - self.spec.operator.shift)

    def homology(self, n: int) -> HomologyGroup:
        self.spec.require_on_grid(n)
        return HomologyGroup(n, homology_presentation(
            self.matrix(n), self.incoming_matrix(n),
            self.invariants(n), self.invariants(n - self.spec.operator.shift),
        ))

    def invariants(self, n: int) -> tuple:
        """(rank, nonunit invariant factors) of the matrix leaving degree n,
        computed once: each matrix serves the degrees at both its ends."""
        if n not in self._invariants:
            self._invariants[n] = boundary_invariants(self.matrix(n))
        return self._invariants[n]

    def solver(self, n: int) -> "DegreeSolver":
        """Solver at degree n; off the grid the module is zero and so is
        its homology."""
        if n not in self._solvers:
            self._solvers[n] = DegreeSolver(self.matrix(n), self.incoming_matrix(n))
        return self._solvers[n]


def build_complex(spec: ComplexSpec) -> BuiltComplex:
    """Assemble the matrices, and check that consecutive ones square to zero."""
    carrier, shift = spec.carrier, spec.operator.shift
    bases = {n: carrier.basis(n) for n in spec.degrees()}
    mats = {n: _assemble_matrix(spec.operator, carrier, spec.ring, basis, n + shift)
            for n, basis in bases.items()}
    for n in spec.degrees():
        if n + shift in mats and not mats[n + shift].mul(mats[n]).is_zero():
            raise CompositionNotZero(f"operator squared is nonzero from degree {n}")
    return BuiltComplex(spec, bases, mats)


def homology_table(spec: ComplexSpec) -> list:
    built = build_complex(spec)
    return [built.homology(n) for n in spec.degrees()]


class DegreeSolver:
    """Cycle representatives and homology coordinates at one degree,
    field coefficients only, read on the free coordinates of the cycles.

    `kernel_basis` brings the outgoing boundary to its reduced row echelon
    form R. Its column k is the cycle z_f of the k-th free (non-pivot)
    column f of R: 1 at f and minus R's column f at the pivot rows, all
    before f, so f is the column's last row. A cycle x is the sum of
    x_f z_f over the free columns F, so x -> x_F is injective on cycles.
    Every boundary is a cycle, so the incoming columns' rows in F are
    their coordinates, read with no solve. These columns are reduced by
    their largest index, their low, as the column reduction of
    persistence does: each is cleared at the lows taken before it until
    its low is new or it is zero. The lows taken are then the lows of the
    nonzero boundaries, and e_f lies in the span of the boundaries and of
    the e_f' with f' < f exactly when f is a low. So the representatives,
    the z_f whose f is no low in F order, are the greedy pick that a
    reduction of [in-columns | cycles] in column order makes: a cycle is
    kept when it is independent of the boundaries and the cycles before
    it. `coords` reads a cycle's class by reducing its F rows from the top:
    at a low it subtracts that boundary, anywhere else the entry is the
    coordinate of that representative. The reduced boundaries and the
    unit vectors at the representatives' f are a triangular basis of the
    vectors on F, so this writes x_F once as a boundary plus a
    combination of representatives.

    Nothing printed depends on how the reduction orders its work: R is
    unique, so F and every z_f are; the lows are those of the span of the
    boundaries, whatever order the columns are reduced in; and a class
    has one coordinate vector on a basis of the homology."""

    def __init__(self, out_mat: SparseMatrix, in_mat: SparseMatrix):
        """At the degree that out_mat leaves and in_mat enters, over their ring."""
        ring, dim = out_mat.ring, out_mat.cols
        if not ring.is_field:
            raise SchemaViolation("homology solvers need field coefficients")
        self.ring, self.dim, self._out = ring, dim, out_mat
        cycles = kernel_basis(out_mat)
        free = [0] * cycles.cols  # the f of each z_f, its last row
        for (i, k), _ in cycles.entries:
            free[k] = i
        self._slot = slot = {f: k for k, f in enumerate(free)}
        self._lows = lows = {}  # low -> the boundary column taking it, 1 there
        p = ring.p
        for col in _free_columns(in_mat, slot).values():
            low = _reduce_by_lows(col, lows, p)
            if low is not None:
                inv = ring.inv(col[low])
                for k in col:
                    col[k] = col[k] * inv % p if p else canonical(col[k] * inv)
                lows[low] = col
        self.boundary_rank = len(lows)
        self._chosen = chosen = {k: r for r, k in enumerate(
            k for k in range(cycles.cols) if k not in lows)}
        self.betti = len(chosen)
        # `chosen` keeps the cycle order, so the entries stay sorted
        self.reps = SparseMatrix(dim, self.betti, ring, tuple(
            ((i, chosen[k]), v) for (i, k), v in cycles.entries if k in chosen))

    def coords(self, vecs: SparseMatrix, error: str) -> SparseMatrix:
        """Homology coordinates of the columns of vecs, one column each;
        NotAChainMap(error) when a column is not a cycle, also when the
        group vanishes."""
        if not self._out.mul(vecs).is_zero():
            raise NotAChainMap(error)
        lows, chosen, p = self._lows, self._chosen, self.ring.p
        items = []
        for j, col in _free_columns(vecs, self._slot).items():
            while (low := _reduce_by_lows(col, lows, p)) is not None:
                items.append(((chosen[low], j), col.pop(low)))
        items.sort()
        return SparseMatrix(self.betti, vecs.cols, self.ring, tuple(items))


def _free_columns(m: SparseMatrix, slot: dict) -> dict:
    """{col: {k: value}}: each nonzero column of m on the rows `slot` maps
    to their k."""
    cols = {}
    for (i, j), v in m.entries:
        k = slot.get(i)
        if k is not None:
            cols.setdefault(j, {})[k] = v
    return cols


def _reduce_by_lows(col: dict, lows: dict, p) -> int | None:
    """Clear col at its largest index while that index is a low, in place;
    the largest index left, or None once col is zero."""
    while col:
        low = max(col)
        prow = lows.get(low)
        if prow is None:
            return low
        _axpy(col, col[low], prow, p)
    return None


@record
class InducedMap:
    """A homology-level map on the solvers' representative bases: one row
    per target class, one column per source class."""

    source_degree: int
    target_degree: int
    matrix: SparseMatrix

    @property
    def source_rank(self) -> int:
        return self.matrix.cols

    @property
    def target_rank(self) -> int:
        return self.matrix.rows

    def compose(self, inner: "InducedMap") -> "InducedMap":
        """self after inner."""
        if inner.target_degree != self.source_degree:
            raise SchemaViolation("degree mismatch in composition")
        return InducedMap(inner.source_degree, self.target_degree,
                          self.matrix.mul(inner.matrix))

    def rank(self) -> int:
        return rank(self.matrix)


def operator_action(spec: ComplexSpec, evenop: WedgeOperator) -> dict:
    """Homology action of an even wedge operator, one InducedMap per
    degree of the source grid. The chain-level commutation with the
    boundary is checked before descending. The target complex is the
    source itself when the shift keeps the offset, as it does for every
    arity-1 boundary."""
    if not spec.ring.is_field:
        raise SchemaViolation("operator actions are computed over fields")
    if evenop.arity % 2 != 0:
        raise SchemaViolation("operator actions need even arity")
    if evenop.kind != spec.operator.kind:
        raise SchemaViolation("operator family mismatch")
    source = build_complex(spec)
    shift = evenop.shift
    target = source if shift % spec.operator.arity == 0 else build_complex(
        ComplexSpec(spec.carrier, spec.operator, spec.q + shift, spec.ring))
    even_mats = {n: _assemble_matrix(evenop, spec.carrier, spec.ring, source.basis(n), n + shift)
                 for n in spec.degrees()}
    for n, even in even_mats.items():
        lhs = target.matrix(n + shift).mul(even)
        # off the grid the source module is zero, and so is the other side
        inner = even_mats.get(n + spec.operator.shift)
        rhs = inner.mul(source.matrix(n)).entries if inner is not None else ()
        if lhs.entries != rhs:
            raise NotAChainMap("even operator does not commute with the boundary")

    return {n: InducedMap(n, n + shift, target.solver(n + shift).coords(
        even_mats[n].mul(source.solver(n).reps),
        "even operator action sends a cycle to a non-cycle")) for n in spec.degrees()}


def inclusion_map(small: BuiltComplex, large: BuiltComplex, n: int) -> InducedMap:
    """Homology map in degree n induced by the inclusion of one built
    complex in another with the same operator, offset and ring. The
    inclusion sends each word to the same word above, so the images of
    the representatives are the representatives, their rows re-indexed
    into the larger basis."""
    if (small.spec.operator, small.spec.q, small.spec.ring) != (
            large.spec.operator, large.spec.q, large.spec.ring):
        raise SchemaViolation("inclusion needs one operator, offset and ring")
    index = {w: i for i, w in enumerate(large.basis(n))}
    small_basis = small.basis(n)
    where = list(map(index.get, small_basis))
    if None in where:
        missing = small_basis[where.index(None)]
        raise NotIncluded(f"edge {missing} of the smaller family is missing above")
    reps = small.solver(n).reps
    images = SparseMatrix(len(index), reps.cols, reps.ring, tuple(sorted(
        ((where[i], j), v) for (i, j), v in reps.entries)))
    return InducedMap(n, n, large.solver(n).coords(
        images, "inclusion sends a cycle to a non-cycle"))


def _check_empty_edges(operator: WedgeOperator, a: Hypergraph, b: Hypergraph) -> None:
    """Degree-lowering operators need matching empty-edge membership: the
    degree -1 truncation of the two families otherwise disagrees, and the
    inclusion maps between them stop being chain maps."""
    if operator.kind == "partial" and a.has_empty_edge != b.has_empty_edge:
        raise ClassMismatch("empty edge membership differs between the two sides")


def inclusion_induced(small: Hypergraph, large: Hypergraph, operator: WedgeOperator,
                      q: int, ring: Ring, n: int | None = None) -> dict:
    """Per-degree homology maps induced by an edge-family inclusion, one
    per degree of the grid, or only the one in degree n when given (the
    zero map above the top), with the smaller family restricted from the
    larger's build; see `_check_empty_edges` for the condition on both."""
    if small.vertices != large.vertices:
        raise VertexSetMismatch("inclusion needs a common vertex set")
    if not small.masks <= large.masks:
        raise NotIncluded("left hypergraph is not contained in the right one")
    if not ring.is_field:
        raise SchemaViolation("induced maps are computed over fields")
    _check_empty_edges(operator, small, large)
    tgt = build_complex(ComplexSpec(edge_carrier(large), operator, q, ring))
    src = tgt.restrict(small)
    degrees = tgt.spec.degrees()
    if n is not None:
        tgt.spec.require_on_grid(n)
        degrees = [n]
    return {m: inclusion_map(src, tgt, m) for m in degrees}


@record
class SequenceNode:
    label: str  # "intersection" | "sum" | "union"
    degree: int
    free_rank: int


@record
class LongExactSequence:
    nodes: tuple
    maps: tuple  # SparseMatrix between consecutive nodes
    junctions: tuple  # (rank_in, nullity_out, exact) per node

    @property
    def all_exact(self) -> bool:
        return all(j[2] for j in self.junctions)


def mv_complexes(a: Hypergraph, b: Hypergraph, operator: WedgeOperator, ring: Ring,
                 cut, previous: dict | None = None) -> dict:
    """The four complexes of a Mayer-Vietoris square, keyed "cap", "a",
    "b" and "cup": `cut` gives the union's complex after the side checks
    (see `_check_empty_edges`), and the others are restricted from it.
    A part whose edge family is the same part's in `previous`, the square
    of an earlier threshold cut from the same build, is that complex
    itself, solvers and all."""
    if a.vertices != b.vertices:
        raise VertexSetMismatch("Mayer-Vietoris needs a common vertex set")
    if not ring.is_field:
        raise SchemaViolation("exactness reports are computed over fields")
    _check_empty_edges(operator, a, b)
    families = {"cap": combine(a, b, CombineOp.INTERSECT), "a": a, "b": b,
                "cup": combine(a, b, CombineOp.UNION)}
    kept = {} if previous is None else {
        part: previous[part] for part, h in families.items()
        if previous[part].spec.carrier.hypergraph.masks == h.masks}
    cup = kept.get("cup") or cut(families["cup"])
    return {part: kept.get(part) or cup.restrict(h) for part, h in families.items()
            if part != "cup"} | {"cup": cup}


# the complexes behind each node label of a Mayer-Vietoris sequence, in order
MV_NODE_PARTS = {"intersection": ("cap",), "sum": ("a", "b"), "union": ("cup",)}


def mv_sequence(complexes: dict) -> LongExactSequence:
    """The long exact sequence linking intersection, direct sum, and union
    of the complexes given by `mv_complexes`."""
    spec = complexes["cup"].spec
    # the connecting maps step with the boundary, so the grid runs that way
    grid = sorted(spec.degrees(), reverse=spec.operator.shift < 0)
    leaving = (_mv_first_map, _mv_second_map, _mv_connecting)

    nodes = []
    maps = []
    for n in grid:
        for (label, parts), step in zip(MV_NODE_PARTS.items(), leaving):
            nodes.append(SequenceNode(label, n, sum(complexes[p].solver(n).betti for p in parts)))
            maps.append(step(complexes, n))
    ranks = [rank(m) for m in maps]
    # the last map leaves the listed window; exactness there needs the
    # kernel of nothing, so fold it into a trailing zero-node junction
    frees = [node.free_rank for node in nodes] + [0]
    nullities = [free - r for free, r in zip(frees, ranks + [0])]
    junctions = tuple((r, k, r == k) for r, k in zip([0] + ranks, nullities))
    return LongExactSequence(tuple(nodes), tuple(maps), junctions)


def mayer_vietoris(a: Hypergraph, b: Hypergraph, operator: WedgeOperator,
                   q: int, ring: Ring) -> LongExactSequence:
    """The long exact sequence linking intersection, direct sum, and union,
    cut from one build of the union; see `mv_complexes`."""
    return mv_sequence(mv_complexes(a, b, operator, ring, lambda union: build_complex(
        ComplexSpec(edge_carrier(union), operator, q, ring))))


def _mv_first_map(complexes, n) -> SparseMatrix:
    """Both inclusions of the intersection, stacked: a's rows over b's."""
    ma = inclusion_map(complexes["cap"], complexes["a"], n).matrix
    mb = inclusion_map(complexes["cap"], complexes["b"], n).matrix
    return SparseMatrix.blocks(ma.rows + mb.rows, ma.cols, ma.ring,
                               [((0, 0), ma), ((ma.rows, 0), mb)])


def _mv_second_map(complexes, n) -> SparseMatrix:
    """The inclusion of a beside the negated inclusion of b."""
    ma = inclusion_map(complexes["a"], complexes["cup"], n).matrix
    mb = inclusion_map(complexes["b"], complexes["cup"], n).matrix
    ring = ma.ring
    neg_b = SparseMatrix(mb.rows, mb.cols, ring,
                         tuple((k, ring.neg(v)) for k, v in mb.entries))
    return SparseMatrix.blocks(ma.rows, ma.cols + mb.cols, ring,
                               [((0, 0), ma), ((0, ma.cols), neg_b)])


def _mv_connecting(complexes, n) -> SparseMatrix:
    """Zig-zag: lift the union cycles to the a side, push them through its
    boundary, read their classes in the intersection."""
    cup, a = complexes["cup"], complexes["a"]
    m = n + cup.spec.operator.shift
    reps = cup.solver(n).reps
    a_index = {w: i for i, w in enumerate(a.basis(n))}
    cup_basis = cup.basis(n)
    lifted = tuple(sorted(((a_index[cup_basis[i]], j), v) for (i, j), v in reps.entries
                          if cup_basis[i] in a_index))
    pushed = a.matrix(n).mul(SparseMatrix(len(a_index), reps.cols, reps.ring, lifted))
    cap_index = {w: i for i, w in enumerate(complexes["cap"].basis(m))}
    a_target = a.basis(m)
    if any(a_target[i] not in cap_index for (i, _), _ in pushed.entries):
        raise NotAChainMap("connecting image leaves the intersection")
    images = SparseMatrix(len(cap_index), pushed.cols, pushed.ring, tuple(sorted(
        ((cap_index[a_target[i]], j), v) for (i, j), v in pushed.entries)))
    return complexes["cap"].solver(m).coords(images, "connecting image is not a cycle")


@record
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
        rows.append((n, low.homology(n).presentation.free_rank,
                     high.homology(n).presentation.free_rank))
    return DualityReport(tuple(rows))


def delta_pairing(x: FreeChain, y: FreeChain):
    """Bilinear pairing with orthonormal words."""
    if x.ring != y.ring:
        raise SchemaViolation("pairing needs one ring")
    return x.ring.normal(sum(c * y.terms[w] for w, c in x.terms.items() if w in y.terms))
