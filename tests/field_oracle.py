"""Dense field elimination, the oracle for the sparse `linalg.field_reduce`,
the per-vector route to homology-level maps, and the integer kernel lattice.

`field_rref` is the full-row Gauss-Jordan reduction that `kernel_basis`
and `DegreeSolver` were built on before the sparse route; `modp_row_rank`
is the forward elimination that F_p `rank` used, and `int_row_rank` the
fraction-free elimination with least-absolute-value pivots that Q and Z
`rank` used (`q_rank` clears denominators row by row first).
`gauss_jordan_rank` is the pivot count of `field_reduce`, the route
`rank` took before it became a forward elimination. `dense_kernel` and
`DenseSolver` rebuild the old kernel basis and solver on top of them,
with vectors as dense lists. `descend`, `coordinates` and
`mv_connecting` are the homology-level maps read one dense vector at a
time over `DenseSolver`, as the engine did before one
`DegreeSolver.coords` call read every vector of a map in one matrix
product. `integer_kernel` is the
saturated kernel lattice of an integer matrix, which integer homology no
longer needs. `column` and `columns` read the columns of a sparse matrix
as dense lists, `apply` multiplies a sparse matrix into a dense vector,
and `matrix_of_rows` and `matrix_of_columns` build a sparse matrix from
dense rows or columns. `well_formed` is the invariant of a
`SparseMatrix`, for the ones the engine builds without `from_entries`.
"""

from fractions import Fraction
from math import gcd, lcm

from hyperhom.errors import NotAChainMap
from hyperhom.linalg import SparseMatrix, field_reduce
from hyperhom.rings import QQ


def matrix_of_rows(data: list, cols: int, ring) -> SparseMatrix:
    """Matrix of a dense row list; `cols` fixes the width when there are
    no rows."""
    items = [((i, j), v) for i, row in enumerate(data) for j, v in enumerate(row)]
    return SparseMatrix.from_entries(len(data), cols, ring, items)


def matrix_of_columns(vecs: list, rows: int, ring) -> SparseMatrix:
    """Matrix whose columns are the dense vectors `vecs`, each `rows` long."""
    items = [((i, j), v) for j, vec in enumerate(vecs) for i, v in enumerate(vec)]
    return SparseMatrix.from_entries(rows, len(vecs), ring, items)


def column(m: SparseMatrix, j: int) -> list:
    col = [m.ring.zero] * m.rows
    for (i, jj), v in m.entries:
        if jj == j:
            col[i] = v
    return col


def columns(m: SparseMatrix) -> list:
    return [column(m, j) for j in range(m.cols)]


def well_formed(m: SparseMatrix) -> bool:
    """What `SparseMatrix.from_entries` guarantees: positions sorted, inside
    the shape and never repeated; no stored zeros; every value canonical
    (a plain int, reduced mod p over F_p, and over Q a Fraction only when
    not integral)."""
    ring = m.ring
    positions = [k for k, _ in m.entries]

    def canonical(v):
        if ring.p:
            return type(v) is int and 0 < v < ring.p
        return type(v) is int and v != 0 or (
            ring.is_field and type(v) is Fraction and v.denominator != 1)

    return (type(m.entries) is tuple
            and all(a < b for a, b in zip(positions, positions[1:]))
            and all(0 <= i < m.rows and 0 <= j < m.cols for i, j in positions)
            and all(canonical(v) for _, v in m.entries))


def apply(m: SparseMatrix, vec: list) -> list:
    """m times a dense vector, each entry summed term by term in the ring."""
    ring = m.ring
    out = [ring.zero] * m.rows
    for (i, j), v in m.entries:
        out[i] = ring.add(out[i], ring.mul(v, vec[j]))
    return out


def field_rref(dense: list, ncols: int, ring):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(dense)):
            if not ring.is_zero(dense[i][c]):
                pr = i
                break
        if pr is None:
            continue
        dense[r], dense[pr] = dense[pr], dense[r]
        inv = ring.inv(dense[r][c])
        dense[r] = [ring.mul(inv, v) for v in dense[r]]
        for i in range(len(dense)):
            if i != r and not ring.is_zero(dense[i][c]):
                f = dense[i][c]
                dense[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(dense[i], dense[r])]
        pivots.append(c)
        r += 1
        if r == len(dense):
            break
    return pivots


def gauss_jordan_rank(m: SparseMatrix) -> int:
    """Rank as the number of pivots of the Gauss-Jordan `field_reduce`, over
    Q for an integer matrix."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    return len(field_reduce(rows, m.cols, m.ring if m.ring.is_field else QQ)[0])


def modp_row_rank(rows: list, p: int) -> int:
    """Rank of {col: value} rows mod p by forward elimination (destructive)."""
    live = [r for r in rows if r]
    rank = 0
    while live:
        row = live.pop()
        if not row:
            continue
        pj = min(row)
        inv = pow(row[pj], -1, p)
        pivot_row = {j: (v * inv) % p for j, v in row.items()}
        rank += 1
        nxt = []
        for r in live:
            v = r.get(pj)
            if v:
                for j, w in pivot_row.items():
                    nv = (r.get(j, 0) - v * w) % p
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
            if r:
                nxt.append(r)
        live = nxt
    return rank


def _normalize_int_row(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in list(row):
            row[j] //= g


def int_row_rank(rows: list) -> int:
    """Rank of integer rows (list of {col: int}), destructive, fraction free."""
    live = [r for r in rows if r]
    rank = 0
    while live:
        # pivot: smallest |value|, preferring shorter rows on ties
        best = None
        for ri, row in enumerate(live):
            for j, v in row.items():
                key = (abs(v), len(row), j)
                if best is None or key < best[0]:
                    best = (key, ri, j)
        _, pi, pj = best
        pivot_row = live.pop(pi)
        pv = pivot_row[pj]
        rank += 1
        nxt = []
        for row in live:
            v = row.get(pj)
            if v is not None:
                if v % pv == 0:
                    q = v // pv
                    for j, w in pivot_row.items():
                        nv = row.get(j, 0) - q * w
                        if nv:
                            row[j] = nv
                        else:
                            row.pop(j, None)
                else:
                    scaled = {j: pv * w for j, w in row.items()}
                    for j, w in pivot_row.items():
                        nv = scaled.get(j, 0) - v * w
                        if nv:
                            scaled[j] = nv
                        else:
                            scaled.pop(j, None)
                    row.clear()
                    row.update(scaled)
                    _normalize_int_row(row)
            if row:
                nxt.append(row)
        live = nxt
    return rank


def q_rank(m: SparseMatrix) -> int:
    """Rank of a Z or Q matrix: each row holding fractions is scaled by the
    lcm of their denominators, then the integer rows are ranked."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    for k, row in enumerate(rows):
        mult = lcm(*(v.denominator for v in row.values() if type(v) is not int))
        if mult > 1:
            rows[k] = {j: int(v * mult) for j, v in row.items()}
    return int_row_rank(rows)


def dense_kernel(m: SparseMatrix) -> list:
    ring = m.ring
    dense = m.dense_rows()
    pivots = field_rref(dense, m.cols, ring)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [ring.zero] * m.cols
        vec[f] = ring.one
        for r, c in enumerate(pivots):
            vec[c] = ring.neg(dense[r][f])
        basis.append(vec)
    return basis


class DenseSolver:
    """`DegreeSolver` as one dense reduction of [in-columns | cycles | I]."""

    def __init__(self, ring, dim, out_mat, in_mat):
        self.ring = ring
        cycles = dense_kernel(out_mat)
        ncols = in_mat.cols + len(cycles)
        aug = in_mat.dense_rows()
        for i, row in enumerate(aug):
            row.extend(z[i] for z in cycles)
            row.extend(ring.one if i == k else ring.zero for k in range(dim))
        pivots = field_rref(aug, ncols, ring)
        boundary_rank = sum(c < in_mat.cols for c in pivots)
        self.reps = [cycles[c - in_mat.cols] for c in pivots[boundary_rank:]]
        self.betti = len(self.reps)
        self._transform = matrix_of_rows(
            [row[ncols:] for row in aug[boundary_rank:]], dim, ring
        )

    def coords(self, vec):
        w = apply(self._transform, vec)
        if any(not self.ring.is_zero(v) for v in w[self.betti:]):
            return None
        return tuple(w[: self.betti])


def dense_solver(built, n: int) -> DenseSolver:
    """The `DenseSolver` of a built complex at degree n."""
    return DenseSolver(built.spec.ring, built.dim(n), built.matrix(n), built.incoming_matrix(n))


def coordinates(tgt: DenseSolver, images: list, error: str) -> SparseMatrix:
    """Homology coordinates in tgt of each dense image vector, one column
    per image; NotAChainMap(error) when an image is not a cycle. A
    vanishing target group has no coordinates to read, and its images go
    unchecked."""
    if tgt.betti == 0:
        return SparseMatrix.zero(0, len(images), tgt.ring)
    items = []
    for j, vec in enumerate(images):
        c = tgt.coords(vec)
        if c is None:
            raise NotAChainMap(error)
        items.extend(((i, j), v) for i, v in enumerate(c))
    return SparseMatrix.from_entries(tgt.betti, len(images), tgt.ring, items)


def descend(chain_mat: SparseMatrix, src: DenseSolver, tgt: DenseSolver, what: str):
    """Homology map of a chain map, one representative at a time."""
    return coordinates(tgt, [apply(chain_mat, z) for z in src.reps],
                       f"{what} sends a cycle to a non-cycle")


def mv_connecting(complexes: dict, n: int, signed_step: int) -> SparseMatrix:
    """Zig-zag, one union cycle at a time: lift it to a dense vector on
    the a side, push it through a's boundary, move the image onto the
    intersection's basis and read its class there."""
    m = n + signed_step
    ring = complexes["cup"].spec.ring
    a_basis = {w: i for i, w in enumerate(complexes["a"].basis(n))}
    cap_index = {w: i for i, w in enumerate(complexes["cap"].basis(m))}
    bnd_a = complexes["a"].matrix(n)
    a_target_basis = complexes["a"].basis(m)
    images = []
    for z in dense_solver(complexes["cup"], n).reps:
        u = [ring.zero] * len(a_basis)
        for idx, w in enumerate(complexes["cup"].basis(n)):
            if not ring.is_zero(z[idx]) and w in a_basis:
                u[a_basis[w]] = z[idx]
        target = [ring.zero] * len(cap_index)
        for i, val in enumerate(apply(bnd_a, u)):
            if ring.is_zero(val):
                continue
            word = a_target_basis[i]
            if word not in cap_index:
                raise NotAChainMap("connecting image leaves the intersection")
            target[cap_index[word]] = val
        images.append(target)
    return coordinates(dense_solver(complexes["cap"], m), images,
                       "connecting image is not a cycle")


def integer_kernel(m: SparseMatrix) -> list:
    """Basis of the saturated integer kernel lattice, i.e. all integer
    vectors the matrix annihilates. Recorded unimodular column reduction
    drives the matrix to column echelon form while applying the same
    column operations to an identity matrix; the transform columns that
    match the zeroed-out matrix columns are exactly the lattice basis."""
    ncols = m.cols
    cols = [[0] * m.rows for _ in range(ncols)]
    for (i, j), v in m.entries:
        cols[j][i] = v
    transform = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    lead = 0
    for r in range(m.rows):
        while True:
            nz = [j for j in range(lead, ncols) if cols[j][r] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                cols[lead], cols[j] = cols[j], cols[lead]
                transform[lead], transform[j] = transform[j], transform[lead]
                lead += 1
                break
            jstar = min(nz, key=lambda j: abs(cols[j][r]))
            pv = cols[jstar][r]
            for j in nz:
                if j == jstar:
                    continue
                q = cols[j][r] // pv
                if q:
                    cj, cs = cols[j], cols[jstar]
                    for i in range(m.rows):
                        cj[i] -= q * cs[i]
                    tj, ts = transform[j], transform[jstar]
                    for i in range(ncols):
                        tj[i] -= q * ts[i]
    basis = []
    for j in range(lead, ncols):
        vec = transform[j]
        # unimodularity already makes the vector primitive; keep a sign convention
        first = next((v for v in vec if v != 0), 1)
        if first < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis
