"""Exact sparse linear algebra over Z, Q, and F_p.

Everything here is desk scale: matrices are stored as coordinate dicts,
elimination is dense-ish Python over exact scalars. Integer work uses
fraction-free row combinations with gcd normalization; rational ranks are
taken after clearing denominators row by row (row scaling preserves rank
and kernels are computed separately with Fraction arithmetic).

The integer kernel is returned as a basis of the *saturated* kernel
lattice, i.e. all integer vectors annihilated by the matrix. It is found
by recorded unimodular column reduction: drive the matrix to column
echelon form while applying the same column operations to an identity
matrix; the transform columns matching the zeroed-out matrix columns are
exactly the kernel lattice basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import CompositionNotZero, SchemaViolation
from .rings import Ring, ZZ


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix; no stored zeros, no duplicate positions."""

    rows: int
    cols: int
    ring: Ring
    entries: tuple  # sorted tuple of ((row, col), value)

    @staticmethod
    def from_entries(rows, cols, ring, items) -> "SparseMatrix":
        seen = {}
        for (i, j), v in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise SchemaViolation(f"entry position ({i},{j}) outside {rows}x{cols}")
            if (i, j) in seen:
                raise SchemaViolation(f"duplicate entry at ({i},{j})")
            v = ring.coerce(v)
            if not ring.is_zero(v):
                seen[(i, j)] = v
        return SparseMatrix(rows, cols, ring, tuple(sorted(seen.items())))

    @staticmethod
    def zero(rows, cols, ring) -> "SparseMatrix":
        return SparseMatrix(rows, cols, ring, ())

    @staticmethod
    def identity(n, ring) -> "SparseMatrix":
        return SparseMatrix(n, n, ring, tuple(((i, i), ring.one) for i in range(n)))

    def entry_dict(self) -> dict:
        return dict(self.entries)

    def dense_rows(self) -> list:
        out = [[self.ring.zero] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries:
            out[i][j] = v
        return out

    def column(self, j) -> list:
        col = [self.ring.zero] * self.rows
        for (i, jj), v in self.entries:
            if jj == j:
                col[i] = v
        return col

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise SchemaViolation("dimension mismatch in matrix product")
        if self.ring != other.ring:
            raise SchemaViolation("ring mismatch in matrix product")
        ring = self.ring
        by_row = {}
        for (i, k), v in self.entries:
            by_row.setdefault(k, []).append((i, v))
        acc = {}
        for (k, j), w in other.entries:
            for i, v in by_row.get(k, ()):
                key = (i, j)
                acc[key] = ring.add(acc.get(key, ring.zero), ring.mul(v, w))
        items = [(key, v) for key, v in acc.items() if not ring.is_zero(v)]
        return SparseMatrix(self.rows, other.cols, ring, tuple(sorted(items)))

    def apply(self, vec: list) -> list:
        out = [self.ring.zero] * self.rows
        for (i, j), v in self.entries:
            out[i] = self.ring.add(out[i], self.ring.mul(v, vec[j]))
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def permuted(self, row_perm, col_perm) -> "SparseMatrix":
        items = [((row_perm[i], col_perm[j]), v) for (i, j), v in self.entries]
        return SparseMatrix(self.rows, self.cols, self.ring, tuple(sorted(items)))


@dataclass(frozen=True)
class SubquotientPresentation:
    """Isomorphism type of a subquotient: free rank plus torsion chain d1 | d2 | ..."""

    free_rank: int
    torsion_factors: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion_factors, self.torsion_factors[1:]):
            if b % a != 0:
                raise SchemaViolation("torsion factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion_factors):
            raise SchemaViolation("torsion factors must be >= 2")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion_factors


def _normalize_int_row(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in list(row):
            row[j] //= g


def _int_row_rank(rows: list) -> int:
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


def _int_rows_of(m: SparseMatrix) -> list:
    """Rows of m as integer dicts; rational rows are scaled by their lcm of denominators."""
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    if m.ring.name == "Q":
        int_rows = []
        for row in rows:
            mult = 1
            for v in row.values():
                f = Fraction(v)
                mult = mult * f.denominator // gcd(mult, f.denominator)
            int_rows.append({j: int(Fraction(v) * mult) for j, v in row.items()})
        return int_rows
    return rows


def _modp_row_rank(rows: list, p: int) -> int:
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


def rank(m: SparseMatrix) -> int:
    """Rank over the ring's fraction field."""
    if m.ring.name == "Fp":
        rows = [dict() for _ in range(m.rows)]
        for (i, j), v in m.entries:
            rows[i][j] = v
        return _modp_row_rank(rows, m.ring.p)
    return _int_row_rank(_int_rows_of(m))


def _field_rref(dense: list, ncols: int, ring: Ring):
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


def _field_kernel(m: SparseMatrix) -> list:
    ring = m.ring
    dense = m.dense_rows()
    pivots = _field_rref(dense, m.cols, ring)
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


def _integer_kernel(m: SparseMatrix) -> list:
    """Basis of the saturated integer kernel lattice via unimodular column ops."""
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
        g = 0
        for v in vec:
            g = gcd(g, v)
        # unimodularity already makes the vector primitive; keep a sign convention
        first = next((v for v in vec if v != 0), 1)
        if first < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis


def kernel_basis(m: SparseMatrix) -> list:
    """Kernel basis vectors (length = cols). Over Z, spans the full kernel lattice."""
    if m.ring.name == "Z":
        return _integer_kernel(m)
    return _field_kernel(m)


def smith_normal_form(m: SparseMatrix) -> list:
    """Diagonal of the Smith normal form of an integer matrix, zeros included."""
    if m.ring != ZZ:
        raise SchemaViolation("Smith normal form requires integer entries")
    a = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries:
        a[i][j] = v
    return _snf_diagonal(a, m.rows, m.cols)


def _snf_diagonal(a: list, nrows: int, ncols: int) -> list:
    n = min(nrows, ncols)
    diag = []
    t = 0
    while t < n:
        # locate the nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            pv = a[t][t]
            done = True
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // pv
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // pv
                    for i in range(t, nrows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        done = False
                        break
            if done:
                break
        pv = a[t][t]
        # enforce divisibility of the remaining block by the pivot
        fixed = True
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % pv != 0:
                    for jj in range(t, ncols):
                        a[t][jj] += a[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        diag.append(abs(pv))
        t += 1
    diag.extend([0] * (n - len(diag)))
    return diag


def _solve_in_lattice(basis: list, targets: list, dim: int) -> list:
    """Solve basis-matrix * x = target (integer basis columns) for each target.

    Every target must lie in the lattice spanned by the basis; this holds
    whenever the basis is a saturated kernel and the targets are integer
    vectors inside the rational kernel.
    """
    k = len(basis)
    ncols = k + len(targets)
    dense = [[Fraction(0)] * ncols for _ in range(dim)]
    for j, vec in enumerate(basis):
        for i, v in enumerate(vec):
            dense[i][j] = Fraction(v)
    for j, vec in enumerate(targets):
        for i, v in enumerate(vec):
            dense[i][k + j] = Fraction(v)
    pivots = _field_rref(dense, k, Ring("Q"))
    if len(pivots) != k:
        raise SchemaViolation("kernel basis is not independent")
    sols = []
    for j in range(len(targets)):
        x = [Fraction(0)] * k
        for r, c in enumerate(pivots):
            x[c] = dense[r][k + j]
        # consistency: rows below the pivot block must have cancelled
        for r in range(len(pivots), dim):
            if dense[r][k + j] != 0:
                raise SchemaViolation("target outside the kernel lattice")
        if any(v.denominator != 1 for v in x):
            raise SchemaViolation("kernel lattice is not saturated")
        sols.append([int(v) for v in x])
    return sols


def homology_presentation(boundary_out: SparseMatrix, boundary_in: SparseMatrix) -> SubquotientPresentation:
    """Isomorphism type of Ker(boundary_out) / Im(boundary_in).

    `boundary_out` maps the middle module down and `boundary_in` maps into
    it, so boundary_out.cols == boundary_in.rows and the composite must be
    zero.
    """
    if boundary_out.ring != boundary_in.ring:
        raise SchemaViolation("boundary maps live over different rings")
    if boundary_out.cols != boundary_in.rows:
        raise SchemaViolation(
            f"middle module mismatch: out has {boundary_out.cols} columns, "
            f"in has {boundary_in.rows} rows"
        )
    if not boundary_out.mul(boundary_in).is_zero():
        raise CompositionNotZero("boundary composed with boundary is nonzero")
    ring = boundary_out.ring
    if ring.is_field:
        dim_ker = boundary_out.cols - rank(boundary_out)
        return SubquotientPresentation(dim_ker - rank(boundary_in))
    kernel = kernel_basis(boundary_out)
    if not kernel:
        return SubquotientPresentation(0)
    targets = [boundary_in.column(j) for j in range(boundary_in.cols)]
    coords = _solve_in_lattice(kernel, targets, boundary_out.cols)
    k = len(kernel)
    items = []
    for j, vec in enumerate(coords):
        for i, v in enumerate(vec):
            if v:
                items.append(((i, j), v))
    rel = SparseMatrix.from_entries(k, len(coords), ZZ, items)
    factors = [d for d in smith_normal_form(rel) if d != 0]
    torsion = tuple(d for d in factors if d >= 2)
    return SubquotientPresentation(k - len(factors), torsion)
