"""Exact sparse linear algebra over Z, Q, and F_p.

Everything here is desk scale: matrices are stored as coordinate dicts,
elimination is dense-ish Python over exact scalars. Integer work uses
fraction-free row combinations with gcd normalization; rational ranks are
taken after clearing denominators row by row (row scaling preserves rank
and kernels are computed separately with Fraction arithmetic).

Homology over Z of a free complex needs no kernel lattice: H_n is free of
rank dim - rank(out) - rank(in), plus the nonunit invariant factors of
the incoming boundary. The Smith normal form behind this is sparse first.
Unit pivots are eliminated on row dicts in least Markowitz cost order.
What is left is a small block, finished modulo D, the absolute value of
a nonzero r x r minor found by Bareiss elimination (r is the rank). Every
nonzero invariant factor divides D, so no entry ever grows past D.

The integer kernel is still available as a basis of the *saturated*
kernel lattice, i.e. all integer vectors annihilated by the matrix. It is
found by recorded unimodular column reduction: drive the matrix to column
echelon form while applying the same column operations to an identity
matrix; the transform columns matching the zeroed-out matrix columns are
exactly the kernel lattice basis.
"""

from __future__ import annotations

import heapq
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
    def from_rows(data, cols, ring) -> "SparseMatrix":
        """Matrix of a dense row list; `cols` fixes the width when there
        are no rows."""
        items = [((i, j), v) for i, row in enumerate(data) for j, v in enumerate(row)]
        return SparseMatrix.from_entries(len(data), cols, ring, items)

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
    rows = {}
    for (i, j), v in m.entries:
        rows.setdefault(i, {})[j] = v
    units = _eliminate_units(rows)
    factors = _residual_factors(rows)
    diag = [1] * units + factors
    return diag + [0] * (min(m.rows, m.cols) - len(diag))


def _eliminate_units(rows: dict) -> int:
    """Schur-complement away +-1 pivots of {row: {col: int}}, in place.

    Each step takes the unit entry of least Markowitz cost
    (row length - 1) * (column length - 1), so fill-in stays small. Costs
    in the heap go stale as columns shrink; a popped entry whose cost has
    grown is pushed back. Returns the number of pivots; afterwards no
    entry is a unit and emptied rows are gone.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [((len(row) - 1) * (len(cols[j]) - 1), i, j)
            for i, row in rows.items() for j, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, pi, pj = heapq.heappop(heap)
        prow = rows.get(pi)
        if prow is None or prow.get(pj) not in (1, -1):
            continue
        now = (len(prow) - 1) * (len(cols[pj]) - 1)
        if now > cost:
            heapq.heappush(heap, (now, pi, pj))
            continue
        units += 1
        pv = prow.pop(pj)
        del rows[pi]
        for j in prow:
            cols[j].discard(pi)
        for i in cols.pop(pj) - {pi}:
            row = rows[i]
            f = row.pop(pj) * pv
            for j, w in prow.items():
                nv = row.get(j, 0) - f * w
                if nv:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = nv
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
                continue
            for j, v in row.items():
                if v in (1, -1):
                    heapq.heappush(heap, ((len(row) - 1) * (len(cols[j]) - 1), i, j))
    return units


def _residual_factors(rows: dict) -> list:
    """Nonzero invariant factors of the block left by unit elimination.

    Bareiss elimination gives the rank r and D, the absolute value of a
    nonzero r x r minor. Every nonzero invariant factor divides D, so the
    block is diagonalised over Z/DZ, where no entry exceeds D, and the
    factors are read back from the diagonal as gcd(pivot, D).
    """
    if not rows:
        return []
    col_ids = sorted({j for row in rows.values() for j in row})
    where = {j: k for k, j in enumerate(col_ids)}
    block = []
    for row in rows.values():
        dense = [0] * len(col_ids)
        for j, v in row.items():
            dense[where[j]] = v
        block.append(dense)
    r, det = _bareiss([list(row) for row in block])
    return _factors_mod(block, r, abs(det))


def _bareiss(a: list) -> tuple:
    """Rank of a dense integer matrix and a nonzero minor of that size,
    by fraction-free elimination with full pivoting (destroys a)."""
    prev = 1
    for t in range(min(len(a), len(a[0]))):
        if not _pivot_to(a, t):
            return t, prev
        p, top = a[t][t], a[t]
        for row in a[t + 1:]:
            f = row[t]
            for j in range(t + 1, len(row)):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return min(len(a), len(a[0])), prev


def _factors_mod(a: list, r: int, d: int) -> list:
    """The r nonzero invariant factors of an integer matrix of rank r,
    given the absolute value d of one of its nonzero r x r minors.

    The matrix is diagonalised modulo d by invertible row and column
    operations. Its cokernel modulo d is then the sum of Z/gcd(pivot, d),
    plus one Z/d per row left without a pivot, and it equals
    Z/d_1 + ... + Z/d_r + (Z/d)^(rows - r) because every d_i divides d.
    Putting the cyclic orders into a divisibility chain with gcd/lcm swaps
    recovers d_1 | ... | d_r as its first r terms.
    """
    nrows = len(a)
    a = [[v % d for v in row] for row in a]
    orders = []
    for t in range(min(nrows, len(a[0]))):
        if not _pivot_to(a, t):
            break
        _clear_column(a, t, d)
        while any(a[t][t + 1:]):
            # column operations are row operations on the transpose
            a = [list(col) for col in zip(*a)]
            _clear_column(a, t, d)
        orders.append(gcd(a[t][t], d))
    orders += [d] * (nrows - len(orders))
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] * orders[j] // g
    return orders[:r]


def _pivot_to(a: list, t: int) -> bool:
    """Swap a nonzero entry of the trailing block into (t, t); False when
    the block is zero."""
    for i in range(t, len(a)):
        for j in range(t, len(a[i])):
            if a[i][j]:
                a[t], a[i] = a[i], a[t]
                for row in a:
                    row[t], row[j] = row[j], row[t]
                return True
    return False


def _clear_column(a: list, t: int, d: int) -> None:
    """Zero column t below the pivot by Euclidean row steps modulo d. Each
    remainder is smaller than the pivot it replaces, so this ends; a unit
    pivot is scaled to 1 first, which divides everything."""
    if gcd(a[t][t], d) == 1:
        inv = pow(a[t][t], -1, d)
        a[t] = [v * inv % d for v in a[t]]
    i = t + 1
    while i < len(a):
        if a[i][t]:
            q = a[i][t] // a[t][t]
            a[i] = [(w - q * v) % d for v, w in zip(a[t], a[i])]
            if a[i][t]:
                a[t], a[i] = a[i], a[t]
                continue
        i += 1


def boundary_invariants(m: SparseMatrix) -> tuple:
    """(rank, nonunit invariant factors) of a boundary matrix. Over a field
    there are no invariant factors to report."""
    if m.ring.is_field:
        return rank(m), ()
    nonzero = [d for d in smith_normal_form(m) if d]
    return len(nonzero), tuple(d for d in nonzero if d > 1)


def homology_presentation(
    boundary_out: SparseMatrix,
    boundary_in: SparseMatrix,
    out_invariants: tuple | None = None,
    in_invariants: tuple | None = None,
) -> SubquotientPresentation:
    """Isomorphism type of Ker(boundary_out) / Im(boundary_in).

    `boundary_out` maps the middle module down and `boundary_in` maps into
    it, so boundary_out.cols == boundary_in.rows and the composite must be
    zero. For a free complex the group is free of rank
    dim - rank(out) - rank(in), plus the nonunit invariant factors of `in`.
    Callers that already hold `boundary_invariants` of either matrix pass
    them in.
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
    rank_out, _ = out_invariants or boundary_invariants(boundary_out)
    rank_in, torsion = in_invariants or boundary_invariants(boundary_in)
    return SubquotientPresentation(boundary_out.cols - rank_out - rank_in, torsion)
