"""Exact sparse linear algebra over Z, Q, and F_p.

Everything here is desk scale: matrices are stored as coordinate dicts
and eliminated as {col: value} row dicts over exact scalars. Rationals
are canonical (see `rings`): an `int` when integral, a `Fraction` only
when not, in every matrix and solver row. A set of vectors is always the
columns of one matrix: a kernel basis, the solver's representatives and
the images they are read from. `mul` sums its products in plain
arithmetic and reduces each sum once (`Ring.normal`), instead of going
through the ring for every term.

A rank needs only the number of pivots, and the pairing of barcodes
only which row took each, so both come from `forward_pivots`, a forward
elimination that keeps no reduced rows: mod p over F_p, and fraction-free
over Q and Z, where the rows stay integers. Over a field, the ranks of a
complex and the barcode's negative edges leave out the rows that the
matrix leaving their degree proves dependent (clearing, see
`forward_pivots`). Only the field `kernel_basis` reads reduced rows.
They come from `field_reduce`, a sparse Gauss-Jordan
reduction over Q or F_p whose pivots are the columns independent of
those before them and whose pivot rows are the reduced row echelon form,
both unique, so a kernel basis does not depend on the order rows are
reduced. The homology solver reads its representatives and coordinates
off that kernel basis (see `homology.DegreeSolver`).

Homology over Z of a free complex needs no kernel lattice: H_n is free of
rank dim - rank(out) - rank(in), plus the nonunit invariant factors of
the incoming boundary. The Smith normal form behind this is sparse first.
Unit pivots are eliminated on row dicts in least Markowitz cost order.
What is left is a small block, finished modulo D, the absolute value of
a nonzero r x r minor found by Bareiss elimination (r is the rank). Every
nonzero invariant factor divides D, so no entry ever grows past D. There
each pivot is an entry of least gcd with D, and the entries it divides
are cleared by exact steps: its column by one row step each, its row by
zeroing in place. Euclidean steps are left for the entries it does not
divide.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from math import gcd, lcm

from .errors import CompositionNotZero, SchemaViolation
from .records import record
from .rings import Ring, ZZ, canonical

_set = object.__setattr__


@record
class SparseMatrix:
    """Immutable sparse matrix; no stored zeros, no duplicate positions."""

    rows: int
    cols: int
    ring: Ring
    entries: tuple  # sorted tuple of ((row, col), value)

    def __init__(self, rows, cols, ring, entries):
        # straight-line: built thousands of times per request (see `records`)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "ring", ring)
        _set(self, "entries", entries)

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
    def blocks(rows, cols, ring, placed) -> "SparseMatrix":
        """rows x cols matrix holding each ((i0, j0), block) of `placed`
        with its top left corner at (i0, j0); the blocks must not overlap."""
        items = [((i0 + i, j0 + j), v) for (i0, j0), m in placed for (i, j), v in m.entries]
        return SparseMatrix(rows, cols, ring, tuple(sorted(items)))

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

    def mul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise SchemaViolation("dimension mismatch in matrix product")
        if self.ring != other.ring:
            raise SchemaViolation("ring mismatch in matrix product")
        by_col = {}
        for (i, k), v in self.entries:
            by_col.setdefault(k, []).append((i, v))
        acc = {}  # {j: {i: plain sum}}
        for (k, j), w in other.entries:
            terms = by_col.get(k)
            if terms:
                col = acc.setdefault(j, {})
                for i, v in terms:
                    col[i] = col.get(i, 0) + v * w
        normal = self.ring.normal
        items = [((i, j), y) for j, col in acc.items() for i, x in col.items()
                 if x and (y := normal(x))]
        items.sort()
        return SparseMatrix(self.rows, other.cols, self.ring, tuple(items))

    def is_zero(self) -> bool:
        return not self.entries

    def permuted(self, row_perm, col_perm) -> "SparseMatrix":
        items = [((row_perm[i], col_perm[j]), v) for (i, j), v in self.entries]
        return SparseMatrix(self.rows, self.cols, self.ring, tuple(sorted(items)))


@record
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


def _rows_of(m: SparseMatrix) -> list:
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries:
        rows[i][j] = v
    return rows


def rank(m: SparseMatrix) -> int:
    """Rank over the ring's fraction field (Q for Z): the pivot count of `forward_pivots`."""
    return len(forward_pivots(_rows_of(m), m.ring))


def forward_pivots(rows: list, ring: Ring) -> dict:
    """{lead column: index of the row that took it} of a forward elimination
    of {col: value} rows, over Q for Z. It consumes the rows.

    Each row in turn, last to first as in `field_reduce`, cancels its
    leading entry b against the pivot row stored at that column, whose
    lead is a, until its lead is a new pivot or the row is empty. Nothing
    is back-substituted and no row is scaled to 1. Over F_p the step is
    row -= (b / a) prow. Over Q and Z the rows stay integral: a row
    holding Fractions is first multiplied by the lcm of their
    denominators, which keeps the rank; the step is
    row = (a / g) row - (b / g) prow with g = gcd(a, b); and a row is
    divided by its content when it becomes a pivot row.

    The lead set is that of the row space, so a row that is a combination
    of others may be left out. Over a field, `BuiltComplex.invariants`
    and `persistence._negative_edges` leave out B = matrix(n)'s rows at
    the leads of A = matrix(n + shift) (clearing): an echelon row r of A
    with lead l has r.B = 0, so B's row l is a combination of its later
    rows. A.B = 0 is the square-zero check `build_complex` makes on every
    pair, and it makes this exact. A is ranked first: the degrees go up
    the grid for `partial` and down it for `d`. The Smith normal form
    over Z and the field kernel bases read full matrices.
    """
    p = ring.p
    pivots = {}  # lead column -> (its row's index, a or a^-1 over F_p, the rest of the row)
    for k, row in reversed(list(enumerate(rows))):
        if not p:
            den = lcm(*(v.denominator for v in row.values() if type(v) is not int))
            if den > 1:
                row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        while row:
            lead = min(row)
            b = row.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    pivots[lead] = k, pow(b, -1, p), row
                else:
                    g = gcd(b, *row.values())
                    pivots[lead] = (k, b // g, {j: v // g for j, v in row.items()}
                                    if g > 1 else row)
                break
            _, a, prow = pivot
            if p:
                _axpy(row, b * a % p, prow, p)
                continue
            g = gcd(a, b)
            if a != g:
                f = a // g
                for j in row:
                    row[j] *= f
            _axpy(row, b // g, prow, None)
    return {lead: k for lead, (k, _, _) in pivots.items()}


def field_reduce(rows: list, ring: Ring) -> tuple:
    """Gauss-Jordan reduction of field rows given as {col: value} dicts
    with no stored zeros, for `kernel_basis`.

    Each row in turn, last to first, is cleared at the pivot columns found
    so far, then its first remaining column becomes a new pivot, scaled to
    1 and cleared from the earlier pivot rows; a row that cancels is
    dropped. Returns (pivots, pivot_rows): the pivot columns in increasing
    order and their rows in the same order (1 at their own pivot, 0 at
    every other). The pivots are the columns independent of the columns
    before them, and the pivot rows are the unique reduced row echelon
    form, whatever the row order. The order changes only the cost: on
    boundary matrices in basis order, last to first did the least clearing
    of the orders tried (first to last, by length, by leading column). The
    rows are reduced in place.
    """
    p = ring.p
    by_col = {}
    for row in reversed(rows):
        for c in [c for c in row if c in by_col]:
            _axpy(row, row[c], by_col[c], p)
        if not row:
            continue
        lead = min(row)
        inv = ring.inv(row[lead])
        for c in row:
            row[c] = row[c] * inv % p if p else canonical(row[c] * inv)
        for prow in by_col.values():
            if lead in prow:
                _axpy(prow, prow[lead], row, p)
        by_col[lead] = row
    pivots = sorted(by_col)
    return pivots, [by_col[c] for c in pivots]


def _axpy(row: dict, f, prow: dict, p) -> None:
    """row -= f * prow in place, dropping the entries that cancel."""
    for j, w in prow.items():
        v = row.get(j, 0) - f * w
        if p:
            v %= p
        elif type(v) is not int:
            v = canonical(v)
        if v:
            row[j] = v
        else:
            del row[j]


def kernel_basis(m: SparseMatrix) -> SparseMatrix:
    """Kernel basis of a field matrix, as the columns of a cols x nullity
    matrix: column k belongs to the k-th non-pivot column f of the reduced
    row echelon form, with 1 at row f and minus that form's column f at
    the pivot rows. A pivot row is 0 before its pivot, so those rows all
    come before f: f is the column's last row."""
    ring = m.ring
    if not ring.is_field:
        raise SchemaViolation("kernel bases are computed over fields")
    pivots, pivot_rows = field_reduce(_rows_of(m), ring)
    free = {f: k for k, f in enumerate(sorted(set(range(m.cols)).difference(pivots)))}
    items = [((f, k), ring.one) for f, k in free.items()]
    items += [((c, free[f]), ring.neg(v)) for c, row in zip(pivots, pivot_rows)
              for f, v in row.items() if f != c]
    items.sort()
    return SparseMatrix(m.cols, len(free), ring, tuple(items))


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
    (row length - 1) * (column length - 1), so fill-in stays small. An
    entry enters the heap when it is or becomes a unit, once each time.
    Costs in the heap go stale as rows and columns change; a popped entry
    whose cost has grown is pushed back. Returns the number of pivots;
    afterwards no entry is a unit and emptied rows are gone.
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
            fresh = []  # the entries this update turns into units
            for j, w in prow.items():
                old = row.get(j, 0)
                nv = old - f * w
                if nv:
                    if not old:
                        cols[j].add(i)
                    row[j] = nv
                    if (nv == 1 or nv == -1) and old != 1 and old != -1:
                        fresh.append(j)
                else:
                    del row[j]
                    cols[j].discard(i)
            if not row:
                del rows[i]
                continue
            for j in fresh:
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

    Each pivot is an entry of least gcd g with d, so a unit whenever the
    trailing block holds one. Once its column is clear, column operations
    touch only its row, so a row that g divides is zeroed in place; only
    a row entry that g does not divide needs Euclidean steps, taken as
    row steps on the transpose.
    """
    nrows = len(a)
    a = [[v % d for v in row] for row in a]
    # row and column steps keep every entry a multiple of this gcd
    low = gcd(d, *(v for row in a for v in row))
    orders = []
    for t in range(min(nrows, len(a[0]))):
        if not _pivot_to(a, t, d, low):
            break
        _clear_column(a, t, d)
        while any(a[t][t + 1:]):
            g = gcd(a[t][t], d)
            if all(v % g == 0 for v in a[t][t + 1:]):
                a[t][t + 1:] = [0] * (len(a[t]) - t - 1)
            else:
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


def _pivot_to(a: list, t: int, d: int = 1, low: int = 1) -> bool:
    """Swap into (t, t) the first entry of the trailing block, in row
    order, of least gcd with d; False when the block is zero. With d = 1
    that is the first nonzero entry. Modulo d > 1 a zero has gcd d, so it
    is never least. No gcd is below `low`: the search stops at one equal."""
    best = None
    for i in range(t, len(a)):
        tail = a[i][t:]
        if any(tail):
            g = min(map(gcd, tail, repeat(d)))
            if best is None or g < best[0]:
                best = g, i
                if g == low:
                    break
    if best is None:
        return False
    g, i = best
    j = next(j for j, v in enumerate(a[i][t:], t) if v and gcd(v, d) == g)
    a[t], a[i] = a[i], a[t]
    for row in a:
        row[t], row[j] = row[j], row[t]
    return True


def _clear_column(a: list, t: int, d: int) -> None:
    """Zero column t below the pivot modulo d. Write the pivot as g * u
    with g = gcd(pivot, d); u is then a unit modulo d / g. An entry w that
    g divides is cleared in one exact step, by (w / g) * u^-1 times the
    pivot row. Any other entry takes a Euclidean step: its remainder is
    nonzero and smaller than the pivot, so it becomes the pivot, and this
    ends."""
    i = t + 1
    while i < len(a):
        w = a[i][t]
        if w:
            v = a[t][t]
            g = gcd(v, d)
            exact = w % g == 0
            f = w // g * pow(v // g, -1, d // g) % (d // g) if exact else w // v
            a[i] = [(x - f * y) % d for y, x in zip(a[t], a[i])]
            if not exact:
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
    them in. A caller that passes both holds the pair from a complex that
    has checked its composite already (`BuiltComplex` squares each pair
    once, when it is built), so the product is not formed again; on raw
    matrices it is checked here.
    """
    if boundary_out.ring != boundary_in.ring:
        raise SchemaViolation("boundary maps live over different rings")
    if boundary_out.cols != boundary_in.rows:
        raise SchemaViolation(
            f"middle module mismatch: out has {boundary_out.cols} columns, "
            f"in has {boundary_in.rows} rows"
        )
    checked = out_invariants is not None and in_invariants is not None
    if not checked and not boundary_out.mul(boundary_in).is_zero():
        raise CompositionNotZero("boundary composed with boundary is nonzero")
    rank_out, _ = out_invariants or boundary_invariants(boundary_out)
    rank_in, torsion = in_invariants or boundary_invariants(boundary_in)
    return SubquotientPresentation(boundary_out.cols - rank_out - rank_in, torsion)
