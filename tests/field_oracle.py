"""Dense field elimination, the oracle for the sparse `linalg.field_reduce`.

`field_rref` is the full-row Gauss-Jordan reduction that `kernel_basis`
and `DegreeSolver` were built on before the sparse route; `modp_row_rank`
is the forward elimination that F_p `rank` used. `dense_kernel` and
`DenseSolver` rebuild the old kernel basis and solver on top of them.
`column` reads one column of a sparse matrix as a dense list.
"""

from hyperhom.linalg import SparseMatrix


def column(m: SparseMatrix, j: int) -> list:
    col = [m.ring.zero] * m.rows
    for (i, jj), v in m.entries:
        if jj == j:
            col[i] = v
    return col


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
        self._transform = SparseMatrix.from_rows(
            [row[ncols:] for row in aug[boundary_rank:]], dim, ring
        )

    def coords(self, vec):
        w = self._transform.apply(vec)
        if any(not self.ring.is_zero(v) for v in w[self.betti:]):
            return None
        return tuple(w[: self.betti])
