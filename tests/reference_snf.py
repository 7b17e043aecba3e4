"""Test-only reference for ``stabring.zlinalg``: the dense Smith normal form
with unimodular transforms that the library no longer keeps, the kernel-basis
and image-membership checks built on it, ``to_dense``, which turns an
``IntMatrix`` into nested lists for them and for sympy, ``from_dense``, its
inverse, ``to_text``, the
per-entry text of a matrix that ``stabring run --dump-matrices`` writes
(``pipeline._dump_matrices``, by array arithmetic a piece at a time), and
``from_text``, which reads it back.

``unit_pivots`` is the plain greedy loop, one candidate at a time over
Python lists, that ``zlinalg._unit_pivots`` (the same loop over pieces of
candidates filtered in bulk) must agree with; ``normalize_factors`` is the
pairwise fold that ``zlinalg._normalize_factors`` (one pass over a coprime
base) replaced, and ``scipy_matmul`` and ``scipy_schur`` the
``scipy.sparse`` products that ``IntMatrix.matmul`` and
``zlinalg._unit_round`` replaced.

Everything here is dense Python-integer arithmetic, cubic in the matrix size;
keep it to matrices of a few hundred rows and columns.
"""

from __future__ import annotations

from math import gcd

import numpy as np
from scipy.sparse import csr_matrix

from stabring.zlinalg import IntMatrix, LinAlgError, _as_int64


def to_dense(A: IntMatrix) -> list:
    """A as a list of rows of Python ints."""
    dense = np.zeros((A.rows, A.cols), dtype=np.int64)
    dense[A.row, A.col] = A.val
    return dense.tolist()


def from_dense(rows_list, rows: int | None = None, cols: int | None = None) -> IntMatrix:
    """The matrix of a nested list or 2-D array; ``rows`` and ``cols`` give
    the shape of an empty one."""
    dense = _as_int64(rows_list)
    if dense.size == 0:
        m = dense.shape[0] if rows is None else rows
        n = (dense.shape[1] if dense.ndim == 2 else 0) if cols is None else cols
        return IntMatrix(m, n)
    if dense.ndim != 2:
        raise LinAlgError(f"dense matrix must be two-dimensional, got {dense.ndim}")
    m = dense.shape[0] if rows is None else rows
    n = dense.shape[1] if cols is None else cols
    r, c = np.nonzero(dense)
    return IntMatrix.from_triplets(m, n, r, c, dense[r, c])


def to_text(A: IntMatrix) -> str:
    """The line "rows cols nnz", then "row col value" per entry."""
    lines = [f"{A.rows} {A.cols} {A.nnz}"]
    lines += [f"{r} {c} {v}" for r, c, v in zip(A.row.tolist(), A.col.tolist(), A.val.tolist())]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> IntMatrix:
    """Inverse of ``to_text``; a duplicate position or a zero value is an error."""
    lines = [l.split() for l in text.splitlines() if l.strip()]
    if not lines:
        raise LinAlgError("empty matrix text")
    if any(len(l) != 3 for l in lines):
        raise LinAlgError("every matrix text line must hold three integers")
    try:
        (rows, cols, nnz), *triplets = [[int(t) for t in l] for l in lines]
    except ValueError as exc:
        raise LinAlgError(f"matrix text holds a non-integer: {exc}") from None
    if len(triplets) != nnz:
        raise LinAlgError(f"matrix text declares {nnz} entries, has {len(triplets)}")
    r, c, v = zip(*triplets) if triplets else ((), (), ())
    if 0 in v:
        raise LinAlgError("matrix text stores an explicit zero")
    out = IntMatrix.from_triplets(rows, cols, r, c, v)
    if out.nnz != nnz:
        raise LinAlgError("matrix text repeats a position")
    return out


def snf_dense_transforms(A: IntMatrix):
    """Textbook SNF with accumulated unimodular transforms, for modest sizes.

    Maintains the invariant U0 * A * V0 = D for the original A, and enforces
    the divisibility chain inline by folding offending entries into the pivot.
    """
    m, n = A.rows, A.cols
    D = to_dense(A)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        r0 = c0 = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = D[i][j]
                if v and (best is None or abs(v) < best):
                    best, r0, c0 = abs(v), i, j
        if best is None:
            break
        if r0 != t:
            D[t], D[r0] = D[r0], D[t]
            U[t], U[r0] = U[r0], U[t]
        if c0 != t:
            for row in D:
                row[t], row[c0] = row[c0], row[t]
            for row in V:
                row[t], row[c0] = row[c0], row[t]
        dirty = False
        p = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                q = D[i][t] // p
                if q:
                    for j in range(t, n):
                        D[i][j] -= q * D[t][j]
                    for j in range(m):
                        U[i][j] -= q * U[t][j]
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if D[t][j]:
                q = D[t][j] // p
                if q:
                    for i in range(t, m):
                        D[i][j] -= q * D[i][t]
                    for i in range(n):
                        V[i][j] -= q * V[i][t]
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                D[t][j] += D[offender][j]
            for j in range(m):
                U[t][j] += U[offender][j]
            continue
        if p < 0:
            for j in range(t, n):
                D[t][j] = -D[t][j]
            for j in range(m):
                U[t][j] = -U[t][j]
        t += 1
    return D, U, V


def smith_with_transforms(A: IntMatrix):
    """(factors, U, V) with U A V = diag(factors) padded with zeros, U and V
    unimodular, and factors the nonzero invariant factors d1 | d2 | ..."""
    D, U, V = snf_dense_transforms(A)
    factors = tuple(abs(D[i][i]) for i in range(min(A.rows, A.cols)) if D[i][i])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0, f"transform SNF missed divisibility: {factors}"
    return factors, U, V


def integer_kernel(d_out: IntMatrix | None, dim: int) -> list:
    """A Z-basis of ker(d_out) in Z^dim, as lists; all of Z^dim when d_out is
    None or has no rows."""
    if d_out is None or d_out.rows == 0:
        return [[int(i == j) for i in range(dim)] for j in range(dim)]
    factors, _, V = smith_with_transforms(d_out)
    return [[V[i][j] for i in range(dim)] for j in range(len(factors), dim)]


def apply(mat: IntMatrix, vec: list) -> list:
    """mat . vec over Python integers."""
    out = [0] * mat.rows
    for r, c, v in zip(mat.row.tolist(), mat.col.tolist(), mat.val.tolist()):
        out[r] += v * vec[c]
    return out


class ImageTest:
    """Membership in the image of one matrix D: w = D x has an integer
    solution x iff (U w)_i is divisible by d_i for i < rank and zero beyond."""

    def __init__(self, D: IntMatrix):
        self.rows = D.rows
        self.factors, self.U, _ = smith_with_transforms(D)

    def __contains__(self, w: list) -> bool:
        for i in range(self.rows):
            uw = sum(self.U[i][j] * w[j] for j in range(self.rows) if w[j])
            if i < len(self.factors) and uw % self.factors[i]:
                return False
            if i >= len(self.factors) and uw:
                return False
        return True


def unit_pivots(A: IntMatrix):
    """Row and column arrays of the +-1 pivots the greedy pass takes: the +-1
    entries in increasing Markowitz cost (row count - 1) * (column count - 1),
    ties in (row, col) order, one at a time; taking (r, c) blocks every row
    of column c and every column of row r."""
    unit = np.flatnonzero(np.abs(A.val) == 1)
    row_count = np.bincount(A.row, minlength=A.rows)
    col_count = np.bincount(A.col, minlength=A.cols)
    cost = (row_count[A.row[unit]] - 1) * (col_count[A.col[unit]] - 1)
    unit = unit[np.argsort(cost, kind="stable")]
    # A.row is sorted, so row r's entries are A.col[row_ptr[r]:row_ptr[r + 1]]
    row_ptr = np.concatenate(([0], np.cumsum(row_count))).tolist()
    by_col = np.argsort(A.col, kind="stable")
    col_ptr = np.concatenate(([0], np.cumsum(col_count))).tolist()
    row_of_col, col_of_row = A.row[by_col].tolist(), A.col.tolist()
    row_blocked, col_blocked = bytearray(A.rows), bytearray(A.cols)
    prow, pcol = [], []
    for r, c in zip(A.row[unit].tolist(), A.col[unit].tolist()):
        if row_blocked[r] or col_blocked[c]:
            continue
        prow.append(r)
        pcol.append(c)
        for r2 in row_of_col[col_ptr[c]:col_ptr[c + 1]]:
            row_blocked[r2] = 1
        for c2 in col_of_row[row_ptr[r]:row_ptr[r + 1]]:
            col_blocked[c2] = 1
    return np.array(prow, dtype=np.int64), np.array(pcol, dtype=np.int64)


def normalize_factors(diag) -> tuple:
    """Fold a diagonal multiset into the d1 | d2 | ... divisibility chain by
    replacing pairs (a, b) with b % a != 0 by (gcd, lcm) until none is left."""
    factors = sorted(abs(d) for d in diag if d)
    hard = [d for d in factors if d != 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(hard)):
            for j in range(i + 1, len(hard)):
                a, b = hard[i], hard[j]
                if b % a:
                    g = gcd(a, b)
                    hard[i], hard[j] = g, a * b // g
                    changed = True
        hard.sort()
    ones = len(factors) - len(hard)
    return tuple([1] * ones + hard)


def _from_scipy(mat) -> IntMatrix:
    mat = mat.tocoo()
    return IntMatrix.from_triplets(mat.shape[0], mat.shape[1], mat.row, mat.col,
                                   mat.data.astype(np.int64))


def _csr(A: IntMatrix) -> csr_matrix:
    return csr_matrix((A.val, (A.row, A.col)), shape=(A.rows, A.cols))


def scipy_matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A . B as an int64 ``scipy.sparse`` product, with no overflow check."""
    return _from_scipy(_csr(A) @ _csr(B))


def scipy_schur(A: IntMatrix, prow, pcol) -> IntMatrix:
    """A22 - A21 D A12 at A's shape, for pivots (prow, pcol) with D = A[prow,
    pcol] a signed identity, as three ``scipy.sparse`` matrices and one int64
    product, with no overflow check."""
    k = len(prow)
    pivot_of_row = np.full(A.rows, -1, dtype=np.int64)
    pivot_of_row[prow] = np.arange(k)
    pivot_of_col = np.full(A.cols, -1, dtype=np.int64)
    pivot_of_col[pcol] = np.arange(k)
    i, j = pivot_of_row[A.row], pivot_of_col[A.col]
    in12, in21, in22 = (i >= 0) & (j < 0), (i < 0) & (j >= 0), (i < 0) & (j < 0)
    d = np.zeros(k, dtype=np.int64)
    pivot = (i >= 0) & (j >= 0)
    d[i[pivot]] = A.val[pivot]
    a21d = csr_matrix((A.val[in21] * d[j[in21]], (A.row[in21], j[in21])), shape=(A.rows, k))
    a12 = csr_matrix((A.val[in12], (i[in12], A.col[in12])), shape=(k, A.cols))
    a22 = csr_matrix((A.val[in22], (A.row[in22], A.col[in22])), shape=(A.rows, A.cols))
    return _from_scipy(a22 - a21d @ a12)
