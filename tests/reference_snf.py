"""Test-only reference for ``stabring.zlinalg``: the dense Smith normal form
with unimodular transforms that the library no longer keeps, the kernel-basis
and image-membership checks built on it, and ``to_dense``, which turns an
``IntMatrix`` into nested lists for them and for sympy.

Everything here is dense Python-integer arithmetic, cubic in the matrix size;
keep it to matrices of a few hundred rows and columns.
"""

from __future__ import annotations

import numpy as np

from stabring.zlinalg import IntMatrix


def to_dense(A: IntMatrix) -> list:
    """A as a list of rows of Python ints."""
    dense = np.zeros((A.rows, A.cols), dtype=np.int64)
    dense[A.row, A.col] = A.val
    return dense.tolist()


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
