"""Exact sparse integer linear algebra: Smith normal form and chain homology.

``IntMatrix`` stores canonical int64 triplet arrays and multiplies with
``scipy.sparse`` under an explicit overflow bound.

The Smith normal form runs in two stages.  While a matrix holds at least
``_ROUND_MIN_NNZ`` nonzeros, batched unit-pivot rounds split off a signed
identity D, chosen greedily among the +-1 entries in Markowitz order so that
A[r_i, c_j] = 0 for distinct pivots, and replace the matrix by its Schur
complement A22 - A21 D A12, one int64 sparse product (a depth-one acyclic
matching of algebraic Morse theory, after Skoldberg 2006).  A round whose
product could leave int64 is refused before it multiplies.  What the rounds
leave is split into the connected components of its row-column graph, and
each block is eliminated over Python integers, so entries may grow without
overflow: that eliminator prefers +-1 pivots with a Markowitz-style fill
tie-break, and falls back to minimal-absolute-value pivoting on the residual
core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components


class LinAlgError(ValueError):
    """Raised on dimension mismatches and non-chain inputs."""


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus invariant factors > 1."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise LinAlgError(f"torsion {self.torsion} is not a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise LinAlgError("torsion factors must be > 1")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts += [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


INT64_MAX = 2 ** 63 - 1


def _as_int64(values) -> np.ndarray:
    """Integer values as an int64 array; LinAlgError for a non-integer or an
    absolute value above 2^63 - 1 (so every stored value has an int64 negation)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    kind = arr.dtype.kind
    if kind == "u" and int(arr.max()) > INT64_MAX:
        raise LinAlgError(f"matrix entry {int(arr.max())} is outside int64")
    if kind == "O":
        try:
            arr = arr.astype(np.int64)
        except (OverflowError, TypeError) as exc:
            raise LinAlgError(f"matrix entries must be int64 integers: {exc}") from None
    elif kind in "iub":
        arr = arr.astype(np.int64, copy=False)
    else:
        raise LinAlgError(f"matrix entries must be integers, got dtype {arr.dtype}")
    if (arr == -INT64_MAX - 1).any():
        raise LinAlgError("matrix entry -2^63 is outside the int64 range")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class IntMatrix:
    """Sparse integer matrix held as canonical int64 COO arrays.

    ``row``, ``col`` and ``val`` list the nonzero entries sorted by (row, col),
    with no duplicates and no stored zeros, as read-only int64 arrays; every
    value has absolute value below 2^63.  Build one with ``from_triplets``,
    ``from_dense`` or ``from_text``; ``IntMatrix(rows, cols)`` is the zero
    matrix.  Products are ``scipy.sparse`` int64 products, refused before they
    start when an entry could leave int64.  The CSR form and the Smith form
    are computed on first use and kept.
    """

    __slots__ = ("rows", "cols", "row", "col", "val", "_csr", "_snf")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise LinAlgError(f"negative shape {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row = self.col = self.val = _frozen(np.zeros(0, dtype=np.int64))
        self._csr = None
        self._snf = None

    @classmethod
    def _canonical(cls, rows: int, cols: int, row, col, val) -> "IntMatrix":
        out = cls(rows, cols)
        out.row, out.col, out.val = _frozen(row), _frozen(col), _frozen(val)
        return out

    @classmethod
    def from_triplets(cls, rows: int, cols: int, row, col, val) -> "IntMatrix":
        """Entries (row[i], col[i]) += val[i]: duplicates are summed, zeros dropped."""
        row, col, val = (_as_int64(a).ravel() for a in (row, col, val))
        if not len(row) == len(col) == len(val):
            raise LinAlgError("triplet arrays differ in length")
        if not len(val):
            return cls(rows, cols)
        if row.min() < 0 or row.max() >= rows or col.min() < 0 or col.max() >= cols:
            raise LinAlgError(f"triplet index out of bounds for {rows}x{cols}")
        if rows * cols > INT64_MAX:
            raise LinAlgError(f"shape {rows}x{cols} has more positions than int64 indexes")
        key = row * cols + col
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        repeat = key[1:] == key[:-1]
        if repeat.any():
            first = np.flatnonzero(~np.concatenate(([False], repeat)))
            most = int(np.diff(first, append=len(key)).max())
            if int(np.abs(val).max()) * most > INT64_MAX:
                raise LinAlgError("summing duplicate triplets could leave int64")
            key, val = key[first], np.add.reduceat(val, first)
        keep = val != 0
        key, val = key[keep], val[keep]
        return cls._canonical(rows, cols, key // cols, key % cols, val)

    @classmethod
    def from_dense(cls, rows_list, rows: int | None = None, cols: int | None = None):
        dense = _as_int64(rows_list)
        if dense.size == 0:
            m = dense.shape[0] if rows is None else rows
            n = (dense.shape[1] if dense.ndim == 2 else 0) if cols is None else cols
            return cls(m, n)
        if dense.ndim != 2:
            raise LinAlgError(f"dense matrix must be two-dimensional, got {dense.ndim}")
        m = dense.shape[0] if rows is None else rows
        n = dense.shape[1] if cols is None else cols
        r, c = np.nonzero(dense)
        return cls.from_triplets(m, n, r, c, dense[r, c])

    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def is_zero(self) -> bool:
        return not len(self.val)

    def _max_abs(self) -> int:
        return int(np.abs(self.val).max()) if len(self.val) else 0

    def _to_csr(self) -> csr_matrix:
        """The same matrix as an int64 ``csr_matrix``, built once and shared."""
        if self._csr is None:
            # scipy indexes with int32 where it can; handing it int32 spares a cast
            index = np.int32 if max(self.rows, self.cols, self.nnz) < 2 ** 31 else np.int64
            indptr = np.zeros(self.rows + 1, dtype=index)
            np.cumsum(np.bincount(self.row, minlength=self.rows), out=indptr[1:])
            self._csr = csr_matrix((self.val, self.col.astype(index), indptr),
                                   shape=(self.rows, self.cols))
        return self._csr

    @classmethod
    def _from_scipy(cls, mat) -> "IntMatrix":
        mat = mat.tocsr()
        mat.eliminate_zeros()
        mat.sum_duplicates()  # also sorts the column indices of every row
        row = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
        return cls._canonical(mat.shape[0], mat.shape[1], row,
                              mat.indices.astype(np.int64), mat.data.astype(np.int64))

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.is_zero or other.is_zero:
            return IntMatrix(self.rows, other.cols)
        bound = self._max_abs() * other._max_abs() * self.cols
        if bound > INT64_MAX:
            raise LinAlgError(f"product entries are bounded only by {bound}, outside int64")
        return IntMatrix._from_scipy(self._to_csr() @ other._to_csr())

    def _combine(self, other: "IntMatrix", sign: int) -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError(f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}")
        if self._max_abs() + other._max_abs() > INT64_MAX:
            raise LinAlgError("sum entries could leave int64")
        return IntMatrix.from_triplets(
            self.rows, self.cols, np.concatenate([self.row, other.row]),
            np.concatenate([self.col, other.col]), np.concatenate([self.val, sign * other.val]))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._combine(other, -1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col) and np.array_equal(self.val, other.val))

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        lines += [f"{r} {c} {v}" for r, c, v in
                  zip(self.row.tolist(), self.col.tolist(), self.val.tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
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
        out = cls.from_triplets(rows, cols, r, c, v)
        if out.nnz != nnz:
            raise LinAlgError("matrix text repeats a position")
        return out

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _normalize_factors(diag) -> tuple:
    """Fold a diagonal multiset into the d1 | d2 | ... divisibility chain."""
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


def _blocks(A: IntMatrix):
    """(row, col, val) arrays of each connected block of A's row-column graph,
    each in column-major order.  The eliminator meets its unit pivots in that
    order; row-major order took twice as long on the C4 d_{4,4} (n <= 4)."""
    if A.is_zero:
        return []
    nodes = A.rows + A.cols
    graph = coo_matrix((np.ones(A.nnz, dtype=np.int8), (A.row, A.rows + A.col)),
                       shape=(nodes, nodes))
    _, label = connected_components(graph, directed=False)
    block = label[A.row]
    order = np.lexsort((A.row, A.col, block))
    cuts = np.flatnonzero(np.diff(block[order])) + 1
    return [(A.row[idx], A.col[idx], A.val[idx]) for idx in np.split(order, cuts)]


def _snf_diagonal_sparse(row, col, val) -> list:
    """Diagonal entries of a diagonal matrix equivalent to the triplets (order arbitrary)."""
    triplets = list(zip(np.asarray(row).tolist(), np.asarray(col).tolist(),
                        np.asarray(val).tolist()))
    rows = {}
    cols = {}
    for r, c, v in triplets:
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    units = deque((r, c) for r, c, v in triplets if abs(v) == 1)
    diag = []

    def row_sub(r2, r, q):
        """rows[r2] -= q * rows[r]; keep the column index in sync."""
        tgt = rows[r2]
        for c, v in rows[r].items():
            nv = tgt.get(c, 0) - q * v
            if nv:
                if c not in tgt:
                    cols.setdefault(c, set()).add(r2)
                tgt[c] = nv
                if abs(nv) == 1:
                    units.append((r2, c))
            elif c in tgt:
                del tgt[c]
                cols[c].discard(r2)
        if not tgt:
            del rows[r2]

    def drop(r, c):
        for c2 in rows[r]:
            if c2 != c:
                cols[c2].discard(r)
        del rows[r]
        cols.pop(c, None)

    def pick_unit():
        best = None
        tried = []
        for _ in range(min(len(units), 16)):
            r, c = units.popleft()
            v = rows.get(r, {}).get(c)
            if v is None or abs(v) != 1:
                continue
            cost = (len(rows[r]) - 1) * (len(cols[c]) - 1)
            tried.append((cost, r, c))
            if cost == 0:
                break
        if not tried:
            return None
        tried.sort()
        best = tried[0]
        for cost, r, c in tried[1:]:
            units.append((r, c))
        return best[1], best[2]

    while True:
        pos = None
        while units:
            pos = pick_unit()
            if pos:
                break
        if pos is None:
            # residual core: minimal |value| pivot, Euclidean reduction
            r0, c0, v0 = None, None, None
            for r, row in rows.items():
                for c, v in row.items():
                    if v0 is None or abs(v) < abs(v0):
                        r0, c0, v0 = r, c, v
            if v0 is None:
                break
            # clear the pivot column; remainders become smaller pivots next round
            while True:
                others = [r2 for r2 in cols[c0] if r2 != r0]
                if not others:
                    break
                for r2 in others:
                    q = rows[r2][c0] // v0
                    row_sub(r2, r0, q)
                rem = [r2 for r2 in cols[c0] if r2 != r0]
                if rem:  # nonzero remainders: switch pivot to a smaller entry
                    r0 = min(rem, key=lambda r2: abs(rows[r2][c0]))
                    v0 = rows[r0][c0]
                    continue
                break
            # clearing the pivot row only touches the pivot row now
            row = rows[r0]
            leftovers = {c: v % v0 for c, v in row.items() if c != c0 and v % v0}
            if leftovers:
                for c, v in list(row.items()):
                    if c == c0:
                        continue
                    rv = v % v0
                    if rv:
                        row[c] = rv
                        if abs(rv) == 1:
                            units.append((r0, c))
                    else:
                        del row[c]
                        cols[c].discard(r0)
                continue  # pivot row now holds smaller entries; re-pivot
            diag.append(v0)
            drop(r0, c0)
            continue
        r0, c0 = pos
        v0 = rows[r0][c0]
        for r2 in [r for r in cols[c0] if r != r0]:
            row_sub(r2, r0, rows[r2][c0] * v0)  # v0 = +-1 so q = entry * v0
        diag.append(v0)
        drop(r0, c0)
    return diag


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d1 | d2 | ... (nonzero)."""

    factors: tuple

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def torsion(self) -> tuple:
        return tuple(f for f in self.factors if f != 1)


# Unit-pivot rounds run only while a matrix holds at least this many nonzeros.
# Measured on every SNF of the C8 (n <= 3) and battery pipelines: under 512
# nnz the rounds' fixed cost made SNFs up to 2x slower, from 512 to 2048 nnz
# the two paths were within 25% of each other, and above 2048 nnz the rounds
# were 2-9x faster.  So the tie range stays on the per-block eliminator.
_ROUND_MIN_NNZ = 2048


def _unit_pivots(A: IntMatrix):
    """Row and column arrays of +-1 pivots (r_i, c_i) of A with
    A[r_i, c_j] = 0 for i != j.

    Candidates are taken greedily in increasing Markowitz cost
    (row count - 1) * (column count - 1), ties in (row, col) order.  Taking
    (r, c) blocks every row of column c and every column of row r."""
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


def _unit_round(A: IntMatrix):
    """One batched elimination round: ``(prow, pcol, S)`` or None.

    With P the pivots of ``_unit_pivots``, A is, up to row and column order,
    [[D, A12], [A21, A22]] with D = A[prow, pcol] a signed identity.  So A is
    unimodularly equivalent to D (+) S with S = A22 - A21 D A12, as D is its
    own inverse.  S keeps A's shape, with the pivot rows and columns empty.  None
    when there is no +-1 entry, or when an entry of S is not bounded below
    2^63 by max|A22| + max|A21| * max|A12| * len(P)."""
    prow, pcol = _unit_pivots(A)
    k = len(prow)
    if not k:
        return None
    pivot_of_row = np.full(A.rows, -1, dtype=np.int64)
    pivot_of_row[prow] = np.arange(k)
    pivot_of_col = np.full(A.cols, -1, dtype=np.int64)
    pivot_of_col[pcol] = np.arange(k)
    i, j = pivot_of_row[A.row], pivot_of_col[A.col]
    in12, in21, in22 = (i >= 0) & (j < 0), (i < 0) & (j >= 0), (i < 0) & (j < 0)
    m12, m21, m22 = (int(np.abs(A.val[m]).max()) if m.any() else 0
                     for m in (in12, in21, in22))
    if m22 + m21 * m12 * k > INT64_MAX:
        return None
    d = np.zeros(k, dtype=np.int64)
    pivot = (i >= 0) & (j >= 0)
    d[i[pivot]] = A.val[pivot]
    # A21 D as rows x k, A12 as k x cols: their product lands on A22's positions
    a21d = csr_matrix((A.val[in21] * d[j[in21]], (A.row[in21], j[in21])), shape=(A.rows, k))
    a12 = csr_matrix((A.val[in12], (i[in12], A.col[in12])), shape=(k, A.cols))
    a22 = csr_matrix((A.val[in22], (A.row[in22], A.col[in22])), shape=(A.rows, A.cols))
    return prow, pcol, IntMatrix._from_scipy(a22 - a21d @ a12)


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Invariant factors of A, computed once per matrix and kept on it.

    While A holds at least ``_ROUND_MIN_NNZ`` nonzeros, ``_unit_round`` splits
    off a signed identity and leaves its Schur complement; each round's pivots
    are factors 1.  The rounds stop when a round is refused, when the matrix
    falls below the cutoff, or when two rounds in a row grow its nonzeros:
    those two are undone.  A single growing round is kept, because on K(R)
    differentials the first round often grows the matrix and the next ones
    clear it (C2xC2 d_{4,4}: 238,560 -> 281,162 -> 264,908 -> 144,900 nnz).
    Each block of ``_blocks`` of what is left is then eliminated on its own
    over Python integers: the diagonals of the rounds and the blocks together
    are a diagonal form of A, so the factors are those of the whole matrix."""
    if A._snf is None:
        units, rest = 0, A
        before_growth = None  # (units, matrix) ahead of a round that grew the matrix
        while rest.nnz >= _ROUND_MIN_NNZ:
            step = _unit_round(rest)
            if step is None:
                break
            if step[2].nnz > rest.nnz:
                if before_growth:  # the second growing round in a row: undo both
                    units, rest = before_growth
                    break
                before_growth = (units, rest)
            else:
                before_growth = None
            units, rest = units + len(step[0]), step[2]
        diag = [1] * units
        for block in _blocks(rest):
            diag += _snf_diagonal_sparse(*block)
        A._snf = SmithForm(factors=_normalize_factors(diag))
    return A._snf


def chain_homology(d_out: IntMatrix, d_in: IntMatrix) -> HomologyGroup:
    """Structure of ker(d_out)/im(d_in) for a two-step chain spot C2 -> C1 -> C0."""
    if d_out.cols != d_in.rows:
        raise LinAlgError(
            f"chain dimension mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows")
    composite = d_out.matmul(d_in)
    if not composite.is_zero:
        r, c, v = int(composite.row[0]), int(composite.col[0]), int(composite.val[0])
        raise LinAlgError(f"d_out . d_in != 0: entry ({r},{c}) = {v}")
    snf_in = smith_normal_form(d_in)
    free = d_in.rows - smith_normal_form(d_out).rank - snf_in.rank
    if free < 0:
        raise LinAlgError("negative free rank; input is not a chain spot")
    return HomologyGroup(free_rank=free, torsion=snf_in.torsion)
