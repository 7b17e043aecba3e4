"""Exact sparse integer linear algebra: Smith normal form and chain homology.

``IntMatrix`` stores canonical int64 triplet arrays, and multiplies them
directly under an explicit overflow bound: every entry of the left factor is
expanded over a row of the right one, and the products are summed into
canonical form.  Every sum of entries (``_summed``) sorts one key array in
place and carries one value array along, and the arrays it sums are counted
before they are allocated and filled a piece of ``_kernels.CHUNK`` entries
at a time, so no step holds more than about three int64 arrays of its
length.

The Smith normal form runs in stages.  Each stage splits off a signed
identity D = A[prow, pcol] and replaces the matrix by its Schur complement
A22 - A21 D A12, one int64 sparse product (``_schur``; a depth-one acyclic
matching of algebraic Morse theory, after Skoldberg 2006).  A caller that
knows such pivots from the matrix's construction hands them in first, as
``kcomplex.unit_matching`` does for every K(R) differential; they are
checked exactly (``_check_matching``) and eliminated in one step before any
search.  Then, while the matrix holds at least ``_ROUND_MIN_NNZ`` nonzeros,
unit-pivot rounds choose D by one greedy pass over the +-1 entries in
Markowitz order, so that A[r_i, c_j] = 0 for distinct pivots
(``_unit_pivots``).  After the first step and after every round, each
column equal up to sign to an earlier column is emptied
(``_distinct_columns``), a unimodular column operation.  A step whose
product could leave int64 is refused before it multiplies, and a search or
step that would not fit ``BYTES_PER_ROUND_ENTRY`` per nonzero, product and
line in ``_kernels.memory_budget()`` raises a LinAlgError before it
allocates.  On S3's d_{3,3} (n <= 3) the whole Smith form peaks at about 80
bytes per nonzero.  What the rounds leave, if it still holds
``_ROUND_MIN_NNZ`` nonzeros or more or holds no +-1 entry, is split into the
connected components of its row-column graph; a smaller residual with a unit
stays one block.  Each block is eliminated over Python integers by
``_eliminator``, so entries may grow without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._eliminator import _normalize_factors, _snf_diagonal_sparse
from ._kernels import CHUNK, components, gathered


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
    value has absolute value below 2^63.  Build one with ``from_triplets``;
    ``IntMatrix(rows, cols)`` is the zero matrix.  Products are computed on
    these arrays in int64, refused before they start when an entry could
    leave int64.  The column index and the Smith form are computed on first
    use and kept, and so is each d_in of ``chain_homology`` with self . d_in = 0.
    """

    __slots__ = ("rows", "cols", "row", "col", "val", "_by_col", "_snf", "_zero_after")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise LinAlgError(f"negative shape {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row = self.col = self.val = _frozen(np.zeros(0, dtype=np.int64))
        self._by_col = None
        self._snf = None
        self._zero_after = []

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
        _check_positions(rows, cols)
        return _summed(rows, cols, row * cols + col, val.copy(), checked=True)

    @classmethod
    def from_keys(cls, rows: int, cols: int, key: np.ndarray, val: np.ndarray) -> "IntMatrix":
        """Entries val[i] at positions key[i] = row * cols + col, for int64
        arrays that the call may overwrite: duplicates are summed under the
        same overflow check as ``from_triplets``, zeros dropped."""
        _check_positions(rows, cols)
        if len(key) != len(val):
            raise LinAlgError("key and value arrays differ in length")
        if len(key) and (key.min() < 0 or key.max() >= rows * cols):
            raise LinAlgError(f"position out of bounds for {rows}x{cols}")
        return _summed(rows, cols, key, val, checked=True)

    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def is_zero(self) -> bool:
        return not len(self.val)

    def _max_abs(self) -> int:
        return int(np.abs(self.val).max()) if len(self.val) else 0

    def row_ptr(self) -> np.ndarray:
        """Row r holds the entries ptr[r]:ptr[r + 1]."""
        ptr = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.row, minlength=self.rows), out=ptr[1:])
        return ptr

    def column_index(self):
        """(ptr, order), built once and shared: column c holds the entries
        order[ptr[c]:ptr[c + 1]], in row order."""
        if self._by_col is None:
            ptr = np.zeros(self.cols + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.col, minlength=self.cols), out=ptr[1:])
            self._by_col = (_frozen(ptr), _frozen(_stable_order(self.col)))
        return self._by_col

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        """self . other: each entry (i, k, a) of self meets every entry (k, j, b)
        of other's row k, and the products a * b are summed per (i, j)."""
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.is_zero or other.is_zero:
            return IntMatrix(self.rows, other.cols)
        bound = self._max_abs() * other._max_abs() * self.cols
        if bound > INT64_MAX:
            raise LinAlgError(f"product entries are bounded only by {bound}, outside int64")
        _check_positions(self.rows, other.cols)
        ptr = other.row_ptr()
        key, val = _product_entries(0, _segment_total(ptr, self.col), ptr, self.col, self.row,
                                    self.val, other.cols, other.col, other.val)
        return _summed(self.rows, other.cols, key, val)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col) and np.array_equal(self.val, other.val))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for a non-negative int64 key; keys
    under 2^16 take numpy's radix sort on uint16, twice as fast as
    ``_sort_by_key`` on 163,244 keys (2 cores, numpy 2.4)."""
    if len(key) and int(key.max()) < 1 << 16:
        return np.argsort(key.astype(np.uint16), kind="stable")
    order = np.arange(len(key))
    _sort_by_key(key.copy(), order)
    return order


def _sort_by_key(key: np.ndarray, val: np.ndarray) -> None:
    """Sort the non-negative int64 key in place, stably, and val along with
    it.  Where key * 2^b + position fits in int64, b the bits of a position,
    it sorts those values instead: a plain value sort, two to five times
    faster than a stable argsort from a few hundred keys on (2 cores, numpy
    2.4), and slower below.  The sorted keys come out of the packed values
    themselves and val is permuted a piece at a time, so the sort holds one
    array more than key and val."""
    n = len(key)
    shift = max(n - 1, 1).bit_length()
    if n < 256 or int(key.max()) >= 1 << (63 - shift):
        order = np.argsort(key, kind="stable")
        key[:], val[:] = np.take(key, order), np.take(val, order)
        return
    key <<= shift
    for start in range(0, n, CHUNK):
        key[start:start + CHUNK] |= np.arange(start, min(start + CHUNK, n))
    key.sort()
    sorted_val, low = np.empty_like(val), (1 << shift) - 1
    for start in range(0, n, CHUNK):
        part = key[start:start + CHUNK]
        sorted_val[start:start + CHUNK] = np.take(val, part & low)
        part >>= shift
    val[:] = sorted_val


def _check_positions(rows: int, cols: int) -> None:
    """Refuse a shape whose positions row * cols + col int64 cannot number."""
    if rows * cols > INT64_MAX:
        raise LinAlgError(f"shape {rows}x{cols} has more positions than int64 indexes")


def _segment_total(ptr: np.ndarray, lines: np.ndarray) -> int:
    """The number of entries in the segments ptr[l]:ptr[l + 1] of all lines."""
    return int((np.take(ptr, lines + 1) - np.take(ptr, lines)).sum())


def _product_entries(head: int, products: int, ptr, lines, row, weight, cols, b_col, b_val):
    """Key and value arrays of head + products slots for ``_summed``: the
    first head are left to the caller, then, for each i in turn, the products
    weight[i] * b_val[j] at positions row[i] * cols + b_col[j] for the places
    j in ptr[lines[i]]:ptr[lines[i] + 1], written a piece at a time."""
    key = np.empty(head + products, dtype=np.int64)
    val = np.empty(head + products, dtype=np.int64)
    done = head
    for start, stop, count, at in gathered(ptr, lines):
        part = slice(done, done + len(at))
        key[part] = np.repeat(row[start:stop] * cols, count)
        key[part] += np.take(b_col, at)
        val[part] = np.repeat(weight[start:stop], count)
        val[part] *= np.take(b_val, at)
        done += len(at)
    return key, val


def _summed(rows: int, cols: int, key: np.ndarray, val: np.ndarray,
            checked: bool = False) -> IntMatrix:
    """The canonical matrix with val[i] added at position key[i] = row * cols
    + col: duplicates summed, zeros dropped.  key and val are int64 scratch
    the call overwrites; the result shares no memory with them.  The sums
    wrap modulo 2^64, so they are exact whenever the true sum is within
    int64: the caller bounds it, or asks for ``checked``, which refuses the
    sum when max|val| times the most values at one position could leave
    int64."""
    n = len(val)
    if not n:
        return IntMatrix(rows, cols)
    _sort_by_key(key, val)
    starts = np.empty(n, dtype=bool)  # the first place of each run of one key
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    del starts
    if len(first) < n:
        if checked and (max(int(val.max()), -int(val.min()))
                        * int(np.diff(first, append=n).max()) > INT64_MAX):
            raise LinAlgError("summing duplicate triplets could leave int64")
        key[:len(first)] = np.take(key, first)
        val[:len(first)] = np.add.reduceat(val, first)
        key, val = key[:len(first)], val[:len(first)]
    del first
    keep = val != 0
    val, key = np.compress(keep, val), np.compress(keep, key)
    row = key // cols
    np.remainder(key, cols, out=key)
    return IntMatrix._canonical(rows, cols, row, key, val)


def _blocks(A: IntMatrix):
    """(row, col, val) arrays of each connected block of A's row-column graph,
    each in column-major order.  The eliminator meets its unit pivots in that
    order; row-major order took twice as long on the C4 d_{4,4} (n <= 4)."""
    if A.is_zero:
        return []
    block = components(A.rows + A.cols, A.row, A.rows + A.col)[A.row]
    order = np.lexsort((A.row, A.col, block))
    cuts = np.flatnonzero(np.diff(block[order])) + 1
    return [(A.row[idx], A.col[idx], A.val[idx]) for idx in np.split(order, cuts)]


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
# Measured on the 72 SNFs with a +-1 entry of the K(R) and bar complexes of
# C8 (n <= 3), S3 (n <= 3, p <= 2) and the battery windows, per nnz band,
# cutoffs 1 to 8192 and none, best of 5, two runs, 2 cores: under 512 nnz
# rounds took 22-26 ms on 52 SNFs against 8-12 ms; from 512 to 8192 every
# cutoff read 7-13 ms on 9 SNFs; above, 0.31-0.39 s on 11 against 1.9 s.
_ROUND_MIN_NNZ = 2048


# Peak bytes of one unit-pivot round per nonzero, Schur product and line
# (row or column) of its matrix, with margin: tracemalloc measures about 30
# on the rounds of 100,000 nonzeros or more of S3, D4, C2xC2 and A4, up to
# 46 on smaller ones, and 40 to 52 per nonzero for the pivot search alone.
BYTES_PER_ROUND_ENTRY = 64

# Candidates per piece of the unit-pivot search: on the searches of C2^3 and
# A4 (n <= 18), 1024 took 1.3 and 0.47 s, 256 1.8 and 0.68 s (2 cores).
_PIVOT_PIECE = 1024


def _unit_pivots(A: IntMatrix):
    """Row and column arrays of +-1 pivots (r_i, c_i) of A with
    A[r_i, c_j] = 0 for i != j, in the order the greedy pass takes them:
    the +-1 entries in increasing Markowitz cost (row count - 1) * (column
    count - 1), ties in (row, col) order, one at a time, where taking (r, c)
    blocks every row of column c and every column of row r.  Each piece of
    ``_PIVOT_PIECE`` candidates first drops, in one gather, those whose row
    or column is already blocked.  A search that would not fit
    ``BYTES_PER_ROUND_ENTRY`` per nonzero and line in
    ``_kernels.memory_budget()`` raises a LinAlgError before it allocates."""
    need = (A.nnz + A.rows + A.cols) * BYTES_PER_ROUND_ENTRY
    budget = _kernels.memory_budget()
    if need > budget:
        raise LinAlgError(
            f"unit-pivot search on {A.rows}x{A.cols} with {A.nnz} nonzeros needs about "
            f"{need / 2 ** 20:.1f} MiB ({BYTES_PER_ROUND_ENTRY} B per nonzero and line), "
            f"over the memory budget of {budget / 2 ** 20:.1f} MiB")
    unit = np.flatnonzero(np.abs(A.val) == 1)
    if not len(unit):
        return unit, unit
    row_count = np.bincount(A.row, minlength=A.rows)
    col_count = np.bincount(A.col, minlength=A.cols)
    cost = ((np.take(row_count, np.take(A.row, unit)) - 1)
            * (np.take(col_count, np.take(A.col, unit)) - 1))
    unit = np.take(unit, _stable_order(cost))
    del cost
    cand_row, cand_col = np.take(A.row, unit), np.take(A.col, unit)
    del unit
    # row r holds A.col[row_start[r]:row_start[r + 1]], column c row_of_col[col_start[c]:...]
    row_start = memoryview(np.concatenate(([0], np.cumsum(row_count))))
    col_start = memoryview(np.concatenate(([0], np.cumsum(col_count))))
    del row_count, col_count
    row_of_col = np.take(A.row, _stable_order(A.col))  # not column_index(), which A would keep
    row_blocked, col_blocked = np.zeros(A.rows, dtype=bool), np.zeros(A.cols, dtype=bool)
    row_done, col_done = memoryview(row_blocked), memoryview(col_blocked)
    taken = np.zeros(len(cand_row), dtype=bool)
    row_at, col_at, took = memoryview(cand_row), memoryview(cand_col), memoryview(taken)
    for start in range(0, len(cand_row), _PIVOT_PIECE):
        live = ~(np.take(row_blocked, cand_row[start:start + _PIVOT_PIECE])
                 | np.take(col_blocked, cand_col[start:start + _PIVOT_PIECE]))
        for i in (np.flatnonzero(live) + start).tolist():
            r, c = row_at[i], col_at[i]
            if row_done[r] or col_done[c]:
                continue
            took[i] = True
            row_blocked[row_of_col[col_start[c]:col_start[c + 1]]] = True
            col_blocked[A.col[row_start[r]:row_start[r + 1]]] = True
    return np.compress(taken, cand_row), np.compress(taken, cand_col)


def _unit_round(A: IntMatrix):
    """One elimination round on the pivots of ``_unit_pivots``:
    ``_schur``'s ``(prow, pcol, S)``, or None when A holds no +-1 entry."""
    prow, pcol = _unit_pivots(A)
    return _schur(A, prow, pcol) if len(prow) else None


def _check_matching(A: IntMatrix, prow: np.ndarray, pcol: np.ndarray) -> None:
    """Refuse, with a LinAlgError, pivots (prow, pcol) whose block
    A[prow, pcol] is not a signed identity: distinct rows, distinct
    columns, A[prow[i], pcol[i]] = +-1 and no other entry in the block."""
    k = len(prow)
    if k != len(pcol) or k and (min(prow.min(), pcol.min()) < 0 or prow.max() >= A.rows
                                or pcol.max() >= A.cols):
        raise LinAlgError(f"the {k} pivots given for {A.rows}x{A.cols} are not a unit matching")
    at_row = np.full(A.rows, -1, dtype=np.int32)
    at_row[prow] = np.arange(k, dtype=np.int32)
    at_col = np.full(A.cols, -1, dtype=np.int32)
    at_col[pcol] = np.arange(k, dtype=np.int32)
    i, j = np.take(at_row, A.row), np.take(at_col, A.col)
    block = (i >= 0) & (j >= 0)
    if (np.count_nonzero(at_row >= 0) != k or np.count_nonzero(at_col >= 0) != k
            or np.count_nonzero(block) != k or (np.compress(block, i) != np.compress(block, j)).any()
            or (np.abs(np.compress(block, A.val)) != 1).any()):
        raise LinAlgError(f"the {k} pivots given for {A.rows}x{A.cols} are not a unit matching")


def _schur(A: IntMatrix, prow: np.ndarray, pcol: np.ndarray):
    """``(prow, pcol, S)`` for pivots whose block D = A[prow, pcol] is a
    signed identity, or None.

    A is, up to row and column order, [[D, A12], [A21, A22]], so it is
    unimodularly equivalent to D (+) S with S = A22 - A21 D A12, as D is its
    own inverse.  S keeps A's shape, with the pivot rows and columns empty.
    None when an entry of S is not bounded below 2^63 by max|A22| + max|A21|
    * max|A12| * len(prow).

    A21 D A12 is summed from A's own arrays: entry (r, pcol[t], a) of A21
    meets every entry of row t of A12, the entries of A's row prow[t]
    outside the pivot columns.  The number of those products is known before
    any is formed, so a step that would not fit ``BYTES_PER_ROUND_ENTRY``
    per nonzero, product and line in ``_kernels.memory_budget()`` is refused
    with a LinAlgError; the others write A22's entries and the products, a piece
    at a time, into one key array and one value array for ``_summed``."""
    k = len(prow)
    is_prow = np.zeros(A.rows, dtype=bool)
    is_prow[prow] = True
    is_pcol = np.zeros(A.cols, dtype=bool)
    is_pcol[pcol] = True
    in_prow, in_pcol = np.take(is_prow, A.row), np.take(is_pcol, A.col)
    in12, in21 = in_prow & ~in_pcol, in_pcol & ~in_prow
    pivot = in_prow & in_pcol
    in22 = ~(in_prow | in_pcol)
    del in_prow, in_pcol
    size = np.abs(A.val)
    m12, m21, m22 = (int(size.max(where=m, initial=0)) for m in (in12, in21, in22))
    del size
    if m22 + m21 * m12 * k > INT64_MAX:
        return None
    pivot_of_col = np.full(A.cols, -1, dtype=np.int64)
    pivot_of_col[pcol] = np.arange(k)
    d = np.zeros(k, dtype=np.int64)
    d[np.take(pivot_of_col, np.compress(pivot, A.col))] = np.compress(pivot, A.val)
    del pivot
    # A21 D: row, pivot and value -a * d[t] of each entry (r, pcol[t], a)
    row21 = np.compress(in21, A.row)
    t21 = np.take(pivot_of_col, np.compress(in21, A.col))
    val21 = np.compress(in21, A.val)
    val21 *= np.take(d, t21)
    np.negative(val21, out=val21)
    del in21, pivot_of_col, d
    # A12, row by row of A: the entries of the pivot rows outside the pivot columns
    ptr12 = np.zeros(A.rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.compress(in12, A.row), minlength=A.rows), out=ptr12[1:])
    col12, val12 = np.compress(in12, A.col), np.compress(in12, A.val)
    del in12
    lines = np.take(prow, t21)
    del t21
    n22 = int(np.count_nonzero(in22))
    products = _segment_total(ptr12, lines)
    need = (A.nnz + products + A.rows + A.cols) * BYTES_PER_ROUND_ENTRY
    budget = _kernels.memory_budget()
    if need > budget:
        raise LinAlgError(
            f"Schur round on {A.rows}x{A.cols} with {A.nnz} nonzeros and {products} "
            f"products needs about {need / 2 ** 20:.1f} MiB ({BYTES_PER_ROUND_ENTRY} B per "
            f"nonzero, product and line), over the memory budget of {budget / 2 ** 20:.1f} MiB")
    key, val = _product_entries(n22, products, ptr12, lines, row21, val21, A.cols, col12, val12)
    del row21, val21, col12, val12, lines, ptr12
    np.compress(in22, A.row, out=key[:n22])
    key[:n22] *= A.cols
    key[:n22] += np.compress(in22, A.col)
    np.compress(in22, A.val, out=val[:n22])
    del in22
    return prow, pcol, _summed(A.rows, A.cols, key, val)


def _entry_hash(row: np.ndarray, val: np.ndarray) -> np.ndarray:
    """A uint64 mix of each entry's row and value; a column's hash in
    ``_distinct_columns`` is the wrapping sum over its entries."""
    h = row.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= val.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    h ^= h >> np.uint64(31)
    h *= np.uint64(0x94D049BB133111EB)
    return h


def _distinct_columns(A: IntMatrix) -> IntMatrix:
    """A with every column that equals an earlier column up to sign emptied:
    the unimodular column operation c -= +-c' leaves the Smith form as it is.

    The entries are read in column-major order with each column's sign
    normalized (first entry positive), and columns of equal hash and length
    are compared entry by entry with the least of them; only an exact match
    is emptied, so a hash collision costs a missed duplicate, never a wrong
    one.  The step holds three int64 arrays of A's length at most."""
    ptr = np.zeros(A.cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(A.col, minlength=A.cols), out=ptr[1:])
    lines = np.flatnonzero(ptr[1:] > ptr[:-1])
    if len(lines) < 2:
        return A
    order = _stable_order(A.col)
    row, val = np.take(A.row, order), np.take(A.val, order)
    del order
    start = np.take(ptr, lines)
    length = np.take(ptr, lines + 1) - start
    val *= np.repeat(np.sign(np.take(val, start)), length)
    code = np.add.reduceat(_entry_hash(row, val), start)
    code += length.astype(np.uint64) * np.uint64(0xD6E8FEB86659FD93)
    # hashes with the low bits replaced by the column's place, so a plain
    # sort puts equal hashes together, least column first
    shift = np.uint64(max(len(lines) - 1, 1).bit_length())
    code >>= shift
    code <<= shift
    code |= np.arange(len(lines), dtype=np.uint64)
    code.sort()
    by = (code & ((np.uint64(1) << shift) - np.uint64(1))).astype(np.int64)
    code >>= shift
    same = code[1:] == code[:-1]
    del code
    if not same.any():
        return A
    # each column against the least column of its run of equal hashes
    head = np.maximum.accumulate(np.where(np.concatenate(([True], ~same)), np.arange(len(by)), 0))
    dup = np.flatnonzero(same) + 1
    cand, first = np.take(by, dup), np.take(by, np.take(head, dup))
    del head, dup, by, same
    alike = np.take(length, cand) == np.take(length, first)
    cand, first = np.take(lines, np.compress(alike, cand)), np.take(lines, np.compress(alike, first))
    equal = np.empty(len(cand), dtype=bool)
    for (start, stop, count, at), (_, _, _, at0) in zip(gathered(ptr, cand), gathered(ptr, first)):
        differ = np.take(row, at) != np.take(row, at0)
        differ |= np.take(val, at) != np.take(val, at0)
        equal[start:stop] = ~np.logical_or.reduceat(differ, np.cumsum(count) - count)
    gone = np.zeros(A.cols, dtype=bool)
    gone[np.compress(equal, cand)] = True
    keep = ~np.take(gone, A.col)
    return IntMatrix._canonical(A.rows, A.cols, np.compress(keep, A.row),
                                np.compress(keep, A.col), np.compress(keep, A.val))


def smith_normal_form(A: IntMatrix, matching=None) -> SmithForm:
    """Invariant factors of A, computed once per matrix and kept on it.

    ``matching``, when given, is called (only if no form is kept yet) for
    pivots (prow, pcol) that A's construction makes a signed identity, such
    as ``kcomplex.unit_matching``; ``_check_matching`` refuses them with a
    LinAlgError otherwise, and one ``_schur`` step eliminates them before
    any pivot search.  After that step and after every round,
    ``_distinct_columns`` empties the duplicate columns.

    While A holds at least ``_ROUND_MIN_NNZ`` nonzeros, ``_unit_round`` splits
    off the signed identity that one greedy Markowitz pass picks
    (``_unit_pivots``) and leaves its Schur complement; each round's pivots
    are factors 1.  The rounds stop when a round is refused, when the matrix
    falls below the cutoff, or when two rounds in a row grow its nonzeros:
    those two are undone.  A single growing round is kept, because on K(R)
    differentials the first round often grows the matrix and the next ones
    clear it (C2xC2 d_{4,4}: 238,560 -> 281,162 -> 264,908 -> 144,900 nnz).
    What is left is eliminated over Python integers: as one block in
    column-major order when it is under the cutoff and holds a +-1 entry,
    else each block of ``_blocks`` on its own.  The diagonals of the rounds
    and the blocks together are a diagonal form of A, so the factors are
    those of the whole matrix.

    The eliminator scans all of its entries for each pivot without a unit,
    so a residual with no +-1 entry is split whatever its size (128
    unit-free 3x3 blocks: 0.027 s as one block, 0.005 s split), and so is
    one at or above the cutoff, which the rounds could not shrink (no unit
    pivot, a refused round, or growth): 512 unit-free 3x3 blocks took 0.55 s
    as one block and 0.02 s split.  Below the cutoff, with a unit, the
    split's graph set-up costs more than it saves: on every SNF of the
    eleven reference windows, one block was as fast or faster in each band
    from 64 to 2048 nonzeros.  A pivot search or Schur step that would not
    fit the memory budget raises a LinAlgError (see ``_unit_pivots`` and
    ``_schur``)."""
    if A._snf is None:
        units, rest = 0, A
        if matching is not None:
            prow, pcol = matching()
            _check_matching(A, prow, pcol)
            step = _schur(A, prow, pcol) if len(prow) else None
            if step is not None:
                units, rest = len(prow), _distinct_columns(step[2])
        before_growth = None  # (units, matrix) ahead of a round that grew the matrix
        while rest.nnz >= _ROUND_MIN_NNZ:
            step = _unit_round(rest)
            if step is None:
                break
            prow, _, S = step
            S = _distinct_columns(S)
            if S.nnz > rest.nnz:
                if before_growth:  # the second growing round in a row: undo both
                    units, rest = before_growth
                    break
                before_growth = (units, rest)
            else:
                before_growth = None
            units, rest = units + len(prow), S
        if rest.nnz < _ROUND_MIN_NNZ and (np.abs(rest.val) == 1).any():
            order = np.lexsort((rest.row, rest.col))
            blocks = [(rest.row[order], rest.col[order], rest.val[order])]
        else:
            blocks = _blocks(rest)
        diag = [1] * units
        for block in blocks:
            diag += _snf_diagonal_sparse(*block)
        A._snf = SmithForm(factors=_normalize_factors(diag))
    return A._snf


def chain_homology(d_out: IntMatrix, d_in: IntMatrix, match_out=None,
                   match_in=None) -> HomologyGroup:
    """Structure of ker(d_out)/im(d_in) for a two-step chain spot C2 -> C1 -> C0.
    d_out d_in = 0 is checked before either is eliminated, once per pair of
    objects, as spots share differentials: d_out keeps each d_in it passed
    with.  The matchings go to ``smith_normal_form``."""
    if d_out.cols != d_in.rows:
        raise LinAlgError(
            f"chain dimension mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows")
    if not any(d is d_in for d in d_out._zero_after):
        composite = d_out.matmul(d_in)
        if not composite.is_zero:
            r, c, v = int(composite.row[0]), int(composite.col[0]), int(composite.val[0])
            raise LinAlgError(f"d_out . d_in != 0: entry ({r},{c}) = {v}")
        d_out._zero_after.append(d_in)
    snf_in = smith_normal_form(d_in, match_in)
    free = d_in.rows - smith_normal_form(d_out, match_out).rank - snf_in.rank
    if free < 0:
        raise LinAlgError("negative free rank; input is not a chain spot")
    return HomologyGroup(free_rank=free, torsion=snf_in.torsion)
