"""Exact sparse integer linear algebra: Smith normal form and chain homology.

``IntMatrix`` stores canonical int64 triplet arrays, and multiplies them
directly under an explicit overflow bound: every entry of the left factor is
expanded over a row of the right one, and the products are summed into
canonical form.

The Smith normal form runs in two stages.  While a matrix holds at least
``_ROUND_MIN_NNZ`` nonzeros, batched unit-pivot rounds split off a signed
identity D, chosen greedily among the +-1 entries in Markowitz order so that
A[r_i, c_j] = 0 for distinct pivots (found by rounds of local minima, which
pick what the greedy pass picks), and replace the matrix by its Schur
complement A22 - A21 D A12, one int64 sparse product (a depth-one acyclic
matching of algebraic Morse theory, after Skoldberg 2006).  A round whose
product could leave int64 is refused before it multiplies.  What the rounds
leave, if it still holds ``_ROUND_MIN_NNZ`` nonzeros or more, is split into
the connected components of its row-column graph; a smaller residual stays
one block.  Each block is eliminated over Python integers, so entries may
grow without overflow: that eliminator prefers +-1 pivots with a
Markowitz-style fill tie-break, and falls back to minimal-absolute-value
pivoting on the residual core.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from math import gcd

import numpy as np

from ._kernels import components, ragged_gather


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
    or ``from_dense``; ``IntMatrix(rows, cols)`` is the zero
    matrix.  Products are computed on these arrays in int64, refused before
    they start when an entry could leave int64.  The column index and the
    Smith form are computed on first use and kept.
    """

    __slots__ = ("rows", "cols", "row", "col", "val", "_by_col", "_snf")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise LinAlgError(f"negative shape {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row = self.col = self.val = _frozen(np.zeros(0, dtype=np.int64))
        self._by_col = None
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
        _check_positions(rows, cols)
        return _summed(rows, cols, row * cols + col, val, checked=True)

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
        count, at = ragged_gather(other.row_ptr(), self.col)
        return _summed(self.rows, other.cols,
                       np.repeat(self.row * other.cols, count) + np.take(other.col, at),
                       np.repeat(self.val, count) * np.take(other.val, at))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and np.array_equal(self.row, other.row)
                and np.array_equal(self.col, other.col) and np.array_equal(self.val, other.val))

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        lines += [f"{r} {c} {v}" for r, c, v in
                  zip(self.row.tolist(), self.col.tolist(), self.val.tolist())]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for a non-negative int64 key.  Where
    key * 2^b + position fits in int64, b the bits of a position, it sorts
    those values instead: a plain value sort, two to five times faster from
    a few hundred keys on (2 cores, numpy 2.4), and slower below."""
    shift = max(len(key) - 1, 1).bit_length()
    if len(key) < 256 or int(key.max()) >= 1 << (63 - shift):
        return np.argsort(key, kind="stable")
    return np.sort((key << shift) | np.arange(len(key))) & ((1 << shift) - 1)


def _check_positions(rows: int, cols: int) -> None:
    """Refuse a shape whose positions row * cols + col int64 cannot number."""
    if rows * cols > INT64_MAX:
        raise LinAlgError(f"shape {rows}x{cols} has more positions than int64 indexes")


def _summed(rows: int, cols: int, key, val, checked: bool = False) -> IntMatrix:
    """The canonical matrix with val[i] added at position key[i] = row * cols
    + col: duplicates summed, zeros dropped.  The sums wrap modulo 2^64, so
    they are exact whenever the true sum is within int64: the caller bounds
    it, or asks for ``checked``, which refuses the sum when max|val| times
    the most values at one position could leave int64."""
    if not len(val):
        return IntMatrix(rows, cols)
    order = _stable_order(key)
    key, val = np.take(key, order), np.take(val, order)
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))  # runs of one key
    if len(first) < len(val):
        if checked and (int(np.abs(val).max()) * int(np.diff(first, append=len(val)).max())
                        > INT64_MAX):
            raise LinAlgError("summing duplicate triplets could leave int64")
        key, val = np.take(key, first), np.add.reduceat(val, first)
    keep = val != 0
    key, val = np.compress(keep, key), np.compress(keep, val)
    return IntMatrix._canonical(rows, cols, key // cols, key % cols, val)


def _coprime_base(values) -> list:
    """Pairwise coprime integers > 1 of which every value is a product of
    powers: a value that shares a factor g with a base element b is split
    into g and value / g, and b into g and b / g, until none does."""
    base, todo = [], list(values)
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo += [b // g, g, x // g]
                break
        else:
            base.append(x)
    return base


def _normalize_factors(diag) -> tuple:
    """Fold a diagonal multiset into the d1 | d2 | ... divisibility chain.

    Over a coprime base of the distinct values, each value is a product of
    base powers; the largest invariant factor takes every base element to
    its largest exponent, the next one to the next largest, and so on."""
    factors = [abs(d) for d in diag if d]
    counts = Counter(f for f in factors if f != 1)
    chain = [1] * sum(counts.values())  # the non-unit entries' factors, ascending
    for b in _coprime_base(counts):
        exponents = []
        for value, count in counts.items():
            e = 0
            while value % b == 0:
                value, e = value // b, e + 1
            exponents += [e] * count
        exponents.sort()
        for i, e in enumerate(exponents):
            chain[i] *= b ** e
    return tuple([1] * (len(factors) - len(chain)) + chain)


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


def _segment_min(ptr: np.ndarray, lines: np.ndarray, values: np.ndarray,
                 through: np.ndarray | None = None) -> np.ndarray:
    """The least of values[ptr[l]:ptr[l + 1]] for each line l (none empty), or
    of values[through[ptr[l]:ptr[l + 1]]] when ``through`` is given."""
    count, at = ragged_gather(ptr, lines)
    if through is not None:
        at = np.take(through, at)
    return np.minimum.reduceat(np.take(values, at), np.cumsum(count) - count)


def _unit_pivots(A: IntMatrix):
    """Row and column arrays of +-1 pivots (r_i, c_i) of A with
    A[r_i, c_j] = 0 for i != j, in the order they are taken.

    The pivots are those of the greedy pass that takes the +-1 entries in
    increasing Markowitz cost (row count - 1) * (column count - 1), ties in
    (row, col) order, where taking (r, c) blocks every row of column c and
    every column of row r.  Two candidates (r, c) and (r', c') conflict when
    A[r', c] != 0 or A[r, c'] != 0, so greedy takes exactly the candidates
    that come first among the live candidates they conflict with, round by
    round (Blelloch, Fineman and Shun 2012): each round takes every such
    candidate at once, blocks their lines and drops the blocked candidates.

    Rows and columns are lines, and every nonzero is listed under each of
    its two lines, line l owning the places ptr[l]:ptr[l + 1].  A line's
    ``least`` is its first live candidate, so a candidate can win only when
    it is the least of its row and of its column, and then wins when no line
    crossing either holds an earlier one.  A round reads only the lines of
    those candidates, of the winners, of the lines the winners block and of
    the lines whose least candidate died, never all nonzeros: on the lemma
    battery's long chains of conflicts (C2^3 at n <= 18: hundreds of winners
    per round, 20 rounds) that keeps it level with the sequential loop, where
    rounds over all live nonzeros took twice as long.  np.take and
    np.compress do what fancy and mask indexing do, several times faster."""
    unit = np.flatnonzero(np.abs(A.val) == 1)
    if not len(unit):
        return unit, unit
    row_count = np.bincount(A.row, minlength=A.rows)
    col_count = np.bincount(A.col, minlength=A.cols)
    cost = (row_count[A.row[unit]] - 1) * (col_count[A.col[unit]] - 1)
    by_priority = unit[_stable_order(cost)]
    row_of, col_of = A.row[by_priority], A.col[by_priority] + A.rows
    n_lines, none = A.rows + A.cols, len(unit)  # none: the priority of no live candidate
    entry_priority = np.full(A.nnz, none, dtype=np.int64)
    entry_priority[by_priority] = np.arange(len(unit))
    by_col = _stable_order(A.col)  # not column_index(), which A would keep
    other = np.concatenate((A.col + A.rows, np.take(A.row, by_col)))
    priority = np.concatenate((entry_priority, np.take(entry_priority, by_col)))
    ptr = np.zeros(n_lines + 1, dtype=np.int64)
    np.cumsum(np.concatenate((row_count, col_count)), out=ptr[1:])
    col_place = np.empty(A.nnz, dtype=np.int64)
    col_place[by_col] = np.arange(A.nnz, 2 * A.nnz)
    row_place, col_place = by_priority, col_place[by_priority]  # each candidate's two places
    least = np.full(n_lines, none, dtype=np.int64)
    lines = np.flatnonzero(ptr[1:] > ptr[:-1])
    least[lines] = np.minimum.reduceat(priority, np.take(ptr, lines))
    died = np.zeros(none + 1, dtype=bool)
    # candidates least on both lines, looked up from the side with fewer lines
    side, far = ((np.arange(A.rows), col_of) if A.rows <= A.cols
                 else (np.arange(A.rows, n_lines), row_of))
    taken = []
    while True:
        first = np.take(least, side)
        first = np.compress(first < none, first)
        first = np.compress(np.take(least, np.take(far, first)) == first, first)
        if not len(first):
            break
        reach = _segment_min(ptr, np.concatenate((np.take(row_of, first), np.take(col_of, first))),
                             least, other)
        win = np.compress((reach[:len(first)] == first) & (reach[len(first):] == first), first)
        taken.append(win)
        _, at = ragged_gather(ptr, np.concatenate((np.take(row_of, win), np.take(col_of, win))))
        hit = np.zeros(n_lines, dtype=bool)
        hit[np.take(other, at)] = True
        blocked = np.flatnonzero(hit & (least < none))
        least[blocked] = none
        _, at = ragged_gather(ptr, blocked)
        dead = np.take(priority, at)
        dead = np.compress(dead < none, dead)
        died[dead] = True
        priority[np.take(row_place, dead)] = none
        priority[np.take(col_place, dead)] = none
        # the lines whose least candidate died look for the next one
        hurt = np.concatenate((np.take(row_of, dead), np.take(col_of, dead)))
        hurt = np.unique(np.compress(np.take(died, np.take(least, hurt)), hurt))
        if len(hurt):
            least[hurt] = _segment_min(ptr, hurt, priority)
    pivots = by_priority[np.sort(np.concatenate(taken))]
    return A.row[pivots], A.col[pivots]


def _unit_round(A: IntMatrix):
    """One batched elimination round: ``(prow, pcol, S)`` or None.

    With P the pivots of ``_unit_pivots``, A is, up to row and column order,
    [[D, A12], [A21, A22]] with D = A[prow, pcol] a signed identity.  So A is
    unimodularly equivalent to D (+) S with S = A22 - A21 D A12, as D is its
    own inverse.  S keeps A's shape, with the pivot rows and columns empty.  None
    when there is no +-1 entry, or when an entry of S is not bounded below
    2^63 by max|A22| + max|A21| * max|A12| * len(P).

    A21 D A12 is summed from A's own arrays: entry (r, pcol[t], a) of A21
    meets every entry of A's row prow[t] outside the pivot columns, which is
    row t of A12."""
    prow, pcol = _unit_pivots(A)
    k = len(prow)
    if not k:
        return None
    pivot_of_row = np.full(A.rows, -1, dtype=np.int64)
    pivot_of_row[prow] = np.arange(k)
    pivot_of_col = np.full(A.cols, -1, dtype=np.int64)
    pivot_of_col[pcol] = np.arange(k)
    i, j = np.take(pivot_of_row, A.row), np.take(pivot_of_col, A.col)
    in12, in21, in22 = (i >= 0) & (j < 0), (i < 0) & (j >= 0), (i < 0) & (j < 0)
    m12, m21, m22 = (int(np.abs(np.compress(m, A.val)).max()) if m.any() else 0
                     for m in (in12, in21, in22))
    if m22 + m21 * m12 * k > INT64_MAX:
        return None
    d = np.zeros(k, dtype=np.int64)
    pivot = (i >= 0) & (j >= 0)
    d[i[pivot]] = A.val[pivot]
    row21, t21, val21 = (np.compress(in21, x) for x in (A.row, j, A.val))
    count, at = ragged_gather(A.row_ptr(), prow[t21])
    col = np.take(A.col, at)
    keep = np.take(pivot_of_col, col) < 0
    key = np.concatenate((np.compress(in22, A.row * A.cols + A.col),
                          np.compress(keep, np.repeat(row21 * A.cols, count) + col)))
    val = np.concatenate((np.compress(in22, A.val),
                          np.compress(keep, np.repeat(-val21 * d[t21], count) * np.take(A.val, at))))
    return prow, pcol, _summed(A.rows, A.cols, key, val)


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Invariant factors of A, computed once per matrix and kept on it.

    While A holds at least ``_ROUND_MIN_NNZ`` nonzeros, ``_unit_round`` splits
    off a signed identity and leaves its Schur complement; each round's pivots
    are factors 1.  The rounds stop when a round is refused, when the matrix
    falls below the cutoff, or when two rounds in a row grow its nonzeros:
    those two are undone.  A single growing round is kept, because on K(R)
    differentials the first round often grows the matrix and the next ones
    clear it (C2xC2 d_{4,4}: 238,560 -> 281,162 -> 264,908 -> 144,900 nnz).
    What is left is eliminated over Python integers: under the cutoff as one
    block in column-major order, else each block of ``_blocks`` on its own.
    The diagonals of the rounds and the blocks together are a diagonal form
    of A, so the factors are those of the whole matrix.

    A residual at or above the cutoff is one the rounds could not shrink (no
    unit pivot, a refused round, or growth), and the eliminator scans all of
    its entries for each pivot without a unit, so it is split first: 512
    unit-free 3x3 blocks took 0.55 s as one block and 0.02 s split.  Below
    the cutoff the split's graph set-up costs more than it saves: on every
    SNF of the eleven reference windows, one block was as fast or faster in
    each band from 64 to 2048 nonzeros."""
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
        if rest.nnz < _ROUND_MIN_NNZ:
            order = np.lexsort((rest.row, rest.col))
            blocks = [(rest.row[order], rest.col[order], rest.val[order])]
        else:
            blocks = _blocks(rest)
        diag = [1] * units
        for block in blocks:
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
