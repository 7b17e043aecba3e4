"""The residual eliminator of ``zlinalg.smith_normal_form``: a diagonal form
of a block of triplets over Python integers, so entries may grow without
overflow, and the fold of a diagonal into invariant factors.

The eliminator prefers +-1 pivots with a Markowitz-style fill tie-break, and
falls back to minimal-absolute-value pivoting on the residual core.  It is a
module of its own so that no module of the library is long to compile.
Compiling is no longer what sets a run's peak memory: ``import stabring``
reaches the same RSS with and without cached bytecode, and a run ends above
it (C8, n <= 3, p = 0: 30.2 and 32.6 MB on Python 3.11 and numpy 2.4).
"""

from __future__ import annotations

from collections import Counter, deque
from math import gcd

import numpy as np


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
