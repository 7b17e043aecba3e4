"""Element-at-a-time references for the group layer and the bar complex.

``stabring.groups`` closes subgroups as boolean membership masks, restricts
Cayley tables by one gather and enumerates subgroups a round of candidates at
a time; ``stabring.oracle.bar_differentials`` builds d2 and d3 from broadcast
index arrays.  These are the per-element loops they replaced, kept to
cross-check them on groups small enough to loop over.
"""

from __future__ import annotations

import numpy as np

from stabring.groups import FiniteGroup, Subgroup, _validate
from stabring.zlinalg import IntMatrix


def subgroup_closure(G: FiniteGroup, gens) -> frozenset:
    """Subgroup generated by gens, as a frozenset of element indices."""
    seen = {G.identity}
    frontier = list(set(gens) - seen)
    seen.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                for c in (int(G.table[a, b]), int(G.table[b, a])):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def restrict(G: FiniteGroup, elems: tuple) -> FiniteGroup:
    """The Cayley table of a subgroup on its elements re-indexed 0..|H|-1."""
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = index[int(G.table[a, b])]
    return _validate(table, f"{G.name}|{{{','.join(map(str, elems))}}}")


def enumerate_subgroups(G: FiniteGroup) -> tuple:
    """All subgroups ordered by order and then elements, grown one closure
    ``subgroup_closure(H + g)`` at a time."""
    found = {frozenset({G.identity})}
    frontier = [frozenset({G.identity})]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(G.order):
                if g in H:
                    continue
                K = subgroup_closure(G, set(H) | {g})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    subs = []
    for H in sorted(found, key=lambda s: (len(s), tuple(sorted(s)))):
        elems = tuple(sorted(H))
        subs.append(Subgroup(elements=elems, group=restrict(G, elems)))
    return tuple(subs)


def bar_differentials(G: FiniteGroup):
    """Normalized bar d2 and d3, one bracket at a time through an index map
    of the nonidentity elements."""
    elems = [g for g in range(G.order) if g != G.identity]
    idx = {g: i for i, g in enumerate(elems)}
    m = len(elems)
    t2, t3 = [], []  # (row, col, sign) triplets of d2 and d3

    def mul(a, b):
        return int(G.table[a, b])

    def c1(g):
        return None if g == G.identity else idx[g]

    def c2(g, h):
        if g == G.identity or h == G.identity:
            return None
        return idx[g] * m + idx[h]

    for g in elems:
        for h in elems:
            col = idx[g] * m + idx[h]
            for sign, row in ((1, c1(h)), (-1, c1(mul(g, h))), (1, c1(g))):
                if row is not None:
                    t2.append((row, col, sign))
    for g in elems:
        for h in elems:
            for k in elems:
                col = (idx[g] * m + idx[h]) * m + idx[k]
                terms = ((1, c2(h, k)), (-1, c2(mul(g, h), k)),
                         (1, c2(g, mul(h, k))), (-1, c2(g, h)))
                for sign, row in terms:
                    if row is not None:
                        t3.append((row, col, sign))
    return (IntMatrix.from_triplets(m, m * m, *np.array(t2, dtype=np.int64).reshape(-1, 3).T),
            IntMatrix.from_triplets(m * m, m ** 3, *np.array(t3, dtype=np.int64).reshape(-1, 3).T))
