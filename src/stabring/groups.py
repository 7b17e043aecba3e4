"""Finite groups as validated Cayley tables over dense 0-based element indices."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import _kernels


class GroupError(ValueError):
    """Raised when a group spec fails validation or does not fit in memory."""


# Peak bytes per triple (a, b, c) of the associativity check in ``_validate``,
# with margin: tracemalloc measures 17 (two int64 gathers and their comparison).
BYTES_PER_TRIPLE = 24
SUBGROUP_ORDER_CAP = 16


def max_order() -> int:
    """The largest order whose associativity check fits ``_kernels.memory_budget``."""
    triples = _kernels.memory_budget() // BYTES_PER_TRIPLE
    cap = round(triples ** (1 / 3))  # the cube root or one above it
    return cap if cap ** 3 <= triples else cap - 1


def _check_order(order: int, what: str = "group order") -> None:
    """Refuse an order over ``max_order`` before a table of that size exists."""
    cap = max_order()
    if order > cap:
        raise GroupError(f"{what} {order} is over {cap}, the largest order whose associativity "
                         f"check ({BYTES_PER_TRIPLE} B per triple) fits the memory budget of "
                         f"{_kernels.memory_budget() / 2 ** 20:.1f} MiB")


def _as_table(rows) -> np.ndarray:
    """A square array of element indices from a list of integer rows."""
    order = len(rows)
    if order == 0 or any(len(row) != order for row in rows):
        raise GroupError(f"Cayley table must be a nonempty square, got {order} rows "
                         f"of lengths {sorted({len(row) for row in rows})}")
    _check_order(order)
    table = np.array(rows, dtype=np.int64)
    if table.min() < 0 or table.max() >= order:
        raise GroupError("Cayley table entries must be element indices in [0, order)")
    return table


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group; element 0 is the identity, all arithmetic is table lookup.

    Instances are immutable after validation and safe to share across workers.
    """

    order: int
    table: np.ndarray
    inverse: np.ndarray
    name: str = "G"

    identity: int = 0

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] := x y x^-1 y^-1."""
        t = self.table
        return int(t[t[t[x, y], self.inverse[x]], self.inverse[y]])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def hash(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        h.update(self.table.astype(np.int64).tobytes())
        return h.hexdigest()

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _validate(table: np.ndarray, name: str) -> FiniteGroup:
    order = table.shape[0]
    if not (np.array_equal(table[0], np.arange(order)) and np.array_equal(table[:, 0], np.arange(order))):
        raise GroupError("element 0 must act as the identity")
    # associativity: table[table[a,b],c] == table[a,table[b,c]] for all triples
    left = table[table, :]
    right = table[:, table]
    if not np.array_equal(left, right):
        a, b, c = (int(i) for i in np.argwhere(left != right)[0])
        raise GroupError(f"table is not associative: ({a}*{b})*{c} != {a}*({b}*{c})")
    inverse = np.full(order, -1, dtype=np.int64)
    for a in range(order):
        hits = np.flatnonzero(table[a] == 0)
        if len(hits) != 1 or table[hits[0], a] != 0:
            raise GroupError(f"element {a} has no two-sided inverse")
        inverse[a] = hits[0]
    return FiniteGroup(order=order, table=table, inverse=inverse, name=name)


def cyclic_group(k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError("cyclic order must be >= 1")
    _check_order(k)
    idx = np.arange(k)
    return _validate((idx[:, None] + idx[None, :]) % k, f"C{k}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; index (a, b) packs to a * |G2| + b, so identity stays 0."""
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2)
    a1, b1 = np.divmod(np.arange(n1 * n2), n2)
    t1 = g1.table[np.ix_(a1, a1)]
    t2 = g2.table[np.ix_(b1, b1)]
    return _validate(t1 * n2 + t2, f"{g1.name}x{g2.name}")


def _perm_from_cycles(cycles, degree: int) -> tuple:
    img = list(range(degree))
    for cyc in cycles:
        pts = [p - 1 for p in cyc]
        if not pts or len(set(pts)) != len(pts) or min(pts) < 0 or max(pts) >= degree:
            raise GroupError(f"bad cycle {cyc} for degree {degree}")
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def perm_group(generators) -> FiniteGroup:
    """Close permutation generators (cycle notation on {1..m}) under products.

    The closure stops with ``GroupError`` once it outgrows ``max_order``."""
    degree = max((p for perm in generators for cyc in perm for p in cyc), default=1)
    gens = [_perm_from_cycles(cycs, degree) for cycs in generators]
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(degree))
                if q not in seen:
                    _check_order(len(seen) + 1, "permutation closure size")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elems = sorted(seen)  # identity is the lexicographic minimum
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(q[p[k]] for k in range(degree))]
    return _validate(table, f"Perm{n}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_group(spec: dict) -> FiniteGroup:
    """Build a validated group from a spec document.

    Kinds: "cayley" (row-major table), "cyclic" (order), "product" (factors),
    "perm" (generators as cycle lists on {1..m}).  A missing or malformed
    field raises GroupError naming it, and so does an order over ``max_order``,
    checked before the table is allocated.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise GroupError("group spec must be a mapping with a 'kind' field")
    kind = spec["kind"]

    def field(name):
        if name not in spec:
            raise GroupError(f"{kind!r} group spec has no {name!r} field")
        return spec[name]

    if kind == "cyclic":
        order = field("order")
        if not _is_int(order):
            raise GroupError(f"cyclic group 'order' must be an integer, got {order!r}")
        return cyclic_group(order)
    if kind == "product":
        specs = field("factors")
        if not isinstance(specs, list) or not specs:
            raise GroupError("product group 'factors' must be a nonempty list")
        factors = [load_group(f) for f in specs]
        g = factors[0]
        for h in factors[1:]:
            g = product_group(g, h)
        return g
    if kind == "perm":
        generators = field("generators")
        if not (isinstance(generators, list) and all(
                isinstance(perm, list) and all(
                    isinstance(cyc, list) and all(_is_int(p) for p in cyc) for cyc in perm)
                for perm in generators)):
            raise GroupError("perm group 'generators' must be lists of cycles of integer points")
        return perm_group(generators)
    if kind == "cayley":
        rows = field("table")
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(_is_int(x) for x in row) for row in rows)):
            raise GroupError("cayley group 'table' must be a list of rows of integers")
        return _validate(_as_table(rows), spec.get("name", f"Cayley{len(rows)}"))
    raise GroupError(f"unknown group spec kind {kind!r}")


def subgroup_closure(G: FiniteGroup, gens) -> frozenset:
    """Subgroup generated by gens, as a frozenset of element indices."""
    seen = {G.identity}
    frontier = list(set(gens) - seen)
    seen.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(seen):
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class Subgroup:
    elements: tuple
    group: FiniteGroup  # the restricted group on re-indexed elements


def _restrict(G: FiniteGroup, elems: tuple) -> FiniteGroup:
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = index[G.mul(a, b)]
    return _validate(table, f"{G.name}|{{{','.join(map(str, elems))}}}")


def enumerate_subgroups(G: FiniteGroup) -> tuple:
    """All subgroups as a tuple of ``Subgroup``, each tagged with its
    re-indexed Cayley table, ordered by order and then elements.

    Grows closures one generator at a time, so every subgroup is reached.
    """
    if G.order > SUBGROUP_ORDER_CAP:
        raise GroupError(f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}, "
                         f"group has {G.order}")
    found = {frozenset({G.identity})}
    frontier = [frozenset({G.identity})]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements():
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
        subs.append(Subgroup(elements=elems, group=_restrict(G, elems)))
    return tuple(subs)
