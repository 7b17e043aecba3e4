"""Finite groups as validated Cayley tables over dense 0-based element indices.

All arithmetic is gathers on ``FiniteGroup.table``.  Subgroups are boolean
membership masks closed by one routine, ``_closure``, which both
``generated_subgroups`` and ``enumerate_subgroups`` call."""

from __future__ import annotations

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

    def commutator(self, x, y):
        """[x, y] := x y x^-1 y^-1, elementwise on integer arrays."""
        t = self.table
        return t[t[t[x, y], self.inverse[x]], self.inverse[y]]

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def hash(self) -> str:
        h = _kernels.sha256()
        h.update(str(self.order).encode())
        h.update(self.table.astype(np.int64).tobytes())
        return h.hexdigest()

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
    # a's inverse is the one b with a b = e, and then b a = e too
    is_identity = table == 0
    inverse = is_identity.argmax(1)
    bad = (is_identity.sum(1) != 1) | (table[inverse, np.arange(order)] != 0)
    if bad.any():
        raise GroupError(f"element {int(np.flatnonzero(bad)[0])} has no two-sided inverse")
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
    perms = np.array(sorted(seen), dtype=np.int64)  # identity is the lexicographic minimum
    n = len(perms)
    # product[i, j] is p_i then p_j, point k going to p_j[p_i[k]]; its rows
    # are the group again, so np.unique's sorted rows are perms and its
    # inverse indexes them
    product = perms[np.arange(n)[None, :, None], perms[:, None, :]]
    table = np.unique(product.reshape(n * n, degree), axis=0, return_inverse=True)[1]
    return _validate(table.reshape(n, n), f"Perm{n}")


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


def _closure(G: FiniteGroup, mask: np.ndarray) -> np.ndarray:
    """Close each row of a (k, |G|) membership mask under products: each
    round adds every product a b of members, as c with a and a^-1 c both
    members, until nothing changes.  Rows must contain the identity."""
    # ldiv[c, a] = a^-1 c, so the reduction over a runs along contiguous memory
    ldiv = G.table[G.inverse[None, :], np.arange(G.order)[:, None]]
    while True:
        grown = (mask[:, None, :] & mask[:, ldiv]).any(2)
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def generated_subgroups(G: FiniteGroup, entries) -> np.ndarray:
    """Membership masks of the subgroups generated by the rows of ``entries``,
    shape (k, l): out[s, c] says whether c lies in the subgroup of row s."""
    entries = np.asarray(entries, dtype=np.int64)
    mask = np.zeros((len(entries), G.order), dtype=bool)
    mask[:, G.identity] = True
    mask[np.arange(len(entries))[:, None], entries] = True
    return _closure(G, mask)


@dataclass(frozen=True)
class Subgroup:
    elements: tuple
    group: FiniteGroup  # the restricted group on re-indexed elements


def _restrict(G: FiniteGroup, elems: tuple) -> FiniteGroup:
    index = np.zeros(G.order, dtype=np.int64)
    index[list(elems)] = np.arange(len(elems))
    return _validate(index[G.table[np.ix_(elems, elems)]],
                     f"{G.name}|{{{','.join(map(str, elems))}}}")


def enumerate_subgroups(G: FiniteGroup) -> tuple:
    """All subgroups as a tuple of ``Subgroup``, each tagged with its
    re-indexed Cayley table, ordered by order and then elements.

    Each round closes every H + g (g not in H) of the last round's new
    subgroups H in one ``_closure`` call, so every subgroup is reached.
    """
    if G.order > SUBGROUP_ORDER_CAP:
        raise GroupError(f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}, "
                         f"group has {G.order}")
    bits = np.int64(1) << np.arange(G.order, dtype=np.int64)  # mask codes; order <= 16
    frontier = np.zeros((1, G.order), dtype=bool)
    frontier[0, G.identity] = True
    found, codes = [frontier], frontier @ bits
    while len(frontier):
        rows, g = np.nonzero(~frontier)
        grown = frontier[rows]
        grown[np.arange(len(rows)), g] = True
        grown = _closure(G, grown)
        new, first = np.unique(grown @ bits, return_index=True)
        fresh = ~_kernels.member(new, codes)
        frontier, codes = grown[first[fresh]], np.concatenate([codes, new[fresh]])
        found.append(frontier)
    subsets = (tuple(np.flatnonzero(m).tolist()) for m in np.concatenate(found))
    return tuple(Subgroup(elements=elems, group=_restrict(G, elems))
                 for elems in sorted(subsets, key=lambda s: (len(s), s)))
