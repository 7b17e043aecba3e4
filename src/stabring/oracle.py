"""Independent oracles: bar-complex group homology, stable orbit-count
prediction, and symplectic transvection orbits for abelian groups.

The bar differentials are built from broadcast index arrays over the Cayley
table.  One pass, ``subgroup_bar_homology``, computes the bar homology of every
subgroup once; G's own H1 and H2 and the stable-count sum both read it."""

from __future__ import annotations

import numpy as np

from . import _kernels
from .groups import SUBGROUP_ORDER_CAP, FiniteGroup, enumerate_subgroups
from .orbits import local_steps, step_table
from .zlinalg import IntMatrix, LinAlgError, chain_homology


class OracleError(ValueError):
    """Raised on the bar-complex order cap, memory-budget violations, or
    non-abelian input to the symplectic oracle."""


def bar_differentials(G: FiniteGroup):
    """Normalized bar differentials d2: C2 -> C1 and d3: C3 -> C2.

    d2[g|h] = [h] - [gh] + [g];  d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h];
    brackets containing the identity are zero.  The identity is element 0,
    so [x1|...|xp] has index sum_i (x_i - 1) m^(p-i) with m = |G| - 1.
    """
    m, t = G.order - 1, G.table

    def bar(*xs):  # index of [x1|...|xp], -1 where some x_i is the identity
        index = np.zeros_like(xs[0])
        for x in xs:
            index = index * m + x - 1
        return np.where(np.logical_and.reduce([x != 0 for x in xs]), index, -1)

    def boundary(n_rows, terms):  # terms: (sign, row index per column)
        rows = np.concatenate([r for _, r in terms])
        n_cols = len(terms[0][1])
        cols = np.tile(np.arange(n_cols), len(terms))
        signs = np.repeat([s for s, _ in terms], n_cols)
        keep = rows >= 0
        return IntMatrix.from_triplets(n_rows, n_cols, rows[keep], cols[keep], signs[keep])

    g, h = np.indices((m, m)).reshape(2, -1) + 1
    d2 = boundary(m, [(1, bar(h)), (-1, bar(t[g, h])), (1, bar(g))])
    g, h, k = np.indices((m, m, m)).reshape(3, -1) + 1
    d3 = boundary(m * m, [(1, bar(h, k)), (-1, bar(t[g, h], k)),
                          (1, bar(g, t[h, k])), (-1, bar(g, h))])
    return d2, d3


def _check_bar_order(G: FiniteGroup) -> None:
    if G.order > SUBGROUP_ORDER_CAP:
        raise OracleError(f"bar complex capped at order {SUBGROUP_ORDER_CAP}, "
                          f"group has {G.order}")


def bar_homology(G: FiniteGroup) -> dict:
    """H1 and H2 of G with integer coefficients, from the normalized bar complex.

    Orders above ``groups.SUBGROUP_ORDER_CAP`` are refused, the cap at which
    ``enumerate_subgroups`` stops too; d3 has (|G| - 1)^3 columns.  The bar
    complex is not K(R), so no identity of R's tables certifies d2 d3 = 0
    here: the product is multiplied out, and a nonzero entry raises a
    LinAlgError before any Smith form."""
    _check_bar_order(G)
    d2, d3 = bar_differentials(G)
    composite = d2.matmul(d3)
    if not composite.is_zero:
        r, c, v = (int(a[0]) for a in (composite.row, composite.col, composite.val))
        raise LinAlgError(f"bar d2 . d3 != 0: entry ({r},{c}) = {v}")
    m = G.order - 1
    h1 = chain_homology(IntMatrix(0, m), d2)
    h2 = chain_homology(d2, d3)
    return {"H1": h1, "H2": h2}


def abelianization_invariants(G: FiniteGroup) -> tuple:
    """Invariant factors (> 1) of G/[G,G], straight from the Cayley table."""
    n = G.order
    # column a * n + b is the relation [a] + [b] - [ab]
    a, b = np.divmod(np.arange(n * n), n)
    rel = IntMatrix.from_triplets(n, n * n, np.concatenate([a, b, G.table[a, b]]),
                                  np.tile(np.arange(n * n), 3), np.repeat([1, 1, -1], n * n))
    h = chain_homology(IntMatrix(0, n), rel)
    if h.free_rank:
        raise OracleError("abelianization of a finite group came out infinite")
    return h.torsion


def subgroup_bar_homology(G: FiniteGroup) -> tuple:
    """``bar_homology`` of every subgroup, in ``enumerate_subgroups`` order,
    so G's own is last.  Over the cap it refuses as ``bar_homology`` does."""
    _check_bar_order(G)
    return tuple(bar_homology(sub.group) for sub in enumerate_subgroups(G))


def subgroup_h2_sum(homology) -> int:
    """Sum of |H2(H, Z)| over the subgroups H of ``subgroup_bar_homology``.

    The image subgroup of a tuple is an orbit invariant, and tuples surjecting
    onto H contribute one stable class per element of H2(H).
    """
    total = 0
    for bh in homology:
        size = bh["H2"].order()
        if size is None:
            raise OracleError("H2 of a finite group came out infinite")
        total += size
    return total


def stable_count_prediction(G: FiniteGroup) -> int:
    """Sum over all subgroups H <= G of |H2(H, Z)|."""
    return subgroup_h2_sum(subgroup_bar_homology(G))


def _twist_vectors(n: int) -> np.ndarray:
    two_n = 2 * n
    eye = np.eye(two_n, dtype=np.int8)
    mixers = [eye[2 * i - 1] + eye[2 * i] for i in range(1, n)]  # b_i + a_{i+1}
    return np.array(list(eye) + mixers, dtype=np.int8).reshape(-1, two_n)


def transvection_vectors(n: int) -> np.ndarray:
    """The 3n - 1 rows e_j (j = 1..2n) and e_{b_i} + e_{a_{i+1}} (i = 1..n-1), as 0/1.

    A Dehn twist acts on H_1 of the surface as the transvection by its
    curve's class, and the mapping class group maps onto Sp(2n, Z)
    (Farb-Margalit, "A Primer on Mapping Class Groups", section 6.4).  So
    the transvections by the classes of the twist generators of
    ``words.enumerate_stabilizing_automorphisms`` generate Sp(2n, Z):
    e_{a_i} and e_{b_i} for T2_i and T1_i, and b_i - a_{i+1} for M_i.  Here
    M_i's class is replaced by b_i + a_{i+1}, so that every row stays 0/1.
    The two transvections are conjugate under -I on handle i+1, which maps
    b_i - a_{i+1} to b_i + a_{i+1}.  That map is symplectic, and it is the
    square of the quarter turn T_{a_{i+1}} T_{b_{i+1}} T_{a_{i+1}} of the
    handle, so it lies in the group the handle's own transvections generate.
    Both sets therefore generate the same group.

    The local orbit construction needs every row to be a row of degree 1 or
    2 placed on handle i or handles (i, i+1), zero elsewhere, and every row
    of degree 2 at every (i, i+1) to be present; ``OracleError`` otherwise.
    """
    vecs = _twist_vectors(n)
    placed = {k: {tuple(np.pad(row, (2 * i, 2 * (n - i - k)))) for row in _twist_vectors(k)
                  for i in range(n - k + 1)} for k in (1, 2)}
    have = {tuple(row) for row in vecs}
    if have - placed[1] - placed[2]:
        raise OracleError(f"a transvection of degree {n} is not local")
    if placed[2] - have:
        raise OracleError(f"the transvections of degree {n} miss a degree-2 one")
    return vecs


def transvection_images(v) -> tuple:
    """x -> x + <x, v> v for a 0/1 row v, as image words: letter j goes to
    j s when v_j = 1, with s = prod_i a_i^(v_{b_i}) b_i^(-v_{a_i}) over the
    handles in order, the form <x, v> written in G."""
    s = []
    for i in range(0, len(v), 2):
        s += [i + 1] * int(v[i + 1]) + [-(i + 2)] * int(v[i])
    return tuple((j + 1,) + tuple(s) * int(v[j]) for j in range(len(v)))


def symplectic_form(n: int) -> np.ndarray:
    """Block-diagonal J with [[0, 1], [-1, 0]] per handle pair."""
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    return J


def transvection_matrix(vec: np.ndarray) -> np.ndarray:
    """Integer matrix of x -> x + <x, v> v with the standard form."""
    n2 = len(vec)
    J = symplectic_form(n2 // 2)
    v = vec.astype(np.int64).reshape(n2, 1)
    return np.eye(n2, dtype=np.int64) + v @ (v.T @ J.T)


def preserves_form(M: np.ndarray) -> bool:
    J = symplectic_form(M.shape[0] // 2)
    return bool(np.array_equal(M.T @ J @ M, J))


def sp_orbit_counts(G: FiniteGroup, n_max: int) -> list:
    """Orbit counts of G^(2n), n = 0..n_max, under the transvections of
    ``transvection_vectors``.

    For abelian G every conjugator in the surface-move action is trivial, so
    the move action factors through the integral symplectic group and these
    counts are an independent prediction of the orbit-table counts.  Why those
    transvections generate Sp(2n, Z), sign of e_{b_i} + e_{a_{i+1}} included,
    is argued in ``transvection_vectors``.  The kernel partitions G^2 and G^4
    only; ``orbits.local_steps`` builds the higher degrees from them, which
    the locality of every transvection makes exact.
    """
    if not G.is_abelian:
        raise OracleError("symplectic oracle needs an abelian group")
    if n_max < 0:
        raise OracleError(f"symplectic oracle needs n_max >= 0, got {n_max}")
    for n in range(1, n_max + 1):
        for v in transvection_vectors(n):
            if not preserves_form(transvection_matrix(v)):
                raise OracleError(f"transvection for {v} does not preserve the form")
    classes = []
    for n in range(1, min(2, n_max) + 1):
        n_states = G.order ** (2 * n)
        shortfall = _kernels.memory_shortfall(n_states)
        if shortfall:
            raise OracleError(shortfall)
        parent = _kernels.word_orbit_parents(
            G.table, G.inverse, 2 * n, G.order,
            [transvection_images(v) for v in transvection_vectors(n)], n_states)
        classes.append(np.unique(parent, return_inverse=True)[1])
    if n_max < 2:
        return [1] + [int(c.max()) + 1 for c in classes]
    steps = local_steps(step_table(*classes), n_max)
    return [1] + [int(step.max()) + 1 for step in steps]


def sp_orbit_oracle(G: FiniteGroup, n: int) -> int:
    """The degree-n count of ``sp_orbit_counts``."""
    return sp_orbit_counts(G, n)[n]
