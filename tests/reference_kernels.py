"""Test-only references for the orbit kernel in ``stabring._kernels``.

* ``csgraph_move_parents`` / ``csgraph_transvection_parents``: the
  all-images path the kernel replaced.  It materializes every map's image
  over int64 digits, stacks them into one COO edge list and runs a single
  ``connected_components`` on it.  Memory grows with maps x states.
* ``bfs_move_parents`` / ``bfs_transvection_parents``: brute force, one
  state at a time in Python.  Move images come from ``words.apply_images``
  on the generators, evaluated in the Cayley table; transvection images come
  from the integer matrix ``transvection_matrix``.  Keep these to a few
  thousand states.

The transvection references compute x -> x + <x, v> v directly, not from
``oracle.transvection_images``, so they cross-check the words the kernel is
given as well as the kernel.

These functions return the parent array, the minimum rank of each state's
orbit, like the kernel.

* ``kernel_tables`` / ``kernel_product``: the ring the full-state kernel
  gives, which the local construction of ``stabring.ring`` replaced above
  degree 2.  ``kernel_product`` gathers the class of rep_i ++ rep_j from the
  degree m + n orbit table at its rank.
* ``csgraph_least_nodes``: scipy's ``connected_components`` as least-node
  labels, the reference for ``_kernels.components``.
* ``encode_tuple``, ``class_of`` and ``n_states``: lookups of a tuple's rank
  and orbit in a full-state ``OrbitTable``.  The library folds handle classes
  through the ring's step tables instead (``GradedRing.class_index``).
* ``evaluate_tuple``, ``class_index_tuple`` and ``boundary_eval_tuple``: one
  G-tuple at a time with ``G.mul``, the references for the array forms
  ``MarkedAutomorphism.evaluate``, ``GradedRing.class_index`` and
  ``words.boundary_eval``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from stabring.oracle import transvection_matrix
from stabring.orbits import OrbitError, decode_tuple, enumerate_orbits
from stabring.ring import RingError
from stabring.words import apply_images, compile_moves


def encode_tuple(entries, order: int) -> int:
    """Mixed-radix rank, entries[0] most significant; all-identity maps to 0."""
    rank = 0
    for e in entries:
        if not 0 <= e < order:
            raise OrbitError(f"entry {e} out of range for order {order}")
        rank = rank * order + e
    return rank


def class_of(table, entries) -> int:
    """The orbit id of a tuple in a full-state orbit table."""
    if len(entries) != 2 * table.n:
        raise OrbitError(f"tuple of length {len(entries)}, expected 2n = {2 * table.n}")
    return int(table.orbit_id[encode_tuple(entries, table.order)])


def n_states(table) -> int:
    return len(table.orbit_id)


def _decode_all(two_n: int, order: int, n_states: int) -> np.ndarray:
    digits = np.empty((two_n, n_states), dtype=np.int64)
    x = np.arange(n_states, dtype=np.int64)
    for i in range(two_n - 1, -1, -1):
        digits[i] = x % order
        x //= order
    return digits


def _move_image(table, inv, digits, order, images) -> np.ndarray:
    two_n, n_states = digits.shape
    out = np.zeros(n_states, dtype=np.int64)
    for word in images:
        acc = np.zeros(n_states, dtype=np.int64)
        for l in word:
            col = digits[l - 1] if l > 0 else inv[digits[-l - 1]]
            acc = table[acc, col]
        out = out * order + acc
    return out


def _transvection_image(table, inv, digits, order, vec) -> np.ndarray:
    two_n, n_states = digits.shape
    s = np.zeros(n_states, dtype=np.int64)
    for i in range(0, two_n, 2):
        if vec[i + 1]:
            s = table[s, digits[i]]
        if vec[i]:
            s = table[s, inv[digits[i + 1]]]
    out = np.zeros(n_states, dtype=np.int64)
    for j in range(two_n):
        col = table[digits[j], s] if vec[j] else digits[j]
        out = out * order + col
    return out


def csgraph_least_nodes(n_nodes: int, src, dst) -> np.ndarray:
    """The least node of each node's component in the undirected graph with
    edges (src[i], dst[i]), by scipy's ``connected_components``."""
    graph = coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)),
                       shape=(n_nodes, n_nodes))
    _, labels = connected_components(graph, directed=False)
    reps = np.full(int(labels.max()) + 1, n_nodes, dtype=np.int64)
    np.minimum.at(reps, labels, np.arange(n_nodes, dtype=np.int64))
    return reps[labels]


def _components_from_images(images: list, n_states: int) -> np.ndarray:
    ranks = np.arange(n_states, dtype=np.int64)
    if not images:
        return ranks
    return csgraph_least_nodes(n_states, np.concatenate([ranks] * len(images)),
                               np.concatenate(images))


def csgraph_move_parents(G, n: int, moves) -> np.ndarray:
    two_n, n_states = 2 * n, G.order ** (2 * n)
    digits = _decode_all(two_n, G.order, n_states)
    images = [_move_image(G.table, G.inverse, digits, G.order, m.images) for m in moves]
    return _components_from_images(images, n_states)


def csgraph_transvection_parents(G, n: int, vecs) -> np.ndarray:
    two_n, n_states = 2 * n, G.order ** (2 * n)
    digits = _decode_all(two_n, G.order, n_states)
    images = [_transvection_image(G.table, G.inverse, digits, G.order, v) for v in vecs]
    return _components_from_images(images, n_states)


def _bfs_parents(n_states: int, maps) -> np.ndarray:
    """Orbits of a family of permutations of [0, n_states), each map given as
    a function of a rank.  Forward closure from the smallest unvisited rank is
    the whole orbit, because each map permutes a finite set."""
    parent = np.full(n_states, -1, dtype=np.int64)
    for root in range(n_states):
        if parent[root] >= 0:
            continue
        parent[root] = root
        stack = [root]
        while stack:
            v = stack.pop()
            for f in maps:
                u = f(v)
                if parent[u] < 0:
                    parent[u] = root
                    stack.append(u)
    return parent


def _evaluate(G, word, entries) -> int:
    acc = G.identity
    for l in word:
        acc = int(G.table[acc, entries[l - 1] if l > 0 else G.inverse[entries[-l - 1]]])
    return acc


def evaluate_tuple(G, phi, entries) -> tuple:
    """The image of one G-tuple under the move phi, word by word."""
    return tuple(_evaluate(G, w, entries) for w in phi.images)


def boundary_eval_tuple(G, entries) -> int:
    """prod_i [a_i, b_i] of one G-tuple, one commutator at a time."""
    acc = G.identity
    for i in range(0, len(entries), 2):
        a, b = entries[i], entries[i + 1]
        comm = int(G.table[G.table[G.table[a, b], G.inverse[a]], G.inverse[b]])
        acc = int(G.table[acc, comm])
    return acc


def class_index_tuple(ring, n: int, entries) -> int:
    """The class of one G-tuple: its handle classes folded through
    product(k, 1) one handle at a time."""
    if len(entries) != 2 * n:
        raise RingError(f"tuple length {len(entries)} != 2n = {2 * n}")
    order = ring.G.order
    cls = 0
    for k in range(n):
        a, b = entries[2 * k], entries[2 * k + 1]
        if not (0 <= a < order and 0 <= b < order):
            raise RingError(f"entry out of range for order {order} in {tuple(entries)}")
        cls = int(ring.steps[k][cls, ring.pair_class[a * order + b]])
    return cls


def bfs_move_parents(G, n: int, automorphisms) -> np.ndarray:
    """``automorphisms`` are ``MarkedAutomorphism``s; each state's image under
    phi evaluates phi's image of every generator on the state."""
    two_n = 2 * n

    def as_map(phi):
        words = [apply_images(phi.images, (k,)) for k in range(1, two_n + 1)]

        def f(rank):
            entries = decode_tuple(rank, G.order, two_n)
            return encode_tuple([_evaluate(G, w, entries) for w in words], G.order)
        return f

    return _bfs_parents(G.order ** two_n, [as_map(phi) for phi in automorphisms])


def bfs_transvection_parents(G, n: int, vecs) -> np.ndarray:
    """For abelian G: x_j -> prod_k x_k^(M[j, k]) with M the transvection matrix."""
    two_n = 2 * n

    def power(g, e):
        if e < 0:
            g, e = int(G.inverse[g]), -e
        acc = G.identity
        for _ in range(e):
            acc = int(G.table[acc, g])
        return acc

    def as_map(vec):
        M = transvection_matrix(vec)

        def f(rank):
            entries = decode_tuple(rank, G.order, two_n)
            out = []
            for j in range(two_n):
                acc = G.identity
                for k in range(two_n):
                    acc = int(G.table[acc, power(entries[k], int(M[j, k]))])
                out.append(acc)
            return encode_tuple(out, G.order)
        return f

    return _bfs_parents(G.order ** two_n, [as_map(v) for v in vecs])


def kernel_tables(G, n_max: int) -> list:
    """Full-state orbit tables of degrees 0..n_max."""
    return [enumerate_orbits(G, n, compile_moves(n, G) if n else ()) for n in range(n_max + 1)]


def kernel_product(G, tables, m: int, n: int) -> np.ndarray:
    """Class of rep_i ++ rep_j for every pair of kernel classes of degrees m, n."""
    shift = np.uint64(G.order ** (2 * n))
    ranks = tables[m].reps[:, None] * shift + tables[n].reps[None, :]
    return tables[m + n].orbit_id[ranks].astype(np.int64)
