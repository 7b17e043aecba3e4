"""Orbit kernel: the partition of G^(2n) under a family of maps.

States are ranks in [0, order^(2n)), mixed radix with entry 0 most
significant.  ``labels[v]`` holds the minimum rank in v's class so far.  For
each map, the image of every state is computed at once, the classes it joins
are merged with one ``connected_components`` call on the graph whose edges
are the pairs ``(labels[v], labels[img[v]])`` that differ, and every label
moves to the minimum of its merged class.  One label array and one image are
alive at a time, so memory is O(states), not O(maps x states).

``move_orbit_parents`` takes its images from compiled moves (letter words
evaluated in the Cayley table), ``transvection_orbit_parents`` from
symplectic transvections; both return the min-rank labels.
``memory_shortfall`` estimates the peak before anything is allocated, so a
caller can refuse a state space this machine cannot hold instead of being
killed for it.
"""

from __future__ import annotations

import os
import resource

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Peak bytes per state of one kernel call, with margin: tracemalloc measures
# about 80 (C8 at n = 3, moves and transvections).
BYTES_PER_STATE = 128


def memory_budget() -> int:
    """Physical memory, or the soft address-space limit when that is lower."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        budget = min(budget, soft)
    return budget


def memory_shortfall(n_states: int) -> str | None:
    """Why a kernel call on n_states would not fit in memory, or None if it fits."""
    need = n_states * BYTES_PER_STATE
    budget = memory_budget()
    if need <= budget:
        return None
    return (f"orbit kernel on {n_states} states needs about {need / 2 ** 20:.1f} MiB "
            f"({BYTES_PER_STATE} B/state), over the memory budget of "
            f"{budget / 2 ** 20:.1f} MiB")


def _decode_all(two_n: int, order: int, n_states: int) -> np.ndarray:
    """Digits of every rank, row i = entry i, in the smallest unsigned dtype."""
    digits = np.empty((two_n, n_states), dtype=np.min_scalar_type(order - 1))
    x = np.arange(n_states, dtype=np.int64)
    for i in range(two_n - 1, -1, -1):
        digits[i] = x % order
        x //= order
    return digits


def _orbit_labels(n_states: int, n_maps: int, image) -> np.ndarray:
    """Min-rank labels of the classes joined by v ~ image(m)[v] over all m."""
    ranks = np.arange(n_states, dtype=np.int64)
    labels = ranks.copy()
    for m in range(n_maps):
        joined = labels[image(m)]
        diff = labels != joined
        graph = coo_matrix((np.ones(int(diff.sum()), dtype=np.int8),
                            (labels[diff], joined[diff])), shape=(n_states, n_states))
        del joined, diff
        n_comp, comp = connected_components(graph, directed=False)
        del graph
        comp_min = np.full(n_comp, n_states, dtype=np.int64)
        np.minimum.at(comp_min, comp, ranks)
        labels = comp_min[comp[labels]]
    return labels


def move_orbit_parents(table, inv, two_n, order, letters, lengths, n_states) -> np.ndarray:
    """Partition [0, n_states) under the compiled moves; parent = min rank in orbit."""
    digits = _decode_all(two_n, order, n_states)
    table = np.asarray(table, dtype=digits.dtype)
    inv_digits = np.asarray(inv, dtype=digits.dtype)[digits]

    def image(m):
        out = np.zeros(n_states, dtype=np.int64)
        for j in range(two_n):
            word = letters[m, j, :lengths[m, j]]
            cols = [digits[l - 1] if l > 0 else inv_digits[-l - 1] for l in word]
            acc = cols[0]
            for col in cols[1:]:
                acc = table[acc, col]
            out *= order
            out += acc
        return out

    return _orbit_labels(n_states, len(lengths), image)


def transvection_orbit_parents(table, inv, two_n, order, vecs, n_states) -> np.ndarray:
    """Partition [0, n_states) under x -> x + <x, v> v for each 0/1 row v of vecs."""
    digits = _decode_all(two_n, order, n_states)
    table = np.asarray(table, dtype=digits.dtype)
    inv_digits = np.asarray(inv, dtype=digits.dtype)[digits]

    def image(m):
        vec = vecs[m]
        # s = <x, vec> in G: over handle pairs, v_{2i} x_{2i-1} - v_{2i-1} x_{2i}
        s = np.zeros(n_states, dtype=digits.dtype)
        for i in range(0, two_n, 2):
            if vec[i + 1]:
                s = table[s, digits[i]]
            if vec[i]:
                s = table[s, inv_digits[i + 1]]
        out = np.zeros(n_states, dtype=np.int64)
        for j in range(two_n):
            out *= order
            out += table[digits[j], s] if vec[j] else digits[j]
        return out

    return _orbit_labels(n_states, len(vecs), image)
