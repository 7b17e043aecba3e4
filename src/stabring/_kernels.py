"""Orbit kernel: the partition of G^(2n) under a family of maps.

States are ranks in [0, order^(2n)), mixed radix with entry 0 most
significant.  ``labels[v]`` holds the minimum rank in v's class so far.  For
each map, the image of every state is computed at once, the classes it joins
are merged with one ``connected_components`` call on the graph whose edges
are the pairs ``(labels[v], labels[img[v]])`` that differ, and every label
moves to the minimum of its merged class.  One label array and one image are
alive at a time, so memory is O(states), not O(maps x states).

``word_orbit_parents`` takes each map as its image words, one per entry,
and evaluates them in the Cayley table; surface moves
(``words.MarkedAutomorphism.images``) and symplectic transvections
(``oracle.transvection_images``) both come this way.
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
    """Physical memory, or the soft address-space limit when that is lower.
    The orbit kernel and ``groups.max_order`` both check against it."""
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


def word_orbit_parents(table, inv, two_n, order, images, n_states) -> np.ndarray:
    """Partition [0, n_states) under the maps given by image words, one tuple
    of 2n signed-letter words per map; parent = min rank in orbit."""
    digits = _decode_all(two_n, order, n_states)
    table = np.asarray(table, dtype=digits.dtype)
    inv_digits = np.asarray(inv, dtype=digits.dtype)[digits]

    def image(m):
        out = np.zeros(n_states, dtype=np.int64)
        for word in images[m]:
            cols = [digits[l - 1] if l > 0 else inv_digits[-l - 1] for l in word]
            acc = cols[0]
            for col in cols[1:]:
                acc = table[acc, col]
            out *= order
            out += acc
        return out

    return _orbit_labels(n_states, len(images), image)
