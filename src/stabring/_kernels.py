"""Orbit kernel: the partition of G^(2n) under a family of maps, and the
two array primitives the library builds on, ``components`` and
``ragged_gather``.

States are ranks in [0, order^(2n)), mixed radix with entry 0 most
significant.  ``labels[v]`` holds the minimum rank in v's class so far.  For
each map, the image of every state is computed at once, the classes it joins
are merged with one ``components`` call on the graph whose edges are the
pairs ``(labels[v], labels[img[v]])`` that differ, and every label moves to
the least node of its merged class.  One label array and one image are
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

# Peak bytes per state of one kernel call, with margin: tracemalloc measures
# about 92 (C8 at n = 3, moves and transvections).
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


def components(n_nodes: int, src, dst) -> np.ndarray:
    """The least node of each node's component in the undirected graph on
    [0, n_nodes) with edges (src[i], dst[i]).

    Min-label hooking with pointer jumping: every node points at a node no
    greater than itself, and each pass hooks the larger root of every edge
    whose ends have different roots under the least root it meets, then
    jumps pointers until every node points at its root.  Edges whose ends
    share a root are dropped for good.  A component's root is then its least
    node."""
    label = np.arange(n_nodes, dtype=np.int64)
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    while True:
        a, b = np.take(label, src), np.take(label, dst)
        apart = a != b
        if not apart.any():
            return label
        src, dst = np.compress(apart, src), np.compress(apart, dst)
        hi = np.compress(apart, np.maximum(a, b))
        lo = np.compress(apart, np.minimum(a, b, out=a))
        del a, b, apart
        np.minimum.at(label, hi, lo)
        del hi, lo
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def ragged_gather(ptr: np.ndarray, key: np.ndarray):
    """For the segments ptr[key[i]]:ptr[key[i] + 1], laid end to end in the
    order of key: the length of each, and the index of every element."""
    start = np.take(ptr, key)
    count = np.take(ptr, key + 1) - start
    # segment i begins at place first[i] of the output
    first = np.cumsum(count) - count
    return count, np.repeat(start - first, count) + np.arange(int(count.sum()))


def _orbit_labels(n_states: int, n_maps: int, image) -> np.ndarray:
    """Min-rank labels of the classes joined by v ~ image(m)[v] over all m."""
    labels = np.arange(n_states, dtype=np.int64)
    for m in range(n_maps):
        joined = labels[image(m)]
        diff = labels != joined
        src, dst = labels[diff], joined[diff]
        del joined, diff
        labels = components(n_states, src, dst)[labels]
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
