"""Orbit kernel: the partition of G^(2n) under a family of maps, and the
array primitives the library builds on, ``components`` and
``ragged_gather``, whole or a piece of ``CHUNK`` entries at a time
(``pieces``, ``gathered``).

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

The library's digests, seeded draws, distinct values and membership tests
come from here too (``sha256``, ``Draws``, ``distinct``, ``member``), so that
no run loads OpenSSL's libcrypto (``hashlib``), ``numpy.random`` or
``numpy.ma`` (which a plain ``np.unique``, ``np.setdiff1d`` or ``np.isin``
reads): the three add about 7 MB to every process and compute nothing here.
"""

from __future__ import annotations

import math
import os
import random
import resource

import numpy as np

try:  # CPython's own SHA-256, the one hashlib falls back to, without OpenSSL
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# Entries per piece of a gather cut into pieces (``pieces``): the matrix and
# Schur products, the duplicate-column check, the sums of entries and the
# K-complex build hold the index arrays of one piece at a time, not of all
# at once.
CHUNK = 1 << 16

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


class Draws:
    """Seeded integer draws: ``integers(lo, hi, size=None)`` is an int64 array
    of draws from [lo, hi), of shape ``size`` or else that of lo and hi
    broadcast, like numpy's ``Generator.integers``.  Each draw is a uint64
    from ``random.Random(seed).randbytes``, mapped into its range by
    multiply-shift on its top 32 bits, so a range must hold 1 to 2^32 - 1
    values."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def integers(self, lo, hi, size=None) -> np.ndarray:
        lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
        if size is None:
            shape = np.broadcast_shapes(lo.shape, hi.shape)
        else:
            shape = (size,) if np.ndim(size) == 0 else tuple(size)
        span = np.broadcast_to(hi - lo, shape)
        if span.size and (span.min() <= 0 or span.max() >= 1 << 32):
            raise ValueError(f"draws need 1 <= hi - lo < 2^32, got hi - lo in "
                             f"[{span.min()}, {span.max()}]")
        count = int(np.prod(shape, dtype=np.int64))
        top = np.frombuffer(self._random.randbytes(8 * count), dtype="<u8") >> np.uint64(32)
        top *= span.astype(np.uint64).ravel()
        top >>= np.uint64(32)
        return lo + top.astype(np.int64).reshape(shape)


def distinct(x, axis: int | None = None) -> np.ndarray:
    """``np.unique(x, axis=axis)``: the sorted distinct values of x, or with
    ``axis`` its distinct slices along that axis, in lexicographic order."""
    x = np.asarray(x)
    if axis is None:
        x = np.sort(x, axis=None)
        keep = np.empty(len(x), dtype=bool)
        keep[:1] = True
        np.not_equal(x[1:], x[:-1], out=keep[1:])
        return x[keep]
    rows = np.moveaxis(x, axis, 0)
    flat = rows.reshape(len(rows), math.prod(rows.shape[1:]))
    order = np.lexsort(flat.T[::-1]) if flat.shape[1] else np.arange(len(flat))
    flat = flat[order]
    keep = np.empty(len(flat), dtype=bool)
    keep[:1] = True
    (flat[1:] != flat[:-1]).any(axis=1, out=keep[1:])
    return np.moveaxis(rows[order[keep]], 0, axis)


def member(x, values) -> np.ndarray:
    """``np.isin(x, values)``: whether each entry of x is one of values."""
    x, values = np.asarray(x), np.sort(values, axis=None)
    if not len(values):
        return np.zeros(x.shape, dtype=bool)
    at = np.minimum(np.searchsorted(values, x), len(values) - 1)
    return values[at] == x


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
    at = np.repeat(start - first, count)
    at += np.arange(len(at))
    return count, at


def pieces(ptr: np.ndarray, lines: np.ndarray) -> list:
    """(start, stop) bounds that cut ``lines`` into consecutive pieces whose
    segments ptr[l]:ptr[l + 1] hold about ``CHUNK`` entries together; a
    longer line is a piece of its own."""
    ends = np.cumsum(np.take(ptr, lines + 1) - np.take(ptr, lines))
    if not len(ends) or ends[-1] <= CHUNK:
        return [(0, len(lines))] if len(lines) else []
    cuts = np.searchsorted(ends, np.arange(CHUNK, int(ends[-1]), CHUNK), side="right")
    bounds = distinct(np.concatenate(([0], cuts, [len(lines)]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def gathered(ptr: np.ndarray, lines: np.ndarray):
    """``ragged_gather(ptr, lines)`` a piece of ``pieces`` at a time: yields
    (start, stop, count, at) for lines[start:stop]."""
    for start, stop in pieces(ptr, lines):
        yield (start, stop) + ragged_gather(ptr, lines[start:stop])


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
