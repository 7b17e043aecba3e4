"""Orbit tables: the partition of G^(2n) under the move set, and
the local construction of higher degrees from the degree-1 and degree-2
partitions."""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import FiniteGroup
from .words import moveset_hash


class OrbitError(ValueError):
    """Raised on memory-budget violations, cache corruption, and degree-2
    partitions that are not a function of the handle classes."""


MAGIC = b"HWOT"
VERSION = 2
# magic, version, group hash, move-set hash, n, order, orbit count, payload SHA-256
HEADER = "<4sH32s32sHHI32s"


def decode_tuple(rank: int, order: int, two_n: int) -> tuple:
    out = [0] * two_n
    for i in range(two_n - 1, -1, -1):
        rank, out[i] = divmod(rank, order)
    if rank:
        raise OrbitError("rank out of range")
    return tuple(out)


@dataclass(frozen=True)
class OrbitTable:
    """Full partition of G^(2n); orbit ids are ordered by minimal representative rank."""

    n: int
    order: int
    group_hash: str
    moveset_hash: str
    orbit_id: np.ndarray  # uint32, length order^(2n)
    reps: np.ndarray      # uint64, minimal rank per orbit, strictly increasing

    @property
    def count(self) -> int:
        return len(self.reps)

    def rep_tuple(self, orbit: int) -> tuple:
        return decode_tuple(int(self.reps[orbit]), self.order, 2 * self.n)

    def orbit_sizes(self) -> np.ndarray:
        return np.bincount(self.orbit_id, minlength=self.count)


def enumerate_orbits(G: FiniteGroup, n: int, moves) -> OrbitTable:
    """Closure of G^(2n) under the moves (``words.compile_moves``).

    Output is deterministic and independent of move order: orbit ids are
    assigned by increasing minimal rank.  ``OrbitError`` is raised before
    anything is allocated when the state space does not fit in memory.
    """
    if n < 0:
        raise OrbitError("genus must be >= 0")
    n_states = G.order ** (2 * n)
    shortfall = _kernels.memory_shortfall(n_states)
    if shortfall:
        raise OrbitError(shortfall)
    mh = moveset_hash(moves)
    if n == 0:
        return OrbitTable(n=0, order=G.order, group_hash=G.hash(), moveset_hash=mh,
                          orbit_id=np.zeros(1, dtype=np.uint32),
                          reps=np.zeros(1, dtype=np.uint64))
    two_n = 2 * n
    for m in moves:
        if m.n != n:
            raise OrbitError(f"move {m.provenance} has genus {m.n}, expected {n}")
    parent = _kernels.word_orbit_parents(G.table, G.inverse, two_n, G.order,
                                         [m.images for m in moves], n_states)
    reps, orbit_id = np.unique(parent, return_inverse=True)
    return OrbitTable(n=n, order=G.order, group_hash=G.hash(), moveset_hash=mh,
                      orbit_id=orbit_id.astype(np.uint32),
                      reps=reps.astype(np.uint64))


def cache_store(table: OrbitTable, path) -> None:
    """Write through a temporary file in the same directory, then rename it
    into place, so a reader never sees a partly written entry.  The header
    carries a SHA-256 of the payload, which ``cache_load`` checks.  The
    pipeline keeps no cache; ``perfbench/child.py`` times this round trip."""
    reps = table.reps.astype("<u8").tobytes()
    orbit_id = table.orbit_id.astype("<u4").tobytes()
    digest = hashlib.sha256(reps)
    digest.update(orbit_id)
    header = struct.pack(
        HEADER, MAGIC, VERSION,
        bytes.fromhex(table.group_hash), bytes.fromhex(table.moveset_hash),
        table.n, table.order, table.count, digest.digest())
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(reps)
            fh.write(orbit_id)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cache_load(path, expect_group_hash: str | None = None,
               expect_moveset_hash: str | None = None) -> OrbitTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = struct.calcsize(HEADER)
    if len(blob) < head_len:
        raise OrbitError("orbit cache: truncated header")
    magic, version, ghash, mhash, n, order, count, digest = struct.unpack(
        HEADER, blob[:head_len])
    if magic != MAGIC:
        raise OrbitError(f"orbit cache: bad magic {magic!r}")
    if version != VERSION:
        raise OrbitError(f"orbit cache: unsupported version {version}")
    ghash, mhash = ghash.hex(), mhash.hex()
    if expect_group_hash is not None and ghash != expect_group_hash:
        raise OrbitError("orbit cache: group hash mismatch")
    if expect_moveset_hash is not None and mhash != expect_moveset_hash:
        raise OrbitError("orbit cache: move-set hash mismatch")
    n_states = order ** (2 * n) if n > 0 else 1
    want = head_len + 8 * count + 4 * n_states
    if len(blob) != want:
        raise OrbitError(f"orbit cache: payload length {len(blob)} != expected {want}")
    if hashlib.sha256(memoryview(blob)[head_len:]).digest() != digest:
        raise OrbitError("orbit cache: payload checksum mismatch")
    reps = np.frombuffer(blob, dtype="<u8", count=count, offset=head_len)
    orbit_id = np.frombuffer(blob, dtype="<u4", count=n_states, offset=head_len + 8 * count)
    return OrbitTable(n=n, order=order, group_hash=ghash, moveset_hash=mhash,
                      orbit_id=orbit_id.astype(np.uint32), reps=reps.astype(np.uint64))


def step_table(class1: np.ndarray, class2: np.ndarray) -> np.ndarray:
    """The degree-2 class of rep_p ++ rep_y, for degree-1 classes p and y.

    ``class1[r]`` is the class of the pair of rank r and ``class2[r]`` the
    class of the 4-tuple of rank r, ids ordered by least rank.  Raises
    ``OrbitError`` unless the class of every 4-tuple is the entry of its two
    handles' classes, which is what makes the table exact."""
    pairs = len(class1)
    _, reps = np.unique(class1, return_index=True)
    grid = np.asarray(class2, dtype=np.int64).reshape(pairs, pairs)
    step = grid[reps[:, None], reps[None, :]]
    if not np.array_equal(grid, step[class1[:, None], class1[None, :]]):
        raise OrbitError("the degree-2 class of a tuple is not a function of "
                         "the degree-1 classes of its two handles")
    return step


def local_steps(step2: np.ndarray, n_max: int) -> list:
    """Tables ``steps[k]`` of R_k x R_1 -> R_{k+1} for k < n_max, from the
    degree-2 table ``step2`` of ``step_table`` alone.

    Valid when every map of degree n is the identity outside two adjacent
    handles and an embedded map of degree 1 or 2 there, and every embedded
    map of degree 2 is one of them (``words.compile_moves`` and
    ``oracle.transvection_vectors`` check both).  Then the orbits of degree
    n are the components of a graph on the nodes (p, y) of R_{n-1} x R_1,
    node (p, y) standing for rep_p ++ rep_y.  For every (q, y1, y2) in
    R_{n-2} x R_1 x R_1 it joins (q y1, y2) to (q y1', y2'), where (y1', y2')
    is the first pair of the degree-2 class of (y1, y2): rewriting the last
    two handles within their degree-2 orbit.  Moves on the first n - 1
    handles and on the last one keep the node; the moves on the last two
    are these edges.

    Components are numbered by their least node key p * |R_1| + y.  The least
    rank tuple of an orbit is rep_p ++ rep_y for its least node, so this is
    the least-rank order of the full-state kernel.
    """
    c1 = step2.shape[0]
    steps = [np.arange(c1, dtype=np.int64)[None, :], step2][:n_max]
    _, least = np.unique(step2, return_index=True)
    first_y1, first_y2 = np.divmod(least[step2], c1)
    tail = np.arange(c1, dtype=np.int64)
    for k in range(2, n_max):
        prev = steps[k - 1]  # R_{k-1} x R_1 -> R_k
        n_nodes = (int(prev.max()) + 1) * c1
        src = (prev[:, :, None] * c1 + tail).ravel()
        dst = (prev[:, first_y1] * c1 + first_y2).ravel()
        moved = src != dst
        least = _kernels.components(n_nodes, src[moved], dst[moved])
        steps.append(np.unique(least, return_inverse=True)[1].reshape(-1, c1))
    return steps
