"""Orbit tables: the partition of G^(2n) under the compiled move set."""

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
    """Raised on state-cap or memory-budget violations and cache corruption."""


MAGIC = b"HWOT"
VERSION = 2
# magic, version, group hash, move-set hash, n, order, orbit count, payload SHA-256
HEADER = "<4sH32s32sHHI32s"


def encode_tuple(entries, order: int) -> int:
    """Mixed-radix rank, entries[0] most significant; all-identity maps to 0."""
    rank = 0
    for e in entries:
        if not 0 <= e < order:
            raise OrbitError(f"entry {e} out of range for order {order}")
        rank = rank * order + e
    return rank


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

    @property
    def n_states(self) -> int:
        return len(self.orbit_id)

    def class_of(self, entries) -> int:
        if len(entries) != 2 * self.n:
            raise OrbitError(f"tuple of length {len(entries)}, expected 2n = {2 * self.n}")
        return int(self.orbit_id[encode_tuple(entries, self.order)])

    def rep_tuple(self, orbit: int) -> tuple:
        return decode_tuple(int(self.reps[orbit]), self.order, 2 * self.n)

    def orbit_sizes(self) -> np.ndarray:
        return np.bincount(self.orbit_id, minlength=self.count)


def enumerate_orbits(G: FiniteGroup, n: int, moves, state_cap: int = 2 ** 32) -> OrbitTable:
    """Closure of G^(2n) under the compiled moves.

    Output is deterministic and independent of move order: orbit ids are
    assigned by increasing minimal rank.
    """
    if n < 0:
        raise OrbitError("genus must be >= 0")
    n_states = G.order ** (2 * n)
    if n_states > state_cap:
        raise OrbitError(
            f"state space {G.order}^{2 * n} = {n_states} exceeds cap {state_cap}; "
            "lower n or use a smaller group")
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
    max_len = max((m.letters.shape[1] for m in moves), default=1)
    letters = np.zeros((len(moves), two_n, max_len), dtype=np.int16)
    lengths = np.zeros((len(moves), two_n), dtype=np.int16)
    for i, m in enumerate(moves):
        letters[i, :, :m.letters.shape[1]] = m.letters
        lengths[i] = m.lengths
    parent = _kernels.move_orbit_parents(G.table, G.inverse, two_n, G.order,
                                         letters, lengths, n_states)
    reps, orbit_id = np.unique(parent, return_inverse=True)
    return OrbitTable(n=n, order=G.order, group_hash=G.hash(), moveset_hash=mh,
                      orbit_id=orbit_id.astype(np.uint32),
                      reps=reps.astype(np.uint64))


def cache_store(table: OrbitTable, path) -> None:
    """Write through a temporary file in the same directory, then rename it
    into place, so a reader never sees a partly written entry.  The header
    carries a SHA-256 of the payload, which ``cache_load`` checks."""
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
