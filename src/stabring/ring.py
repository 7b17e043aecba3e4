"""The graded ring of connected components: orbit bases, concatenation
product, the degree-raising operator U, and the stability profile."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteGroup
from .orbits import enumerate_orbits
from .words import compile_moves, moveset_hash


class RingError(ValueError):
    """Raised on degree overflow or mismatched bases."""


@dataclass(frozen=True)
class StabilityProfile:
    """Observed degree invariants of U on the ring, within the computed window."""

    counts: tuple             # |R_n| for n = 0..n_max
    u_injective: tuple        # per step n -> n+1, n = 0..n_max-1
    u_surjective: tuple       # per step n -> n+1
    deg_u: int                # always 1, carried symbolically
    deg_r_u: int              # last n with ker(U: R_n -> R_{n+1}) != 0, or -1
    deg_rbar: int             # last n with R_n / U(R_{n-1}) != 0 (always >= 0)
    a_r: int                  # A(R) = max(deg_r_u, deg_rbar)
    a_tilde_r: int            # max(deg_u, deg_r_u, deg_rbar)
    stable_within_window: bool

    @property
    def u_bijective(self) -> tuple:
        return tuple(i and s for i, s in zip(self.u_injective, self.u_surjective))


class GradedRing:
    """R = (+)_n Z<G^2n / moves>, product by concatenation of representatives."""

    def __init__(self, G: FiniteGroup, n_max: int, tables: list, moves_by_degree: dict):
        if len(tables) != n_max + 1:
            raise RingError("need one orbit table per degree 0..n_max")
        self.G = G
        self.n_max = n_max
        self.tables = tables
        self.moves_by_degree = moves_by_degree
        self._products = {}

    # -- basis bookkeeping ------------------------------------------------

    def basis_size(self, n: int) -> int:
        return self.tables[n].count

    @property
    def counts(self) -> tuple:
        return tuple(t.count for t in self.tables)

    def class_index(self, n: int, entries) -> int:
        if len(entries) != 2 * n:
            raise RingError(f"tuple length {len(entries)} != 2n = {2 * n}")
        return self.tables[n].class_of(entries)

    def rep(self, n: int, idx: int) -> tuple:
        return self.tables[n].rep_tuple(idx)

    # -- product and U -----------------------------------------------------

    def product(self, m: int, n: int) -> np.ndarray:
        """Structure constants R_m x R_n -> R_{m+n}: entry [i, j] is the class of
        rep_i ++ rep_j, gathered from the degree m + n orbit table."""
        if m < 0 or n < 0:
            raise RingError(f"negative degree in product ({m}, {n})")
        if m + n > self.n_max:
            raise RingError(f"product degree {m + n} exceeds computed window {self.n_max}")
        out = self._products.get((m, n))
        if out is None:
            shift = np.uint64(self.G.order ** (2 * n))
            ranks = self.tables[m].reps[:, None] * shift + self.tables[n].reps[None, :]
            out = self.tables[m + n].orbit_id[ranks].astype(np.int64)
            out.flags.writeable = False  # shared by every caller
            self._products[m, n] = out
        return out

    def u_map(self, n: int) -> np.ndarray:
        """U: R_n -> R_{n+1}, multiplication by class 0 of degree 1, the orbit
        of (e, e) (orbit ids follow the least rank, and e has rank 0)."""
        return self.product(1, n)[0]

    # -- stability --------------------------------------------------------

    def stability_profile(self) -> StabilityProfile:
        counts = self.counts
        inj, surj = [], []
        for n in range(self.n_max):
            umap = self.u_map(n)
            inj.append(len(np.unique(umap)) == len(umap))
            surj.append(len(np.unique(umap)) == counts[n + 1])
        deg_r_u = max((n for n in range(self.n_max) if not inj[n]), default=-1)
        deg_rbar = max(n for n in range(self.n_max + 1)
                       if n == 0 or not surj[n - 1])
        a_r = max(deg_r_u, deg_rbar)
        stable = (self.n_max >= 2
                  and counts[self.n_max] == counts[self.n_max - 1]
                  and inj[self.n_max - 1] and surj[self.n_max - 1]
                  and inj[self.n_max - 2] and surj[self.n_max - 2])
        return StabilityProfile(
            counts=counts, u_injective=tuple(inj), u_surjective=tuple(surj),
            deg_u=1, deg_r_u=deg_r_u, deg_rbar=deg_rbar,
            a_r=a_r, a_tilde_r=max(1, a_r), stable_within_window=stable)

    def moveset_hash_for(self, n: int) -> str:
        return moveset_hash(self.moves_by_degree.get(n, ()))

    def summary(self) -> dict:
        prof = self.stability_profile()
        return {
            "group": self.G.name,
            "group_hash": self.G.hash(),
            "n_max": self.n_max,
            "counts": list(prof.counts),
            "u_maps": {str(n): [int(i) for i in self.u_map(n)] for n in range(self.n_max)},
            "deg_u": prof.deg_u,
            "deg_r_u": prof.deg_r_u,
            "deg_rbar": prof.deg_rbar,
            "a_r": prof.a_r,
            "a_tilde_r": prof.a_tilde_r,
            "stable_within_window": prof.stable_within_window,
            "moveset_hashes": {str(n): self.moveset_hash_for(n) for n in range(1, self.n_max + 1)},
        }


def build_ring(G: FiniteGroup, n_max: int, state_cap: int = 2 ** 32,
               tables: dict | None = None) -> GradedRing:
    """Assemble the graded ring up to degree n_max.

    ``tables`` may supply precomputed orbit tables per degree (cache path);
    missing degrees are enumerated here.
    """
    if n_max < 1:
        raise RingError("n_max must be >= 1")
    table_list = []
    moves_by_degree = {}
    for n in range(n_max + 1):
        moves = compile_moves(n, G) if n > 0 else ()
        moves_by_degree[n] = moves
        got = tables.get(n) if tables else None
        if got is not None:
            if got.group_hash != G.hash() or got.n != n:
                raise RingError(f"supplied orbit table for degree {n} does not match the group")
            if n > 0 and got.moveset_hash != moveset_hash(moves):
                raise RingError(f"supplied orbit table for degree {n} has a different move set")
            table_list.append(got)
        else:
            table_list.append(enumerate_orbits(G, n, moves, state_cap))
    return GradedRing(G, n_max, table_list, moves_by_degree)
