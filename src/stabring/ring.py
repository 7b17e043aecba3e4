"""The graded ring of connected components: orbit bases, concatenation
product, the degree-raising operator U, and the stability profile."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
import numpy.ma  # noqa: F401  (a plain np.unique reads np.ma; load it here, not mid-run)

from . import _kernels
from .groups import FiniteGroup
from .orbits import enumerate_orbits, local_steps, step_table
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

    def as_dict(self) -> dict:
        """Every field, tuples as lists: the report's ``stability`` record."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


class GradedRing:
    """R = (+)_n Z<G^2n / moves>, product by concatenation of representatives.

    The ring keeps one table per degree, ``steps[k]`` = ``product(k, 1)``:
    entry [p, y] is the class of rep_p ++ rep_y.  Each class of degree k + 1
    is represented by its least entry (p, y) in row-major order, so
    rep_j = rep_p ++ rep_y, and every other product follows by associativity
    through that entry.  ``pair_class[r]`` is the degree-1 class of the pair
    of rank r."""

    def __init__(self, G: FiniteGroup, n_max: int, pair_class: np.ndarray, steps: list):
        if n_max < 1 or len(steps) != n_max:
            raise RingError("need one step table per degree 1..n_max, n_max >= 1")
        pair_class = np.asarray(pair_class, dtype=np.int64)
        values, first_rank = np.unique(pair_class, return_index=True)
        c1 = len(values)
        if len(pair_class) != G.order ** 2 or not np.array_equal(values, np.arange(c1)):
            raise RingError("pair classes must number every pair of G^2 by 0..k-1")
        if pair_class[0] != 0:
            raise RingError("the pair (e, e) must be class 0, the class that acts as U")
        if not np.array_equal(steps[0], np.arange(c1)[None, :]):
            raise RingError("product(0, 1) must be the identity on degree-1 classes")
        counts, least = [1], []
        for k, step in enumerate(steps):
            if step.shape != (counts[k], c1):
                raise RingError(f"product({k}, 1) has shape {step.shape}, "
                                f"expected {(counts[k], c1)}")
            values, first = np.unique(step, return_index=True)
            if not np.array_equal(values, np.arange(len(values))):
                raise RingError(f"product({k}, 1) leaves a class of degree {k + 1} unused")
            counts.append(len(values))
            least.append(first)
        self.G = G
        self.n_max = n_max
        self.pair_class = pair_class
        self.steps = steps
        self._counts = tuple(counts)
        self._least = least  # least entry p * |R_1| + y of steps[k] per class
        self._rep1 = [tuple(int(x) for x in divmod(int(r), G.order)) for r in first_rank]
        self._products = {}
        for table in (pair_class, *steps):
            table.flags.writeable = False  # shared by every caller

    # -- basis bookkeeping ------------------------------------------------

    def basis_size(self, n: int) -> int:
        return self._counts[n]

    @property
    def counts(self) -> tuple:
        return self._counts

    def class_index(self, n: int, entries) -> int:
        """Class of a tuple: the handle classes folded through product(k, 1)."""
        if len(entries) != 2 * n:
            raise RingError(f"tuple length {len(entries)} != 2n = {2 * n}")
        order = self.G.order
        cls = 0
        for k in range(n):
            a, b = entries[2 * k], entries[2 * k + 1]
            if not (0 <= a < order and 0 <= b < order):
                raise RingError(f"entry out of range for order {order} in {tuple(entries)}")
            cls = int(self.steps[k][cls, self.pair_class[a * order + b]])
        return cls

    def rep(self, n: int, idx: int) -> tuple:
        """The least-rank tuple of class idx of degree n."""
        if not 0 <= n <= self.n_max or not 0 <= idx < self._counts[n]:
            raise RingError(f"no class {idx} in degree {n}")
        pairs = []
        for k in range(n - 1, -1, -1):
            idx, y = divmod(int(self._least[k][idx]), len(self._rep1))
            pairs.append(self._rep1[y])
        return tuple(x for pair in reversed(pairs) for x in pair)

    # -- product and U -----------------------------------------------------

    def product(self, m: int, n: int) -> np.ndarray:
        """Structure constants R_m x R_n -> R_{m+n}: entry [i, j] is the class of
        rep_i ++ rep_j.  With (p, y) the least entry of class j in
        product(n - 1, 1), that is product(m + n - 1, 1)[product(m, n - 1)[i, p], y]."""
        if m < 0 or n < 0:
            raise RingError(f"negative degree in product ({m}, {n})")
        if m + n > self.n_max:
            raise RingError(f"product degree {m + n} exceeds computed window {self.n_max}")
        out = self._products.get((m, n))
        if out is None:
            if n == 0:
                out = np.arange(self._counts[m], dtype=np.int64)[:, None]
            elif n == 1:
                out = self.steps[m]
            else:
                p, y = np.divmod(self._least[n - 1], self._counts[1])
                out = self.steps[m + n - 1][self.product(m, n - 1)[:, p], y]
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

    def summary(self) -> dict:
        """The stability profile with the U maps in place of the per-step U flags."""
        prof = self.stability_profile().as_dict()
        del prof["u_injective"], prof["u_surjective"]
        return {
            "group": self.G.name,
            "group_hash": self.G.hash(),
            "n_max": self.n_max,
            "u_maps": {str(n): [int(i) for i in self.u_map(n)] for n in range(self.n_max)},
            **prof,
        }


def local_ring(G: FiniteGroup, n_max: int, tables: dict) -> GradedRing:
    """The ring up to degree n_max from the orbit tables of degrees 1 and 2
    (degree 1 alone when n_max is 1), by ``orbits.local_steps``."""
    pair_class = tables[1].orbit_id.astype(np.int64)
    if n_max == 1:
        steps = [np.arange(tables[1].count, dtype=np.int64)[None, :]]
    else:
        steps = local_steps(step_table(pair_class, tables[2].orbit_id), n_max)
    return GradedRing(G, n_max, pair_class, steps)


def _state_classes(ring: GradedRing, n: int) -> np.ndarray:
    """Class of every state of G^(2n) in rank order, by folding its handles."""
    order = ring.G.order
    digits = _kernels._decode_all(2 * n, order, order ** (2 * n))
    cls = np.zeros(digits.shape[1], dtype=np.int64)
    for k in range(n):
        pair = digits[2 * k].astype(np.int64) * order + digits[2 * k + 1]
        cls = ring.steps[k][cls, ring.pair_class[pair]]
    return cls


def build_ring(G: FiniteGroup, n_max: int, tables: dict | None = None) -> GradedRing:
    """Assemble the graded ring up to degree n_max.

    The orbit kernel runs at degrees 1 and 2 only; ``local_ring`` builds the
    rest.  ``tables`` may supply orbit tables per degree: those of degrees 1
    and 2 are used in place of the kernel, and any higher one must partition
    G^(2n) exactly as the local ring does, or ``RingError`` is raised.
    """
    if n_max < 1:
        raise RingError("n_max must be >= 1")
    tables = {n: got for n, got in (tables or {}).items() if n <= n_max}
    moves = {n: compile_moves(n, G) for n in {*tables, *range(1, min(2, n_max) + 1)} if n > 0}
    for n, got in tables.items():
        if got.group_hash != G.hash() or got.n != n:
            raise RingError(f"supplied orbit table for degree {n} does not match the group")
        if n > 0 and got.moveset_hash != moveset_hash(moves[n]):
            raise RingError(f"supplied orbit table for degree {n} has a different move set")
    kernel = {n: tables.get(n) or enumerate_orbits(G, n, moves[n])
              for n in range(1, min(2, n_max) + 1)}
    ring = local_ring(G, n_max, kernel)
    for n, got in sorted(tables.items()):
        if n <= 2:
            continue
        if got.count != ring.basis_size(n):
            raise RingError(f"supplied orbit table for degree {n} has {got.count} "
                            f"orbits, the local ring {ring.basis_size(n)}")
        if not np.array_equal(got.orbit_id, _state_classes(ring, n)):
            raise RingError(f"supplied orbit table for degree {n} partitions "
                            f"G^{2 * n} differently from the local ring")
    return ring
