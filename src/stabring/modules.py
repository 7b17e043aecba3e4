"""Graded modules over the connected-component ring, plus the derived
constructions and degree-bound battery built on them.

R is generated in degree 1, so a module is fixed by how the degree-1 classes
act on it.  Every module the library builds is monomial: an action sends a
basis vector to a basis vector or to 0.  So a module keeps one int64 image
array per degree, ``images[n]`` of shape (|R_1|, rank_n): [c, j] is the index
of c . e_j in M_{n+1}, or -1 for 0, and row 0, the class of (e, e), is U.

The battery's relation matrices are then incidence matrices of graphs,
totally unimodular (Schrijver, Theory of Linear and Integer Programming,
1986, ch. 19), so every group it reads is free, of a rank that counts basis
vectors no action hits or live components of a generator graph;
``tests/reference_modules.py`` takes them from Smith forms of the dense
action matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .orbits import decode_tuple
from .ring import GradedRing
from .zlinalg import HomologyGroup


class ModuleError(ValueError):
    """Raised on budget violations and inconsistent module data."""


@dataclass
class GradedModule:
    """Degreewise-free monomial graded module; images[n][c, j] is the index
    of (degree-1 class c) . e_j in M_{n+1}, or -1 for 0, for 0 <= n < n_max.
    A pair (a, b) acts through its class, ring.pair_class at its rank.

    side "left": images realize m -> [a,b] m; side "right": m -> m [a,b].
    Components above n_max are unknown, not zero.
    """

    name: str
    ring: GradedRing
    side: str
    ranks: tuple
    images: list
    n_max: int

    def __post_init__(self):
        if len(self.images) != self.n_max or len(self.ranks) != self.n_max + 1:
            raise ModuleError(f"{self.name}: {len(self.images)} image arrays and "
                              f"{len(self.ranks)} ranks for window {self.n_max}")
        classes = self.ring.basis_size(1)
        for n, image in enumerate(self.images):
            if image.shape != (classes, self.ranks[n]):
                raise ModuleError(f"{self.name}: images at degree {n} have shape {image.shape}, "
                                  f"not {(classes, self.ranks[n])}")
            if image.size and not -1 <= image.min() <= image.max() < self.ranks[n + 1]:
                raise ModuleError(f"{self.name}: an image at degree {n} lies outside "
                                  f"[-1, {self.ranks[n + 1]})")

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.n_max:
            raise ModuleError(f"degree {n} beyond module window {self.n_max}")
        return self.ranks[n]

    def consistency_failures(self) -> list:
        """Degree-2 orbit relations violated by the actions (empty when sound).

        Per degree n and degree-2 class, the first tuple (a, b, c, d) in rank
        order whose composite of the (a, b) and (c, d) actions differs from
        the composite of the class representative.  Every tuple of G^4 is
        checked: its composite is the composite of its two degree-1 classes,
        so each pair of degree-1 classes is compared once, as the composed
        image array, with the pair of its degree-2 class representative.
        """
        ring = self.ring
        if ring.n_max < 2:
            raise ModuleError("consistency check needs ring degree >= 2")
        order = ring.G.order
        pairs = order * order
        classes = ring.basis_size(1)
        tuples = np.arange(pairs * pairs)
        head = ring.pair_class[tuples // pairs]
        tail = ring.pair_class[tuples % pairs]
        cls = ring.steps[1][head, tail]
        # the class representative's handles are the least entry of its class
        _, least = np.unique(ring.steps[1], return_index=True)
        rep_head, rep_tail = np.divmod(least[cls], classes)
        # composites are indexed by (last, first) class; the left side
        # applies (c, d) first, the right side (a, b)
        if self.side == "left":
            at, at_rep = head * classes + tail, rep_head * classes + rep_tail
        else:
            at, at_rep = tail * classes + head, rep_tail * classes + rep_head
        rep_at = np.empty(classes * classes, dtype=np.int64)
        rep_at[at] = at_rep  # every pair of classes is that of some tuple
        bad = []
        for n in range(self.n_max - 1):
            # a last column of -1 keeps 0 at 0
            last = np.concatenate((self.images[n + 1], np.full((classes, 1), -1)), axis=1)
            flat = last[:, self.images[n]].reshape(classes * classes, self.rank(n))
            wrong = np.flatnonzero((flat != flat[rep_at]).any(axis=1)[at])
            found, first = np.unique(cls[wrong], return_index=True)
            bad.extend((n, int(c), decode_tuple(int(t), order, 4))
                       for c, t in zip(found, wrong[first]))
        return bad


def regular_module(ring: GradedRing, side: str = "left") -> GradedModule:
    """R itself; every action sends a basis class to a single basis class."""
    ranks = tuple(ring.basis_size(n) for n in range(ring.n_max + 1))
    images = [ring.product(1, n) if side == "left" else ring.product(n, 1).T
              for n in range(ring.n_max)]
    return GradedModule("R", ring, side, ranks, images, ring.n_max)


def shift_module(M: GradedModule, p: int) -> GradedModule:
    """M[p] with (M[p])_n = M_{n-p}."""
    if p < 0:
        raise ModuleError("shift amount must be >= 0")
    ranks = tuple([0] * p + list(M.ranks))[:M.n_max + 1]
    classes = M.ring.basis_size(1)
    images = [M.images[n - p] if n >= p else np.full((classes, ranks[n]), -1, dtype=np.int64)
              for n in range(M.n_max)]
    return GradedModule(f"{M.name}[{p}]", M.ring, M.side, ranks, images, M.n_max)


def _basis_restriction(M: GradedModule, kept: list, name: str) -> GradedModule:
    """The module on the basis vectors kept[n] of each M_n: every action
    restricted to the kept vectors, an image outside them sent to 0.  It is
    the submodule they span when the actions keep that span, and the
    quotient by the other basis vectors when the actions keep theirs."""
    ranks = tuple(len(k) for k in kept)
    images = []
    for n, image in enumerate(M.images):
        # new index of each kept vector of M_{n+1}, -1 for the others and for 0
        relabel = np.full(M.rank(n + 1) + 1, -1, dtype=np.int64)
        relabel[kept[n + 1]] = np.arange(ranks[n + 1])
        images.append(relabel[image[:, kept[n]]])
    return GradedModule(name, M.ring, M.side, ranks, images, M.n_max)


def truncate_module(M: GradedModule, k: int) -> GradedModule:
    """Quotient truncation: components above degree k become zero."""
    kept = [np.arange(r if n <= k else 0) for n, r in enumerate(M.ranks)]
    return _basis_restriction(M, kept, f"{M.name}<= {k}")


def _u_image(ring: GradedRing) -> list:
    """Per degree n, the sorted classes of R_n in U(R_{n-1}); none in degree 0."""
    return [np.arange(0)] + [_kernels.distinct(ring.u_map(n)) for n in range(ring.n_max)]


def quotient_u_module(ring: GradedRing, side: str = "left") -> GradedModule:
    """R/UR: the classes outside the image of U."""
    kept = [np.flatnonzero(~_kernels.member(np.arange(ring.basis_size(n)), image))
            for n, image in enumerate(_u_image(ring))]
    return _basis_restriction(regular_module(ring, side), kept, "Rbar")


def ur_ideal_module(ring: GradedRing, side: str = "left") -> GradedModule:
    """U(R): the classes inside the image of U."""
    return _basis_restriction(regular_module(ring, side), _u_image(ring), "UR")


def u_kernel_module(ring: GradedRing, side: str = "left") -> GradedModule:
    """R[U] = ker(U).  Its degree-n basis is e_j - e_l for each class j of R_n
    that is not the least class l of its fibre under U, ordered by U image,
    then by j.  A vector of ker U is the sum of its coordinates at those j
    times these basis vectors.

    The window shrinks by one degree: the kernel at the top degree would need
    the U map out of it.
    """
    R = regular_module(ring, side)
    basis, least = [], []  # per degree: the classes j, and the least class of each fibre
    for n in range(ring.n_max):
        umap = ring.u_map(n)
        _, first, fibre = np.unique(umap, return_index=True, return_inverse=True)
        order = np.argsort(umap, kind="stable")
        least.append(first[fibre])
        basis.append(order[order != least[n][order]])
    # c . (e_j - e_l) = e_{c.j} - e_{c.l}, which U must kill at every degree
    ends = [(image[:, basis[n]], image[:, least[n][basis[n]]])
            for n, image in enumerate(R.images[:-1])]
    for n, (cj, cl) in enumerate(ends):
        if (R.images[n + 1][0][cj] != R.images[n + 1][0][cl]).any():
            raise ModuleError("R: kernel image escapes the difference basis")
    images = []
    for n, (cj, cl) in enumerate(ends):
        # e_{c.j} - e_{c.l} is the basis vector at c.j when c.l is the least of
        # their fibre; otherwise it is minus one, or a difference of two
        if ((cj != cl) & (cl != least[n + 1][cl])).any():
            raise ModuleError(f"R[U]: the action at degree {n} is not monomial (an entry "
                              "outside {0, 1} or two nonzeros in one column)")
        position = np.full(ring.basis_size(n + 1), -1, dtype=np.int64)
        position[basis[n + 1]] = np.arange(len(basis[n + 1]))
        images.append(np.where(cj != cl, position[cj], -1))
    return GradedModule("R[U]", ring, side, tuple(len(b) for b in basis), images, ring.n_max - 1)


def derive_module(ring: GradedRing, recipe) -> GradedModule:
    """Left modules from the standard recipes: ("R",), ("Rbar",), ("RU",),
    ("shift", p), ("trunc", k)."""
    kind = recipe[0]
    if kind == "R":
        return regular_module(ring)
    if kind == "Rbar":
        return quotient_u_module(ring)
    if kind == "RU":
        return u_kernel_module(ring)
    if kind == "shift":
        return shift_module(regular_module(ring), recipe[1])
    if kind == "trunc":
        return truncate_module(regular_module(ring), recipe[1])
    raise ModuleError(f"unknown module recipe {recipe!r}")


# -- H0, tensor products and the degree battery, by counts ------------------


def _hits(image: np.ndarray) -> int:
    """How many distinct basis vectors an image array reaches."""
    return len(_kernels.distinct(image[image >= 0]))


def _free(ranks) -> list:
    return [HomologyGroup(free_rank=int(r)) for r in ranks]


def h0(M: GradedModule) -> list:
    """H0(M) = M / R_{>0} M degreewise, free on the basis vectors no degree-1
    action hits; for either side, which the image arrays already encode."""
    return _free([M.rank(0)] + [M.rank(n + 1) - _hits(image) for n, image in enumerate(M.images)])


def _tensor_graph(N: GradedModule, M: GradedModule, top: int, min_i: int = 0):
    """The generator graph of N (x)_R M in degrees n <= top, splits i >= min_i:
    u (x) m of N_i x M_k is generator start[n, i] + u * rank M_k + m.  The
    relation (u . c) (x) m - u (x) (c . m) of a degree-1 class c joins its
    ends when both are nonzero, else kills its nonzero end's component, and
    degree n is free on its live components.  One ``_kernels.components``
    call takes each of ``_kernels.pieces`` of about ``_kernels.CHUNK``
    relations, |R_1| per generator of the degree below.  Returns start, each
    generator's degree and component root, and whether it is a live root."""
    if N.side != "right" or M.side != "left":
        raise ModuleError("tensor needs a right module and a left module")
    start, first = {}, [0]  # first[n]: degree n's first generator
    for n in range(top + 1):
        at = first[n]
        for i in range(min_i, n + 1):
            start[n, i], at = at, at + N.rank(i) * M.rank(n - i)
        first.append(at)
    labels, live = np.arange(first[-1]), np.ones(first[-1], dtype=bool)
    relations = M.ring.basis_size(1) * np.array([0] + first[:-1])
    for lo, hi in _kernels.pieces(relations, np.arange(top + 1)):
        src, dst, dead = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
        for n, i in ((n, i) for n in range(lo, hi) for i in range(min_i, n)):
            k = n - 1 - i
            v, r = N.images[i][:, :, None], M.images[k][:, None, :]  # u . c and c . m
            left = start[n, i + 1] - first[lo] + v * M.rank(k) + np.arange(M.rank(k))
            right = start[n, i] - first[lo] + np.arange(N.rank(i))[:, None] * M.rank(k + 1) + r
            src.append(left[(v >= 0) & (r >= 0)])
            dst.append(right[(v >= 0) & (r >= 0)])
            dead += [left[(v >= 0) & (r < 0)], right[(v < 0) & (r >= 0)]]
        piece = _kernels.components(first[hi] - first[lo], np.concatenate(src), np.concatenate(dst))
        live[first[lo] + piece[np.concatenate(dead)]] = False
        labels[first[lo]:first[hi]] = first[lo] + piece
    live &= labels == np.arange(first[-1])
    return start, np.repeat(np.arange(top + 1), np.diff(first)), labels, live


def graded_tensor(N: GradedModule, M: GradedModule) -> list:
    """(N (x)_R M)_n as abelian groups, degree by degree within the window."""
    top = min(N.n_max, M.n_max)
    _, degree, _, live = _tensor_graph(N, M, top)
    return _free(np.bincount(degree[live], minlength=top + 1))


def _class_images(M: GradedModule, top: int) -> dict:
    """[i, k][j, m]: the index of (class j of R_i) . e_m in M_{k+i}, or -1,
    for i + k <= top.  Class j, whose least entry in product(i - 1, 1) is
    (p, y), acts as p . (y . m); a last column of -1 keeps 0 at 0."""
    acting = {(0, k): np.arange(M.rank(k))[None] for k in range(top + 1)}
    for i in range(1, top + 1):
        _, least = np.unique(M.ring.steps[i - 1], return_index=True)
        p, y = np.divmod(least, M.ring.basis_size(1))
        for k in range(top + 1 - i):
            before = acting[i - 1, k + 1]
            before = np.concatenate((before, np.full((len(before), 1), -1)), axis=1)
            acting[i, k] = before[p[:, None], M.images[k][y]]
    return acting


def _tor1(parts: "RingParts", M: GradedModule) -> list:
    """Tor_1 = ker(beta: U(R) (x)_R M -> M), beta(u (x) m) = (class of u) . m,
    degreewise.  beta sends a generator to a basis vector or to 0; it must
    be constant on each component and 0 on the dead ones (else ModuleError),
    and the rank is the live components less their distinct nonzero images."""
    top = min(parts.ur.n_max, M.n_max)
    start, degree, labels, live = _tensor_graph(parts.ur, M, top, min_i=1)
    acting = _class_images(M, top)
    beta = np.full(len(labels), -1, dtype=np.int64)
    for (n, i), at in start.items():
        image = acting[i, n - i][parts.ur_classes[i]]
        beta[at:at + image.size] = image.ravel()
    dead = (labels == np.arange(len(labels))) & ~live
    if (beta != beta[labels]).any() or (beta[dead] >= 0).any():
        raise ModuleError(f"{M.name}: beta: U(R) (x) M -> M does not vanish on the "
                          "tensor relations")
    width = max(M.ranks) + 1
    hit_degree = _kernels.distinct((degree * width + beta)[live & (beta >= 0)]) // width
    return _free(np.bincount(degree[live], minlength=top + 1)
                 - np.bincount(hit_degree, minlength=top + 1))


def deg_of(groups: list) -> int:
    """Top degree with a nonzero group; -1 when all vanish."""
    return max((n for n, g in enumerate(groups) if not g.is_zero), default=-1)


def module_deg(M: GradedModule) -> int:
    return max((n for n in range(M.n_max + 1) if M.rank(n)), default=-1)


@dataclass(frozen=True)
class DeltaBounds:
    tor0: tuple            # M/UM degreewise
    tor1: tuple            # ker(U(R) (x) M -> M) degreewise
    delta: int
    deg_m_u: int           # deg ker(U on M)
    deg_m_mod_u: int       # deg coker(U on M)
    deg_h0: int            # deg H0(M)
    a_m: int
    a_bound_ok: bool
    tensor_bound_ok: bool


@dataclass(frozen=True)
class RingParts:
    """What ``delta_and_bounds`` reads of the ring alone, the same for every
    module M: U(R) and R/UR as right modules, the classes of U(R), the
    degrees of R/UR and of its H0, and A(R)."""
    ur: GradedModule
    ur_classes: list
    rbar: GradedModule
    rbar_deg: int
    rbar_h0_deg: int
    a_r: int


def ring_parts(ring: GradedRing) -> RingParts:
    rbar = quotient_u_module(ring, side="right")
    return RingParts(ur=ur_ideal_module(ring, side="right"), ur_classes=_u_image(ring),
                     rbar=rbar, rbar_deg=module_deg(rbar), rbar_h0_deg=deg_of(h0(rbar)),
                     a_r=ring.stability_profile().a_r)


def delta_and_bounds(M: GradedModule, parts: RingParts | None = None) -> DeltaBounds:
    """delta(M), A(M), and the two degree-bound verdicts, within the window.
    ``parts`` is ``ring_parts(M.ring)``, built here when not given."""
    parts = parts or ring_parts(M.ring)
    # U: M_n -> M_{n+1} hits u_hits[n] basis vectors; M/UM is free on the rest
    u_hits = [_hits(image[0]) for image in M.images]
    tor0 = _free([M.rank(0)] + [M.rank(n + 1) - hits for n, hits in enumerate(u_hits)])
    deg_m_u = max((n for n, hits in enumerate(u_hits) if hits < M.rank(n)), default=-1)
    tor1 = _tor1(parts, M)
    deg_tor0 = deg_of(tor0)
    delta = max(deg_tor0, deg_of(tor1))
    a_m = max(deg_m_u, deg_tor0)
    # tensor degree bound at (Rbar, M): deg(Rbar (x) M) <= min(...)
    _, degree, _, live = _tensor_graph(parts.rbar, M, min(parts.rbar.n_max, M.n_max))
    tensor_deg = int(degree[live].max(initial=-1))
    deg_h0 = deg_of(h0(M))
    lhs_bound = min(parts.rbar_deg + deg_h0, parts.rbar_h0_deg + module_deg(M))
    return DeltaBounds(tor0=tuple(tor0), tor1=tuple(tor1), delta=delta,
                       deg_m_u=deg_m_u, deg_m_mod_u=deg_tor0, deg_h0=deg_h0, a_m=a_m,
                       a_bound_ok=a_m <= delta + parts.a_r,
                       tensor_bound_ok=tensor_deg <= lhs_bound)


def generated_in_degrees_upto(M: GradedModule, a: int) -> bool:
    """Whether components up to degree a generate M over the ring (in window):
    whether they reach every basis vector, all of M_n for n <= a and above a
    those that a degree-1 action hits from the ones reached in degree n - 1,
    as an action sends a basis vector to a basis vector or to 0."""
    reached = np.full(M.rank(0), a >= 0)
    for n in range(1, M.n_max + 1):
        if not reached.all():
            return False
        hit = M.images[n - 1][:, reached]
        reached = np.full(M.rank(n), n <= a)
        reached[hit[hit >= 0]] = True
    return bool(reached.all())
