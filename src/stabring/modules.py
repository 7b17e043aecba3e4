"""Graded modules over the connected-component ring, plus the derived
constructions and degree-bound battery built on them.

R is generated in degree 1, so a module is fixed by how the degree-1 classes
act on it.  A module keeps one int64 array per degree, ``acts[n]`` of shape
(|R_1|, rank_{n+1}, rank_n): row c is the action of degree-1 class c, and
row 0, the class of (e, e), is U.  Every construction here is an array
operation on these arrays: the tensor relations are the nonzeros of the
actions broadcast over the identity factor, and a class of degree i acts
through one batched product per degree along its least entries."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import _kernels
from .orbits import decode_tuple
from .ring import GradedRing
from .zlinalg import HomologyGroup, IntMatrix, chain_homology, smith_normal_form


class ModuleError(ValueError):
    """Raised on budget violations and inconsistent module data."""


@dataclass
class GradedModule:
    """Degreewise-free graded module; acts[n][c] is the integer matrix of
    degree-1 class c acting M_n -> M_{n+1}, for 0 <= n < n_max.  A pair
    (a, b) acts through its class, ring.pair_class at its rank.

    side "left": matrices realize m -> [a,b] m; side "right": m -> m [a,b].
    Components above n_max are unknown, not zero.
    """

    name: str
    ring: GradedRing
    side: str
    ranks: tuple
    acts: list
    n_max: int

    def rank(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.n_max:
            raise ModuleError(f"degree {n} beyond module window {self.n_max}")
        return self.ranks[n]

    def u_matrix(self, n: int) -> np.ndarray:
        """U: M_n -> M_{n+1}, the action of class 0, the class of (e, e)."""
        if not 0 <= n < self.n_max:
            raise ModuleError(f"action at degree {n} beyond window {self.n_max}")
        return self.acts[n][0]

    def consistency_failures(self) -> list:
        """Degree-2 orbit relations violated by the actions (empty when sound).

        Per degree n and degree-2 class, the first tuple (a, b, c, d) in rank
        order whose composite of the (a, b) and (c, d) actions differs from
        the composite of the class representative.  Every tuple of G^4 is
        checked: its composite is the composite of its two degree-1 classes.
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
        # composite labels are indexed by (last, first) class; the left side
        # applies (c, d) first, the right side (a, b)
        if self.side == "left":
            at, at_rep = head * classes + tail, rep_head * classes + rep_tail
        else:
            at, at_rep = tail * classes + head, rep_tail * classes + rep_head
        bad = []
        for n in range(self.n_max - 1):
            comp = np.matmul(self.acts[n + 1][:, None], self.acts[n][None, :])
            flat = comp.reshape(classes * classes, comp.shape[2] * comp.shape[3])
            _, label = np.unique(flat, axis=0, return_inverse=True)
            label = label.ravel()
            wrong = np.flatnonzero(label[at] != label[at_rep])
            found, first = np.unique(cls[wrong], return_index=True)
            bad.extend((n, int(c), decode_tuple(int(t), order, 4))
                       for c, t in zip(found, wrong[first]))
        return bad


def regular_module(ring: GradedRing, side: str = "left") -> GradedModule:
    """R itself; every action sends a basis class to a single basis class."""
    ranks = tuple(ring.basis_size(n) for n in range(ring.n_max + 1))
    classes = np.arange(ranks[1])[:, None]
    acts = []
    for n in range(ring.n_max):
        image = ring.product(1, n) if side == "left" else ring.product(n, 1).T
        act = np.zeros((ranks[1], ranks[n + 1], ranks[n]), dtype=np.int64)
        act[classes, image, np.arange(ranks[n])] = 1
        acts.append(act)
    return GradedModule("R", ring, side, ranks, acts, ring.n_max)


def shift_module(M: GradedModule, p: int) -> GradedModule:
    """M[p] with (M[p])_n = M_{n-p}."""
    if p < 0:
        raise ModuleError("shift amount must be >= 0")
    ranks = tuple([0] * p + list(M.ranks))[:M.n_max + 1]
    classes = M.ring.basis_size(1)
    acts = [M.acts[n - p] if n >= p
            else np.zeros((classes, ranks[n + 1], ranks[n]), dtype=np.int64)
            for n in range(M.n_max)]
    return GradedModule(f"{M.name}[{p}]", M.ring, M.side, ranks, acts, M.n_max)


def _basis_restriction(M: GradedModule, kept: list, name: str) -> GradedModule:
    """The module on the basis vectors kept[n] of each M_n: every action
    restricted to kept rows and columns.  It is the submodule they span when
    the actions keep that span, and the quotient by the other basis vectors
    when the actions keep theirs."""
    ranks = tuple(len(k) for k in kept)
    acts = [act[:, kept[n + 1]][:, :, kept[n]] for n, act in enumerate(M.acts)]
    return GradedModule(name, M.ring, M.side, ranks, acts, M.n_max)


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
    basis, incl = [], []  # per degree: the classes j, and the columns e_j - e_l
    for n in range(ring.n_max):
        umap = ring.u_map(n)
        _, first, fibre = np.unique(umap, return_index=True, return_inverse=True)
        least = first[fibre]
        order = np.argsort(umap, kind="stable")
        keep = order[order != least[order]]
        cols = np.arange(len(keep))
        mat = np.zeros((len(umap), len(keep)), dtype=np.int64)
        mat[keep, cols] = 1
        mat[least[keep], cols] = -1
        basis.append(keep)
        incl.append(mat)
    acts = []
    for n in range(ring.n_max - 1):
        image = R.acts[n] @ incl[n]
        if (R.u_matrix(n + 1) @ image).any():
            raise ModuleError("R: kernel image escapes the difference basis")
        acts.append(image[:, basis[n + 1]])
    return GradedModule("R[U]", ring, side, tuple(len(b) for b in basis), acts, ring.n_max - 1)


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


# -- tensor, H0/H1, and the degree battery ---------------------------------


def _gen_offsets(N: GradedModule, M: GradedModule, n: int, min_i: int = 0):
    """Generators of (+)_{i+k=n} N_i x M_k with i >= min_i; returns offsets."""
    if N.side != "right" or M.side != "left":
        raise ModuleError("tensor needs a right module and a left module")
    splits = range(min_i, n + 1)
    starts = list(accumulate((N.rank(i) * M.rank(n - i) for i in splits), initial=0))
    return dict(zip(splits, starts)), starts[-1]


def _tensor_presentation(N: GradedModule, M: GradedModule, n: int, min_i: int = 0) -> IntMatrix:
    """Relation matrix of the degree-n piece of N (x)_R M.

    Generators u (x) m over splits i + k = n (i >= min_i), numbered as in
    ``_gen_offsets``; relations move one degree-1 class c across the tensor
    sign: (u . c) (x) m - u (x) (c m).  Per split i + 1 + k = n the relation
    of (c, u, m) is column (c N_i + u) M_k + m of the split's block.  Each
    nonzero lambda_c[r, m] of M gives -lambda_c[r, m] at generator u (x) r of
    N_i x M_{k+1}, for every u; each nonzero rho_c[v, u] of N gives
    rho_c[v, u] at generator v (x) m of N_{i+1} x M_k, for every m.
    """
    offsets, dim = _gen_offsets(N, M, n, min_i)
    classes = M.ring.basis_size(1)
    rows, cols, vals = [], [], []
    n_rel = 0
    for i in range(min_i, n):
        k = n - 1 - i
        n_i, m_k = N.rank(i), M.rank(k)
        lam, rho = M.acts[k], N.acts[i]
        c, r, m = np.nonzero(lam)
        u = np.arange(n_i)[:, None]
        rows.append(offsets[i] + u * M.rank(k + 1) + r)
        cols.append(n_rel + (c * n_i + u) * m_k + m)
        vals.append(np.broadcast_to(-lam[c, r, m], rows[-1].shape))
        c, v, u = np.nonzero(rho)
        m = np.arange(m_k)[:, None]
        rows.append(offsets[i + 1] + v * m_k + m)
        cols.append(n_rel + (c * n_i + u) * m_k + m)
        vals.append(np.broadcast_to(rho[c, v, u], rows[-1].shape))
        n_rel += classes * n_i * m_k
    return _from_blocks(dim, n_rel, rows, cols, vals)


def _from_blocks(n_rows: int, n_cols: int, rows: list, cols: list, vals: list) -> IntMatrix:
    """One ``from_triplets`` call on lists of triplet arrays, any shapes."""
    flat = (np.concatenate([np.zeros(0, dtype=np.int64)] + [a.ravel() for a in part])
            for part in (rows, cols, vals))
    return IntMatrix.from_triplets(n_rows, n_cols, *flat)


def graded_tensor(N: GradedModule, M: GradedModule) -> list:
    """(N (x)_R M)_n as abelian groups, degree by degree within the window."""
    budget = min(N.n_max, M.n_max)
    out = []
    for n in range(budget + 1):
        rel = _tensor_presentation(N, M, n)
        out.append(chain_homology(IntMatrix(0, rel.rows), rel))
    return out


def h0(M: GradedModule) -> list:
    """H0(M) = M / R_{>0} M degreewise: coker of all degree-1 actions.

    Works for either side; the act matrices already encode the side.
    """
    out = []
    for n in range(M.n_max + 1):
        rows = M.rank(n)
        if n == 0:
            out.append(HomologyGroup(free_rank=rows))
            continue
        # the degree-1 actions side by side, one block of columns per class
        act = M.acts[n - 1]
        stack = act.transpose(1, 0, 2).reshape(rows, act.shape[0] * act.shape[2])
        out.append(chain_homology(IntMatrix(0, rows),
                                  IntMatrix.from_dense(stack, rows=rows, cols=stack.shape[1])))
    return out


def _beta_matrix(N: GradedModule, M: GradedModule, n: int, min_i: int,
                 classes: list) -> IntMatrix:
    """beta: (N (x)_R M)_n -> M_n sending u (x) m to (class behind u) . m;
    classes[i][u] is that class, of degree i."""
    offsets, dim = _gen_offsets(N, M, n, min_i)
    rows, cols, vals = [], [], []
    for i, acting in enumerate(_class_actions(M, n)):
        if i < min_i:
            continue
        gathered = acting[np.asarray(classes[i], dtype=np.int64)]
        u, r, m = np.nonzero(gathered)
        rows.append(r)
        cols.append(offsets[i] + u * M.rank(n - i) + m)
        vals.append(gathered[u, r, m])
    return _from_blocks(M.rank(n), dim, rows, cols, vals)


def _class_actions(M: GradedModule, n: int):
    """Per degree i = 0..n, the actions M_{n-i} -> M_n of every class of R_i
    on the left module M, stacked by class.  Class j of degree i, whose least
    entry in product(i - 1, 1) is (p, y), acts as p . (y . m): one batched
    product per degree."""
    ring = M.ring
    acting = np.eye(M.rank(n), dtype=np.int64)[None]
    yield acting
    for i in range(1, n + 1):
        _, least = np.unique(ring.steps[i - 1], return_index=True)
        p, y = np.divmod(least, ring.basis_size(1))
        acting = np.matmul(acting[p], M.acts[n - i][y])
        yield acting


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
    # U: M_n -> M_{n+1} once per degree; its Smith form serves tor0 and ker U
    u = [IntMatrix.from_dense(M.u_matrix(n), rows=M.rank(n + 1), cols=M.rank(n))
         for n in range(M.n_max)]
    # tor0 = M/UM: coker of U degreewise (degree 0 piece is M_0 itself)
    tor0 = [HomologyGroup(free_rank=M.rank(0))] + [
        chain_homology(IntMatrix(0, M.rank(n + 1)), u[n]) for n in range(M.n_max)]
    deg_m_u = max((n for n in range(M.n_max) if smith_normal_form(u[n]).rank < M.rank(n)),
                  default=-1)
    # tor1 = ker(U(R) (x)_R M -> M) via the four-term exact sequence
    budget = min(parts.ur.n_max, M.n_max)
    tor1 = []
    for n in range(budget + 1):
        rel = _tensor_presentation(parts.ur, M, n, min_i=1)
        beta = _beta_matrix(parts.ur, M, n, min_i=1, classes=parts.ur_classes)
        tor1.append(chain_homology(beta, rel))
    deg_tor0 = deg_of(tor0)
    deg_tor1 = deg_of(tor1)
    delta = max(deg_tor0, deg_tor1)
    a_m = max(deg_m_u, deg_tor0)
    a_bound = a_m <= delta + parts.a_r
    # tensor degree bound at (Rbar, M): deg(Rbar (x) M) <= min(...)
    tensor_deg = deg_of(graded_tensor(parts.rbar, M))
    deg_h0 = deg_of(h0(M))
    lhs_bound = min(parts.rbar_deg + deg_h0, parts.rbar_h0_deg + module_deg(M))
    tensor_bound = tensor_deg <= lhs_bound
    return DeltaBounds(tor0=tuple(tor0), tor1=tuple(tor1), delta=delta,
                       deg_m_u=deg_m_u, deg_m_mod_u=deg_tor0, deg_h0=deg_h0, a_m=a_m,
                       a_bound_ok=a_bound, tensor_bound_ok=tensor_bound)


def generated_in_degrees_upto(M: GradedModule, a: int) -> bool:
    """Whether components up to degree a generate M over the ring (in window).

    Tracks the integer span: the submodule generated by degrees <= a fills
    M_n iff the accumulated image lattice is all of Z^{rank}.
    """
    prev_gens = None
    for n in range(M.n_max + 1):
        cols = []
        if n <= a:
            cols.append(np.eye(M.rank(n), dtype=np.int64))
        if n > 0 and prev_gens is not None and prev_gens.shape[1]:
            image = M.acts[n - 1] @ prev_gens  # one block of columns per class
            cols.append(image.transpose(1, 0, 2).reshape(M.rank(n), image.shape[0] * image.shape[2]))
        gens = (np.concatenate(cols, axis=1) if cols
                else np.zeros((M.rank(n), 0), dtype=np.int64))
        if gens.shape[1]:
            gens = _kernels.distinct(gens, axis=1)  # duplicate columns add nothing to the span
        if M.rank(n):
            mat = IntMatrix.from_dense(gens, rows=M.rank(n), cols=gens.shape[1])
            snf = smith_normal_form(mat)
            full = snf.rank == M.rank(n) and all(f == 1 for f in snf.factors)
            if not full:
                return False
        prev_gens = gens
    return True
