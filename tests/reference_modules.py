"""Test-only references for ``stabring.modules``: the per-tuple constructions
that the product table, the basis restrictions and the per-class action
arrays replaced.

``regular_module`` looks up the class of every concatenated tuple with
``class_index``.  ``quotient_u_module`` and ``u_kernel_module`` work on any
module whose U action is monomial (basis to basis or zero), reading U off the
module's own matrices, ``ur_ideal_module`` reads U(R) off the ring one
representative at a time, and ``truncate_module`` writes zero blocks.  None
of them reads ``GradedRing.product``.  Each builds one matrix per pair
(a, b) of G^2, and ``module_from_pairs`` stores them by class only after
checking that all pairs of a class agree.  ``consistency_failures`` checks
the degree-2 relations one tuple of G^4 at a time.

``act`` is the action of one pair, ``act_class`` the action of one ring
class as the product of its representative's pair actions.
``tensor_presentation`` builds each split's relations as dense
``np.kron`` blocks and scans them with ``np.nonzero``, and ``beta_matrix``
multiplies the pair actions out for one generator at a time; the library
reads both off the nonzeros of the action arrays.

``h1`` is H1(M) from the library's tensor presentation; the library itself
only needs H0 and Tor_1 against U(R).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from stabring import modules
from stabring.modules import GradedModule, ModuleError
from stabring.zlinalg import IntMatrix, chain_homology


def pairs(G) -> list:
    return [(a, b) for a in range(G.order) for b in range(G.order)]


def act(M: GradedModule, pair, n: int) -> np.ndarray:
    """Matrix of the (a, b) action M_n -> M_{n+1}."""
    if not 0 <= n < M.n_max:
        raise ModuleError(f"action at degree {n} beyond window {M.n_max}")
    return M.acts[n][M.ring.class_index(1, pair)]


def act_class(M: GradedModule, deg: int, ring_idx: int, n: int) -> np.ndarray:
    """Matrix of multiplication by the degree-``deg`` basis class, M_n -> M_{n+deg}:
    the pair actions of its representative, last pair first on the left."""
    if n + deg > M.n_max:
        raise ModuleError(f"class action lands beyond window {M.n_max}")
    mat = np.eye(M.ranks[n], dtype=np.int64)
    rep = M.ring.rep(deg, ring_idx)
    handles = [(rep[2 * i], rep[2 * i + 1]) for i in range(deg)]
    for cur, pair in enumerate(reversed(handles) if M.side == "left" else handles, start=n):
        mat = act(M, pair, cur) @ mat
    return mat


def module_from_pairs(name, ring, side, ranks, lam: dict, n_max: int) -> GradedModule:
    """The module whose pair (a, b) acts on degree n by lam[(a, b)][n]; every
    pair must be given, and pairs of one degree-1 class must agree."""
    assert sorted(lam) == pairs(ring.G)
    acts = []
    for n in range(n_max):
        act = np.zeros((ring.basis_size(1), ranks[n + 1], ranks[n]), dtype=np.int64)
        seen = set()
        for pair, mats in lam.items():
            c = ring.class_index(1, pair)
            assert mats[n].dtype == np.int64 and mats[n].shape == act.shape[1:], (name, pair, n)
            if c in seen:
                assert np.array_equal(act[c], mats[n]), (name, pair, n)
            act[c] = mats[n]
            seen.add(c)
        acts.append(act)
    return GradedModule(name, ring, side, ranks, acts, n_max)


def consistency_failures(M: GradedModule) -> list:
    """Degree-2 orbit relations violated by the actions, one tuple at a time:
    per degree n and degree-2 class, the first tuple in rank order whose
    composite differs from that of the first tuple of its class."""
    ring = M.ring
    if ring.n_max < 2:
        raise ModuleError("consistency check needs ring degree >= 2")
    G = ring.G
    by_class = {}
    for a in range(G.order):
        for b in range(G.order):
            for c in range(G.order):
                for d in range(G.order):
                    cls = ring.class_index(2, (a, b, c, d))
                    by_class.setdefault(cls, []).append((a, b, c, d))
    bad = []
    for n in range(M.n_max - 1):
        for cls, members in by_class.items():
            ref = None
            for (a, b, c, d) in members:
                if M.side == "left":
                    comp = act(M, (a, b), n + 1) @ act(M, (c, d), n)
                else:
                    comp = act(M, (c, d), n + 1) @ act(M, (a, b), n)
                if ref is None:
                    ref = comp
                elif not np.array_equal(ref, comp):
                    bad.append((n, cls, (a, b, c, d)))
                    break
    return bad


def regular_module(ring, side: str = "left") -> GradedModule:
    """R itself, one concatenated tuple per basis class and pair."""
    ranks = tuple(ring.basis_size(n) for n in range(ring.n_max + 1))
    lam = {}
    for pair in pairs(ring.G):
        mats = []
        for n in range(ring.n_max):
            mat = np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
            for j in range(ranks[n]):
                rep = ring.rep(n, j)
                tup = (pair + rep) if side == "left" else (rep + pair)
                mat[ring.class_index(n + 1, tup), j] = 1
            mats.append(mat)
        lam[pair] = mats
    return module_from_pairs("R", ring, side, ranks, lam, ring.n_max)


def _monomial_image_rows(u: np.ndarray) -> set | None:
    """Rows spanned by the columns of a basis-to-basis (or zero) matrix."""
    rows = set()
    for j in range(u.shape[1]):
        nz = np.flatnonzero(u[:, j])
        if len(nz) == 0:
            continue
        if len(nz) > 1 or abs(int(u[nz[0], j])) != 1:
            return None
        rows.add(int(nz[0]))
    return rows


def quotient_u_module(M: GradedModule) -> GradedModule:
    """M / UM, for modules whose U action is monomial (basis to basis or zero)."""
    kept = [list(range(M.ranks[0]))]
    for n in range(1, M.n_max + 1):
        hit = _monomial_image_rows(M.u_matrix(n - 1))
        if hit is None:
            raise ModuleError(f"{M.name}: U action at degree {n - 1} is not monomial; "
                              "quotient would need a torsion presentation")
        kept.append([r for r in range(M.ranks[n]) if r not in hit])
    ranks = tuple(len(k) for k in kept)
    lam = {}
    for pair in pairs(M.ring.G):
        lam[pair] = [act(M, pair, n)[np.ix_(kept[n + 1], kept[n])] for n in range(M.n_max)]
    name = "Rbar" if M.name == "R" else f"{M.name}/U"
    return module_from_pairs(name, M.ring, M.side, ranks, lam, M.n_max)


def u_kernel_module(M: GradedModule) -> GradedModule:
    """M[U] = ker(U), for monomial U; basis vectors are fiber differences.

    The window shrinks by one degree: the kernel at the top degree would need
    the U map out of it.
    """
    n_top = M.n_max - 1
    fibers = []
    for n in range(n_top + 1):
        u = M.u_matrix(n)
        img_of = {}
        for j in range(M.ranks[n]):
            nz = np.flatnonzero(u[:, j])
            if len(nz) != 1 or abs(int(u[nz[0], j])) != 1:
                if len(nz) == 0:
                    raise ModuleError(f"{M.name}: U kills a basis vector; "
                                      "kernel basis needs the general presentation")
                raise ModuleError(f"{M.name}: U action is not monomial")
            img_of[j] = int(nz[0])
        by_img = {}
        for j, r in img_of.items():
            by_img.setdefault(r, []).append(j)
        basis = []   # (j, rep_j) with j != rep_j
        rep_of = {}
        for r, js in sorted(by_img.items()):
            rep = min(js)
            for j in js:
                rep_of[j] = rep
                if j != rep:
                    basis.append((j, rep))
        fibers.append((basis, rep_of, {j: i for i, (j, _) in enumerate(basis)}))
    ranks = tuple(len(fibers[n][0]) for n in range(n_top + 1))
    lam = {}
    for pair in pairs(M.ring.G):
        out = []
        for n in range(n_top):
            basis_n, _, _ = fibers[n]
            _, rep_next, pos_next = fibers[n + 1]
            mat = np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
            lam_n = act(M, pair, n)
            for col, (j, rep) in enumerate(basis_n):
                image = {}
                for src, sign in ((j, 1), (rep, -1)):
                    for tgt in np.flatnonzero(lam_n[:, src]):
                        tgt = int(tgt)
                        image[tgt] = image.get(tgt, 0) + sign * int(lam_n[tgt, src])
                # rewrite in the difference basis e_x - e_rep(x): valid iff the
                # image sums to zero over every fiber
                fiber_sums = {}
                for tgt, coef in image.items():
                    fiber_sums[rep_next[tgt]] = fiber_sums.get(rep_next[tgt], 0) + coef
                if any(fiber_sums.values()):
                    raise ModuleError(f"{M.name}: kernel image escapes the difference basis")
                for tgt, coef in image.items():
                    if coef and rep_next[tgt] != tgt:
                        mat[pos_next[tgt], col] += coef
            out.append(mat)
        lam[pair] = out
    name = "R[U]" if M.name == "R" else f"{M.name}[U]"
    return module_from_pairs(name, M.ring, M.side, ranks, lam, n_top)


def u_image(ring) -> list:
    """Per degree n, the sorted classes of (e, e) ++ rep_i over the classes i
    of R_{n-1}, one representative at a time; none in degree 0."""
    e = ring.G.identity
    return [[]] + [sorted({ring.class_index(n, (e, e) + ring.rep(n - 1, i))
                           for i in range(ring.basis_size(n - 1))})
                   for n in range(1, ring.n_max + 1)]


def ur_ideal_module(ring, side: str = "left") -> GradedModule:
    """U(R) as a module: degree-n basis = distinct U images inside R_n."""
    bases = u_image(ring)
    ranks = tuple(len(b) for b in bases)
    pos = [{r: i for i, r in enumerate(b)} for b in bases]
    lam = {}
    for pair in pairs(ring.G):
        mats = []
        for n in range(ring.n_max):
            mat = np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
            for j, r_idx in enumerate(bases[n]):
                rep = ring.rep(n, r_idx)
                tup = (pair + rep) if side == "left" else (rep + pair)
                tgt = ring.class_index(n + 1, tup)
                mat[pos[n + 1][tgt], j] = 1
            mats.append(mat)
        lam[pair] = mats
    return module_from_pairs("UR", ring, side, ranks, lam, ring.n_max)


def truncate_module(M: GradedModule, k: int) -> GradedModule:
    """Quotient truncation: components above degree k become zero."""
    ranks = tuple(r if n <= k else 0 for n, r in enumerate(M.ranks))
    lam = {}
    for pair in pairs(M.ring.G):
        lam[pair] = [act(M, pair, n) if n + 1 <= k
                     else np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
                     for n in range(M.n_max)]
    return module_from_pairs(f"{M.name}<= {k}", M.ring, M.side, ranks, lam, M.n_max)


def h1(M: GradedModule) -> list:
    """H1(M) = ker(beta: R_{>0} (x)_R M -> M) degreewise."""
    rplus = dataclasses.replace(modules.regular_module(M.ring, side="right"), name="R>0")
    identity = [range(rank) for rank in rplus.ranks]
    return [chain_homology(modules._beta_matrix(rplus, M, n, min_i=1, classes=identity),
                           modules._tensor_presentation(rplus, M, n, min_i=1))
            for n in range(M.n_max + 1)]


def tensor_presentation(N: GradedModule, M: GradedModule, n: int, min_i: int = 0) -> IntMatrix:
    """``modules._tensor_presentation`` from dense blocks: per split
    i + 1 + k = n, -kron(I, lambda_c) on the N_i x M_{k+1} generators stacked
    on kron(rho_c, I) on the N_{i+1} x M_k generators right after them."""
    offsets, dim = modules._gen_offsets(N, M, n, min_i)
    rows, cols, vals = [], [], []
    n_rel = 0
    for i in range(min_i, n):
        k = n - 1 - i
        block = np.concatenate(
            [-np.kron(np.eye(N.rank(i), dtype=np.int64), M.acts[k]),
             np.kron(N.acts[i], np.eye(M.rank(k), dtype=np.int64))], axis=1)
        cls, r, c = np.nonzero(block)
        rows.append(offsets[i] + r)
        cols.append(n_rel + cls * block.shape[2] + c)
        vals.append(block[cls, r, c])
        n_rel += block.shape[0] * block.shape[2]
    if not rows:
        return IntMatrix(dim, n_rel)
    return IntMatrix.from_triplets(dim, n_rel, np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))


def beta_matrix(N: GradedModule, M: GradedModule, n: int, min_i: int,
                classes: list) -> IntMatrix:
    """``modules._beta_matrix`` by one ``act_class`` product per generator."""
    offsets, dim = modules._gen_offsets(N, M, n, min_i)
    rows, cols, vals = [], [], []
    for i in range(min_i, n + 1):
        k = n - i
        if N.rank(i) == 0 or M.rank(k) == 0:
            continue
        for u in range(N.rank(i)):
            action = act_class(M, i, classes[i][u], k)  # M_k -> M_n
            r, m = np.nonzero(action)
            rows.append(r)
            cols.append(offsets[i] + u * M.rank(k) + m)
            vals.append(action[r, m])
    if not rows:
        return IntMatrix(M.rank(n), dim)
    return IntMatrix.from_triplets(M.rank(n), dim, np.concatenate(rows),
                                   np.concatenate(cols), np.concatenate(vals))
