"""Test-only references for ``stabring.modules``: the per-tuple constructions
that the product table, the basis restrictions and the per-class image
arrays replaced.

The references hold a module as dense action matrices, ``DenseModule``:
``acts[n]`` of shape (|R_1|, rank_{n+1}, rank_n), row c the matrix of
degree-1 class c, with any integer entries.  ``dense`` writes a library
module's image arrays out in that form, and every reference that reads
actions takes either kind through it.

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

The lemma battery by Smith normal forms, which the library's counts on
image arrays replaced: ``tensor_presentation`` reads the relations of
N (x)_R M off the nonzeros of the action arrays, ``beta_matrix`` the map
U(R) (x)_R M -> M off the classes' actions (``class_actions``, one batched
product per degree), and ``graded_tensor``, ``h0``, ``delta_and_bounds``
and ``generated_in_degrees_upto`` take every group from ``chain_homology``
or ``smith_normal_form``.  These work on any module, monomial or not.
``kron_tensor_presentation`` builds each split's relations as dense
``np.kron`` blocks instead, and ``generator_beta_matrix`` multiplies the
pair actions out for one generator at a time.

``h1`` is H1(M) from the tensor presentation; the library itself only needs
H0 and Tor_1 against U(R).
"""

from __future__ import annotations

import dataclasses
from itertools import accumulate

import numpy as np

from reference_snf import from_dense
from stabring import _kernels, modules
from stabring.modules import DeltaBounds, GradedModule, ModuleError, deg_of, module_deg
from stabring.zlinalg import HomologyGroup, IntMatrix, chain_homology, smith_normal_form


@dataclasses.dataclass
class DenseModule:
    """A graded module by dense action arrays: acts[n][c] is the integer
    matrix of degree-1 class c acting M_n -> M_{n+1}, for 0 <= n < n_max."""

    name: str
    ring: object
    side: str
    ranks: tuple
    acts: list
    n_max: int

    rank = GradedModule.rank

    def u_matrix(self, n: int) -> np.ndarray:
        """U: M_n -> M_{n+1}, the action of class 0, the class of (e, e)."""
        if not 0 <= n < self.n_max:
            raise ModuleError(f"action at degree {n} beyond window {self.n_max}")
        return self.acts[n][0]


def dense(M) -> DenseModule:
    """A library module with each image array written out as its 0/1 action
    matrices; a ``DenseModule`` as it is."""
    if isinstance(M, DenseModule):
        return M
    acts = []
    for n, image in enumerate(M.images):
        act = np.zeros((len(image), M.rank(n + 1), M.rank(n)), dtype=np.int64)
        c, j = np.nonzero(image >= 0)
        act[c, image[c, j], j] = 1
        acts.append(act)
    return DenseModule(M.name, M.ring, M.side, M.ranks, acts, M.n_max)


def pairs(G) -> list:
    return [(a, b) for a in range(G.order) for b in range(G.order)]


def act(M, pair, n: int) -> np.ndarray:
    """Matrix of the (a, b) action M_n -> M_{n+1}."""
    if not 0 <= n < M.n_max:
        raise ModuleError(f"action at degree {n} beyond window {M.n_max}")
    return dense(M).acts[n][M.ring.class_index(1, pair)]


def act_class(M, deg: int, ring_idx: int, n: int) -> np.ndarray:
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


def module_from_pairs(name, ring, side, ranks, lam: dict, n_max: int) -> DenseModule:
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
    return DenseModule(name, ring, side, ranks, acts, n_max)


def consistency_failures(M) -> list:
    """Degree-2 orbit relations violated by the actions, one tuple at a time:
    per degree n and degree-2 class, the first tuple in rank order whose
    composite differs from that of the first tuple of its class."""
    M = dense(M)
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


def regular_module(ring, side: str = "left") -> DenseModule:
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


def quotient_u_module(M) -> DenseModule:
    """M / UM, for modules whose U action is monomial (basis to basis or zero)."""
    M = dense(M)
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


def u_kernel_module(M) -> DenseModule:
    """M[U] = ker(U), for monomial U; basis vectors are fiber differences.
    Its actions may have entries -1 and two nonzeros in a column.

    The window shrinks by one degree: the kernel at the top degree would need
    the U map out of it.
    """
    M = dense(M)
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


def ur_ideal_module(ring, side: str = "left") -> DenseModule:
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


def truncate_module(M, k: int) -> DenseModule:
    """Quotient truncation: components above degree k become zero."""
    M = dense(M)
    ranks = tuple(r if n <= k else 0 for n, r in enumerate(M.ranks))
    lam = {}
    for pair in pairs(M.ring.G):
        lam[pair] = [act(M, pair, n) if n + 1 <= k
                     else np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
                     for n in range(M.n_max)]
    return module_from_pairs(f"{M.name}<= {k}", M.ring, M.side, ranks, lam, M.n_max)


def h1(M) -> list:
    """H1(M) = ker(beta: R_{>0} (x)_R M -> M) degreewise."""
    rplus = dataclasses.replace(modules.regular_module(M.ring, side="right"), name="R>0")
    identity = [range(rank) for rank in rplus.ranks]
    return [chain_homology(beta_matrix(rplus, M, n, min_i=1, classes=identity),
                           tensor_presentation(rplus, M, n, min_i=1))
            for n in range(M.n_max + 1)]


def kron_tensor_presentation(N, M, n: int, min_i: int = 0) -> IntMatrix:
    """``tensor_presentation`` from dense blocks: per split
    i + 1 + k = n, -kron(I, lambda_c) on the N_i x M_{k+1} generators stacked
    on kron(rho_c, I) on the N_{i+1} x M_k generators right after them."""
    N, M = dense(N), dense(M)
    offsets, dim = gen_offsets(N, M, n, min_i)
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


def generator_beta_matrix(N, M, n: int, min_i: int, classes: list) -> IntMatrix:
    """``beta_matrix`` by one ``act_class`` product per generator."""
    M = dense(M)
    offsets, dim = gen_offsets(N, M, n, min_i)
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


# -- the lemma battery by Smith normal forms ---------------------------------


def gen_offsets(N, M, n: int, min_i: int = 0):
    """Generators of (+)_{i+k=n} N_i x M_k with i >= min_i; returns offsets."""
    if N.side != "right" or M.side != "left":
        raise ModuleError("tensor needs a right module and a left module")
    splits = range(min_i, n + 1)
    starts = list(accumulate((N.rank(i) * M.rank(n - i) for i in splits), initial=0))
    return dict(zip(splits, starts)), starts[-1]


def tensor_presentation(N, M, n: int, min_i: int = 0) -> IntMatrix:
    """Relation matrix of the degree-n piece of N (x)_R M.

    Generators u (x) m over splits i + k = n (i >= min_i), numbered as in
    ``gen_offsets``; relations move one degree-1 class c across the tensor
    sign: (u . c) (x) m - u (x) (c m).  Per split i + 1 + k = n the relation
    of (c, u, m) is column (c N_i + u) M_k + m of the split's block.  Each
    nonzero lambda_c[r, m] of M gives -lambda_c[r, m] at generator u (x) r of
    N_i x M_{k+1}, for every u; each nonzero rho_c[v, u] of N gives
    rho_c[v, u] at generator v (x) m of N_{i+1} x M_k, for every m.
    """
    N, M = dense(N), dense(M)
    offsets, dim = gen_offsets(N, M, n, min_i)
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
    return from_blocks(dim, n_rel, rows, cols, vals)


def from_blocks(n_rows: int, n_cols: int, rows: list, cols: list, vals: list) -> IntMatrix:
    """One ``from_triplets`` call on lists of triplet arrays, any shapes."""
    flat = (np.concatenate([np.zeros(0, dtype=np.int64)] + [a.ravel() for a in part])
            for part in (rows, cols, vals))
    return IntMatrix.from_triplets(n_rows, n_cols, *flat)


def beta_matrix(N, M, n: int, min_i: int, classes: list) -> IntMatrix:
    """beta: (N (x)_R M)_n -> M_n sending u (x) m to (class behind u) . m;
    classes[i][u] is that class, of degree i."""
    offsets, dim = gen_offsets(N, M, n, min_i)
    rows, cols, vals = [], [], []
    for i, acting in enumerate(class_actions(M, n)):
        if i < min_i:
            continue
        gathered = acting[np.asarray(classes[i], dtype=np.int64)]
        u, r, m = np.nonzero(gathered)
        rows.append(r)
        cols.append(offsets[i] + u * M.rank(n - i) + m)
        vals.append(gathered[u, r, m])
    return from_blocks(M.rank(n), dim, rows, cols, vals)


def class_actions(M, n: int):
    """Per degree i = 0..n, the actions M_{n-i} -> M_n of every class of R_i
    on the left module M, stacked by class.  Class j of degree i, whose least
    entry in product(i - 1, 1) is (p, y), acts as p . (y . m): one batched
    product per degree."""
    M = dense(M)
    ring = M.ring
    acting = np.eye(M.rank(n), dtype=np.int64)[None]
    yield acting
    for i in range(1, n + 1):
        _, least = np.unique(ring.steps[i - 1], return_index=True)
        p, y = np.divmod(least, ring.basis_size(1))
        acting = np.matmul(acting[p], M.acts[n - i][y])
        yield acting


def graded_tensor(N, M) -> list:
    """(N (x)_R M)_n as abelian groups, degree by degree within the window."""
    N, M = dense(N), dense(M)
    out = []
    for n in range(min(N.n_max, M.n_max) + 1):
        rel = tensor_presentation(N, M, n)
        out.append(chain_homology(IntMatrix(0, rel.rows), rel))
    return out


def h0(M) -> list:
    """H0(M) = M / R_{>0} M degreewise: coker of all degree-1 actions."""
    M = dense(M)
    out = [HomologyGroup(free_rank=M.rank(0))]
    for n in range(1, M.n_max + 1):
        rows = M.rank(n)
        # the degree-1 actions side by side, one block of columns per class
        act = M.acts[n - 1]
        stack = act.transpose(1, 0, 2).reshape(rows, act.shape[0] * act.shape[2])
        out.append(chain_homology(IntMatrix(0, rows),
                                  from_dense(stack, rows=rows, cols=stack.shape[1])))
    return out


def ring_parts(ring) -> modules.RingParts:
    """``modules.ring_parts`` with deg H0(R/UR) by Smith normal forms."""
    parts = modules.ring_parts(ring)
    return dataclasses.replace(parts, rbar_h0_deg=deg_of(h0(parts.rbar)))


def delta_and_bounds(M, parts=None) -> DeltaBounds:
    """``modules.delta_and_bounds`` with every group a ``chain_homology``
    Smith form: M/UM and ker U from U's matrices, Tor_1 from the tensor
    presentation and beta."""
    M = dense(M)
    parts = parts or ring_parts(M.ring)
    u = [from_dense(M.u_matrix(n), rows=M.rank(n + 1), cols=M.rank(n))
         for n in range(M.n_max)]
    tor0 = [HomologyGroup(free_rank=M.rank(0))] + [
        chain_homology(IntMatrix(0, M.rank(n + 1)), u[n]) for n in range(M.n_max)]
    deg_m_u = max((n for n in range(M.n_max) if smith_normal_form(u[n]).rank < M.rank(n)),
                  default=-1)
    tor1 = [chain_homology(beta_matrix(parts.ur, M, n, min_i=1, classes=parts.ur_classes),
                           tensor_presentation(parts.ur, M, n, min_i=1))
            for n in range(min(parts.ur.n_max, M.n_max) + 1)]
    deg_tor0, deg_tor1 = deg_of(tor0), deg_of(tor1)
    delta = max(deg_tor0, deg_tor1)
    a_m = max(deg_m_u, deg_tor0)
    tensor_deg = deg_of(graded_tensor(parts.rbar, M))
    deg_h0 = deg_of(h0(M))
    lhs_bound = min(parts.rbar_deg + deg_h0, parts.rbar_h0_deg + module_deg(M))
    return DeltaBounds(tor0=tuple(tor0), tor1=tuple(tor1), delta=delta,
                       deg_m_u=deg_m_u, deg_m_mod_u=deg_tor0, deg_h0=deg_h0, a_m=a_m,
                       a_bound_ok=a_m <= delta + parts.a_r,
                       tensor_bound_ok=tensor_deg <= lhs_bound)


def generated_in_degrees_upto(M, a: int) -> bool:
    """Whether components up to degree a generate M, by the integer span: the
    submodule generated by degrees <= a fills M_n iff the accumulated image
    lattice is all of Z^{rank}."""
    M = dense(M)
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
            snf = smith_normal_form(from_dense(gens, rows=M.rank(n), cols=gens.shape[1]))
            if not (snf.rank == M.rank(n) and all(f == 1 for f in snf.factors)):
                return False
        prev_gens = gens
    return True
