"""Test-only references for ``stabring.kcomplex``: the per-(tuple, basis)
loops that the array code replaced, the per-pair sparse-product homotopy
check that the batched index gathers replaced, and ``homotopy_check_all``,
those gathers over every pair of G^2, the K-level form of the pipeline's
homotopy verdict, and the per-element rule of ``unit_matching``.

Matrices are built and multiplied here as dicts ``{(row, col): value}`` over
Python integers, one basis element at a time, with no stored zeros.  Only the
finished differentials and maps are converted to ``IntMatrix``.  The four
checks return the same ``(ok, witness)`` as the library's: the first failing
spot in loop order and, where the witness names one, its smallest failing
basis element.  Keep these to complexes of a few ten thousand columns.
"""

from __future__ import annotations

import numpy as np

from reference_kernels import boundary_eval_tuple, encode_tuple
import reference_modules
from stabring import _kernels
from stabring.kcomplex import (KComplex, KComplexError, _commutator_products,
                               _group_tables, _homotopy_failures, _require_regular)
from stabring.orbits import decode_tuple
from stabring.zlinalg import IntMatrix


def conjugate(G, x: int, y: int) -> int:
    """x^y := y^-1 x y."""
    return int(G.table[G.table[G.inverse[y], x], y])


def entries(mat: IntMatrix) -> dict:
    return {(r, c): v for r, c, v in zip(mat.row.tolist(), mat.col.tolist(), mat.val.tolist())}


def to_matrix(rows: int, cols: int, ents: dict) -> IntMatrix:
    keys = list(ents)
    return IntMatrix.from_triplets(rows, cols, [r for r, _ in keys], [c for _, c in keys],
                                   list(ents.values()))


def add_at(ents: dict, r: int, c: int, v: int) -> None:
    nv = ents.get((r, c), 0) + v
    if nv:
        ents[r, c] = nv
    else:
        ents.pop((r, c), None)


def matmul(a: IntMatrix, b: IntMatrix) -> dict:
    """Entries of a . b, accumulated column by column."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    left_by_col = {}
    for (r, c), v in entries(a).items():
        left_by_col.setdefault(c, []).append((r, v))
    out = {}
    for (k, c), v in entries(b).items():
        for r, w in left_by_col.get(k, ()):
            add_at(out, r, c, w * v)
    return out


def _conjugators(G, pairs) -> list:
    """Suffix commutator products; out[k] multiplies the commutators of the
    pairs from 0-based index k on, so the conjugator of pair k is out[k + 1]."""
    p = len(pairs)
    out = [G.identity] * (p + 1)
    for k in range(p - 1, -1, -1):
        a, b = pairs[k]
        out[k] = int(G.table[G.commutator(a, b), out[k + 1]])
    return out


def build_kcomplex(M, p_max: int, n_max: int) -> KComplex:
    """Column rule of ``stabring.kcomplex.build_kcomplex``, one (tuple, basis) pair at a time."""
    if M.side != "left":
        raise KComplexError("K-complex coefficients must form a left module")
    ring = M.ring
    G = ring.G
    order = G.order
    actions = reference_modules.dense(M)
    d = {}
    for p in range(1, p_max + 1):
        states = order ** (2 * p)
        for n in range(p, n_max + 1):
            rank_lo = M.rank(n - p + 1)
            rank_hi = M.rank(n - p)
            shape = (order ** (2 * p - 2) * rank_lo, states * rank_hi)
            ents = {}
            if rank_hi and rank_lo:
                acts = {}
                for t in range(states):
                    flat = decode_tuple(t, order, 2 * p)
                    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(p)]
                    conj = _conjugators(G, pairs)
                    for k in range(p):
                        ck = conj[k + 1]
                        pair_k = (conjugate(G, pairs[k][0], ck), conjugate(G, pairs[k][1], ck))
                        act = acts.get(pair_k)
                        if act is None:
                            act = reference_modules.act(actions, pair_k, n - p)
                            acts[pair_k] = act
                        rest = [e for i, pr in enumerate(pairs) if i != k for e in pr]
                        t2 = encode_tuple(rest, order)
                        sign = 1 if k % 2 == 0 else -1
                        for j in range(rank_hi):
                            for r in np.flatnonzero(act[:, j]):
                                add_at(ents, t2 * rank_lo + int(r), t * rank_hi + j,
                                       sign * int(act[r, j]))
            d[p, n] = to_matrix(*shape, ents)
    return KComplex(module=M, ring=ring, p_max=p_max, n_max=n_max, d=d)


def verify_d_squared(K: KComplex):
    for p in range(2, K.p_max + 1):
        for n in range(p, K.n_max + 1):
            comp = matmul(K.d_matrix(p - 1, n), K.d_matrix(p, n))
            if comp:
                return False, (p, n, min(c for (_, c) in comp))
    return True, None


def unit_matching(M, p: int, n: int):
    """The rule of ``stabring.kcomplex.unit_matching``, one basis element at a
    time on the dense actions: for each y of M_{n-p+1} the least class x_y,
    then the least column j_y of lambda(x_y) that is e_y, and the least pair
    t_y of class x_y; rows s (x) y for s in loop order, y ascending."""
    act = reference_modules.dense(M).acts[n - p]
    rank_in, rank_out = M.rank(n - p), M.rank(n - p + 1)
    pair_class = M.ring.pair_class.tolist()
    pairs = len(pair_class)
    chosen = {}
    for y in range(rank_out):
        e_y = np.zeros(rank_out, dtype=np.int64)
        e_y[y] = 1
        for x in range(len(act)):
            j = next((j for j in range(rank_in) if np.array_equal(act[x][:, j], e_y)), None)
            if j is not None:
                chosen[y] = (j, pair_class.index(x))
                break
    last_pairs = {t for _, t in chosen.values()}
    prow, pcol = [], []
    for s in range(pairs ** (p - 1)):
        if p > 1 and s % pairs in last_pairs:
            continue
        for y, (j, t) in chosen.items():
            prow.append(s * rank_out + y)
            pcol.append((s * pairs + t) * rank_in + j)
    return prow, pcol


def _id_tensor_u(M, p: int, n: int, states: int) -> IntMatrix:
    rank_src = M.rank(n - p)
    rank_tgt = M.rank(n + 1 - p)
    if rank_src and n - p < M.n_max:
        u = reference_modules.dense(M).u_matrix(n - p)
    else:
        u = np.zeros((rank_tgt, rank_src), dtype=np.int64)
    ents = {}
    for t in range(states):
        for j in range(rank_src):
            for r in np.flatnonzero(u[:, j]):
                add_at(ents, t * rank_tgt + int(r), t * rank_src + j, int(u[r, j]))
    return to_matrix(states * rank_tgt, states * rank_src, ents)


def u_commutes_with_d(K: KComplex):
    M = K.module
    order = K.G.order
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max):
            u_hi = _id_tensor_u(M, p, n, order ** (2 * p))
            u_lo = _id_tensor_u(M, p - 1, n, order ** (2 * p - 2))
            if matmul(K.d_matrix(p, n + 1), u_hi) != matmul(u_lo, K.d_matrix(p, n)):
                return False, (p, n)
    return True, None


def _tau(K: KComplex, pairs, ring_idx: int, n_class: int) -> int:
    """Product of all commutators appearing: explicit pairs then the class part."""
    G = K.G
    acc = G.identity
    for a, b in pairs:
        acc = int(G.table[acc, G.commutator(a, b)])
    rep = K.ring.rep(n_class, ring_idx)
    return int(G.table[acc, boundary_eval_tuple(G, rep)])


def _homotopy_image(K: KComplex, g: int, h: int, p: int, n: int, t: int, j: int) -> int:
    """S_{(g,h)} of basis element (t, j) of K_p(n): flat index in K_{p+1}(n+1)."""
    G = K.G
    order = G.order
    flat = decode_tuple(t, order, 2 * p)
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(p)]
    tau_inv = int(G.inverse[_tau(K, pairs, j, n - p)])
    g2 = conjugate(G, g, tau_inv)
    h2 = conjugate(G, h, tau_inv)
    t2 = encode_tuple((g2, h2) + tuple(flat), order)
    return t2 * K.module.rank(n - p) + j


def _apply_s_to_vector(K: KComplex, g: int, h: int, p: int, n: int, vec: dict) -> dict:
    rank = K.module.rank(n - p)
    out = {}
    for idx, coef in vec.items():
        t, j = divmod(idx, rank)
        tgt = _homotopy_image(K, g, h, p, n, t, j)
        out[tgt] = out.get(tgt, 0) + coef
        if out[tgt] == 0:
            del out[tgt]
    return out


def _columns(mat: IntMatrix) -> dict:
    cols = {}
    for (r, c), v in entries(mat).items():
        cols.setdefault(c, {})[r] = v
    return cols


def homotopy_check(K: KComplex, g: int, h: int):
    _require_regular(K)
    ring = K.ring
    order = K.G.order
    for p in range(0, K.p_max):
        for n in range(p, K.n_max):
            rank = K.module.rank(n - p)
            rank_up = K.module.rank(n - p + 1)
            if rank == 0:
                continue
            d_cols = _columns(K.d_matrix(p, n)) if p >= 1 else None
            up_cols = _columns(K.d_matrix(p + 1, n + 1))
            for t in range(order ** (2 * p)):
                for j in range(rank):
                    # d(S(x))
                    lhs = dict(up_cols.get(_homotopy_image(K, g, h, p, n, t, j), {}))
                    # S(d(x))
                    if d_cols is not None:
                        dvec = d_cols.get(t * rank + j, {})
                        for tgt, coef in _apply_s_to_vector(K, g, h, p - 1, n, dvec).items():
                            lhs[tgt] = lhs.get(tgt, 0) + coef
                            if lhs[tgt] == 0:
                                del lhs[tgt]
                    # right multiplication: append (g, h) to the class part
                    j2 = ring.class_index(n - p + 1, ring.rep(n - p, j) + (g, h))
                    if lhs != {t * rank_up + j2: 1}:
                        return False, (p, n, t, j)
    return True, None


def right_mult_matrix(K: KComplex, g: int, h: int, p: int, n: int) -> IntMatrix:
    _require_regular(K)
    ring = K.ring
    rank = K.module.rank(n - p)
    rank_up = K.module.rank(n - p + 1)
    states = K.G.order ** (2 * p)
    append = [ring.class_index(n - p + 1, ring.rep(n - p, j) + (g, h)) for j in range(rank)]
    ents = {}
    for t in range(states):
        for j in range(rank):
            add_at(ents, t * rank_up + append[j], t * rank + j, 1)
    return to_matrix(states * rank_up, states * rank, ents)


def right_mult_is_chain_map(K: KComplex, g: int, h: int):
    _require_regular(K)
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max):
            lhs = matmul(K.d_matrix(p, n + 1), right_mult_matrix(K, g, h, p, n))
            rhs = matmul(right_mult_matrix(K, g, h, p - 1, n), K.d_matrix(p, n))
            if lhs != rhs:
                return False, (p, n)
    return True, None


def flip_signs(K: KComplex, key, positions) -> KComplex:
    """K with the signs of the entries of d[key] at ``positions`` flipped."""
    d = dict(K.d)
    mat = d[key]
    val = mat.val.copy()
    val[positions] *= -1
    d[key] = IntMatrix.from_triplets(mat.rows, mat.cols, mat.row, mat.col, val)
    return KComplex(module=K.module, ring=K.ring, p_max=K.p_max, n_max=K.n_max, d=d)


def mutant(K: KComplex, key, flips: int = 1) -> KComplex:
    """K with the signs of ``flips`` entries of d[key] flipped, spread evenly."""
    return flip_signs(K, key, K.d[key].nnz * np.arange(1, flips + 1) // (flips + 1))


def basis_map(rows: int, image: np.ndarray) -> IntMatrix:
    """The 0/1 matrix sending basis column i to basis row image.flat[i]."""
    return IntMatrix.from_triplets(rows, image.size, image, np.arange(image.size),
                                   np.ones(image.size, dtype=np.int64))


def signed_sum(terms: list) -> IntMatrix:
    """The sum of sign * mat over the (sign, mat) terms, all of one shape."""
    (_, first), *_ = terms
    return IntMatrix.from_triplets(
        first.rows, first.cols, np.concatenate([mat.row for _, mat in terms]),
        np.concatenate([mat.col for _, mat in terms]),
        np.concatenate([sign * mat.val for sign, mat in terms]))


def homotopy_matrix(K: KComplex, g: int, h: int, p: int, n: int) -> IntMatrix:
    """S_{(g,h)}: K_p(n) -> K_{p+1}(n+1), one entry 1 per column, built from
    whole-tuple arrays: basis element (t, j) goes to ((g, h)^{tau^-1}, t) (x) j."""
    G = K.G
    order = G.order
    rank = K.module.rank(n - p)
    states = order ** (2 * p)
    comm, conj = _group_tables(G)
    tuple_comm = _commutator_products(G, comm, _kernels._decode_all(2 * p, order, states))[0]
    boundary = np.array([boundary_eval_tuple(G, K.ring.rep(n - p, j)) for j in range(rank)],
                        dtype=np.int64)
    tau_inv = G.inverse[G.table[tuple_comm[:, None], boundary[None, :]]]
    prepended = (conj[g, tau_inv] * order + conj[h, tau_inv]) * states
    prepended += np.arange(states, dtype=np.int64)[:, None]
    return basis_map(K.dim(p + 1, n + 1), prepended * rank + np.arange(rank))


def product_homotopy_check(K: KComplex, g: int, h: int):
    """``homotopy_check`` by two sparse products per spot, one pair at a time."""
    _require_regular(K)
    s = {}  # S at (p, n) serves again as the S below the differential at (p + 1, n)
    for p in range(0, K.p_max):
        for n in range(p, K.n_max):
            rank = K.module.rank(n - p)
            if rank == 0:
                continue
            s[p, n] = homotopy_matrix(K, g, h, p, n)
            terms = [(1, K.d_matrix(p + 1, n + 1).matmul(s[p, n])),
                     (-1, right_mult_matrix(K, g, h, p, n))]
            if p >= 1:
                s_lo = s.get((p - 1, n)) or homotopy_matrix(K, g, h, p - 1, n)
                terms.append((1, s_lo.matmul(K.d_matrix(p, n))))
            diff = signed_sum(terms)
            if not diff.is_zero:
                col = int(diff.col.min())
                return False, (p, n, col // rank, col % rank)
    return True, None


def homotopy_loop(K: KComplex, check=product_homotopy_check):
    """The homotopy identity over every pair of G^2 in (g, h) order, stopping at
    the first failure: (True, None) or (False, (g, h, witness))."""
    order = K.G.order
    for g in range(order):
        for h in range(order):
            ok, witness = check(K, g, h)
            if not ok:
                return False, (g, h, witness)
    return True, None


def homotopy_check_all(K: KComplex):
    """``kcomplex.homotopy_check`` for every pair (g, h) of G^2, in the batches
    of ``kcomplex._homotopy_failures``, sized by entries; returns (True, None)
    or (False, (g, h, witness)) for the first failing pair in (g, h) order."""
    order = K.G.order
    failures = _homotopy_failures(K, np.repeat(np.arange(order), order),
                                  np.tile(np.arange(order), order))
    if not failures:
        return True, None
    g, h = min(failures)
    return False, (g, h, failures[g, h])
