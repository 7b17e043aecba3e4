"""Test-only references for ``stabring.kcomplex``: the per-(tuple, basis)
loops that the array code replaced.

Matrices are built and multiplied here as dicts ``{(row, col): value}`` over
Python integers, one basis element at a time, with no stored zeros.  Only the
finished differentials and maps are converted to ``IntMatrix``.  The four
checks return the same ``(ok, witness)`` as the library's: the first failing
spot in loop order and, where the witness names one, its smallest failing
basis element.  Keep these to complexes of a few ten thousand columns.
"""

from __future__ import annotations

import numpy as np

from reference_kernels import encode_tuple
from stabring.kcomplex import KComplex, KComplexError, _require_regular
from stabring.orbits import decode_tuple
from stabring.words import boundary_eval
from stabring.zlinalg import IntMatrix


def conjugate(G, x: int, y: int) -> int:
    """x^y := y^-1 x y."""
    return G.mul(G.mul(G.inv(y), x), y)


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
        out[k] = G.mul(G.commutator(a, b), out[k + 1])
    return out


def build_kcomplex(M, p_max: int, n_max: int) -> KComplex:
    """Column rule of ``stabring.kcomplex.build_kcomplex``, one (tuple, basis) pair at a time."""
    if M.side != "left":
        raise KComplexError("K-complex coefficients must form a left module")
    ring = M.ring
    G = ring.G
    order = G.order
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
                            act = M.act(pair_k, n - p)
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


def _id_tensor_u(M, p: int, n: int, states: int) -> IntMatrix:
    rank_src = M.rank(n - p)
    rank_tgt = M.rank(n + 1 - p)
    u = M.u_matrix(n - p) if rank_src and n - p < M.n_max else np.zeros((rank_tgt, rank_src), dtype=np.int64)
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
        acc = G.mul(acc, G.commutator(a, b))
    rep = K.ring.rep(n_class, ring_idx)
    return G.mul(acc, boundary_eval(G, rep))


def _homotopy_image(K: KComplex, g: int, h: int, p: int, n: int, t: int, j: int) -> int:
    """S_{(g,h)} of basis element (t, j) of K_p(n): flat index in K_{p+1}(n+1)."""
    G = K.G
    order = G.order
    flat = decode_tuple(t, order, 2 * p)
    pairs = [(flat[2 * i], flat[2 * i + 1]) for i in range(p)]
    tau_inv = G.inv(_tau(K, pairs, j, n - p))
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
