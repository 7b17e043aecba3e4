"""The Koszul-type complex of a graded module: explicit differential with
commutator conjugators, its exact chain checks (d^2 = 0, dU = Ud, the
prepend chain homotopy, right multiplication as a chain map), and homology
per spot.  The verdicts built from these live in ``pipeline``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import FiniteGroup
from .modules import GradedModule
from .ring import GradedRing
from .words import boundary_eval
from .zlinalg import HomologyGroup, IntMatrix, chain_homology


class KComplexError(ValueError):
    """Raised on budget violations or a non-regular module where one is required."""


@dataclass
class KComplex:
    """K_p(n) has basis (tuple in G^2p) x (basis of M_{n-p}); flat index
    tuple_rank * rank(M_{n-p}) + module_index."""

    module: GradedModule
    ring: GradedRing
    p_max: int
    n_max: int
    d: dict  # (p, n) -> IntMatrix, K_p(n) -> K_{p-1}(n), 1 <= p <= p_max

    @property
    def G(self) -> FiniteGroup:
        return self.ring.G

    def dim(self, p: int, n: int) -> int:
        if p < 0 or n < p:
            return 0
        return self.G.order ** (2 * p) * self.module.rank(n - p)

    def d_matrix(self, p: int, n: int) -> IntMatrix:
        if p < 1 or p > self.p_max:
            raise KComplexError(f"no differential stored for p={p}")
        if n > self.n_max:
            raise KComplexError(f"degree {n} beyond window {self.n_max}")
        got = self.d.get((p, n))
        if got is None:
            return IntMatrix(self.dim(p - 1, n), self.dim(p, n))
        return got


def _group_tables(G: FiniteGroup):
    """Commutator and conjugation tables: comm[x, y] = [x, y], conj[x, y] = x^y."""
    t, inv = G.table, G.inverse
    x = np.arange(G.order)[:, None]
    y = np.arange(G.order)[None, :]
    return t[t[t[x, y], inv[x]], inv[y]], t[t[inv[y], x], y]


def _commutator_products(G: FiniteGroup, comm: np.ndarray, digits: np.ndarray) -> list:
    """Suffix commutator products over every tuple at once: out[k][t] multiplies
    the commutators of the pairs of tuple t from 0-based index k on, so out[0]
    is the whole product and the conjugator of pair k is out[k + 1]."""
    p = len(digits) // 2
    out = [np.zeros(digits.shape[1], dtype=np.int64)] * (p + 1)
    for k in range(p - 1, -1, -1):
        out[k] = G.table[comm[digits[2 * k], digits[2 * k + 1]], out[k + 1]]
    return out


def _ragged_gather(ptr: np.ndarray, key: np.ndarray):
    """For segments ptr[key[i]]:ptr[key[i] + 1], the owning position i and the
    index of every element, segments in the order of key."""
    start = ptr[key]
    count = ptr[key + 1] - start
    owner = np.repeat(np.arange(len(key)), count)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    return owner, start[owner] + offset


def build_kcomplex(M: GradedModule, p_max: int, n_max: int) -> KComplex:
    """Materialize the differentials d_{p,n} for 1 <= p <= p_max, n <= n_max.

    Column rule for a basis element (a_1, b_1, ..., a_p, b_p) (x) m:
    sum over k of (-1)^(k-1) (pairs minus k-th) (x) [a_k^{d_k}, b_k^{d_k}] m
    with d_k the product of the commutators of the later pairs.  Each term is
    an index gather over all tuples at once: the class of the conjugated pair
    picks the nonzeros of its row of the module's action array.
    """
    if M.side != "left":
        raise KComplexError("K-complex coefficients must form a left module")
    if n_max > M.n_max:
        raise KComplexError(f"module window {M.n_max} < requested n_max {n_max}")
    ring = M.ring
    G = ring.G
    order = G.order
    comm, conj = _group_tables(G)
    d = {}
    for p in range(1, p_max + 1):
        states = order ** (2 * p)
        digits = _kernels._decode_all(2 * p, order, states)
        suffix = _commutator_products(G, comm, digits)
        ranks = np.arange(states, dtype=np.int64)
        terms = []  # per k: sign, class of the conjugated pair, tuple without pair k
        for k in range(p):
            low = order ** (2 * (p - k - 1))
            pair_k = (conj[digits[2 * k], suffix[k + 1]] * order
                      + conj[digits[2 * k + 1], suffix[k + 1]])
            rest = ranks // (low * order * order) * low + ranks % low
            terms.append((1 if k % 2 == 0 else -1, ring.pair_class[pair_k], rest))
        for n in range(p, n_max + 1):
            rank_lo = M.rank(n - p + 1)
            rank_hi = M.rank(n - p)
            shape = (order ** (2 * p - 2) * rank_lo, states * rank_hi)
            if rank_hi == 0 or rank_lo == 0:
                d[p, n] = IntMatrix(*shape)
                continue
            # nonzeros of every class's action, ordered by (class, column, row)
            acts = M.acts[n - p].transpose(0, 2, 1)
            nz_cls, nz_col, nz_row = np.nonzero(acts)
            nz_val = acts[nz_cls, nz_col, nz_row]
            ptr = np.searchsorted(nz_cls * rank_hi + nz_col, np.arange(len(acts) * rank_hi + 1))
            rows, cols, vals = [], [], []
            for sign, class_k, rest in terms:
                col, idx = _ragged_gather(
                    ptr, (class_k[:, None] * rank_hi + np.arange(rank_hi)).ravel())
                rows.append(rest[col // rank_hi] * rank_lo + nz_row[idx])
                cols.append(col)
                vals.append(sign * nz_val[idx])
            d[p, n] = IntMatrix.from_triplets(*shape, np.concatenate(rows),
                                              np.concatenate(cols), np.concatenate(vals))
    return KComplex(module=M, ring=ring, p_max=p_max, n_max=n_max, d=d)


def verify_d_squared(K: KComplex):
    """True iff every composable composite is the zero matrix; else the first
    offending (p, n, basis column)."""
    for p in range(2, K.p_max + 1):
        for n in range(p, K.n_max + 1):
            comp = K.d_matrix(p - 1, n).matmul(K.d_matrix(p, n))
            if not comp.is_zero:
                return False, (p, n, int(comp.col.min()))
    return True, None


def u_commutes_with_d(K: KComplex):
    """Check d (Id (x) U) = (Id (x) U) d at every spot in the window."""
    M = K.module
    order = K.G.order
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max):
            states = order ** (2 * p)
            u_hi = _id_tensor_u(M, p, n, states)
            u_lo = _id_tensor_u(M, p - 1, n, order ** (2 * p - 2))
            lhs = K.d_matrix(p, n + 1).matmul(u_hi)
            rhs = u_lo.matmul(K.d_matrix(p, n))
            if lhs != rhs:
                return False, (p, n)
    return True, None


def _id_tensor_u(M: GradedModule, p: int, n: int, states: int) -> IntMatrix:
    rank_src = M.rank(n - p)
    rank_tgt = M.rank(n + 1 - p)
    u = M.u_matrix(n - p) if rank_src and n - p < M.n_max else np.zeros((rank_tgt, rank_src), dtype=np.int64)
    r, j = np.nonzero(u)
    t = np.arange(states, dtype=np.int64)[:, None]
    return IntMatrix.from_triplets(states * rank_tgt, states * rank_src, t * rank_tgt + r,
                                   t * rank_src + j, np.broadcast_to(u[r, j], (states, len(r))))


def _require_regular(K: KComplex) -> None:
    if K.module.name != "R" or K.module.side != "left":
        raise KComplexError("this operation needs the regular module as coefficients")


def _basis_map(rows: int, image: np.ndarray) -> IntMatrix:
    """The 0/1 matrix sending basis column i to basis row image.flat[i]."""
    return IntMatrix.from_triplets(rows, image.size, image, np.arange(image.size),
                                   np.ones(image.size, dtype=np.int64))


def _homotopy_matrix(K: KComplex, g: int, h: int, p: int, n: int) -> IntMatrix:
    """S_{(g,h)}: K_p(n) -> K_{p+1}(n+1), one entry 1 per column.

    Basis element (t, j) goes to ((g, h)^{tau^-1}, t) (x) j, where tau is the
    product of all commutators appearing: the pairs of t, then the evaluated
    boundary of class j.  That boundary value is an orbit invariant, so any
    representative gives it.
    """
    G = K.G
    order = G.order
    rank = K.module.rank(n - p)
    states = order ** (2 * p)
    comm, conj = _group_tables(G)
    tuple_comm = _commutator_products(G, comm, _kernels._decode_all(2 * p, order, states))[0]
    boundary = np.array([boundary_eval(G, K.ring.rep(n - p, j)) for j in range(rank)],
                        dtype=np.int64)
    tau_inv = G.inverse[G.table[tuple_comm[:, None], boundary[None, :]]]
    prepended = (conj[g, tau_inv] * order + conj[h, tau_inv]) * states
    prepended += np.arange(states, dtype=np.int64)[:, None]
    return _basis_map(K.dim(p + 1, n + 1), prepended * rank + np.arange(rank))


def homotopy_check(K: KComplex, g: int, h: int):
    """Verify S d + d S = right multiplication by [g, h] on every spot with
    p < p_max and n < n_max; returns (True, None) or (False, witness), the
    witness being the first failing spot and its smallest failing basis
    element (p, n, tuple rank, class index)."""
    _require_regular(K)
    s = {}  # S at (p, n) serves again as the S below the differential at (p + 1, n)
    for p in range(0, K.p_max):
        for n in range(p, K.n_max):
            rank = K.module.rank(n - p)
            if rank == 0:
                continue
            s[p, n] = _homotopy_matrix(K, g, h, p, n)
            lhs = K.d_matrix(p + 1, n + 1).matmul(s[p, n])
            if p >= 1:
                s_lo = s.get((p - 1, n)) or _homotopy_matrix(K, g, h, p - 1, n)
                lhs = lhs + s_lo.matmul(K.d_matrix(p, n))
            rhs = right_mult_matrix(K, g, h, p, n)
            if lhs != rhs:
                col = int((lhs - rhs).col.min())
                return False, (p, n, col // rank, col % rank)
    return True, None


def right_mult_matrix(K: KComplex, g: int, h: int, p: int, n: int) -> IntMatrix:
    """Matrix of x -> x . [g,h] from K_p(n) to K_p(n+1)."""
    _require_regular(K)
    ring = K.ring
    rank_up = K.module.rank(n - p + 1)
    states = K.G.order ** (2 * p)
    append = ring.product(n - p, 1)[:, ring.class_index(1, (g, h))]
    return _basis_map(states * rank_up, np.arange(states, dtype=np.int64)[:, None] * rank_up + append)


def right_mult_is_chain_map(K: KComplex, g: int, h: int):
    """d . Rmult = Rmult . d at every composable spot."""
    _require_regular(K)
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max):
            lhs = K.d_matrix(p, n + 1).matmul(right_mult_matrix(K, g, h, p, n))
            rhs = right_mult_matrix(K, g, h, p - 1, n).matmul(K.d_matrix(p, n))
            if lhs != rhs:
                return False, (p, n)
    return True, None


def kc_homology(K: KComplex, p: int, n: int) -> HomologyGroup:
    """H_p of the complex at total degree n (needs d_{p+1} in the window)."""
    if p + 1 > K.p_max:
        raise KComplexError(f"homology at p={p} needs differentials to p={p + 1}")
    if p < 0 or n > K.n_max:
        raise KComplexError(f"spot ({p}, {n}) outside window")
    d_out = K.d_matrix(p, n) if p >= 1 else IntMatrix(0, K.dim(0, n))
    d_in = K.d_matrix(p + 1, n)
    return chain_homology(d_out, d_in)


@dataclass(frozen=True)
class HProfileRow:
    p: int
    n: int
    homology: HomologyGroup
    certified: bool  # False only on the open window edge where higher degrees are unknown


def h_profile(K: KComplex) -> list:
    """Homology at every computable spot, flagged at the window edge."""
    rows = []
    for p in range(0, K.p_max):
        for n in range(p, K.n_max + 1):
            hom = kc_homology(K, p, n)
            rows.append(HProfileRow(p=p, n=n, homology=hom,
                                    certified=n < K.n_max or hom.is_zero))
    return rows
