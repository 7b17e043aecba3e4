"""The Koszul-type complex of a graded module: explicit differential with
commutator conjugators, d^2 = 0, the prepend chain homotopy (checked by
gathering columns and relabelling rows of d, as the maps composed with d send
basis elements to basis elements), and homology per spot.  The verdicts live in
``pipeline``, which checks dU = Ud and right multiplication on the ring;
``u_commutes_with_d``, ``_id_tensor_u`` and ``right_mult_is_chain_map`` check
them on K, kept only for the benchmark harness and as test references."""

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
                count, idx = _kernels.ragged_gather(
                    ptr, (class_k[:, None] * rank_hi + np.arange(rank_hi)).ravel())
                col = np.repeat(np.arange(len(count)), count)
                rows.append(rest[col // rank_hi] * rank_lo + nz_row[idx])
                cols.append(col)
                vals.append(sign * nz_val[idx])
            d[p, n] = IntMatrix.from_triplets(*shape, np.concatenate(rows),
                                              np.concatenate(cols), np.concatenate(vals))
    return KComplex(module=M, ring=ring, p_max=p_max, n_max=n_max, d=d)


def verify_d_squared(K: KComplex):
    """True iff every composable composite is the zero matrix; else the first
    offending (p, n, basis column).  ``h_profile`` multiplies out the same
    composites in ``chain_homology``, so the pipeline does not call this; the
    benchmark harness times it."""
    for p in range(2, K.p_max + 1):
        for n in range(p, K.n_max + 1):
            comp = K.d_matrix(p - 1, n).matmul(K.d_matrix(p, n))
            if not comp.is_zero:
                return False, (p, n, int(comp.col.min()))
    return True, None


def u_commutes_with_d(K: KComplex):
    """d (Id (x) U) = (Id (x) U) d at every spot; for the benchmark and tests only."""
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
    """Id (x) U: K_p(n) -> K_p(n+1), for ``u_commutes_with_d``."""
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


# The maps composed with d below (S_(g,h), right multiplication) send each
# basis element to one basis element, so a batch of B of them is an int64
# array image[b, i], the basis index of the image of basis element i under
# the b-th map.  d . B gathers columns of d and B . d relabels rows of d; the
# entries of either come as (col, row, val) arrays, with column b * cols + i
# standing for column i of the b-th composite.

def _gather_columns(D: IntMatrix, image: np.ndarray):
    """Entries of D . B for each map of the batch: column i of the b-th
    composite is column image[b, i] of D."""
    ptr, order = D.column_index()
    count, idx = _kernels.ragged_gather(ptr, image.ravel())
    col = np.repeat(np.arange(len(count)), count)
    idx = order[idx]
    return col, D.row[idx], D.val[idx]


def _relabel_rows(D: IntMatrix, image: np.ndarray):
    """Entries of B . D for each map of the batch: row r of D becomes row image[b, r]."""
    batch = len(image)
    col = (np.arange(batch, dtype=np.int64)[:, None] * D.cols + D.col).ravel()
    return col, image[:, D.row].ravel(), np.tile(D.val, batch)


def _nonzero_columns(rows: int, cols: int, parts: list) -> np.ndarray:
    """Sorted columns of the rows x cols batched matrix, the sum of the entry
    lists in ``parts``, that hold a nonzero entry."""
    col, row, val = (np.concatenate([part[k] for part in parts]) for k in range(3))
    return np.unique(IntMatrix.from_triplets(rows, cols, row, col, val).col)


class _Prepend:
    """Per-call tables of the prepend map S_(g,h), kept per (p, degree)."""

    def __init__(self, K: KComplex):
        self.K = K
        self.comm, self.conj = _group_tables(K.G)
        self._tau_inv = {}

    def tau_inv(self, p: int, m: int) -> np.ndarray:
        """tau^-1 for every basis element (t, j) of K_p(p + m), as a states x rank
        array: tau is the product of every commutator appearing, the pairs
        of t and then the boundary value of class j.  That value is an orbit
        invariant, so any representative gives it."""
        got = self._tau_inv.get((p, m))
        if got is None:
            K = self.K
            G = K.G
            states = G.order ** (2 * p)
            tuple_comm = _commutator_products(
                G, self.comm, _kernels._decode_all(2 * p, G.order, states))[0]
            boundary = np.array([boundary_eval(G, K.ring.rep(m, j))
                                 for j in range(K.module.rank(m))], dtype=np.int64)
            got = G.inverse[G.table[tuple_comm[:, None], boundary[None, :]]]
            self._tau_inv[p, m] = got
        return got

    def images(self, gs: np.ndarray, hs: np.ndarray, p: int, n: int) -> np.ndarray:
        """S_(g,h): K_p(n) -> K_{p+1}(n+1) for each pair of the batch, sending
        (t, j) to ((g, h)^(tau^-1), t) (x) j."""
        order = self.K.G.order
        tau_inv = self.tau_inv(p, n - p)
        states, rank = tau_inv.shape
        pair = (self.conj[gs[:, None, None], tau_inv] * order
                + self.conj[hs[:, None, None], tau_inv])
        flat = (pair * states + np.arange(states, dtype=np.int64)[:, None]) * rank
        return (flat + np.arange(rank)).reshape(len(gs), -1)


def _right_mult_images(K: KComplex, gs: np.ndarray, hs: np.ndarray, p: int, n: int):
    """x -> x . [g, h] from K_p(n) to K_p(n+1) for each pair of the batch: (t, j)
    goes to (t, the class of rep_j ++ (g, h))."""
    ring = K.ring
    rank_up = K.module.rank(n - p + 1)
    states = K.G.order ** (2 * p)
    append = ring.product(n - p, 1)[:, ring.pair_class[gs * K.G.order + hs]].T
    flat = np.arange(states, dtype=np.int64)[:, None] * rank_up
    return (flat[None, :, :] + append[:, None, :]).reshape(len(gs), -1)


def _homotopy_failures(K: KComplex, batches: list) -> dict:
    """The first spot where S d + d S = Rmult fails, and its smallest failing
    basis element (p, n, tuple rank, class index), for every failing pair of
    the batches, each batch a pair of arrays (gs, hs); spots run in the order
    of the loop over p, then n, so a pair's first failure is found first."""
    _require_regular(K)
    prepend = _Prepend(K)
    failures = {}
    for p in range(0, K.p_max):
        for n in range(p, K.n_max):
            rank = K.module.rank(n - p)
            if rank == 0:
                continue
            cols, rows = K.dim(p, n), K.dim(p, n + 1)
            up = K.d_matrix(p + 1, n + 1)
            down = K.d_matrix(p, n) if p >= 1 else IntMatrix(0, cols)
            for gs, hs in batches:
                parts = [_gather_columns(up, prepend.images(gs, hs, p, n))]
                if down.nnz:
                    parts.append(_relabel_rows(down, prepend.images(gs, hs, p - 1, n)))
                rmult = _right_mult_images(K, gs, hs, p, n).ravel()
                parts.append((np.arange(len(rmult)), rmult,
                              np.full(len(rmult), -1, dtype=np.int64)))
                for c in _nonzero_columns(rows, len(gs) * cols, parts).tolist():
                    b, i = divmod(c, cols)
                    failures.setdefault((int(gs[b]), int(hs[b])),
                                        (p, n, i // rank, i % rank))
    return failures


def homotopy_check(K: KComplex, g: int, h: int):
    """Verify S d + d S = right multiplication by [g, h] on every spot with
    p < p_max and n < n_max; returns (True, None) or (False, witness), the
    witness being the first failing spot and its smallest failing basis
    element (p, n, tuple rank, class index)."""
    failures = _homotopy_failures(K, [(np.array([g]), np.array([h]))])
    return (False, *failures.values()) if failures else (True, None)


def homotopy_check_all(K: KComplex):
    """``homotopy_check`` for every pair (g, h) of G^2, one batch of |G| pairs
    per g; returns (True, None) or (False, (g, h, witness)) for the first
    failing pair in (g, h) order."""
    order = K.G.order
    failures = _homotopy_failures(
        K, [(np.full(order, g), np.arange(order)) for g in range(order)])
    if not failures:
        return True, None
    g, h = min(failures)
    return False, (g, h, failures[g, h])


def right_mult_is_chain_map(K: KComplex, g: int, h: int):
    """d . Rmult = Rmult . d at every composable spot; for the benchmark and tests only."""
    _require_regular(K)
    gs, hs = np.array([g]), np.array([h])
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max):
            up = K.d_matrix(p, n + 1)
            lhs = _gather_columns(up, _right_mult_images(K, gs, hs, p, n))
            col, row, val = _relabel_rows(K.d_matrix(p, n),
                                          _right_mult_images(K, gs, hs, p - 1, n))
            if len(_nonzero_columns(up.rows, K.dim(p, n), [lhs, (col, row, -val)])):
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
