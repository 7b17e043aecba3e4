"""The Koszul-type complex of a graded module: explicit differential with
commutator conjugators (each built into one key array from the module's
image arrays, after its entry count is checked against the memory budget,
and shared between degrees n whose module action repeats), d^2 = 0, the
prepend chain homotopy S (its identity checked by gathering columns and
relabelling rows of d, as the maps composed with d send basis elements to
basis elements, in batches sized by entries), and homology per spot.  Each
differential is eliminated from a closed-form unit matching
(``unit_matching``): row s (x) y goes to column (s, t_y) (x) j_y, whose
last-pair term is its only entry on a matched row, so the block is a signed
identity and ``zlinalg`` eliminates it in one Schur step before any pivot
search.  The verdicts live in ``pipeline``, which checks dU = Ud, right
multiplication and S d + d S = Rmult on the ring's product tables;
``u_commutes_with_d``, ``_id_tensor_u``, ``right_mult_is_chain_map`` and
``homotopy_check`` (with ``_homotopy_failures``, ``_Prepend`` and
``HOMOTOPY_BATCH``) check them on K, kept only for the benchmark harness and
as test references."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import FiniteGroup
from .modules import GradedModule
from .ring import GradedRing
from .zlinalg import HomologyGroup, IntMatrix, chain_homology


# Peak bytes per entry of one differential's build, the stored result
# included, with margin: tracemalloc measures 40 to 60 over the tuple arrays
# on every d_{p,n} of 20,000 entries or more of S3, D4 and C2xC2 (n <= 4,
# p <= 3) and A4 (n <= 4, p <= 2).
BYTES_PER_KENTRY = 96

# Peak bytes per tuple and pair of the per-p index arrays of the build (the
# tuples' digits, suffix commutator products and pair classes), with margin:
# tracemalloc measures 30 to 43 on S3, C2xC2, D4 and A4 at p = 2 and 3, in
# builds refused at their first differential.
BYTES_PER_KTUPLE = 48


# Entries of one batch of the homotopy check's pairs at a spot, bounded per
# pair before its images are formed (see ``_homotopy_failures``).  Of 2^12
# to 2^20, 2^15 ran fastest on S3 (n <= 3, p <= 2), at a tracemalloc peak of
# 0.75 times K's stored triplets; on D8 (n <= 12) 2^15 to 2^18 were level.
HOMOTOPY_BATCH = 1 << 15


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
    return G.commutator(x, y), t[t[inv[y], x], y]


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
    an index gather over all tuples at once: the class c of the conjugated
    pair picks row c of the module's image array, whose entry c . m >= 0 is
    the one nonzero, 1, of column m of its action.  So n enters only through
    ``M.images[n - p]`` and the rank of M_{n-p+1}: where both equal those one
    degree down, d_{p,n} is the same ``IntMatrix`` object as d_{p,n-1}, and
    the two share one Smith form.

    Each p with entries to compute first holds per-tuple index arrays,
    ``BYTES_PER_KTUPLE`` per tuple and pair; a KComplexError refuses them
    before any is allocated when they would not fit in
    ``_kernels.memory_budget()``.  The entry count of each d_{p,n} is then
    summed from the class of every tuple's pair, and a differential whose
    ``BYTES_PER_KENTRY`` per entry would not fit is refused the same way
    (that figure was measured with the tuple arrays alive).  Each term writes the
    positions row * cols + col and the values of its entries, about
    ``_kernels.CHUNK`` image entries at a time, into one key and one value
    array, which ``IntMatrix.from_keys`` sums.
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
    for p in range(1, min(p_max, n_max) + 1):
        states = order ** (2 * p)
        degrees = range(p, n_max + 1)
        same = [n > p and M.rank(n - p + 1) == M.rank(n - p)
                and np.array_equal(M.images[n - p], M.images[n - p - 1]) for n in degrees]
        built = [n for n, shared in zip(degrees, same)
                 if not shared and M.rank(n - p) and M.rank(n - p + 1)]
        if built:
            held = states * p * BYTES_PER_KTUPLE
            budget = _kernels.memory_budget()
            if held > budget:
                raise KComplexError(
                    f"the {states} tuples of G^{2 * p} need about {held / 2 ** 20:.1f} MiB of "
                    f"index arrays ({BYTES_PER_KTUPLE} B per tuple and pair), over the memory "
                    f"budget of {budget / 2 ** 20:.1f} MiB")
            digits = _kernels._decode_all(2 * p, order, states)
            suffix = _commutator_products(G, comm, digits)
            classes = []  # per k: class of the conjugated pair k of every tuple
            for k in range(p):
                pair_k = (conj[digits[2 * k], suffix[k + 1]] * order
                          + conj[digits[2 * k + 1], suffix[k + 1]])
                classes.append(ring.pair_class[pair_k])
            del digits, suffix, pair_k
        for n, shared in zip(degrees, same):
            rank_lo = M.rank(n - p + 1)
            rank_hi = M.rank(n - p)
            shape = (order ** (2 * p - 2) * rank_lo, states * rank_hi)
            if shared:
                d[p, n] = d[p, n - 1]
                continue
            if n not in built:
                d[p, n] = IntMatrix(*shape)
                continue
            image = M.images[n - p]
            per_class = np.count_nonzero(image >= 0, axis=1)  # entries of each class's action
            total = sum(int(per_class[class_k].sum()) for class_k in classes)
            need = total * BYTES_PER_KENTRY
            if need > budget:
                raise KComplexError(
                    f"d_{{{p},{n}}} ({shape[0]}x{shape[1]}) has {total} entries and needs "
                    f"about {need / 2 ** 20:.1f} MiB ({BYTES_PER_KENTRY} B/entry), over the "
                    f"memory budget of {budget / 2 ** 20:.1f} MiB")
            key = np.empty(total, dtype=np.int64)
            val = np.empty(total, dtype=np.int64)
            done, step = 0, max(1, _kernels.CHUNK // rank_hi)
            for k, class_k in enumerate(classes):
                sign, low = (1 if k % 2 == 0 else -1), order ** (2 * (p - k - 1))
                start = done
                for t0 in range(0, states, step):
                    ranks = np.arange(t0, min(t0 + step, states), dtype=np.int64)[:, None]
                    rows = image[class_k[t0:t0 + step]]  # c . m in M_{n-p+1}, or -1
                    rest = ranks // (low * order * order) * low + ranks % low  # tuple without pair k
                    at = (rest * rank_lo + rows) * shape[1] + ranks * rank_hi + np.arange(rank_hi)
                    hit = at[rows >= 0]
                    key[done:done + len(hit)] = hit
                    done += len(hit)
                val[start:done] = sign
            d[p, n] = IntMatrix.from_keys(*shape, key, val)
            del key, val
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
    u = M.images[n - p][0] if rank_src and n - p < M.n_max else np.zeros(0, dtype=np.int64)
    j = np.flatnonzero(u >= 0)
    t = np.arange(states, dtype=np.int64)[:, None]
    return IntMatrix.from_triplets(states * rank_tgt, states * rank_src, t * rank_tgt + u[j],
                                   t * rank_src + j, np.ones((states, len(j)), dtype=np.int64))


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
    return _kernels.distinct(IntMatrix.from_triplets(rows, cols, row, col, val).col)


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
            boundary = K.ring.boundary_values(m)
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


def _homotopy_failures(K: KComplex, gs: np.ndarray, hs: np.ndarray) -> dict:
    """The first spot where S d + d S = Rmult fails, and its smallest failing
    basis element (p, n, tuple rank, class index), for every failing pair
    (gs[i], hs[i]); spots run in the order of the loop over p, then n, so a
    pair's first failure is found first.  At each spot the pairs go in
    batches of consecutive pairs whose entries (each pair: the gathered
    columns of d at their longest, the relabelled rows and the right
    multiplication) stay within ``HOMOTOPY_BATCH``, or one pair at a time."""
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
            longest = int(np.diff(up.column_index()[0]).max()) if up.nnz else 0
            step = max(1, HOMOTOPY_BATCH // (cols * (longest + 1) + down.nnz))
            for start in range(0, len(gs), step):
                g, h = gs[start:start + step], hs[start:start + step]
                parts = [_gather_columns(up, prepend.images(g, h, p, n))]
                if down.nnz:
                    parts.append(_relabel_rows(down, prepend.images(g, h, p - 1, n)))
                rmult = _right_mult_images(K, g, h, p, n).ravel()
                parts.append((np.arange(len(rmult)), rmult,
                              np.full(len(rmult), -1, dtype=np.int64)))
                for c in _nonzero_columns(rows, len(g) * cols, parts).tolist():
                    b, i = divmod(c, cols)
                    failures.setdefault((int(g[b]), int(h[b])), (p, n, i // rank, i % rank))
    return failures


def homotopy_check(K: KComplex, g: int, h: int):
    """Verify S d + d S = right multiplication by [g, h] on every spot with
    p < p_max and n < n_max; returns (True, None) or (False, witness), the
    witness being the first failing spot and its smallest failing basis
    element (p, n, tuple rank, class index)."""
    failures = _homotopy_failures(K, np.array([g]), np.array([h]))
    return (False, *failures.values()) if failures else (True, None)


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


def unit_matching(M: GradedModule, p: int, n: int):
    """Pivots (prow, pcol) of d_{p,n} whose block is a signed identity, from
    the module action in the last pair (Joellenbeck and Welker 2009).

    For each basis element y of M_{n-p+1} take the least degree-1 class
    x_y (class 0, the U class, first) and then the least j_y with
    x_y . e_{j_y} = e_y, so that lambda(x_y)[y, j_y] = 1 is the only
    nonzero of column j_y; let t_y be the least pair of class x_y, and T
    the set of the t_y.  Row s (x) y is matched to column (s, t_y) (x) j_y
    for every s in (G^2)^(p-1) whose last pair is not in T (every s when
    p = 1).  The k = p term of that column is the entry 1 on row s (x) y,
    since the conjugator of the last pair is trivial; every k < p term
    keeps the last pair t_y, so it lands on an unmatched row.  The block is
    thus a signed identity, and distinct rows get distinct columns, as y is
    the only nonzero row of column j_y of lambda(x_y)."""
    G = M.ring.G
    pairs = G.order ** 2
    image = M.images[n - p]  # image[x, j] = x . e_j
    x, j = np.nonzero(image >= 0)  # in (class, column) order
    y, first = np.unique(image[x, j], return_index=True)
    x, j = x[first], j[first]
    t = np.unique(M.ring.pair_class, return_index=True)[1][x]  # least pair of each class
    s = np.arange(pairs ** (p - 1), dtype=np.int64)
    if p > 1:
        s = s[~_kernels.member(s % pairs, t)]
    prow = (s[:, None] * M.rank(n - p + 1) + y).ravel()
    pcol = (((s[:, None] * pairs + t) * M.rank(n - p)) + j).ravel()
    return prow, pcol


def kc_homology(K: KComplex, p: int, n: int) -> HomologyGroup:
    """H_p of the complex at total degree n (needs d_{p+1} in the window);
    each differential is eliminated from its ``unit_matching`` on."""
    if p + 1 > K.p_max:
        raise KComplexError(f"homology at p={p} needs differentials to p={p + 1}")
    if p < 0 or n > K.n_max:
        raise KComplexError(f"spot ({p}, {n}) outside window")
    d_out = K.d_matrix(p, n) if p >= 1 else IntMatrix(0, K.dim(0, n))
    d_in = K.d_matrix(p + 1, n)
    return chain_homology(d_out, d_in,
                          (lambda: unit_matching(K.module, p, n)) if p >= 1 and d_out.nnz else None,
                          (lambda: unit_matching(K.module, p + 1, n)) if d_in.nnz else None)


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
