import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_invariants

from reference_snf import smith_with_transforms, to_dense
from stabring import zlinalg
from stabring.kcomplex import build_kcomplex
from stabring.modules import regular_module
from stabring.zlinalg import (INT64_MAX, HomologyGroup, IntMatrix, LinAlgError,
                              _ROUND_MIN_NNZ, _blocks, _normalize_factors,
                              _snf_diagonal_sparse, _unit_round, chain_homology,
                              smith_normal_form)


def random_triplets(rng, m, n, count, values):
    """``count`` random (row, col, value) triplets as three lists, drawn one
    triplet at a time; repeated positions add up in ``from_triplets``."""
    triplets = [(rng.randrange(m), rng.randrange(n), values()) for _ in range(count)]
    return tuple(map(list, zip(*triplets))) if triplets else ([], [], [])


def random_matrix(rng, max_dim=6, max_val=9):
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return IntMatrix.from_triplets(m, n, *random_triplets(
        rng, m, n, rng.randint(0, m * n), lambda: rng.randint(-max_val, max_val)))


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix.from_triplets(n, n, range(n), range(n), [1] * n)


def transpose(A: IntMatrix) -> IntMatrix:
    return IntMatrix.from_triplets(A.cols, A.rows, A.col, A.row, A.val)


def rank_fraction_free(A: IntMatrix) -> int:
    """Rank over Q by dense Bareiss fraction-free elimination."""
    M = to_dense(A)
    m, n = A.rows, A.cols
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        for r in range(row + 1, m):
            for c in range(col + 1, n):
                M[r][c] = (M[row][col] * M[r][c] - M[r][col] * M[row][c]) // prev
            M[r][col] = 0
        prev = M[row][col]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def sympy_factors(A: IntMatrix) -> tuple:
    return tuple(int(x) for x in sympy_invariants(sympy.Matrix(to_dense(A))) if x != 0)


def test_snf_identity():
    assert smith_normal_form(identity_matrix(3)).factors == (1, 1, 1)


def test_snf_zero():
    assert smith_normal_form(IntMatrix(4, 2)).factors == ()


def test_snf_diag_two_three():
    # two row/column reduction steps fold diag(2, 3) into diag(1, 6)
    A = IntMatrix.from_dense([[2, 0], [0, 3]])
    assert smith_normal_form(A).factors == (1, 6)


def test_snf_matches_sympy_randomized():
    rng = random.Random(11)
    for _ in range(150):
        A = random_matrix(rng)
        ref = tuple(int(x) for x in sympy_invariants(sympy.Matrix(to_dense(A))) if x != 0)
        assert smith_normal_form(A).factors == ref


def test_snf_transforms_diagonalize():
    # the test-only transform SNF behind the kernel and image checks of
    # test_kcomplex: unimodular U, V with U A V diagonal, same factors as the library
    rng = random.Random(13)
    for _ in range(60):
        A = random_matrix(rng, max_dim=5)
        factors, U, V = smith_with_transforms(A)
        assert factors == smith_normal_form(A).factors
        U, V = sympy.Matrix(U), sympy.Matrix(V)
        D = U * sympy.Matrix(to_dense(A)) * V
        assert abs(U.det()) == 1 and abs(V.det()) == 1
        for i in range(A.rows):
            for j in range(A.cols):
                want = factors[i] if i == j and i < len(factors) else 0
                assert D[i, j] == want


def test_snf_invariant_under_permutation():
    rng = random.Random(17)
    for _ in range(40):
        A = random_matrix(rng)
        rows = list(range(A.rows))
        cols = list(range(A.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        B = IntMatrix.from_triplets(A.rows, A.cols, [rows[r] for r in A.row],
                                    [cols[c] for c in A.col], A.val)
        assert smith_normal_form(A).factors == smith_normal_form(B).factors


def test_snf_no_unit_entries_exercises_residual_path():
    # all-even matrices never offer a +-1 pivot
    rng = random.Random(29)
    for _ in range(40):
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        A = IntMatrix.from_triplets(m, n, *random_triplets(
            rng, m, n, rng.randint(1, m * n), lambda: 2 * rng.randint(-8, 8)))
        ref = tuple(int(x) for x in sympy_invariants(sympy.Matrix(to_dense(A))) if x != 0)
        assert smith_normal_form(A).factors == ref


def test_snf_larger_sparse_matches_sympy():
    rng = random.Random(31)
    for _ in range(10):
        m, n = rng.randint(10, 25), rng.randint(10, 25)
        A = IntMatrix.from_triplets(m, n, *random_triplets(
            rng, m, n, rng.randint(0, 3 * (m + n)), lambda: rng.randint(-9, 9)))
        ref = tuple(int(x) for x in sympy_invariants(sympy.Matrix(to_dense(A))) if x != 0)
        assert smith_normal_form(A).factors == ref


def test_rank_cross_check_fraction_free():
    rng = random.Random(19)
    for _ in range(60):
        A = random_matrix(rng)
        assert smith_normal_form(A).rank == rank_fraction_free(A)


def test_chain_homology_zero_maps():
    h = chain_homology(IntMatrix(0, 5), IntMatrix(5, 0))
    assert h == HomologyGroup(free_rank=5)


def test_chain_homology_multiplication_by_two():
    h = chain_homology(IntMatrix(0, 1), IntMatrix.from_dense([[2]]))
    assert h.free_rank == 0 and h.torsion == (2,)


def test_chain_homology_rejects_nonzero_composite():
    d_out = IntMatrix.from_dense([[1, 0]])
    d_in = IntMatrix.from_dense([[1], [0]])
    with pytest.raises(LinAlgError, match="!= 0"):
        chain_homology(d_out, d_in)


def test_chain_homology_dimension_mismatch():
    with pytest.raises(LinAlgError, match="mismatch"):
        chain_homology(IntMatrix(0, 2), IntMatrix(3, 1))


def test_chain_homology_unimodular_invariance():
    # H of C2 -> C1 -> C0 is unchanged by a unimodular change of basis on C1
    rng = random.Random(23)
    d_out = IntMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    d_in = IntMatrix.from_dense([[2], [-2], [2]])
    base = chain_homology(d_out, d_in)
    assert base == HomologyGroup(0, (2,))
    for _ in range(20):
        Pm = sympy.eye(3)
        for _ in range(4):  # product of elementary shears stays unimodular
            i, j = rng.randrange(3), rng.randrange(3)
            if i != j:
                E = sympy.eye(3)
                E[i, j] = rng.randint(-2, 2)
                Pm = Pm * E
        assert abs(Pm.det()) == 1
        d_out2 = IntMatrix.from_dense((sympy.Matrix(to_dense(d_out)) * Pm.inv()).tolist())
        d_in2 = IntMatrix.from_dense((Pm * sympy.Matrix(to_dense(d_in))).tolist())
        assert chain_homology(d_out2, d_in2) == base


def test_bar_complex_spot_of_c2():
    # H2 of the order-2 group vanishes: the degree-2 bar spot is exact
    from stabring.groups import cyclic_group
    from stabring.oracle import bar_differentials
    d2, d3 = bar_differentials(cyclic_group(2))
    h = chain_homology(d2, d3)
    assert h.free_rank == 0 and h.torsion == ()


def test_homology_group_validation():
    with pytest.raises(LinAlgError):
        HomologyGroup(free_rank=0, torsion=(3, 2))
    with pytest.raises(LinAlgError):
        HomologyGroup(free_rank=0, torsion=(1,))
    assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
    assert HomologyGroup(0, (2,)).order() == 2
    assert HomologyGroup(1).order() is None


def test_matrix_text_round_trip():
    A = IntMatrix.from_dense([[0, 3], [-1, 0], [0, 7]])
    B = IntMatrix.from_text(A.to_text())
    assert A == B
    assert A.to_text().splitlines()[0] == "3 2 3"
    with pytest.raises(LinAlgError, match="declares"):
        IntMatrix.from_text("2 2 5\n0 0 1\n")


def test_from_text_rejects_what_to_text_never_writes():
    # a repeated position (cancelling or not) and an explicit zero
    for text in ("2 2 2\n0 0 1\n0 0 -1\n", "2 2 2\n0 1 1\n0 1 1\n", "2 2 1\n1 1 0\n"):
        with pytest.raises(LinAlgError):
            IntMatrix.from_text(text)
    for text in ("2 2 1\n2 0 1\n", "2 2 1\n0 0\n", "2 2 1\n0 0 x\n"):
        with pytest.raises(LinAlgError):
            IntMatrix.from_text(text)


def test_matmul_and_transpose():
    A = IntMatrix.from_dense([[1, 2], [0, 1]])
    B = IntMatrix.from_dense([[1, 0], [3, 1]])
    assert to_dense(A.matmul(B)) == [[7, 2], [3, 1]]
    assert to_dense(transpose(A)) == [[1, 0], [2, 1]]
    # cancelling products leave no stored zero
    C = IntMatrix.from_dense([[1, 1]]).matmul(IntMatrix.from_dense([[1], [-1]]))
    assert C.is_zero and C.nnz == 0


def test_triplets_are_canonical():
    A = IntMatrix.from_triplets(3, 4, [2, 0, 2, 1, 0], [1, 3, 1, 0, 3], [5, 1, -5, 4, 2])
    assert A.row.tolist() == [0, 1] and A.col.tolist() == [3, 0] and A.val.tolist() == [3, 4]
    assert A.row.dtype == A.col.dtype == A.val.dtype == np.int64
    assert not A.val.flags.writeable
    with pytest.raises(LinAlgError, match="out of bounds"):
        IntMatrix.from_triplets(2, 2, [2], [0], [1])


def test_values_outside_int64_are_rejected():
    for big in (2 ** 63, 2 ** 70, -2 ** 63, -2 ** 70):
        with pytest.raises(LinAlgError):
            IntMatrix.from_dense([[big]])
        with pytest.raises(LinAlgError):
            IntMatrix.from_triplets(1, 1, [0], [0], [big])
    assert to_dense(IntMatrix.from_dense([[2 ** 63 - 1]])) == [[2 ** 63 - 1]]
    # duplicates whose sum could leave int64
    with pytest.raises(LinAlgError, match="duplicate"):
        IntMatrix.from_triplets(1, 1, [0, 0], [0, 0], [2 ** 62, 2 ** 62])


def test_matmul_refuses_before_the_bound_reaches_int64():
    # bound = max|A| * max|B| * inner dimension
    a = IntMatrix.from_dense([[2 ** 30, 0]])
    b = IntMatrix.from_dense([[2 ** 31], [0]])
    assert to_dense(a.matmul(b)) == [[2 ** 61]]  # bound 2^62
    with pytest.raises(LinAlgError, match="int64"):  # bound 2^63, same entries
        IntMatrix.from_dense([[2 ** 30, 0, 0, 0]]).matmul(
            IntMatrix.from_dense([[2 ** 31], [0], [0], [0]]))
    with pytest.raises(LinAlgError, match="int64"):
        IntMatrix.from_dense([[2 ** 32]]).matmul(IntMatrix.from_dense([[2 ** 31]]))


def test_snf_keeps_python_integers_past_int64():
    # entries fit in int64, but the determinant 2^124 is the second factor
    A = IntMatrix.from_dense([[2 ** 62, 3], [0, 2 ** 62]])
    assert smith_normal_form(A).factors == (1, 2 ** 124) == sympy_factors(A)
    assert chain_homology(IntMatrix(0, 2), A) == HomologyGroup(0, (2 ** 124,))


def random_block_diagonal(rng):
    """Blocks placed along the diagonal, then rows and columns shuffled; some
    blocks have even entries only, so they have no unit pivot."""
    rows, cols, vals = [], [], []
    m = n = 0
    n_blocks = rng.randint(2, 5)
    for _ in range(n_blocks):
        bm, bn = rng.randint(1, 5), rng.randint(1, 5)
        scale = rng.choice((1, 2))
        r, c, v = random_triplets(rng, bm, bn, rng.randint(1, bm * bn),
                                  lambda: scale * rng.randint(-6, 6))
        rows += [m + x for x in r]
        cols += [n + x for x in c]
        vals += v
        m, n = m + bm, n + bn
    row_perm, col_perm = list(range(m)), list(range(n))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return IntMatrix.from_triplets(m, n, [row_perm[r] for r in rows],
                                   [col_perm[c] for c in cols], vals)


def test_blocked_snf_matches_single_block_and_sympy():
    rng = random.Random(37)
    split = 0
    for _ in range(80):
        A = random_block_diagonal(rng)
        whole = _normalize_factors(_snf_diagonal_sparse(A.row, A.col, A.val))
        blocked = smith_normal_form(A).factors
        assert blocked == whole == sympy_factors(A)
        blocks = _blocks(A)
        assert sum(len(b[0]) for b in blocks) == A.nnz
        split += len(blocks) > 1
    assert split > 60  # the random matrices really do fall apart into blocks


def test_blocks_are_the_connected_components():
    # rows 0, 2 share column 1; row 1 alone with column 0; row 3 with columns 2, 3
    A = IntMatrix.from_dense([[0, 2, 0, 0], [5, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 3]])
    got = sorted((sorted(set(r.tolist())), sorted(set(c.tolist()))) for r, c, _ in _blocks(A))
    assert got == [([0, 2], [1]), ([1], [0]), ([3], [2, 3])]
    assert smith_normal_form(A).factors == (1, 1, 10)
    assert _blocks(IntMatrix(3, 3)) == []


def eliminator_factors(A: IntMatrix) -> tuple:
    """The per-block eliminator run on the whole of A, with no unit-pivot
    rounds: the reference the rounds are checked against."""
    return _normalize_factors([d for block in _blocks(A) for d in _snf_diagonal_sparse(*block)])


def fresh(A: IntMatrix) -> IntMatrix:
    """A copy of A that keeps no Smith form yet."""
    return IntMatrix.from_triplets(A.rows, A.cols, A.row, A.col, A.val)


def unit_rounds(A: IntMatrix) -> list:
    """The chain of ``_unit_round`` calls on A down to the cutoff, as (matrix,
    prow, pcol, Schur complement) each, after checking that every pivot block
    is a signed identity and that the Schur complement leaves the pivot lines
    empty.  ``smith_normal_form`` runs a prefix of it: it also stops before a
    round that grows the matrix."""
    out = []
    while A.nnz >= _ROUND_MIN_NNZ:
        step = _unit_round(A)
        if step is None:
            break
        prow, pcol, rest = step
        k = len(prow)
        assert k and len(set(prow.tolist())) == len(set(pcol.tolist())) == k
        index_row = np.full(A.rows, -1)
        index_row[prow] = np.arange(k)
        index_col = np.full(A.cols, -1)
        index_col[pcol] = np.arange(k)
        i, j = index_row[A.row], index_col[A.col]
        block = (i >= 0) & (j >= 0)
        assert sorted(zip(i[block].tolist(), j[block].tolist())) == [(t, t) for t in range(k)]
        assert set(np.abs(A.val[block]).tolist()) == {1}
        assert not np.isin(rest.row, prow).any() and not np.isin(rest.col, pcol).any()
        assert (rest.rows, rest.cols) == (A.rows, A.cols)
        out.append((A, prow, pcol, rest))
        A = rest
    return out


@pytest.fixture(scope="module")
def battery_differentials(rings):
    """Every nonzero differential of the six battery complexes at n <= 3,
    S3's 9072 x 46656 d_{3,3} among them."""
    out = {}
    for name, ring in rings.items():
        K = build_kcomplex(regular_module(ring), 3, 3)
        out.update({(name, p, n): d for (p, n), d in K.d.items() if not d.is_zero})
    return out


def test_rounds_match_the_eliminator_on_battery_differentials(battery_differentials):
    with_rounds = 0
    for key, d in battery_differentials.items():
        A = fresh(d)
        with_rounds += bool(unit_rounds(A))
        assert smith_normal_form(A).factors == eliminator_factors(fresh(d)), key
    d33 = battery_differentials["S3", 3, 3]
    assert (d33.rows, d33.cols) == (9072, 46656)
    assert smith_normal_form(d33).rank == 8268 and smith_normal_form(d33).torsion == (3,)
    # C4 d_{3,3}; C2xC2 d_{2,3} and d_{3,3}; S3 d_{2,2}, d_{2,3} and d_{3,3}
    assert with_rounds == 6


def random_unit_rich(rng):
    """A sparse matrix above the cutoff: mostly +-1 entries with some 2, -3
    and 5, about a tenth of the rows and columns left empty, and torsion
    planted on four spare rows and columns, then hidden by adding multiples
    of other rows to those four."""
    m, n = rng.randint(400, 600), rng.randint(800, 1100)
    used_rows, used_cols = rng.sample(range(m), m * 9 // 10), rng.sample(range(n), n * 9 // 10)
    rows = {}
    for _ in range(rng.randint(2400, 3200)):
        r, c = rng.choice(used_rows), rng.choice(used_cols)
        rows.setdefault(r, {})[c] = rng.choice((1, -1) * 6 + (2, -3, 5))
    spare_rows = sorted(set(range(m)) - set(used_rows))[:4]
    spare_cols = sorted(set(range(n)) - set(used_cols))[:4]
    for r, c in zip(spare_rows, spare_cols):
        rows[r] = {c: rng.choice((2, 3, 4, 6, 9))}
        src, q = rng.choice(used_rows), rng.choice((1, -1, 2))
        for c2, v in rows.get(src, {}).items():
            rows[r][c2] = rows[r].get(c2, 0) + q * v
    r, c, v = zip(*((r, c, v) for r, row in rows.items() for c, v in row.items()))
    return IntMatrix.from_triplets(m, n, r, c, v)


def test_rounds_match_the_eliminator_on_random_unit_rich_matrices():
    rng = random.Random(41)
    deep = 0
    for _ in range(12):
        A = random_unit_rich(rng)
        assert A.nnz >= _ROUND_MIN_NNZ
        assert len(set(A.row.tolist())) < A.rows and len(set(A.col.tolist())) < A.cols
        rounds = unit_rounds(A)
        assert rounds
        deep += len(rounds) >= 3
        factors = smith_normal_form(A).factors
        assert factors == eliminator_factors(fresh(A))
        assert smith_normal_form(A).torsion
    assert deep >= 2


def test_rounds_hand_off_before_the_product_leaves_int64():
    # 700 copies of [[1, 2^62], [3, 1]], rows and columns shuffled: each copy
    # is one pivot with Schur complement 1 - 3 * 2^62, outside int64, and the
    # bound max|A22| + max|A21| max|A12| #pivots reaches 2^63, so the round is
    # refused and the eliminator meets the whole matrix over Python integers
    rng = random.Random(43)
    motif = [[1, 2 ** 62], [3, 1]]
    copies = 700
    rows, cols = list(range(2 * copies)), list(range(2 * copies))
    rng.shuffle(rows)
    rng.shuffle(cols)
    r, c, v = zip(*((rows[2 * t + a], cols[2 * t + b], motif[a][b])
                    for t in range(copies) for a in range(2) for b in range(2)))
    A = IntMatrix.from_triplets(2 * copies, 2 * copies, r, c, v)
    assert A.nnz >= _ROUND_MIN_NNZ
    assert _unit_round(A) is None
    want = (1,) * copies + (3 * 2 ** 62 - 1,) * copies
    assert sympy_factors(IntMatrix.from_dense(motif)) == (1, 3 * 2 ** 62 - 1)
    assert smith_normal_form(A).factors == want == eliminator_factors(fresh(A))


def test_rounds_run_up_to_the_int64_bound():
    # the same motif with 2^62 - 1 and 1: bound 1 + 1 * (2^62 - 1) * 2 copies
    # = 2^63 - 1, so the round runs, and its products stay exact
    A = IntMatrix.from_dense([[1, 2 ** 62 - 1, 0, 0], [1, 1, 0, 0],
                              [0, 0, 1, 2 ** 62 - 1], [0, 0, 1, 1]])
    prow, pcol, rest = _unit_round(A)
    assert len(prow) == 2 and 1 + (2 ** 62 - 1) * len(prow) == INT64_MAX
    assert sorted(rest.val.tolist()) == [2 - 2 ** 62] * 2
    assert eliminator_factors(A) == (1, 1, 2 ** 62 - 2, 2 ** 62 - 2) == sympy_factors(A)


def dense_beside_units(rng, dim: int, density: float, units: int) -> IntMatrix:
    """A dim x dim block with a fraction ``density`` of entries in
    {+-1, 2, 3}, beside ``units`` signed unit diagonal entries."""
    r, c, v = [], [], []
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                r.append(i)
                c.append(j)
                v.append(rng.choice((1, -1, 1, -1, 2, 3)))
    for t in range(units):
        r.append(dim + t)
        c.append(dim + t)
        v.append(rng.choice((1, -1)))
    return IntMatrix.from_triplets(dim + units, dim + units, r, c, v)


def test_rounds_stop_when_fill_grows(monkeypatch):
    # the first round clears the unit diagonal and shrinks the matrix; the
    # next two fill the dense block in, so both are undone
    A = dense_beside_units(random.Random(0), 90, 0.25, 1500)
    assert A.nnz >= _ROUND_MIN_NNZ
    rounds, handed = [], []

    def recording_round(M):
        step = _unit_round(M)
        rounds.append((M, None if step is None else step[2]))
        return step

    def recording_blocks(M):
        handed.append(M)
        return _blocks(M)

    monkeypatch.setattr(zlinalg, "_unit_round", recording_round)
    monkeypatch.setattr(zlinalg, "_blocks", recording_blocks)
    factors = smith_normal_form(A).factors
    grew = [out.nnz > M.nnz for M, out in rounds]
    assert grew == [False, True, True]
    assert handed == [rounds[1][0]]  # the matrix ahead of the two growing rounds
    block = IntMatrix.from_triplets(90, 90, *(x[A.row < 90] for x in (A.row, A.col, A.val)))
    assert factors == _normalize_factors([1] * 1500 + list(smith_with_transforms(block)[0]))


def test_one_growing_round_is_kept(monkeypatch):
    # the second round grows the matrix and the third shrinks it again, so
    # the rounds run on to the cutoff
    A = dense_beside_units(random.Random(0), 60, 0.4, 700)
    handed = []
    monkeypatch.setattr(zlinalg, "_blocks", lambda M: handed.append(M) or _blocks(M))
    rounds = unit_rounds(A)
    assert [rest.nnz > M.nnz for M, _, _, rest in rounds[:3]] == [False, True, False]
    factors = smith_normal_form(A).factors
    assert handed == [rounds[-1][3]] and handed[0].nnz < _ROUND_MIN_NNZ
    assert factors == eliminator_factors(fresh(A))
