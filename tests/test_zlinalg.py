import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_invariants

from reference_snf import (from_dense, from_text, normalize_factors, scipy_matmul, scipy_schur,
                           smith_with_transforms, to_dense, to_text, unit_pivots)
from stabring import zlinalg
from stabring.kcomplex import build_kcomplex
from stabring.modules import regular_module
from stabring.zlinalg import (INT64_MAX, HomologyGroup, IntMatrix, LinAlgError,
                              _ROUND_MIN_NNZ, _blocks, _normalize_factors,
                              _snf_diagonal_sparse, _unit_pivots, _unit_round,
                              chain_homology, smith_normal_form)


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
    A = from_dense([[2, 0], [0, 3]])
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
    h = chain_homology(IntMatrix(0, 1), from_dense([[2]]))
    assert h.free_rank == 0 and h.torsion == (2,)


def test_chain_homology_multiplies_nothing_and_refuses_a_negative_free_rank(monkeypatch):
    # d_out d_in = 0 is the caller's to certify: no product is formed, so a
    # pair that is no chain gives a group unless its ranks leave a negative
    # free rank
    def refuse(A, B):
        raise AssertionError("chain_homology multiplied its operands")

    monkeypatch.setattr(IntMatrix, "matmul", refuse)
    assert chain_homology(from_dense([[1, 1]]), from_dense([[1], [-1]])) == HomologyGroup(0)
    assert chain_homology(from_dense([[1, 0]]), from_dense([[1], [0]])) == HomologyGroup(0)
    with pytest.raises(LinAlgError, match="negative free rank"):
        chain_homology(from_dense([[1]]), from_dense([[1]]))


def test_chain_homology_dimension_mismatch():
    with pytest.raises(LinAlgError, match="mismatch"):
        chain_homology(IntMatrix(0, 2), IntMatrix(3, 1))


def test_chain_homology_unimodular_invariance():
    # H of C2 -> C1 -> C0 is unchanged by a unimodular change of basis on C1
    rng = random.Random(23)
    d_out = from_dense([[1, 1, 0], [0, 1, 1]])
    d_in = from_dense([[2], [-2], [2]])
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
        d_out2 = from_dense((sympy.Matrix(to_dense(d_out)) * Pm.inv()).tolist())
        d_in2 = from_dense((Pm * sympy.Matrix(to_dense(d_in))).tolist())
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


def test_homology_group_refuses_a_negative_free_rank_and_non_integer_torsion():
    # HomologyGroup(-2) once printed as "Z" with order() None, HomologyGroup(1.5)
    # as "Z^1.5", and a string torsion factor raised a bare TypeError
    for free_rank in (-2, -1, 1.5, 1.0, True, False, "1", None):
        with pytest.raises(LinAlgError, match="free rank must be a non-negative integer"):
            HomologyGroup(free_rank, (2,))
    for torsion in (("2",), (2.0,), (2, None), (True,)):
        with pytest.raises(LinAlgError, match="torsion factors must be integers"):
            HomologyGroup(0, torsion)
    assert str(HomologyGroup(0)) == "0" and str(HomologyGroup(2, (3,))) == "Z^2 + Z/3"


def test_matrix_text_round_trip():
    A = from_dense([[0, 3], [-1, 0], [0, 7]])
    B = from_text(to_text(A))
    assert A == B
    assert to_text(A).splitlines()[0] == "3 2 3"
    with pytest.raises(LinAlgError, match="declares"):
        from_text("2 2 5\n0 0 1\n")


def test_from_text_rejects_what_to_text_never_writes():
    # a repeated position (cancelling or not) and an explicit zero
    for text in ("2 2 2\n0 0 1\n0 0 -1\n", "2 2 2\n0 1 1\n0 1 1\n", "2 2 1\n1 1 0\n"):
        with pytest.raises(LinAlgError):
            from_text(text)
    for text in ("2 2 1\n2 0 1\n", "2 2 1\n0 0\n", "2 2 1\n0 0 x\n"):
        with pytest.raises(LinAlgError):
            from_text(text)


def test_matmul_and_transpose():
    A = from_dense([[1, 2], [0, 1]])
    B = from_dense([[1, 0], [3, 1]])
    assert to_dense(A.matmul(B)) == [[7, 2], [3, 1]]
    assert to_dense(transpose(A)) == [[1, 0], [2, 1]]
    # cancelling products leave no stored zero
    C = from_dense([[1, 1]]).matmul(from_dense([[1], [-1]]))
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
            from_dense([[big]])
        with pytest.raises(LinAlgError):
            IntMatrix.from_triplets(1, 1, [0], [0], [big])
    assert to_dense(from_dense([[2 ** 63 - 1]])) == [[2 ** 63 - 1]]
    # duplicates whose sum could leave int64
    with pytest.raises(LinAlgError, match="duplicate"):
        IntMatrix.from_triplets(1, 1, [0, 0], [0, 0], [2 ** 62, 2 ** 62])


def test_matmul_refuses_before_the_bound_reaches_int64():
    # bound = max|A| * max|B| * inner dimension
    a = from_dense([[2 ** 30, 0]])
    b = from_dense([[2 ** 31], [0]])
    assert to_dense(a.matmul(b)) == [[2 ** 61]]  # bound 2^62
    with pytest.raises(LinAlgError, match="int64"):  # bound 2^63, same entries
        from_dense([[2 ** 30, 0, 0, 0]]).matmul(
            from_dense([[2 ** 31], [0], [0], [0]]))
    with pytest.raises(LinAlgError, match="int64"):
        from_dense([[2 ** 32]]).matmul(from_dense([[2 ** 31]]))


def test_snf_keeps_python_integers_past_int64():
    # entries fit in int64, but the determinant 2^124 is the second factor
    A = from_dense([[2 ** 62, 3], [0, 2 ** 62]])
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
        # under the cutoff smith_normal_form keeps one block; split by hand too
        assert smith_normal_form(A).factors == eliminator_factors(A) == whole == \
            sympy_factors(A)
        blocks = _blocks(A)
        assert sum(len(b[0]) for b in blocks) == A.nnz
        split += len(blocks) > 1
    assert split > 60  # the random matrices really do fall apart into blocks


def test_blocks_are_the_connected_components():
    # rows 0, 2 share column 1; row 1 alone with column 0; row 3 with columns 2, 3
    A = from_dense([[0, 2, 0, 0], [5, 0, 0, 0], [0, 4, 0, 0], [0, 0, 1, 3]])
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
    assert sympy_factors(from_dense(motif)) == (1, 3 * 2 ** 62 - 1)
    assert smith_normal_form(A).factors == want == eliminator_factors(fresh(A))


def test_rounds_run_up_to_the_int64_bound():
    # the same motif with 2^62 - 1 and 1: bound 1 + 1 * (2^62 - 1) * 2 copies
    # = 2^63 - 1, so the round runs, and its products stay exact
    A = from_dense([[1, 2 ** 62 - 1, 0, 0], [1, 1, 0, 0],
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
    # the rounds run on to the cutoff; what they leave is under it, so it goes
    # to the eliminator as one block
    A = dense_beside_units(random.Random(0), 60, 0.4, 700)
    handed = []
    monkeypatch.setattr(zlinalg, "_snf_diagonal_sparse",
                        lambda *block: handed.append(block) or _snf_diagonal_sparse(*block))
    rounds = unit_rounds(A)
    assert [rest.nnz > M.nnz for M, _, _, rest in rounds[:3]] == [False, True, False]
    factors = smith_normal_form(A).factors
    last = rounds[-1][3]
    assert last.nnz < _ROUND_MIN_NNZ and len(handed) == 1
    assert IntMatrix.from_triplets(last.rows, last.cols, *handed[0]) == last
    assert factors == eliminator_factors(fresh(A))


def test_small_residuals_skip_the_block_split(monkeypatch):
    """Every Smith normal form the C8 (n <= 3), S3 (n <= 3, p <= 2) and C3
    (n <= 4, p <= 3) pipelines compute, and those of the lemma battery's
    Smith-form reference on their rings (``tests/reference_modules.py``; the
    library's battery counts components instead), against the per-block
    eliminator with no rounds and, where the matrix has at most 40 rows or 40
    columns, the dense transform SNF.  Only a residual of at least
    ``_ROUND_MIN_NNZ`` nonzeros or one with no +-1 entry is split into
    blocks; a smaller one with a unit is one block.  No pipeline residual
    reaches the cutoff any more (S3's 3,888 nonzeros that no round could
    shrink now lose their duplicate columns), so the split at the cutoff is
    exercised on 512 unit-free 3x3 blocks, which no step can shrink."""
    import reference_modules
    from stabring.groups import load_group
    from stabring.modules import derive_module
    from stabring.pipeline import PipelineConfig, run_pipeline
    from stabring.ring import build_ring

    computed, split = [], []
    real_snf, real_blocks = zlinalg.smith_normal_form, zlinalg._blocks

    def noted_snf(A, matching=None):
        if A._snf is None:
            computed.append(A)
        return real_snf(A, matching)

    def noted_blocks(A):
        split.append(A)
        return real_blocks(A)

    for module in (zlinalg, reference_modules):
        monkeypatch.setattr(module, "smith_normal_form", noted_snf)
    monkeypatch.setattr(zlinalg, "_blocks", noted_blocks)
    for group, n_max, p_max in (({"kind": "cyclic", "order": 8}, 3, 0),
                                ({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]}, 3, 2),
                                ({"kind": "cyclic", "order": 3}, 4, 3)):
        report = run_pipeline(PipelineConfig(group=group, n_max=n_max, p_max=p_max,
                                             well_definedness_samples=10))
        assert report.failure is None
        ring = build_ring(load_group(group), n_max)
        parts = reference_modules.ring_parts(ring)
        for recipe in (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)):
            M = derive_module(ring, recipe)
            a = reference_modules.delta_and_bounds(M, parts).deg_h0
            reference_modules.generated_in_degrees_upto(M, a)
            reference_modules.generated_in_degrees_upto(M, a - 1)
    # 512 copies of 2U, U unimodular with no zero entry, rows and columns
    # shuffled: 4,608 nonzeros and no unit, so it is split whole
    U = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
    k = 512
    rng = np.random.default_rng(2)
    row_perm, col_perm = rng.permutation(3 * k), rng.permutation(3 * k)
    r, c, v = zip(*((3 * b + i, 3 * b + j, 2 * U[i][j])
                    for b in range(k) for i in range(3) for j in range(3)))
    stuck = IntMatrix.from_triplets(3 * k, 3 * k, row_perm[list(r)], col_perm[list(c)], v)
    assert zlinalg._distinct_columns(stuck) is stuck
    assert smith_normal_form(stuck).factors == (2,) * (3 * k)
    assert split[-1] is stuck and stuck.nnz >= _ROUND_MIN_NNZ
    assert all(A.nnz >= _ROUND_MIN_NNZ or not (np.abs(A.val) == 1).any() for A in split)
    monkeypatch.undo()
    small = dense = 0
    for A in computed:
        factors = A._snf.factors
        assert factors == eliminator_factors(fresh(A)), A
        if min(A.rows, A.cols) <= 40:
            assert factors == smith_with_transforms(A)[0], A
            dense += 1
        small += A.nnz < _ROUND_MIN_NNZ
    assert small > 400 and dense > 400, (len(computed), small, dense)


def test_unit_free_residual_is_split_into_blocks(monkeypatch):
    # 256 copies of 2U, U unimodular with no zero entry, rows and columns
    # shuffled: 2,304 nonzeros and no unit, so no round runs and the
    # eliminator, which scans the whole matrix for each pivot without a unit,
    # gets one block at a time
    U = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
    k = 256
    rng = np.random.default_rng(0)
    row_perm, col_perm = rng.permutation(3 * k), rng.permutation(3 * k)
    r, c, v = zip(*((3 * b + i, 3 * b + j, 2 * U[i][j])
                    for b in range(k) for i in range(3) for j in range(3)))
    A = IntMatrix.from_triplets(3 * k, 3 * k, row_perm[list(r)], col_perm[list(c)], v)
    assert A.nnz >= _ROUND_MIN_NNZ and _unit_round(A) is None
    handed = []
    monkeypatch.setattr(zlinalg, "_snf_diagonal_sparse",
                        lambda *block: handed.append(len(block[0])) or _snf_diagonal_sparse(*block))
    assert smith_normal_form(A).factors == (2,) * (3 * k)
    assert handed == [9] * k


def test_unit_free_residual_under_the_cutoff_is_split_into_blocks(monkeypatch):
    # 128 copies of sU, U unimodular with no zero entry and s in {2, 3, 4, 6},
    # rows and columns shuffled: 1,152 nonzeros, under the cutoff, and no
    # unit, so the eliminator, which would scan the whole residual for each
    # pivot, gets one block at a time
    U = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
    k = 128
    scale = [(2, 3, 4, 6)[b % 4] for b in range(k)]
    rng = np.random.default_rng(1)
    row_perm, col_perm = rng.permutation(3 * k), rng.permutation(3 * k)
    r, c, v = zip(*((3 * b + i, 3 * b + j, scale[b] * U[i][j])
                    for b in range(k) for i in range(3) for j in range(3)))
    A = IntMatrix.from_triplets(3 * k, 3 * k, row_perm[list(r)], col_perm[list(c)], v)
    assert A.nnz < _ROUND_MIN_NNZ and not (np.abs(A.val) == 1).any()
    calls = []
    monkeypatch.setattr(zlinalg, "_snf_diagonal_sparse",
                        lambda *block: calls.append(len(block[0])) or _snf_diagonal_sparse(*block))
    factors = smith_normal_form(A).factors
    assert calls == [9] * k
    # the dense transform SNF of each block, folded by the pairwise reference
    blocks = [smith_with_transforms(from_dense([[s * x for x in row] for row in U]))[0]
              for s in scale]
    assert factors == normalize_factors([f for block in blocks for f in block])
    assert factors == (1,) * 96 + (2,) * 96 + (6,) * 96 + (12,) * 96


def is_canonical(A: IntMatrix) -> bool:
    key = A.row * A.cols + A.col
    return bool((np.diff(key) > 0).all() and (A.val != 0).all())


def dense_product(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A . B over Python integers."""
    a, b = to_dense(A), to_dense(B)
    out = [[sum(a[i][k] * b[k][j] for k in range(A.cols)) for j in range(B.cols)]
           for i in range(A.rows)]
    return from_dense(out, A.rows, B.cols)


def test_matmul_matches_dense_and_scipy_products():
    rng = random.Random(53)
    cancelled = 0
    for _ in range(300):
        m, k, n = rng.randint(0, 7), rng.randint(0, 7), rng.randint(0, 7)
        # few distinct values, so that products often cancel
        A = IntMatrix.from_triplets(m, k, *random_triplets(
            rng, m, k, rng.randint(0, m * k), lambda: rng.choice((-1, 1, 2))))
        B = IntMatrix.from_triplets(k, n, *random_triplets(
            rng, k, n, rng.randint(0, k * n), lambda: rng.choice((-1, 1))))
        got = A.matmul(B)
        assert is_canonical(got) and got == dense_product(A, B)
        if m and k and n:
            assert got == scipy_matmul(A, B)
        reached = {(i, j) for i, k1 in zip(A.row.tolist(), A.col.tolist())
                   for k2, j in zip(B.row.tolist(), B.col.tolist()) if k1 == k2}
        cancelled += got.nnz < len(reached)
    assert cancelled > 30
    # the bound max|A| max|B| inner is INT64_MAX = 7^2 73 127 . 337 92737 649657
    a, b = 7 ** 2 * 73 * 127, 337 * 92737 * 649657
    assert a * b == INT64_MAX
    assert to_dense(from_dense([[a]]).matmul(from_dense([[b]]))) == [[INT64_MAX]]
    with pytest.raises(LinAlgError, match="int64"):
        from_dense([[a + 1]]).matmul(from_dense([[b]]))
    # a zero factor gives the zero product before any bound is read
    huge = from_dense([[2 ** 62]])
    assert huge.matmul(IntMatrix(1, 3)) == IntMatrix(1, 3)
    with pytest.raises(LinAlgError, match="cannot multiply"):
        huge.matmul(IntMatrix(2, 1))


def random_pm1_heavy(rng, m: int, n: int, count: int) -> IntMatrix:
    return IntMatrix.from_triplets(m, n, *random_triplets(
        rng, m, n, count, lambda: rng.choice((1, -1, 1, -1, 1, -1, 2, -3))))


def hub_matrix(rng, rows: int, cols: int) -> IntMatrix:
    """Each column holds two +-1 entries in random rows, so every row is a
    hub that conflicts with many others: the shape of the lemma battery's
    tensor relations, whose pivot rounds form long chains."""
    r = [rng.randrange(rows) for _ in range(2 * cols)]
    c = [j for j in range(cols) for _ in range(2)]
    return IntMatrix.from_triplets(rows, cols, r, c, [rng.choice((1, -1)) for _ in r])


@pytest.mark.parametrize("piece", [1, 7, zlinalg._PIVOT_PIECE], ids=["1", "7", "default"])
def test_unit_pivots_match_the_greedy_loop_on_random_matrices(monkeypatch, piece):
    # pieces of 1 and 7 put many candidates at a piece edge, where a blocked
    # flag read before the piece's pivots were taken would show
    monkeypatch.setattr(zlinalg, "_PIVOT_PIECE", piece)
    rng = random.Random(59)
    mats = [random_pm1_heavy(rng, rng.randint(1, 12), rng.randint(1, 12), rng.randint(0, 60))
            for _ in range(300)]
    mats += [random_unit_rich(rng) for _ in range(4)]
    mats += [hub_matrix(rng, rng.randint(20, 300), rng.randint(200, 3000)) for _ in range(6)]
    mats += [IntMatrix(3, 4), from_dense([[2, 4], [0, -6]])]
    for A in mats:
        got, want = _unit_pivots(A), unit_pivots(A)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), A
        assert got[0].dtype == got[1].dtype == np.int64


def test_unit_pivot_search_over_the_memory_budget_fails_before_allocating(monkeypatch):
    """The search needs about BYTES_PER_ROUND_ENTRY bytes per nonzero and
    line; under a budget below that it refuses, stating the estimate, and
    allocates far less than it."""
    import tracemalloc

    from stabring import _kernels

    A = random_unit_rich(random.Random(71))
    need = (A.nnz + A.rows + A.cols) * zlinalg.BYTES_PER_ROUND_ENTRY
    monkeypatch.setattr(_kernels, "memory_budget", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(LinAlgError, match="unit-pivot search") as refusal:
            _unit_pivots(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"about {need / 2 ** 20:.1f} MiB" in str(refusal.value)
    assert peak < need / 10, (peak, need)
    monkeypatch.setattr(_kernels, "memory_budget", lambda: need)
    got, want = _unit_pivots(A), unit_pivots(A)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_unit_round_matches_dense_and_scipy_schur_complements():
    rng = random.Random(61)
    for _ in range(200):
        A = random_pm1_heavy(rng, rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 40))
        step = _unit_round(A)
        if step is None:
            assert not (np.abs(A.val) == 1).any()
            continue
        prow, pcol, S = step
        assert is_canonical(S) and S == scipy_schur(A, prow, pcol)
        # the dense formula A22 - A21 D A12 at every non-pivot position
        a = to_dense(A)
        want = [[0] * A.cols for _ in range(A.rows)]
        rest_r = sorted(set(range(A.rows)) - set(prow.tolist()))
        rest_c = sorted(set(range(A.cols)) - set(pcol.tolist()))
        for r in rest_r:
            for c in rest_c:
                want[r][c] = a[r][c] - sum(a[r][pc] * a[pr][pc] * a[pr][c]
                                           for pr, pc in zip(prow.tolist(), pcol.tolist()))
        assert to_dense(S) == want
    for _ in range(4):
        A = random_unit_rich(rng)
        prow, pcol, S = _unit_round(A)
        assert S == scipy_schur(A, prow, pcol)
    # the complement cancels to the zero matrix
    prow, pcol, S = _unit_round(from_dense([[1, 1], [1, 1]]))
    assert S.is_zero and S.nnz == 0 and (S.rows, S.cols) == (2, 2)


def test_unit_pivots_and_schur_match_on_the_pipeline_rounds(monkeypatch):
    """Every Schur step of the reference windows: the unit matching's on
    each K(R) differential and every unit-pivot round's, on the battery's
    C3, C4, C2xC2 and S3 at their acceptance windows, S3 (n <= 4, p <= 1
    and p <= 2) and D4 (n <= 3, p <= 2).  The rounds' pivots equal the
    greedy loop's, and every step's Schur complement the scipy product's.
    S3 at p <= 2 brings d_{3,4} (943,992 nonzeros), the one step above
    800,000: the rounds that once passed that mark on the other windows now
    follow the unit matching, on smaller residuals."""
    from conftest import BATTERY_SPECS, BATTERY_WINDOWS
    from stabring.pipeline import PipelineConfig, run_pipeline

    checked, rounds = [], []
    real_pivots, real_schur = zlinalg._unit_pivots, zlinalg._schur

    def checked_pivots(A):
        got, want = real_pivots(A), unit_pivots(A)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        rounds.append(A.nnz)
        return got

    def checked_schur(A, prow, pcol):
        step = real_schur(A, prow, pcol)
        assert step is not None and step[2] == scipy_schur(A, prow, pcol)
        checked.append(A.nnz)
        return step

    monkeypatch.setattr(zlinalg, "_unit_pivots", checked_pivots)
    monkeypatch.setattr(zlinalg, "_schur", checked_schur)
    windows = [(BATTERY_SPECS[name], *BATTERY_WINDOWS[name])
               for name in ("C3", "C4", "C2xC2", "S3")]
    windows += [(BATTERY_SPECS["S3"], 4, 1), (BATTERY_SPECS["S3"], 4, 2),
                ({"kind": "perm", "generators": [[[1, 2, 3, 4]], [[1, 3]]]}, 3, 2)]
    for group, n_max, p_max in windows:
        report = run_pipeline(PipelineConfig(group=group, n_max=n_max, p_max=p_max,
                                             well_definedness_samples=2))
        assert report.failure is None
    assert rounds and len(checked) >= 45 and max(checked) > 800_000, checked


def test_normalize_factors_matches_the_pairwise_fold():
    rng = random.Random(67)
    primes = (2, 3, 5, 7, 11)
    for _ in range(400):
        diag = []
        for _ in range(rng.randint(0, 12)):
            v = 1
            for p in rng.sample(primes, rng.randint(0, 3)):
                v *= p ** rng.randint(1, 4)
            diag.append(rng.choice((v, -v, 0, 1, v)))
        assert _normalize_factors(diag) == normalize_factors(diag), diag
    big = [3 * 2 ** 62 - 1, 2 ** 124, 6 * (3 * 2 ** 62 - 1), 4, -9]
    assert _normalize_factors(big) == normalize_factors(big)
    # 3,072 equal factors, where the pairwise fold takes seconds
    assert _normalize_factors([2, -2, 2] * 1024 + [1] * 5) == (1,) * 5 + (2,) * 3072


def test_s3_d33_rounds_match_the_references_within_memory_bounds(rings):
    """S3's d_{3,3} at n <= 3, p <= 3 (9072 x 46656, 134,856 nonzeros), the
    largest differential of the s3-n3p2 benchmark window: each round of its
    greedy chain takes the greedy loop's pivots and leaves the scipy Schur
    complement, and so does the unit matching's one step, which the pipeline
    takes first (7,308 pivots, where the first greedy round finds 5,655).
    tracemalloc bounds, per stored nonzero: ``build_kcomplex`` measures 58.5
    bytes over the 155,592 nonzeros of the differentials it stores, reading
    the module's image arrays as it did its dense action arrays (the
    bound leaves a third more; 63.3 while it kept each term's tuple ranks,
    131.9 before its triplets were written a piece at a time into one key
    array), and ``smith_normal_form`` 80 bytes
    over d_{3,3}'s nonzeros with the matching and 82 without, duplicate
    columns dropped after every step (the bound leaves a third more; 217.6
    before the rounds gathered in pieces and freed their set-up arrays)."""
    import tracemalloc

    from stabring.kcomplex import unit_matching

    R = regular_module(rings["S3"])
    tracemalloc.start()
    try:
        K = build_kcomplex(R, 3, 3)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(d.nnz for d in K.d.values())
    d33 = K.d[3, 3]
    assert (d33.rows, d33.cols, d33.nnz) == (9072, 46656, 134856)
    rounds = unit_rounds(fresh(d33))
    assert [A.nnz for A, _, _, _ in rounds] == [134856, 140705, 102265, 33901, 6176]
    for A, prow, pcol, rest in rounds:
        want = unit_pivots(A)
        assert np.array_equal(prow, want[0]) and np.array_equal(pcol, want[1])
        assert np.array_equal(_unit_pivots(A)[0], prow)
        assert rest == scipy_schur(A, prow, pcol)
    prow, pcol = unit_matching(R, 3, 3)
    assert len(prow) == 7308 and len(rounds[0][1]) == 5655
    rest = zlinalg._schur(d33, prow, pcol)[2]
    assert rest.nnz == 163244 and rest == scipy_schur(d33, prow, pcol)
    assert zlinalg._distinct_columns(rest).nnz == 56627
    peaks, forms = [], []
    for matching in (None, lambda: (prow, pcol)):
        A = fresh(d33)
        tracemalloc.start()
        try:
            forms.append(smith_normal_form(A, matching))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert forms[0] == forms[1] and forms[0].rank == 8268 and forms[0].torsion == (3,)
    assert stored == 155592
    assert build_peak <= 80 * stored, build_peak / stored
    assert max(peaks) <= 110 * d33.nnz, [peak / d33.nnz for peak in peaks]
    # the pipeline's path stays under the 90.9 bytes per nonzero (11.7 MiB)
    # that the greedy rounds alone peaked at before duplicate columns went
    assert peaks[1] <= 91 * d33.nnz, peaks[1] / d33.nnz


def test_schur_round_over_the_memory_budget_fails_before_allocating(monkeypatch, rings):
    """With a 15 MiB budget the S3 (n <= 3, p <= 2) K-complex is built (its
    largest differential needs about 12.8 MiB), and the first round on
    d_{3,3} (about 17.7 MiB) is refused at the homology stage before it
    forms a product."""
    import tracemalloc

    from conftest import BATTERY_SPECS
    from stabring import _kernels
    from stabring.kcomplex import h_profile
    from stabring.pipeline import PipelineConfig, run_pipeline

    monkeypatch.setattr(_kernels, "memory_budget", lambda: 15 * 2 ** 20)
    report = run_pipeline(PipelineConfig(group=BATTERY_SPECS["S3"], n_max=3, p_max=2,
                                         well_definedness_samples=2))
    assert report.failure["stage"] == "homology"
    assert "Schur round on 9072x46656 with 134856 nonzeros" in report.failure["error"]
    need = float(report.failure["error"].split("about ")[1].split(" MiB")[0])
    assert need > 15 and "memory budget of 15.0 MiB" in report.failure["error"]
    K = build_kcomplex(regular_module(rings["S3"]), 3, 3)
    tracemalloc.start()
    try:
        with pytest.raises(LinAlgError, match="Schur round"):
            h_profile(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need * 2 ** 20 / 2, (peak, need)


def signed_columns(A: IntMatrix) -> dict:
    """Each nonzero column as its (row, value) tuple with the first value
    made positive, keyed by column."""
    out = {}
    for r, c, v in zip(A.row.tolist(), A.col.tolist(), A.val.tolist()):
        out.setdefault(c, []).append((r, v))
    return {c: tuple((r, v if ents[0][1] > 0 else -v) for r, v in ents)
            for c, ents in out.items()}


def without_columns(A: IntMatrix, gone: set) -> IntMatrix:
    keep = ~np.isin(A.col, sorted(gone))
    return IntMatrix.from_triplets(A.rows, A.cols, A.row[keep], A.col[keep], A.val[keep])


def columns_with_duplicates(rng) -> tuple:
    """A random matrix whose columns are fresh, copies of an earlier column
    times +-1, or near copies (one value changed, one sign flipped or one
    row moved), and the number of copies times -1."""
    m, n = rng.randint(2, 12), rng.randint(2, 40)
    cols, flipped = [], 0
    for _ in range(n):
        kind = rng.random() if cols else 0
        if kind < 0.3:
            rows = sorted(rng.sample(range(m), rng.randint(0, m)))
            col = {r: rng.choice((1, -1, 2, -3)) for r in rows}
        else:
            col = dict(rng.choice(cols))
            if col and kind >= 0.8:  # a near copy
                r = rng.choice(sorted(col))
                change = rng.randrange(3)
                if change == 0:
                    col[r] += 1 if col[r] != -1 else 2
                elif change == 1:
                    col[r] = -col[r]
                elif len(col) < m:
                    col[rng.choice(sorted(set(range(m)) - set(col)))] = col.pop(r)
            elif kind >= 0.55:
                col = {r: -v for r, v in col.items()}
                flipped += 1
        cols.append(col)
    r, c, v = [], [], []
    for j, col in enumerate(cols):
        for row, val in col.items():
            r.append(row)
            c.append(j)
            v.append(val)
    return IntMatrix.from_triplets(m, n, r, c, v), flipped


def test_distinct_columns_empty_exactly_the_signed_duplicates(monkeypatch):
    rng = random.Random(71)
    flipped = dropped = collided = 0
    for _ in range(150):
        A, f = columns_with_duplicates(rng)
        flipped += f
        forms = signed_columns(A)
        seen, gone = set(), set()
        for c in sorted(forms):
            if forms[c] in seen:
                gone.add(c)
            else:
                seen.add(forms[c])
        want = without_columns(A, gone)
        got = zlinalg._distinct_columns(A)
        assert got == want and is_canonical(got)
        dropped += len(gone)
        # a forced collision: every column of one length hashes alike, so
        # each is compared with the least column of its length, and only
        # the exact signed copies of that column go
        monkeypatch.setattr(zlinalg, "_entry_hash",
                            lambda row, val: np.zeros(len(row), dtype=np.uint64))
        least = {}
        for c in sorted(forms):
            least.setdefault(len(forms[c]), forms[c])
        gone_least = {c for c in forms if forms[c] == least[len(forms[c])]
                      and c != min(k for k in forms if forms[k] == forms[c])}
        colliding = zlinalg._distinct_columns(A)
        monkeypatch.undo()
        assert colliding == without_columns(A, gone_least)
        collided += len(gone) - len(gone_least)
        assert smith_normal_form(fresh(got)) == smith_normal_form(fresh(colliding)) \
            == smith_normal_form(fresh(A))
    assert flipped > 50 and dropped > 200 and collided > 50, (flipped, dropped, collided)
