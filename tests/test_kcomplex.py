import numpy as np
import pytest

import reference_kcomplex as ref
from reference_snf import ImageTest, apply, integer_kernel
from stabring import zlinalg
from stabring.kcomplex import (KComplex, KComplexError, _id_tensor_u, bound_checks,
                               build_kcomplex, h_profile, homotopy_check,
                               kc_homology, observed_h, right_mult_is_chain_map,
                               right_mult_matrix, u_commutes_with_d,
                               verify_d_squared)
from stabring.modules import regular_module, shift_module
from stabring.zlinalg import HomologyGroup, IntMatrix


def column(mat, c: int) -> dict:
    """Column c of an IntMatrix as {row: value}."""
    hit = mat.col == c
    return dict(zip(mat.row[hit].tolist(), mat.val[hit].tolist()))


@pytest.fixture(scope="module")
def complexes(rings):
    out = {}
    for name, (p_built, n_max) in {"trivial": (4, 4), "C2": (4, 4), "S3": (3, 3)}.items():
        out[name] = build_kcomplex(regular_module(rings[name]), p_built, n_max)
    return out


def test_degree_one_differential_is_the_module_action(complexes, rings):
    # d((a, b) (x) m) = [a, b] m: single term, empty conjugator
    for name in ("C2", "S3"):
        K = complexes[name]
        ring = rings[name]
        R = K.module
        order = ring.G.order
        for n in (1, 2):
            d1 = K.d_matrix(1, n)
            rank = R.rank(n - 1)
            for a in range(order):
                for b in range(order):
                    t = a * order + b
                    act = R.act((a, b), n - 1)
                    for j in range(rank):
                        col = column(d1, t * rank + j)
                        want = {int(r): int(act[r, j]) for r in np.flatnonzero(act[:, j])}
                        assert col == want


def test_trivial_group_differential_alternates(complexes):
    # all conjugators trivial and all classes equal: d is U at odd p, 0 at even p
    K = complexes["trivial"]
    for p in range(1, K.p_max + 1):
        for n in range(p, K.n_max + 1):
            mat = K.d_matrix(p, n)
            if p % 2 == 1:
                assert mat.nnz == mat.cols and all(v == 1 for v in mat.val.tolist())
            else:
                assert mat.is_zero


def test_abelian_differential_matches_unconjugated_formula(rings):
    # conjugators act trivially for abelian G
    ring = rings["C3"]
    R = regular_module(ring)
    K = build_kcomplex(R, 3, 3)
    G = ring.G
    order = G.order
    from reference_kernels import encode_tuple
    from stabring.orbits import decode_tuple
    for n in (2, 3):
        mat = K.d_matrix(2, n)
        rank_hi, rank_lo = R.rank(n - 2), R.rank(n - 1)
        for t in range(order ** 4):
            flat = decode_tuple(t, order, 4)
            for j in range(rank_hi):
                col = column(mat, t * rank_hi + j)
                want = {}
                for k, sign in ((0, 1), (1, -1)):
                    rest = flat[2:] if k == 0 else flat[:2]
                    pair = (flat[2 * k], flat[2 * k + 1])
                    act = R.act(pair, n - 2)
                    t2 = encode_tuple(rest, order)
                    for r in np.flatnonzero(act[:, j]):
                        idx = t2 * rank_lo + int(r)
                        want[idx] = want.get(idx, 0) + sign * int(act[r, j])
                assert col == {k: v for k, v in want.items() if v}


def test_nonabelian_differential_column_with_conjugation(complexes, rings):
    # at p = 2 the first summand carries the commutator conjugator of pair 2
    K = complexes["S3"]
    ring = rings["S3"]
    R = K.module
    G = ring.G
    from reference_kernels import encode_tuple
    n = 2
    mat = K.d_matrix(2, n)
    rank_hi, rank_lo = R.rank(0), R.rank(1)
    for pairs in (((1, 2), (3, 4)), ((2, 5), (1, 1)), ((4, 3), (5, 2))):
        (a1, b1), (a2, b2) = pairs
        t = encode_tuple((a1, b1, a2, b2), G.order)
        col = column(mat, t * rank_hi)
        c = G.commutator(a2, b2)
        first = (ref.conjugate(G, a1, c), ref.conjugate(G, b1, c))
        want = {}
        r1 = encode_tuple((a2, b2), G.order) * rank_lo + ring.class_index(1, first)
        want[r1] = want.get(r1, 0) + 1
        r2 = encode_tuple((a1, b1), G.order) * rank_lo + ring.class_index(1, (a2, b2))
        want[r2] = want.get(r2, 0) - 1
        assert col == {k: v for k, v in want.items() if v}


def test_d_squared_zero(complexes):
    for name, K in complexes.items():
        ok, witness = verify_d_squared(K)
        assert ok, f"{name}: d.d != 0 at {witness}"


def test_d_squared_zero_for_shifted_module(rings):
    K = build_kcomplex(shift_module(regular_module(rings["C2"]), 1), 3, 4)
    ok, witness = verify_d_squared(K)
    assert ok, witness


def test_u_commutes_with_differential(complexes):
    for name, K in complexes.items():
        ok, spot = u_commutes_with_d(K)
        assert ok, f"{name}: dU != Ud at {spot}"


def test_homotopy_identity_all_pairs(complexes):
    for name in ("trivial", "C2", "S3"):
        K = complexes[name]
        G = K.G
        for g in range(G.order):
            for h in range(G.order):
                ok, witness = homotopy_check(K, g, h)
                assert ok, f"{name}: failed at (g,h)=({g},{h}), spot {witness}"


def test_homotopy_trivial_pair_matches_u_append(complexes):
    # (g, h) = (1, 1): S d + d S equals appending the trivial handle
    K = complexes["C2"]
    ok, witness = homotopy_check(K, 0, 0)
    assert ok, witness


def test_right_mult_chain_map(complexes):
    K = complexes["S3"]
    for g, h in ((0, 1), (1, 2), (3, 4)):
        ok, spot = right_mult_is_chain_map(K, g, h)
        assert ok, spot


def test_right_mult_sends_small_cycles_to_boundaries(complexes, rings):
    """At every spot where K_p(n), K_{p+1}(n) and K_{p+1}(n+1) have dimension
    <= 160, each vector of an integer basis of the cycles is mapped by every
    right multiplication into the boundaries.  The same membership test finds
    a cycle outside the boundaries exactly where the homology is nonzero, as
    at (0, 0), whose H_0 = Z is generated by a cycle, so it can fail."""
    cxs = {**complexes, "C3": build_kcomplex(regular_module(rings["C3"]), 4, 4)}
    memberships = rejected = 0
    for name, K in cxs.items():
        order = K.G.order
        for p in range(K.p_max):
            for n in range(p, K.n_max):
                dim = K.dim(p, n)
                if dim == 0 or max(dim, K.dim(p + 1, n), K.dim(p + 1, n + 1)) > 160:
                    continue
                kernel = integer_kernel(K.d_matrix(p, n) if p else None, dim)
                boundaries = ImageTest(K.d_matrix(p + 1, n))
                all_bound = all(z in boundaries for z in kernel)
                assert all_bound == kc_homology(K, p, n).is_zero, (name, p, n)
                rejected += not all_bound
                image = ImageTest(K.d_matrix(p + 1, n + 1))
                for g in range(order):
                    for h in range(order):
                        rmat = right_mult_matrix(K, g, h, p, n)
                        for z in kernel:
                            assert apply(rmat, z) in image, (name, p, n, g, h, z)
                            memberships += 1
    assert rejected >= len(cxs)
    # the memberships the pipeline's annihilation verdict once checked on
    # these four groups: 6 (trivial) + 232 (C2) + 126 (C3) + 36 (S3)
    assert memberships == 400


def test_h_profile_eliminates_each_differential_once(rings, monkeypatch):
    # d_{p,n} is d_in at spot (p - 1, n) and d_out at (p, n); its Smith form
    # is computed once and kept on the matrix.  A computation is a call that
    # finds no kept form; its work is the unit-pivot rounds and the per-block
    # eliminator, which see residual matrices rather than the differential.
    K = build_kcomplex(regular_module(rings["C2xC2"]), 3, 3)
    nonzero = [d for d in K.d.values() if not d.is_zero]
    assert any(d.nnz >= zlinalg._ROUND_MIN_NNZ for d in nonzero)  # rounds run too
    computed, work = [], []
    real_snf, real_round, real_blocks = (zlinalg.smith_normal_form, zlinalg._unit_round,
                                         zlinalg._blocks)

    def note(seen, A):
        if not A.is_zero:
            seen.append(A)

    monkeypatch.setattr(zlinalg, "smith_normal_form",
                        lambda A: (A._snf is None and note(computed, A)) or real_snf(A))
    monkeypatch.setattr(zlinalg, "_unit_round", lambda A: note(work, A) or real_round(A))
    monkeypatch.setattr(zlinalg, "_blocks", lambda A: note(work, A) or real_blocks(A))
    rows = h_profile(K)
    assert sorted(map(id, computed)) == sorted(map(id, nonzero))
    assert work
    done = (len(computed), len(work))
    assert h_profile(K) == rows
    assert (len(computed), len(work)) == done


def test_homotopy_requires_regular_module(rings):
    K = build_kcomplex(shift_module(regular_module(rings["C2"]), 1), 2, 3)
    with pytest.raises(KComplexError, match="regular"):
        homotopy_check(K, 0, 0)


def test_homology_trivial_group(complexes):
    # alternating U/0 complex: zero at odd p; Z at the corner of each even p
    K = complexes["trivial"]
    for p in range(0, K.p_max):
        for n in range(p, K.n_max + 1):
            h = kc_homology(K, p, n)
            if p % 2 == 0 and n == p:
                assert h == HomologyGroup(free_rank=1)
            else:
                assert h.is_zero, (p, n, str(h))


def test_h0_spot_is_ring_h0(complexes):
    K = complexes["C2"]
    assert kc_homology(K, 0, 0) == HomologyGroup(free_rank=1)
    for n in (1, 2, 3):
        assert kc_homology(K, 0, n).is_zero


def test_homology_precondition(complexes):
    K = complexes["C2"]
    with pytest.raises(KComplexError, match="needs differentials"):
        kc_homology(K, K.p_max, K.p_max)


def test_h_profile_and_bounds(complexes, rings):
    K = complexes["C2"]
    rows = h_profile(K)
    prof = rings["C2"].stability_profile()
    assert observed_h(rows, 0) == 0
    for r in rows:
        if not r.homology.is_zero:
            assert r.n <= r.p + prof.a_r + 1
    verdicts = bound_checks(prof, rows, K.n_max)
    by_name = {v["check"]: v for v in verdicts}
    assert by_name["hp_degree_bound"]["status"] == "pass"
    assert by_name["u_iso_threshold"]["status"] in ("pass", "inconclusive")
    assert by_name["q0_threshold"]["status"] in ("pass", "inconclusive")


def test_bounds_inconclusive_without_stability(complexes, rings):
    K = complexes["S3"]
    rows = h_profile(K)
    prof = rings["S3"].stability_profile()
    verdicts = bound_checks(prof, rows, K.n_max)
    assert all(v["status"] == "inconclusive" for v in verdicts)


REFERENCE_GROUPS = ("trivial", "C2", "C3", "C4", "C2xC2", "S3")


@pytest.fixture(scope="module")
def reference_pairs(rings):
    """(array-built, loop-built) complexes at p <= 3, n <= 3 for every battery group."""
    out = {}
    for name in REFERENCE_GROUPS:
        R = regular_module(rings[name])
        out[name] = (build_kcomplex(R, 3, 3), ref.build_kcomplex(R, 3, 3))
    return out


def test_differentials_match_the_reference_loops(reference_pairs):
    for name, (K, K_ref) in reference_pairs.items():
        assert sorted(K.d) == sorted(K_ref.d), name
        for key in K.d:
            assert K.d[key] == K_ref.d[key], (name, key)
    # the shifted module has actions that vanish on some columns
    R1 = shift_module(regular_module(reference_pairs["C2"][0].ring), 1)
    K, K_ref = build_kcomplex(R1, 3, 3), ref.build_kcomplex(R1, 3, 3)
    assert all(K.d[key] == K_ref.d[key] for key in K.d)


def test_maps_match_the_reference_loops(reference_pairs):
    K, _ = reference_pairs["S3"]
    order = K.G.order
    for p in range(0, 3):
        for n in range(p, 3):
            assert _id_tensor_u(K.module, p, n, order ** (2 * p)) == \
                ref._id_tensor_u(K.module, p, n, order ** (2 * p))
            for g, h in ((0, 0), (1, 2), (5, 3)):
                assert right_mult_matrix(K, g, h, p, n) == ref.right_mult_matrix(K, g, h, p, n)


def mutant(K: KComplex, key, flips: int = 1) -> KComplex:
    """K with the signs of ``flips`` entries of d[key] flipped, spread evenly."""
    d = dict(K.d)
    mat = d[key]
    val = mat.val.copy()
    val[len(val) * np.arange(1, flips + 1) // (flips + 1)] *= -1
    d[key] = IntMatrix.from_triplets(mat.rows, mat.cols, mat.row, mat.col, val)
    return KComplex(module=K.module, ring=K.ring, p_max=K.p_max, n_max=K.n_max, d=d)


def _pairs_to_check(name, order):
    if name == "S3":  # the loop reference takes about 0.1 s per pair here
        return ((0, 0), (1, 2), (2, 1), (3, 4), (5, 5), (4, 0))
    return [(g, h) for g in range(order) for h in range(order)]


def test_checks_match_the_reference_on_true_and_mutant_complexes(reference_pairs):
    for name, (K, _) in reference_pairs.items():
        pairs = _pairs_to_check(name, K.G.order)
        calls = {  # kind -> (library check, reference check, arguments after K)
            "d_squared": [(verify_d_squared, ref.verify_d_squared, ())],
            "u_commutes": [(u_commutes_with_d, ref.u_commutes_with_d, ())],
            "homotopy": [(homotopy_check, ref.homotopy_check, gh) for gh in pairs],
            "rmult_chain": [(right_mult_is_chain_map, ref.right_mult_is_chain_map, gh)
                            for gh in pairs],
        }
        # d_{2,3} meets every check; the trivial group's d_2 is zero, so flip d_{3,3}
        key = (2, 3) if not K.d[2, 3].is_zero else (3, 3)
        # one flipped entry, and three, which make several columns differ
        for label, cx in (("true", K), ("mutant", mutant(K, key)),
                          ("mutant", mutant(K, key, flips=3))):
            for kind, checks in calls.items():
                outcomes = []
                for check, reference, args in checks:
                    got, want = check(cx, *args), reference(cx, *args)
                    assert got == want, (name, label, kind, args, got, want)
                    outcomes.append(got[0])
                if label == "true":
                    assert all(outcomes), (name, kind)
                elif name != "trivial":
                    # the flipped entries are seen by every kind of check
                    assert not all(outcomes), (name, kind)
