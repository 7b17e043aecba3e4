import numpy as np
import pytest

import reference_kcomplex as ref
from reference_kcomplex import mutant
import reference_modules
from reference_snf import ImageTest, apply, integer_kernel, to_text
from stabring import zlinalg
from stabring.kcomplex import (KComplex, KComplexError, _id_tensor_u, _Prepend,
                               _right_mult_images, build_kcomplex, h_profile,
                               homotopy_check, kc_homology,
                               right_mult_is_chain_map, u_commutes_with_d, unit_matching,
                               verify_d_squared)
from stabring.modules import (GradedModule, quotient_u_module, regular_module, shift_module,
                              truncate_module)
from stabring.pipeline import _bound_verdicts
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
                    act = reference_modules.act(R, (a, b), n - 1)
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
                    act = reference_modules.act(R, pair, n - 2)
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
                        rmat = ref.right_mult_matrix(K, g, h, p, n)
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
    # finds no kept form; its work is the Schur steps (the unit matching's
    # and every round's) and the eliminator, which see the differential or
    # residual matrices.  Every computation either ends in one eliminator
    # call or leaves no entries after its Schur steps, so a second pass that
    # calls neither redid no elimination.
    K = build_kcomplex(regular_module(rings["C2xC2"]), 3, 3)
    nonzero = list({id(d): d for d in K.d.values() if not d.is_zero}.values())
    assert any(d.nnz >= zlinalg._ROUND_MIN_NNZ for d in nonzero)  # rounds run too
    computed, work, matched = [], [], []
    real_snf, real_schur, real_eliminate = (zlinalg.smith_normal_form, zlinalg._schur,
                                            zlinalg._snf_diagonal_sparse)

    def note(seen, A):
        if not A.is_zero:
            seen.append(A)

    def snf(A, matching=None):
        if A._snf is None and not A.is_zero:
            note(computed, A)
            matched.append(matching is not None)
        return real_snf(A, matching)

    monkeypatch.setattr(zlinalg, "smith_normal_form", snf)
    monkeypatch.setattr(zlinalg, "_schur", lambda A, prow, pcol: note(work, A) or
                        real_schur(A, prow, pcol))

    def eliminate(row, col, val):
        if len(val):  # the fresh zero matrices at the window edge cost nothing
            work.append(row)
        return real_eliminate(row, col, val)

    monkeypatch.setattr(zlinalg, "_snf_diagonal_sparse", eliminate)
    rows = h_profile(K)
    assert sorted(map(id, computed)) == sorted(map(id, nonzero))
    assert all(matched) and work  # every differential came with its matching
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
    # h0, the top degree with nonvanishing H_0, is 0
    assert max(r.n for r in rows if r.p == 0 and not r.homology.is_zero) == 0
    for r in rows:
        if not r.homology.is_zero:
            assert r.n <= r.p + prof.a_r + 1
    verdicts = _bound_verdicts(prof, rows, K.n_max)
    by_name = {v["check"]: v for v in verdicts}
    assert by_name["hp_degree_bound"]["status"] == "pass"
    assert by_name["u_iso_threshold"]["status"] in ("pass", "inconclusive")
    assert by_name["q0_threshold"]["status"] in ("pass", "inconclusive")


def test_bounds_inconclusive_without_stability(complexes, rings):
    K = complexes["S3"]
    rows = h_profile(K)
    prof = rings["S3"].stability_profile()
    verdicts = _bound_verdicts(prof, rows, K.n_max)
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
    # the shifted modules have actions that vanish on some columns, and R[2]
    # two zero degrees whose equal, empty images act into different ranks
    for shift in (1, 2):
        M = shift_module(regular_module(reference_pairs["C2"][0].ring), shift)
        K, K_ref = build_kcomplex(M, 3, 3), ref.build_kcomplex(M, 3, 3)
        assert all(K.d[key] == K_ref.d[key] for key in K.d), shift


def test_maps_match_the_reference_loops(reference_pairs):
    K, _ = reference_pairs["S3"]
    order = K.G.order
    for p in range(0, 3):
        for n in range(p, 3):
            assert _id_tensor_u(K.module, p, n, order ** (2 * p)) == \
                ref._id_tensor_u(K.module, p, n, order ** (2 * p))
            for g, h in ((0, 0), (1, 2), (5, 3)):
                gs, hs = np.array([g]), np.array([h])
                assert ref.basis_map(K.dim(p, n + 1), _right_mult_images(K, gs, hs, p, n)) == \
                    ref.right_mult_matrix(K, g, h, p, n)
                prepend = _Prepend(K).images(gs, hs, p, n)
                assert prepend.tolist() == [[
                    ref._homotopy_image(K, g, h, p, n, t, j)
                    for t in range(order ** (2 * p)) for j in range(K.module.rank(n - p))]]
                assert ref.basis_map(K.dim(p + 1, n + 1), prepend) == \
                    ref.homotopy_matrix(K, g, h, p, n)


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


def sd_only_mutant(K: KComplex):
    """K with one sign of d_{p,n} flipped (p >= 1, n < n_max), in a column whose
    first pair is not (e, e).  For (g, h) = (e, e), d S at the spot (p - 1, n - 1)
    gathers only columns whose first pair is (e, e), so the flip is first seen
    at the spot (p, n), whose d S term reads d_{p+1,n+1}: only S d sees it.
    None when every column of the candidates starts with (e, e)."""
    for key in ((2, 2), (1, 2)):
        mat = K.d[key]
        if mat.is_zero:
            continue
        rank = K.module.rank(key[1] - key[0])
        rest = K.G.order ** (2 * key[0] - 2)  # tuple ranks past the first pair
        hit = np.flatnonzero(mat.col // rank >= rest)
        if len(hit):
            return key, ref.flip_signs(K, key, hit[len(hit) // 2])
    return None


def test_all_pairs_homotopy_check_matches_the_per_pair_loop(reference_pairs):
    """The batched check over G^2 (``reference_kcomplex.homotopy_check_all``,
    the K-level form of the pipeline's ring-level homotopy verdict) gives the
    (ok, witness) of the loop over the pairs in (g, h) order, with each pair
    checked by two sparse products per spot and by the library's one-pair
    check."""
    sd_only = 0
    for name, (K, _) in reference_pairs.items():
        key = (2, 3) if not K.d[2, 3].is_zero else (3, 3)
        cases = [("true", K), ("1 flip", mutant(K, key)), ("3 flips", mutant(K, key, flips=3))]
        found = sd_only_mutant(K)
        if found is not None:
            cases.append(("S d only", found[1]))
        for label, cx in cases:
            got = ref.homotopy_check_all(cx)
            assert got == ref.homotopy_loop(cx) == ref.homotopy_loop(cx, homotopy_check), \
                (name, label, got)
            assert got[0] == (label == "true") or name == "trivial", (name, label, got)
            if label == "S d only":
                g, h, (p, n, _, _) = got[1]
                assert (g, h, (p, n)) == (0, 0, found[0]), (name, got)
                sd_only += 1
    assert sd_only == len(REFERENCE_GROUPS) - 1  # all but the trivial group


def test_homotopy_check_stays_within_twice_the_stored_triplets(rings):
    """On S3 (n <= 3, p <= 2) the check over all of G^2, batched one g at a
    time, allocates at most twice the 24 bytes per nonzero that K's stored
    differentials take (the kept column indices included)."""
    import tracemalloc

    K = build_kcomplex(regular_module(rings["S3"]), 3, 3)  # the pipeline's complex
    stored = 24 * sum(d.nnz for d in K.d.values())
    tracemalloc.start()
    try:
        ok, _ = ref.homotopy_check_all(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 2 * stored, (peak, stored)


def test_kcomplex_over_the_memory_budget_fails_before_allocating(monkeypatch, rings):
    """With an 8 MiB budget the S3 (n <= 3, p <= 2) run builds d_{2,3}
    (18,144 entries, about 1.7 MiB) and refuses d_{3,3} (139,968 entries,
    about 12.8 MiB) at the kcomplex stage, from the entry count alone."""
    import tracemalloc

    from conftest import BATTERY_SPECS
    from stabring import _kernels
    from stabring.pipeline import PipelineConfig, run_pipeline

    monkeypatch.setattr(_kernels, "memory_budget", lambda: 8 * 2 ** 20)
    report = run_pipeline(PipelineConfig(group=BATTERY_SPECS["S3"], n_max=3, p_max=2,
                                         well_definedness_samples=2))
    assert report.failure["stage"] == "kcomplex"
    error = report.failure["error"]
    assert "d_{3,3} (9072x46656) has 139968 entries" in error
    assert "memory budget of 8.0 MiB" in error
    need = float(error.split("about ")[1].split(" MiB")[0])
    assert need > 8
    assert report.counts and not report.homology  # the stages before it kept their results
    tracemalloc.start()
    try:
        with pytest.raises(KComplexError, match=r"d_\{3,3\}"):
            build_kcomplex(regular_module(rings["S3"]), 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need * 2 ** 20 / 2, (peak, need)


@pytest.fixture(scope="module")
def matching_complexes(rings):
    """K at small windows: S3 (n <= 4, p <= 3), C2xC2 (n <= 4, p <= 3), D4
    (n <= 3, p <= 2), A4 (n <= 2, p <= 2), and the shifted regular module,
    R/UR (on which U acts as zero) and a truncation of C2's ring."""
    from conftest import BATTERY_SPECS, EXTRA_SPECS
    from stabring.groups import load_group
    from stabring.ring import build_ring

    S3 = build_ring(load_group(BATTERY_SPECS["S3"]), 4)
    D4 = build_ring(load_group(EXTRA_SPECS["D4"]), 3)
    A4 = build_ring(load_group(EXTRA_SPECS["A4"]), 2)
    C2 = rings["C2"]
    return {"S3": build_kcomplex(regular_module(S3), 3, 4),
            "C2xC2": build_kcomplex(regular_module(rings["C2xC2"]), 3, 4),
            "D4": build_kcomplex(regular_module(D4), 2, 3),
            "A4": build_kcomplex(regular_module(A4), 2, 2),
            "C2[1]": build_kcomplex(shift_module(regular_module(C2), 1), 3, 4),
            "C2/U": build_kcomplex(quotient_u_module(C2), 3, 3),
            "C2<=2": build_kcomplex(truncate_module(regular_module(C2), 2), 3, 4)}


def test_unit_matching_is_a_signed_identity_on_every_differential(matching_complexes):
    checked = 0
    for name, K in matching_complexes.items():
        pairs = K.G.order ** 2
        for (p, n), d in K.d.items():
            if d.is_zero:
                continue
            prow, pcol = unit_matching(K.module, p, n)
            zlinalg._check_matching(d, prow, pcol)
            checked += 1
            if K.module.name == "R":  # every y of R_{n-p+1} is matched
                t_count = len(np.unique(pcol // K.module.rank(n - p) % pairs))
                free = 1 if p == 1 else (pairs - t_count) * pairs ** (p - 2)
                assert len(prow) == free * K.module.rank(n - p + 1), (name, p, n)
    assert checked >= 40, checked


def test_a_matching_with_a_cross_entry_is_refused(matching_complexes):
    K = matching_complexes["S3"]
    d = K.d[2, 3]
    prow, pcol = unit_matching(K.module, 2, 3)
    # one more entry inside the block, off the diagonal of the signed identity
    r, c = int(prow[0]), int(pcol[1])
    assert not ((d.row == r) & (d.col == c)).any()
    crossed = IntMatrix.from_triplets(d.rows, d.cols, np.append(d.row, r), np.append(d.col, c),
                                      np.append(d.val, 1))
    with pytest.raises(zlinalg.LinAlgError, match="not a unit matching"):
        zlinalg._check_matching(crossed, prow, pcol)
    with pytest.raises(zlinalg.LinAlgError, match="not a unit matching"):
        zlinalg.smith_normal_form(crossed, lambda: (prow, pcol))
    # a pivot entry that is not +-1 is refused too
    doubled = IntMatrix.from_triplets(d.rows, d.cols, np.append(d.row, prow[0]),
                                      np.append(d.col, pcol[0]), np.append(d.val, d.val[0]))
    # so are a repeated row and rows out of range, as -1 would wrap around
    for bad, rows in ((doubled, prow), (d, np.append(prow[:-1], prow[0])),
                      (d, np.append(prow[:-1], -1)), (d, np.append(prow[:-1], d.rows))):
        with pytest.raises(zlinalg.LinAlgError, match="not a unit matching"):
            zlinalg._check_matching(bad, rows, pcol)
    zlinalg._check_matching(d, prow, pcol)


def test_smith_forms_agree_with_and_without_the_matching(matching_complexes):
    from reference_snf import smith_with_transforms

    dense = 0
    for name, K in matching_complexes.items():
        for (p, n), d in K.d.items():
            if d.is_zero or d.nnz > 200_000:
                continue
            fresh = [IntMatrix.from_triplets(d.rows, d.cols, d.row, d.col, d.val) for _ in "ab"]
            got = zlinalg.smith_normal_form(fresh[0], lambda: unit_matching(K.module, p, n))
            assert got == zlinalg.smith_normal_form(fresh[1]), (name, p, n)
            if min(d.rows, d.cols) <= 40:
                assert got.factors == smith_with_transforms(d)[0], (name, p, n)
                dense += 1
    assert dense >= 15, dense


def test_d_squared_is_checked_before_the_spot_is_eliminated(reference_pairs, monkeypatch):
    """On a mutant d_{2,3}, the spot (1, 3) fails its d^2 check before any
    Smith form or matching of that spot is computed, so h_profile still
    raises the d^2 error, not the matching check's."""
    called = []
    real = zlinalg.smith_normal_form
    monkeypatch.setattr(zlinalg, "smith_normal_form",
                        lambda A, matching=None: called.append(A) or real(A, matching))
    for name in ("S3", "C2xC2"):
        K, _ = reference_pairs[name]
        cx = mutant(K, (2, 3))
        called.clear()
        with pytest.raises(zlinalg.LinAlgError, match=r"d_out \. d_in != 0"):
            kc_homology(cx, 1, 3)
        assert not called, name
        with pytest.raises(zlinalg.LinAlgError, match=r"d_out \. d_in != 0"):
            h_profile(cx)
        assert cx.d[2, 3]._snf is None, name


def test_equal_actions_share_one_differential(tmp_path):
    """S3 at n <= 6, p <= 3: d_{p,n} is the object d_{p,n-1} exactly where
    the dense action M_{n-p} -> M_{n-p+1} repeats the one a degree down;
    each differential equals the loop reference (p <= 2) or its own build
    from a module that holds only its action (p = 3, where the reference
    takes minutes), and the files of
    ``--dump-matrices`` at p <= 2 are the reference's text."""
    from conftest import BATTERY_SPECS
    from stabring.groups import load_group
    from stabring.pipeline import PipelineConfig, run_pipeline
    from stabring.ring import build_ring

    ring = build_ring(load_group(BATTERY_SPECS["S3"]), 6)
    R = regular_module(ring)
    K = build_kcomplex(R, 3, 6)
    shared = {key for key in K.d if key[1] > key[0] and K.d[key] is K.d[key[0], key[1] - 1]}
    acts = reference_modules.dense(R).acts
    repeated = {(p, n) for p, n in K.d
                if n > p and np.array_equal(acts[n - p], acts[n - p - 1])}
    assert shared == repeated and {(3, 6), (2, 5), (1, 4)} <= shared
    K_ref = ref.build_kcomplex(R, 2, 6)
    classes = ring.basis_size(1)
    for (p, n), d in K.d.items():
        if p <= 2:
            assert d == K_ref.d[p, n], (p, n)
            continue
        alone = GradedModule("R", ring, "left", (R.rank(n - p), R.rank(n - p + 1)) + (0,) * p,
                             [R.images[n - p], np.full((classes, R.rank(n - p + 1)), -1)]
                             + [np.full((classes, 0), -1)] * (p - 1), p + 1)
        assert build_kcomplex(alone, p, p).d[p, p] == d, (p, n)
    report = run_pipeline(PipelineConfig(group=BATTERY_SPECS["S3"], n_max=6, p_max=1,
                                         out_dir=str(tmp_path), dump_matrices=True,
                                         well_definedness_samples=2))
    assert report.failure is None
    files = sorted(path.name for path in (tmp_path / "matrices").iterdir())
    assert files == sorted(f"d_p{p}_n{n}.txt" for p, n in K_ref.d)
    for p, n in K_ref.d:
        assert (tmp_path / "matrices" / f"d_p{p}_n{n}.txt").read_text() == to_text(K_ref.d[p, n])


def test_tuple_arrays_over_the_memory_budget_are_refused_before_allocating(monkeypatch, rings):
    """On R_{<=1} of S3 the differentials at p <= 2 are small, and p = 3
    would hold index arrays for 46,656 tuples of G^6: with a 1 MiB budget
    the build is refused there, from the tuple count alone."""
    import tracemalloc

    from stabring import _kernels

    M = truncate_module(regular_module(rings["S3"]), 1)
    assert not build_kcomplex(M, 3, 3).d[3, 3].is_zero
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(KComplexError, match=r"46656 tuples of G\^6 need about [0-9.]+ MiB"):
            build_kcomplex(M, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
