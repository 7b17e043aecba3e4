import numpy as np
import pytest

from stabring.modules import (GradedModule, ModuleError, delta_and_bounds, deg_of,
                              derive_module, generated_in_degrees_upto,
                              graded_tensor, h0, h1, module_deg,
                              quotient_u_module, regular_module, shift_module,
                              truncate_module)
from stabring.zlinalg import HomologyGroup


def z_module(ring, side: str = "left") -> GradedModule:
    """Z = R / R_{>0}, concentrated in degree 0 with the zero action."""
    ranks = tuple([1] + [0] * ring.n_max)
    lam = {(a, b): [np.zeros((ranks[n + 1], ranks[n]), dtype=np.int64)
                    for n in range(ring.n_max)]
           for a in range(ring.G.order) for b in range(ring.G.order)}
    return GradedModule("Z", ring, side, ranks, lam, ring.n_max)


def test_regular_module_consistency(rings):
    for name in ("C2", "C4", "S3"):
        assert regular_module(rings[name]).consistency_failures() == []


def test_derived_modules_consistency(rings):
    ring = rings["C2xC2"]
    for recipe in (("Rbar",), ("RU",), ("shift", 1), ("trunc", 2)):
        assert derive_module(ring, recipe).consistency_failures() == [], recipe


def test_regular_module_trivial_group(rings):
    R = regular_module(rings["trivial"])
    assert R.ranks == (1, 1, 1, 1, 1)
    for n in range(R.n_max):
        assert R.u_matrix(n).tolist() == [[1]]


def test_rbar_trivial_group(rings):
    Rbar = derive_module(rings["trivial"], ("Rbar",))
    assert Rbar.ranks == (1, 0, 0, 0, 0)  # U is onto everywhere


def test_rbar_c2(rings):
    Rbar = derive_module(rings["C2"], ("Rbar",))
    assert Rbar.ranks == (1, 1, 0, 0, 0)
    assert Rbar.consistency_failures() == []


def test_ru_kernel_vanishes_where_u_injective(rings):
    RU = derive_module(rings["C2"], ("RU",))
    assert all(r == 0 for r in RU.ranks)


def test_shift_and_truncate(rings):
    ring = rings["C2"]
    R = regular_module(ring)
    S = shift_module(R, 1)
    assert S.ranks == (0, 1, 2, 2, 2)
    T = truncate_module(R, 1)
    assert T.ranks == (1, 2, 0, 0, 0)
    assert derive_module(ring, ("shift", 2)).ranks == (0, 0, 1, 2, 2)
    assert derive_module(ring, ("trunc", 0)).ranks == (1, 0, 0, 0, 0)


def test_h0_of_regular_is_z_in_degree_zero(rings):
    for name in ("trivial", "C2", "C4", "S3"):
        groups_ = h0(regular_module(rings[name]))
        assert groups_[0] == HomologyGroup(free_rank=1)
        assert all(g.is_zero for g in groups_[1:])


def test_h1_of_regular_vanishes_for_trivial_group(rings):
    assert all(g.is_zero for g in h1(regular_module(rings["trivial"])))


def test_h0_h1_pair(rings):
    R = regular_module(rings["C2"])
    zero_part, one_part = h0(R), h1(R)
    assert deg_of(zero_part) == 0
    assert all(g.is_zero for g in one_part)


def test_tensor_unit_laws(rings):
    ring = rings["C2"]
    R_right = regular_module(ring, side="right")
    R_left = regular_module(ring)
    # R (x)_R R = R
    assert [g.free_rank for g in graded_tensor(R_right, R_left)] == list(ring.counts)
    # Z (x)_R R = Z
    t = graded_tensor(z_module(ring, side="right"), R_left)
    assert t[0] == HomologyGroup(free_rank=1) and all(g.is_zero for g in t[1:])
    # Rbar (x)_R R = Rbar
    rbar_r = quotient_u_module(regular_module(ring, side="right"))
    t2 = graded_tensor(rbar_r, R_left)
    assert [g.free_rank for g in t2] == list(rbar_r.ranks)
    assert all(not g.torsion for g in t2)


def test_tensor_degree_bound_randomized(rings):
    # deg(N (x) M) <= min(deg N + deg H0(M), deg H0(N) + deg M)
    ring = rings["C4"]
    rights = [regular_module(ring, side="right"),
              quotient_u_module(regular_module(ring, side="right")),
              truncate_module(regular_module(ring, side="right"), 1),
              truncate_module(regular_module(ring, side="right"), 2),
              z_module(ring, side="right")]
    lefts = [regular_module(ring),
              derive_module(ring, ("Rbar",)),
              derive_module(ring, ("trunc", 1)),
              derive_module(ring, ("shift", 1))]
    for N in rights:
        for M in lefts:
            t_deg = deg_of(graded_tensor(N, M))
            bound = min(module_deg(N) + deg_of(h0(M)),
                        deg_of(h0(N)) + module_deg(M))
            assert t_deg <= bound, (N.name, M.name, t_deg, bound)


def test_lemma_generation_equivalence_both_directions(rings):
    # deg H0(M) <= a iff M generated in degrees <= a
    for name in ("C2", "C2xC2"):
        ring = rings[name]
        for recipe in (("R",), ("Rbar",), ("shift", 1), ("trunc", 2)):
            M = derive_module(ring, recipe)
            a = deg_of(h0(M))
            if a >= 0:
                assert generated_in_degrees_upto(M, a)
                assert not generated_in_degrees_upto(M, a - 1)
            else:
                assert generated_in_degrees_upto(M, 0)


def test_h0_degree_bounded_by_module_degree(rings):
    Rbar = derive_module(rings["C2"], ("Rbar",))
    assert deg_of(h0(Rbar)) <= module_deg(Rbar)


def test_delta_and_bounds_regular(rings):
    db = delta_and_bounds(regular_module(rings["C2"]))
    assert db.delta == 1              # R/UR has degree 1, tor1 vanishes
    assert deg_of(db.tor1) == -1
    assert db.a_m == 1
    assert db.a_bound_ok and db.tensor_bound_ok


def test_delta_and_bounds_trivial(rings):
    db = delta_and_bounds(regular_module(rings["trivial"]))
    assert db.delta == 0 and db.a_m == 0
    assert db.a_bound_ok and db.tensor_bound_ok


def test_delta_and_bounds_derived_battery(rings):
    for name in ("C2", "C3", "C4", "C2xC2", "S3"):
        ring = rings[name]
        for recipe in (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)):
            db = delta_and_bounds(derive_module(ring, recipe))
            assert db.a_bound_ok, (name, recipe)
            assert db.tensor_bound_ok, (name, recipe)


def test_act_class_respects_factorization(rings):
    # multiplication by [v] equals the composite along the first-pair splitting
    ring = rings["S3"]
    R = regular_module(ring)
    for n in (1, 2):
        for idx in range(ring.basis_size(n)):
            rep = ring.rep(n, idx)
            whole = R.act_class(n, idx, 0)
            head = (rep[0], rep[1])
            if n == 1:
                assert np.array_equal(whole, R.act(head, 0))
            else:
                tail_idx = ring.class_index(n - 1, rep[2:])
                assert np.array_equal(whole,
                                      R.act(head, n - 1) @ R.act_class(n - 1, tail_idx, 0))


def test_unknown_recipe(rings):
    with pytest.raises(ModuleError, match="recipe"):
        derive_module(rings["C2"], ("bogus",))


def test_window_guard(rings):
    R = regular_module(rings["C2"])
    with pytest.raises(ModuleError):
        R.act((0, 0), R.n_max)
    with pytest.raises(ModuleError):
        R.rank(R.n_max + 1)
