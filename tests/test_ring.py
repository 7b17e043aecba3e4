import dataclasses
import re

import numpy as np
import pytest

import reference_kernels as ref
from conftest import BATTERY_SPECS, EXTRA_SPECS
from stabring.groups import load_group
from stabring.orbits import OrbitError, step_table
from stabring.ring import GradedRing, RingError, build_ring
from stabring.words import boundary_eval, compile_moves


def mult(ring, m: int, i: int, n: int, j: int) -> int:
    """Index of the product [rep_i ++ rep_j] in the degree m + n basis."""
    return ring.class_index(m + n, ring.rep(m, i) + ring.rep(n, j))


def test_trivial_group_every_degree_rank_one(rings):
    ring = rings["trivial"]
    assert ring.counts == (1, 1, 1, 1, 1)
    for n in range(ring.n_max):
        assert list(ring.u_map(n)) == [0]  # U is a basis bijection everywhere


def test_counts_c2_and_c3(rings):
    assert rings["C2"].counts == (1, 2, 2, 2, 2)
    assert rings["C3"].counts[:3] == (1, 2, 2)


def test_unit_law(rings):
    ring = rings["C4"]
    assert ring.counts[0] == 1 and ring.rep(0, 0) == ()
    for n in (0, 1, 2):
        for i in range(ring.basis_size(n)):
            assert mult(ring, 0, 0, n, i) == i
            assert mult(ring, n, i, 0, 0) == i


def test_u_equals_left_multiplication_by_trivial_pair(rings):
    ring = rings["C2"]
    u_cls = ring.class_index(1, (0, 0))
    assert u_cls == 0  # the orbit of rank 0 comes first, so u_map is row 0
    for n in (0, 1, 2):
        for i in range(ring.basis_size(n)):
            assert ring.u_map(n)[i] == mult(ring, 1, u_cls, n, i)
    assert list(ring.u_map(0)) == [u_cls]


def test_u_image_example_c2(rings):
    # U[g,1] = [1,1,g,1], a basis element of degree 2
    ring = rings["C2"]
    idx = ring.class_index(1, (1, 0))
    img = ring.class_index(2, (0, 0, 1, 0))
    assert ring.u_map(1)[idx] == img
    assert ring.product(1, 1)[0, idx] == img


def test_product_matches_per_tuple_mult(rings):
    for name, ring in rings.items():
        assert ring.class_index(1, (0, 0)) == 0, name
        for m in range(ring.n_max + 1):
            for n in range(ring.n_max + 1 - m):
                table = ring.product(m, n)
                assert table.shape == (ring.basis_size(m), ring.basis_size(n))
                want = [[mult(ring, m, i, n, j) for j in range(ring.basis_size(n))]
                        for i in range(ring.basis_size(m))]
                assert table.tolist() == want, (name, m, n)
                # R is commutative, so left and right actions of R agree
                assert np.array_equal(table, ring.product(n, m).T), (name, m, n)
                if m == 1:
                    assert np.array_equal(ring.u_map(n), table[0]), (name, n)


def test_basis_product_associativity(rings):
    for name in ("C2", "C4", "S3"):
        ring = rings[name]
        triples = [(1, 1, 1)]
        if ring.n_max >= 4:
            triples.append((1, 1, 2))
        for m, n, k in triples:
            for i in range(ring.basis_size(m)):
                for j in range(ring.basis_size(n)):
                    for l in range(ring.basis_size(k)):
                        ij = mult(ring, m, i, n, j)
                        jk = mult(ring, n, j, k, l)
                        assert mult(ring, m + n, ij, k, l) == mult(ring, m, i, n + k, jk)


def test_product_well_defined_across_representatives(rings, groups):
    # concat of any orbit representatives lands in the product class
    ring = rings["S3"]
    G = groups["S3"]
    rng = np.random.default_rng(7)
    moves1 = compile_moves(1, G)
    for _ in range(1000):
        v = tuple(int(x) for x in rng.integers(0, G.order, size=2))
        w = tuple(int(x) for x in rng.integers(0, G.order, size=2))
        mv = moves1[int(rng.integers(0, len(moves1)))]
        mw = moves1[int(rng.integers(0, len(moves1)))]
        moved = np.concatenate([mv.evaluate(G, v), mw.evaluate(G, w)])
        assert ring.class_index(2, moved) == ring.class_index(2, v + w)


def test_u_commutes_with_degree_one_classes(rings, groups):
    # [1,1,a,b,...] = [a,b,1,1,...] as orbit classes
    ring = rings["C2xC2"]
    G = groups["C2xC2"]
    for a in range(G.order):
        for b in range(G.order):
            for i in range(ring.basis_size(1)):
                rep = ring.rep(1, i)
                lhs = ring.class_index(3, (0, 0) + (a, b) + rep)
                rhs = ring.class_index(3, (a, b) + (0, 0) + rep)
                assert lhs == rhs


def test_boundary_values_are_the_boundary_of_every_tuple_of_the_class(rings):
    """bd(j) read off the representative equals the boundary value of every
    tuple of class j, in every degree up to 3."""
    for name in ("C2", "C3", "C4", "C2xC2", "S3"):
        ring = rings[name]
        G = ring.G
        assert ring.boundary_values(0).tolist() == [G.identity], name
        for n in range(1, min(ring.n_max, 3) + 1):
            tuples = np.indices((G.order,) * (2 * n)).reshape(2 * n, -1).T
            got = ring.boundary_values(n)
            assert got.shape == (ring.basis_size(n),), (name, n)
            assert np.array_equal(got[ring.class_index(n, tuples)],
                                  boundary_eval(G, tuples)), (name, n)


def test_every_class_factors_through_degree_one(rings):
    # generation in degree 1: [v] = [v_1, v_2] * [rest]
    for name in ("C2", "C4", "S3"):
        ring = rings[name]
        for n in range(2, ring.n_max + 1):
            for idx in range(ring.basis_size(n)):
                rep = ring.rep(n, idx)
                head = ring.class_index(1, rep[:2])
                tail = ring.class_index(n - 1, rep[2:])
                assert mult(ring, 1, head, n - 1, tail) == idx


def test_degree_overflow_raises(rings):
    ring = rings["C2"]
    with pytest.raises(RingError, match="exceeds"):
        ring.product(1, ring.n_max)
    with pytest.raises(RingError, match="exceeds"):
        ring.product(ring.n_max, 1)
    with pytest.raises(RingError, match="exceeds"):
        ring.u_map(ring.n_max)
    with pytest.raises(RingError, match="negative"):
        ring.product(-1, 1)


def test_ring_refuses_a_pair_class_numbering_without_u_first(rings):
    # U and row 0 of every module's image arrays read class 0 of degree 1 as the class of (e, e)
    ring = rings["C2"]
    swap = np.array([1, 0] + list(range(2, ring.basis_size(1))))
    with pytest.raises(RingError, match=r"\(e, e\) must be class 0"):
        GradedRing(ring.G, ring.n_max, swap[ring.pair_class], ring.steps)


def test_class_index_refuses_wrong_tuple_length(rings):
    ring = rings["C2"]
    with pytest.raises(RingError, match="length"):
        ring.class_index(1, (0, 0, 0))


def test_class_index_refuses_a_bad_row_of_a_batch(rings):
    # checked before any gather: a negative entry would otherwise wrap around
    ring = rings["C4"]
    batch = np.zeros((2, 5, 4), dtype=np.int64)
    with pytest.raises(RingError, match="tuple length 4 != 2n = 6"):
        ring.class_index(3, batch)
    batch[1, 2, 3] = -1
    batch[1, 4, 0] = 4
    with pytest.raises(RingError, match=re.escape("order 4 in (0, 0, 0, -1)")):
        ring.class_index(2, batch)
    batch[1, 2, 3] = 0
    with pytest.raises(RingError, match=re.escape("order 4 in (4, 0, 0, 0)")):
        ring.class_index(2, batch)


def test_stability_profile_c2(rings):
    prof = rings["C2"].stability_profile()
    assert prof.counts == (1, 2, 2, 2, 2)
    assert prof.deg_r_u == -1          # U never merges classes
    assert prof.deg_rbar == 1          # R_1 has a class outside U(R_0)
    assert prof.a_r == 1 and prof.a_tilde_r == 1
    assert prof.stable_within_window
    assert prof.u_bijective == (False, True, True, True)


def test_stability_profile_trivial(rings):
    prof = rings["trivial"].stability_profile()
    assert prof.a_r == 0 and prof.a_tilde_r == 1
    assert prof.stable_within_window


def test_stability_profile_c4(rings):
    prof = rings["C4"].stability_profile()
    assert prof.counts == (1, 3, 3, 3, 3)
    assert prof.stable_within_window


def test_s3_not_stable_in_short_window(rings):
    prof = rings["S3"].stability_profile()
    assert prof.counts == (1, 7, 8, 8)
    assert not prof.stable_within_window  # U: R_1 -> R_2 is not onto yet


def test_build_ring_rejects_mismatched_tables(groups):
    from stabring.orbits import enumerate_orbits
    G2, G3 = groups["C2"], groups["C3"]
    alien = enumerate_orbits(G3, 1, compile_moves(1, G3))
    with pytest.raises(RingError, match="does not match"):
        build_ring(G2, 1, tables={1: alien})


def test_summary_shape(rings):
    s = rings["C2"].summary()
    assert s["counts"] == [1, 2, 2, 2, 2]
    assert set(s["u_maps"]) == {"0", "1", "2", "3"}
    assert s["stable_within_window"] is True


LOCAL_VS_KERNEL = {**{name: 4 for name in BATTERY_SPECS}, **{name: 3 for name in EXTRA_SPECS}}


@pytest.mark.parametrize("name", LOCAL_VS_KERNEL)
def test_local_ring_matches_the_kernel_reference(name):
    """Every product table and every representative of the ring built from
    the degree-1 and degree-2 tables equal those of the full-state kernel."""
    G = load_group({**BATTERY_SPECS, **EXTRA_SPECS}[name])
    n_max = LOCAL_VS_KERNEL[name]
    tables = ref.kernel_tables(G, n_max)
    ring = build_ring(G, n_max)
    assert ring.counts == tuple(t.count for t in tables)
    for n in range(n_max + 1):
        assert [ring.rep(n, j) for j in range(ring.basis_size(n))] == \
            [tables[n].rep_tuple(j) for j in range(tables[n].count)], (name, n)
        for m in range(n_max + 1 - n):
            assert np.array_equal(ring.product(m, n), ref.kernel_product(G, tables, m, n)), \
                (name, m, n)


def test_build_ring_checks_supplied_tables_above_degree_two(groups):
    G = groups["C4"]
    tables = dict(enumerate(ref.kernel_tables(G, 3)))
    assert build_ring(G, 3, tables=tables).counts == (1, 3, 3, 3)
    top = tables[3]
    merged = dataclasses.replace(top, orbit_id=np.zeros_like(top.orbit_id), reps=top.reps[:1])
    with pytest.raises(RingError, match="has 1 orbits, the local ring 3"):
        build_ring(G, 3, tables={**tables, 3: merged})
    # the last state moved to another orbit: the counts agree, the partition does not
    orbit_id = top.orbit_id.copy()
    orbit_id[-1] = (orbit_id[-1] + 1) % top.count
    moved = dataclasses.replace(top, orbit_id=orbit_id)
    with pytest.raises(RingError, match="partitions G\\^6 differently"):
        build_ring(G, 3, tables={**tables, 3: moved})


def test_step_table_refuses_a_partition_finer_than_the_handle_classes(groups):
    # split one degree-2 orbit along a pair that is not its handles' least pair
    G = groups["C3"]
    class1 = ref.kernel_tables(G, 1)[1].orbit_id.astype(np.int64)
    class2 = ref.kernel_tables(G, 2)[2].orbit_id.astype(np.int64)
    assert step_table(class1, class2).shape == (2, 2)
    class2[-1] = class2.max() + 1
    with pytest.raises(OrbitError, match="not a function of the degree-1 classes"):
        step_table(class1, class2)


def test_rep_and_class_index_refuse_what_is_not_in_the_ring(rings):
    ring = rings["C2"]
    with pytest.raises(RingError, match="no class"):
        ring.rep(1, ring.basis_size(1))
    with pytest.raises(RingError, match="no class"):
        ring.rep(ring.n_max + 1, 0)
    with pytest.raises(RingError, match="out of range"):
        ring.class_index(1, (0, 2))
