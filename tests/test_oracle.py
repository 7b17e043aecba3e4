import numpy as np
import pytest

import reference_groups as ref
from conftest import CROSS_CHECK_SPECS, HOPF_H2_FIXTURES
from stabring import _kernels, oracle
from stabring.groups import cyclic_group, load_group
from stabring.oracle import (OracleError, abelianization_invariants,
                             bar_differentials, bar_homology, preserves_form, sp_orbit_counts,
                             sp_orbit_oracle, stable_count_prediction,
                             transvection_images, transvection_matrix,
                             transvection_vectors)


@pytest.mark.parametrize("name", CROSS_CHECK_SPECS)
def test_bar_differentials_match_the_loop_reference(name):
    G = load_group(CROSS_CHECK_SPECS[name])
    d2, d3 = bar_differentials(G)
    want2, want3 = ref.bar_differentials(G)
    assert d2 == want2
    assert d3 == want3


def test_bar_homology_rejects_nonzero_composite(monkeypatch):
    # the bar complex is not K(R): bar_homology multiplies d2 d3 out itself,
    # and one flipped sign in d3 fails before any Smith form
    from stabring import zlinalg
    from stabring.zlinalg import IntMatrix, LinAlgError

    d2, d3 = bar_differentials(cyclic_group(3))
    val = d3.val.copy()
    val[0] = -val[0]
    flipped = IntMatrix.from_triplets(d3.rows, d3.cols, d3.row, d3.col, val)
    monkeypatch.setattr(oracle, "bar_differentials", lambda G: (d2, flipped))
    monkeypatch.setattr(zlinalg, "smith_normal_form", pytest.fail)
    want = d2.matmul(flipped)
    with pytest.raises(LinAlgError, match=rf"bar d2 \. d3 != 0: entry \({want.row[0]},"
                                          rf"{want.col[0]}\) = {want.val[0]}$"):
        bar_homology(cyclic_group(3))


def test_bar_homology_trivial(groups):
    bh = bar_homology(groups["trivial"])
    assert bh["H1"].is_zero and bh["H2"].is_zero


def test_bar_h2_matches_hopf_fixtures(groups):
    for name, fixture in HOPF_H2_FIXTURES.items():
        h2 = bar_homology(groups[name])["H2"]
        assert h2.free_rank == 0
        assert h2.torsion == fixture, name


def test_bar_h1_equals_abelianization(groups):
    for name, G in groups.items():
        h1 = bar_homology(G)["H1"]
        assert h1.free_rank == 0
        assert h1.torsion == abelianization_invariants(G), name


def test_bar_order_cap():
    # the cap is the subgroup cap, where stable_count_prediction stops too
    assert bar_homology(cyclic_group(16))["H1"].torsion == (16,)
    with pytest.raises(OracleError, match="capped at order 16, group has 17"):
        bar_homology(cyclic_group(17))


def test_stable_count_values(groups):
    expected = {"trivial": 1, "C2": 2, "C3": 2, "C4": 3, "C2xC2": 6, "S3": 6}
    for name, want in expected.items():
        assert stable_count_prediction(groups[name]) == want, name


def test_transvections_preserve_the_form():
    for n in (1, 2, 3):
        vecs = transvection_vectors(n)
        assert len(vecs) == 3 * n - 1
        for v in vecs:
            assert preserves_form(transvection_matrix(v))


def test_sp_oracle_counts(groups):
    assert sp_orbit_oracle(groups["C2"], 1) == 2
    assert sp_orbit_oracle(groups["C3"], 1) == 2
    assert sp_orbit_oracle(groups["C4"], 1) == 3
    assert sp_orbit_oracle(groups["C2xC2"], 2) == 6


def test_sp_oracle_rejects_nonabelian(groups):
    with pytest.raises(OracleError, match="abelian"):
        sp_orbit_oracle(groups["S3"], 1)


def test_sp_oracle_genus_zero(groups):
    assert sp_orbit_oracle(groups["C2"], 0) == 1
    with pytest.raises(OracleError, match="needs n_max >= 0, got -3"):
        sp_orbit_counts(groups["C2"], -3)  # once returned [1], as if genus 0


def test_orbit_counts_match_sp_oracle_over_window(rings, groups):
    for name in ("C2", "C3", "C4", "C2xC2"):
        ring = rings[name]
        for n in range(1, ring.n_max + 1):
            assert ring.basis_size(n) == sp_orbit_oracle(groups[name], n), (name, n)


def test_moves_abelianize_into_the_symplectic_group():
    # compiled moves act on homology through integral symplectic matrices
    from stabring.oracle import symplectic_form
    from reference_moves import abelianized_matrix
    from stabring.words import enumerate_stabilizing_automorphisms
    for n in (1, 2):
        J = symplectic_form(n)
        for phi in enumerate_stabilizing_automorphisms(n):
            A = abelianized_matrix(phi)
            assert np.array_equal(A.T @ J @ A, J), phi.provenance


LOCAL_SP = {
    "C4": ({"kind": "cyclic", "order": 4}, 4),
    "C2xC2": ({"kind": "product", "factors": [{"kind": "cyclic", "order": 2}] * 2}, 4),
    "C6": ({"kind": "cyclic", "order": 6}, 3),
    "C2xC4": ({"kind": "product", "factors": [{"kind": "cyclic", "order": 2},
                                              {"kind": "cyclic", "order": 4}]}, 3),
}


@pytest.mark.parametrize("name", LOCAL_SP)
def test_local_sp_counts_match_the_full_state_kernel(name):
    spec, n_max = LOCAL_SP[name]
    G = load_group(spec)
    want = [1] + [len(np.unique(_kernels.word_orbit_parents(
        G.table, G.inverse, 2 * n, G.order,
        [transvection_images(v) for v in transvection_vectors(n)], G.order ** (2 * n))))
        for n in range(1, n_max + 1)]
    assert sp_orbit_counts(G, n_max) == want
    assert [sp_orbit_oracle(G, n) for n in range(n_max + 1)] == want


def test_transvection_vectors_refuse_what_is_not_local(monkeypatch):
    twist = oracle._twist_vectors

    def with_long_row(n):
        rows = twist(n)
        if n != 3:
            return rows
        long_row = np.zeros(6, dtype=np.int8)
        long_row[[1, 4]] = 1  # b_1 + a_3 skips handle 2
        return np.vstack([rows, long_row])

    monkeypatch.setattr(oracle, "_twist_vectors", with_long_row)
    with pytest.raises(OracleError, match="transvection of degree 3 is not local"):
        transvection_vectors(3)
    with pytest.raises(OracleError, match="not local"):
        sp_orbit_counts(cyclic_group(2), 3)
    assert len(transvection_vectors(2)) == 5
    # without the mixer of handles 2 and 3 the degree-2 rows are not all placed
    monkeypatch.setattr(oracle, "_twist_vectors", lambda n: twist(n)[:-1] if n == 3 else twist(n))
    with pytest.raises(OracleError, match="miss a degree-2 one"):
        transvection_vectors(3)
