import numpy as np
import pytest

from stabring import _kernels
from stabring.oracle import transvection_vectors
from stabring.orbits import enumerate_orbits
from stabring.words import compile_moves


def test_resolve_backend(monkeypatch):
    assert _kernels.resolve_backend("numpy") == "numpy"
    monkeypatch.setenv("STABRING_BACKEND", "numpy")
    assert _kernels.resolve_backend() == "numpy"
    monkeypatch.setenv("STABRING_BACKEND", "bogus")
    with pytest.raises(ValueError):
        _kernels.resolve_backend()


@pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not importable")
def test_backends_agree_on_move_orbits(groups):
    for name, n in (("C2", 2), ("C3", 1), ("C4", 1), ("S3", 1), ("C2xC2", 2)):
        G = groups[name]
        moves = compile_moves(n, G)
        a = enumerate_orbits(G, n, moves, backend="numba")
        b = enumerate_orbits(G, n, moves, backend="numpy")
        assert a.count == b.count
        assert np.array_equal(a.orbit_id, b.orbit_id)
        assert np.array_equal(a.reps, b.reps)


@pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba not importable")
def test_backends_agree_on_transvection_orbits(groups):
    for name, n in (("C2", 2), ("C4", 1), ("C2xC2", 2)):
        G = groups[name]
        vecs = transvection_vectors(n)
        a = _kernels.transvection_orbit_parents(G.table, G.inverse, 2 * n, G.order,
                                                vecs, G.order ** (2 * n), backend="numba")
        b = _kernels.transvection_orbit_parents(G.table, G.inverse, 2 * n, G.order,
                                                vecs, G.order ** (2 * n), backend="numpy")
        assert np.array_equal(a, b)


def test_parent_is_minimum_of_orbit(groups):
    G = groups["C3"]
    moves = compile_moves(1, G)
    table = enumerate_orbits(G, 1, moves, backend="numpy")
    sizes = table.orbit_sizes()
    # representative ranks are strictly increasing and start at the zero state
    reps = [int(r) for r in table.reps]
    assert reps == sorted(reps)
    assert reps[0] == 0
    assert int(sizes.sum()) == G.order ** 2


def test_numpy_backend_dedupes_identical_move_images(groups):
    # the identity move plus a duplicate must not distort the partition
    G = groups["C2"]
    moves = compile_moves(1, G)
    doubled = moves + moves
    a = enumerate_orbits(G, 1, moves, backend="numpy")
    b = enumerate_orbits(G, 1, doubled, backend="numpy")
    assert a.count == b.count
    assert np.array_equal(a.orbit_id, b.orbit_id)
