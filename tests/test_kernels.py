import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import reference_kernels as ref
from conftest import BATTERY_SPECS, EXTRA_SPECS
from reference_moves import pairwise_transvection_vectors
from stabring import _kernels
from stabring.groups import load_group
from stabring.oracle import (OracleError, sp_orbit_oracle, transvection_images,
                             transvection_vectors)
from stabring.orbits import OrbitError, decode_tuple, enumerate_orbits
from stabring.words import compile_moves, enumerate_stabilizing_automorphisms, moveset_hash

KERNEL_GROUPS = {**BATTERY_SPECS, "C5": {"kind": "cyclic", "order": 5},
                 "C8": {"kind": "cyclic", "order": 8}}
ABELIAN_KERNEL_GROUPS = [name for name in KERNEL_GROUPS if name != "S3"]


def _table_of(parent):
    reps, orbit_id = np.unique(parent, return_inverse=True)
    return orbit_id.astype(np.uint32), reps.astype(np.uint64)


def _word_parents(G, n, vecs):
    return _kernels.word_orbit_parents(G.table, G.inverse, 2 * n, G.order,
                                       [transvection_images(v) for v in vecs],
                                       G.order ** (2 * n))


def _transvection_parents(G, n):
    return _word_parents(G, n, transvection_vectors(n))


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_move_orbits_match_csgraph_and_bfs_references(name):
    G = load_group(KERNEL_GROUPS[name])
    for n in (1, 2):
        moves = compile_moves(n, G)
        table = enumerate_orbits(G, n, moves)
        for parent in (ref.csgraph_move_parents(G, n, moves),
                       ref.bfs_move_parents(G, n, enumerate_stabilizing_automorphisms(n))):
            orbit_id, reps = _table_of(parent)
            assert np.array_equal(table.orbit_id, orbit_id), (name, n)
            assert np.array_equal(table.reps, reps), (name, n)


@pytest.mark.parametrize("name", ["C4", "C2xC2", "S3"])
def test_move_orbits_match_csgraph_reference_at_genus_three(name):
    G = load_group(KERNEL_GROUPS[name])
    moves = compile_moves(3, G)
    table = enumerate_orbits(G, 3, moves)
    orbit_id, reps = _table_of(ref.csgraph_move_parents(G, 3, moves))
    assert np.array_equal(table.orbit_id, orbit_id)
    assert np.array_equal(table.reps, reps)


@pytest.mark.parametrize("name", ABELIAN_KERNEL_GROUPS)
def test_transvection_orbits_match_csgraph_and_bfs_references(name):
    G = load_group(KERNEL_GROUPS[name])
    for n in (1, 2):
        parent = _transvection_parents(G, n)
        vecs = transvection_vectors(n)
        assert np.array_equal(parent, ref.csgraph_transvection_parents(G, n, vecs)), (name, n)
        assert np.array_equal(parent, ref.bfs_transvection_parents(G, n, vecs)), (name, n)


@pytest.mark.parametrize("name", ABELIAN_KERNEL_GROUPS)
def test_transvection_orbits_match_the_pairwise_family(name):
    """The 3n - 1 twist-class transvections join what all n(2n + 1) do."""
    G = load_group(KERNEL_GROUPS[name])
    for n in (1, 2, 3):
        pairwise = _word_parents(G, n, pairwise_transvection_vectors(n))
        assert np.array_equal(_transvection_parents(G, n), pairwise), (name, n)


@pytest.mark.parametrize("name", ["C4", "C2xC2"])
def test_transvection_orbits_match_csgraph_reference_at_genus_three(name):
    G = load_group(KERNEL_GROUPS[name])
    assert np.array_equal(_transvection_parents(G, 3),
                          ref.csgraph_transvection_parents(G, 3, transvection_vectors(3)))


def test_kernel_memory_is_linear_in_states():
    """One label array and one image at a time: about 92 B/state, where
    keeping every image and an all-moves edge list took about 1.2 KB."""
    G = load_group(KERNEL_GROUPS["C8"])
    moves = compile_moves(3, G)
    n_states = G.order ** 6
    for label, call in (("moves", lambda: enumerate_orbits(G, 3, moves)),
                        ("transvections", lambda: _transvection_parents(G, 3))):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_states < 160, f"{label}: {peak / n_states:.0f} B/state"


def test_memory_budget_fails_before_allocating(monkeypatch):
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 2 ** 20)
    G = load_group(KERNEL_GROUPS["C8"])
    with pytest.raises(OrbitError, match="memory budget of 1.0 MiB"):
        enumerate_orbits(G, 3, compile_moves(3, G))
    # the ring and the sp oracle run the kernel at degrees 1 and 2 only, and
    # C8's 4096 degree-2 states need 0.5 MiB
    monkeypatch.setattr(_kernels, "memory_budget", lambda: 2 ** 18)
    with pytest.raises(OracleError, match="needs about 0.5 MiB"):
        sp_orbit_oracle(G, 3)


def test_parent_is_minimum_of_orbit(groups):
    G = groups["C3"]
    moves = compile_moves(1, G)
    table = enumerate_orbits(G, 1, moves)
    sizes = table.orbit_sizes()
    # representative ranks are strictly increasing and start at the zero state
    reps = [int(r) for r in table.reps]
    assert reps == sorted(reps)
    assert reps[0] == 0
    assert int(sizes.sum()) == G.order ** 2


def test_duplicate_moves_do_not_change_the_partition(groups):
    # a second copy of every move must not distort the partition
    G = groups["C2"]
    moves = compile_moves(1, G)
    doubled = moves + moves
    a = enumerate_orbits(G, 1, moves)
    b = enumerate_orbits(G, 1, doubled)
    assert a.count == b.count
    assert np.array_equal(a.orbit_id, b.orbit_id)


@pytest.mark.parametrize("name", ["C4", "C2xC2", "C6"])
def test_transvection_images_evaluate_to_the_reference_transvection(name):
    """Evaluating the words of ``transvection_images(v)`` on a tuple gives
    x + <x, v> v as the per-state reference computes it, for the twist-class
    rows and all n(2n + 1) pairwise rows."""
    G = load_group({**KERNEL_GROUPS, "C6": {"kind": "cyclic", "order": 6}}[name])
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        ranks = rng.integers(0, G.order ** (2 * n), size=64)
        digits = np.array([decode_tuple(int(r), G.order, 2 * n) for r in ranks]).T
        for v in [*transvection_vectors(n), *pairwise_transvection_vectors(n)]:
            want = ref._transvection_image(G.table, G.inverse, digits, G.order, v)
            words = transvection_images(v)
            for x, rank in zip(digits.T, want):
                got = [ref._evaluate(G, w, tuple(int(e) for e in x)) for w in words]
                assert ref.encode_tuple(got, G.order) == rank, (name, n, tuple(v), tuple(x))


def _graphs(n: int):
    """Edge lists (src, dst) on n nodes that stress hooking and pointer jumping."""
    rng = np.random.default_rng(5)
    perm = rng.permutation(n)
    loops = rng.integers(0, n, n // 10)
    return {
        "path": (np.arange(n - 1), np.arange(1, n)),
        "permuted path": (perm[:-1], perm[1:]),
        "reversed path": (np.arange(n - 1, 0, -1), np.arange(n - 2, -1, -1)),
        "reversed star": (np.full(n - 1, n - 1), np.arange(n - 1)),
        "random": (rng.integers(0, n, n // 2), rng.integers(0, n, n // 2)),
        "edgeless": (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        "self-loops": (np.concatenate((loops, [0, n - 1])), np.concatenate((loops, [n - 1, 1]))),
    }


@pytest.mark.parametrize("n", [1, 2, 50_000])
def test_components_match_csgraph(n):
    for name, (src, dst) in _graphs(n).items():
        if n == 1 and name == "self-loops":
            src = dst = np.zeros(3, dtype=np.int64)
        got = _kernels.components(n, src, dst)
        assert np.array_equal(got, ref.csgraph_least_nodes(n, src, dst)), (name, n)
        assert got.dtype == np.int64 and len(got) == n


# -- digests, draws, distinct values and membership --------------------------

small_ints = hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                   max_side=6),
                        elements=st.integers(-4, 4))


@given(small_ints)
def test_distinct_matches_np_unique(x):
    for axis in (None, *range(x.ndim)):
        got, want = _kernels.distinct(x, axis=axis), np.unique(x, axis=axis)
        assert got.dtype == want.dtype and got.shape == want.shape, axis
        assert np.array_equal(got, want), axis


@given(small_ints, small_ints)
def test_member_matches_np_isin(x, values):
    got, want = _kernels.member(x, values), np.isin(x, values)
    assert got.dtype == bool and got.shape == x.shape
    assert np.array_equal(got, want)
    assert not _kernels.member(x, np.zeros(0, dtype=np.int64)).any()


@given(st.lists(st.binary(max_size=200), max_size=4))
def test_sha256_matches_hashlib(chunks):
    got, want = _kernels.sha256(), hashlib.sha256()
    for chunk in chunks:
        got.update(chunk)
        want.update(chunk)
    assert got.hexdigest() == want.hexdigest() and got.digest() == want.digest()
    blob = np.arange(len(chunks) * 7, dtype=np.int64)
    assert _kernels.sha256(blob).digest() == hashlib.sha256(blob).digest()
    assert (_kernels.sha256(memoryview(b"".join(chunks))[1:]).digest()
            == hashlib.sha256(b"".join(chunks)[1:]).digest())


# the groups of the reference windows; their move sets reach degree 12 (C4)
REFERENCE_GROUPS = {**BATTERY_SPECS, "C8": {"kind": "cyclic", "order": 8},
                    "D4": EXTRA_SPECS["D4"]}


def test_group_and_moveset_hashes_match_hashlib():
    for name, spec in REFERENCE_GROUPS.items():
        G = load_group(spec)
        want = hashlib.sha256(str(G.order).encode())
        want.update(G.table.astype(np.int64).tobytes())
        assert G.hash() == want.hexdigest(), name
    for n in range(1, 13):  # the moves are the same for every group
        moves = compile_moves(n, load_group(BATTERY_SPECS["C2"]))
        blob = json.dumps(sorted(m.images for m in moves), separators=(",", ":")).encode()
        assert moveset_hash(moves) == hashlib.sha256(blob).hexdigest(), n


def _draws(seed):
    rng = _kernels.Draws(seed)
    return [rng.integers(0, 6, size=(40, 4)), rng.integers(1, np.arange(2, 50)),
            rng.integers(-3, 9, size=7), rng.integers(5, 6)]


def test_draws_repeat_for_a_seed_and_differ_between_seeds():
    first, again, other = _draws(5), _draws(5), _draws(6)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert [a.shape for a in first] == [(40, 4), (48,), (7,), ()]
    assert all(a.dtype == np.int64 for a in first)
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_draws_are_the_multiply_shift_of_the_seeded_bytes():
    raw = random.Random(3).randbytes(8 * 12)
    words = [int.from_bytes(raw[8 * i:8 * i + 8], "little") for i in range(12)]
    want = [2 + ((w >> 32) * 7 >> 32) for w in words]
    assert _kernels.Draws(3).integers(2, 9, size=(3, 4)).ravel().tolist() == want


@given(st.integers(0, 2 ** 32), st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 32 - 1),
       st.integers(0, 50))
def test_draws_lie_in_their_range(seed, lo, span, size):
    got = _kernels.Draws(seed).integers(lo, lo + span, size=size)
    assert got.shape == (size,) and got.dtype == np.int64
    assert ((lo <= got) & (got < lo + span)).all()


@given(st.integers(0, 2 ** 32),
       hnp.arrays(np.int64, st.integers(0, 30), elements=st.integers(1, 2 ** 32 - 1)))
def test_draws_lie_in_their_range_with_array_valued_hi(seed, span):
    got = _kernels.Draws(seed).integers(1, 1 + span)
    assert got.shape == span.shape and ((1 <= got) & (got < 1 + span)).all()


def test_draws_refuse_empty_and_too_wide_ranges():
    rng = _kernels.Draws(0)
    for lo, hi in [(3, 3), (4, 3), (0, 2 ** 32), (-1, 2 ** 32 - 1), (0, np.array([5, 0, 3]))]:
        with pytest.raises(ValueError, match="hi - lo"):
            rng.integers(lo, hi, size=3)
    assert rng.integers(0, 2 ** 32 - 1, size=4).max() < 2 ** 32 - 1
