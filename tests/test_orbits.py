import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_kernels import class_of, encode_tuple, n_states
from stabring.groups import cyclic_group, load_group, subgroup_closure
from stabring.orbits import OrbitError, cache_load, cache_store, decode_tuple, enumerate_orbits
from stabring.words import boundary_eval, compile_moves


def brute_force_orbits(G, n, moves):
    """Independent oracle: plain set-based BFS over tuples."""
    seen = {}
    count = 0
    for start in np.ndindex(*([G.order] * (2 * n))):
        start = tuple(int(x) for x in start)
        if start in seen:
            continue
        frontier = [start]
        seen[start] = count
        while frontier:
            nxt = []
            for v in frontier:
                for m in moves:
                    w = m.apply(G, v)
                    if w not in seen:
                        seen[w] = count
                        nxt.append(w)
            frontier = nxt
        count += 1
    return count, seen


@given(st.integers(0, 6 ** 4 - 1))
def test_encode_decode_round_trip(rank):
    assert encode_tuple(decode_tuple(rank, 6, 4), 6) == rank


def test_encode_rejects_bad_entries():
    with pytest.raises(OrbitError):
        encode_tuple((0, 7), 6)


def test_trivial_group_single_orbit():
    G = cyclic_group(1)
    for n in (0, 1, 2):
        moves = compile_moves(n, G) if n else ()
        t = enumerate_orbits(G, n, moves)
        assert t.count == 1


def test_c2_genus_one_two_orbits_vs_bruteforce():
    G = cyclic_group(2)
    moves = compile_moves(1, G)
    table = enumerate_orbits(G, 1, moves)
    count, assignment = brute_force_orbits(G, 1, moves)
    assert table.count == count == 2
    # identity tuple alone; the three others together
    assert sorted(table.orbit_sizes()) == [1, 3]
    for v, _ in assignment.items():
        for w, _ in assignment.items():
            same_brute = assignment[v] == assignment[w]
            same_table = class_of(table, v) == class_of(table, w)
            assert same_brute == same_table


def test_class_of_rejects_wrong_tuple_length():
    G = cyclic_group(2)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    for entries in ((0, 0, 0), (1,), ()):
        with pytest.raises(OrbitError, match="expected 2n = 2"):
            class_of(table, entries)
    assert class_of(table, (0, 0)) == 0


def test_c3_genus_one_two_orbits():
    G = cyclic_group(3)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    assert table.count == 2
    assert sorted(table.orbit_sizes()) == [1, 8]


def test_orbit_sizes_sum_to_state_count():
    G = load_group({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    table = enumerate_orbits(G, 2, compile_moves(2, G))
    assert int(table.orbit_sizes().sum()) == G.order ** 4


def test_orbit_id_constant_on_move_images():
    G = cyclic_group(4)
    moves = compile_moves(1, G)
    table = enumerate_orbits(G, 1, moves)
    for rank in range(n_states(table)):
        v = decode_tuple(rank, G.order, 2)
        for m in moves:
            assert class_of(table, m.apply(G, v)) == class_of(table, v)


def test_boundary_and_subgroup_orbit_invariants():
    G = load_group({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    by_orbit = {}
    for rank in range(n_states(table)):
        v = decode_tuple(rank, G.order, 2)
        key = (boundary_eval(G, v), subgroup_closure(G, v))
        o = class_of(table, v)
        assert by_orbit.setdefault(o, key) == key


def canonical_rep(table, entries) -> tuple:
    """Minimum-rank tuple in the orbit of entries."""
    return table.rep_tuple(class_of(table, entries))


def test_canonical_rep_idempotent_and_minimal():
    G = cyclic_group(2)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    assert canonical_rep(table, (0, 0)) == (0, 0)
    assert canonical_rep(table, (1, 0)) == canonical_rep(table, (0, 1))
    for rank in range(n_states(table)):
        v = decode_tuple(rank, 2, 2)
        rep = canonical_rep(table, v)
        assert canonical_rep(table, rep) == rep
        assert encode_tuple(rep, 2) <= rank or class_of(table, v) != class_of(table, rep)


def test_cache_round_trip(tmp_path):
    G = cyclic_group(3)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    path = tmp_path / "orbits.hwot"
    cache_store(table, path)
    back = cache_load(path, expect_group_hash=table.group_hash,
                      expect_moveset_hash=table.moveset_hash)
    assert back.n == table.n and back.order == table.order
    assert back.count == table.count
    assert np.array_equal(back.orbit_id, table.orbit_id)
    assert np.array_equal(back.reps, table.reps)


def test_cache_hash_mismatch(tmp_path):
    G = cyclic_group(3)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    path = tmp_path / "orbits.hwot"
    cache_store(table, path)
    with pytest.raises(OrbitError, match="group hash"):
        cache_load(path, expect_group_hash="0" * 64)
    with pytest.raises(OrbitError, match="move-set hash"):
        cache_load(path, expect_group_hash=table.group_hash,
                   expect_moveset_hash="0" * 64)


def test_cache_truncation_and_bad_magic(tmp_path):
    G = cyclic_group(3)
    table = enumerate_orbits(G, 1, compile_moves(1, G))
    path = tmp_path / "orbits.hwot"
    cache_store(table, path)
    blob = path.read_bytes()
    (tmp_path / "trunc.hwot").write_bytes(blob[:-5])
    with pytest.raises(OrbitError, match="payload length"):
        cache_load(tmp_path / "trunc.hwot")
    (tmp_path / "magic.hwot").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(OrbitError, match="magic"):
        cache_load(tmp_path / "magic.hwot")


def test_cache_load_detects_a_checksum_mismatch(tmp_path):
    G = cyclic_group(3)
    table = enumerate_orbits(G, 2, compile_moves(2, G))
    path = tmp_path / "orbits.hwot"
    cache_store(table, path)
    # give the last state the id of another orbit, in place: the length stays valid
    other = (int(table.orbit_id[-1]) + 1) % table.count
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.array([other], dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(OrbitError, match="payload checksum mismatch"):
        cache_load(path, expect_group_hash=table.group_hash,
                   expect_moveset_hash=table.moveset_hash)
