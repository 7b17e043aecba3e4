import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import BATTERY_SPECS, EXTRA_SPECS
from reference_groups import subgroup_closure
from reference_kernels import boundary_eval_tuple, class_index_tuple, evaluate_tuple
from reference_moves import (abelianized_matrix, image_ranks, mixes_handles,
                             reference_moves, whitehead_stabilizers)
from stabring.groups import cyclic_group, generated_subgroups, load_group
from stabring.oracle import symplectic_form, transvection_matrix
from stabring.orbits import enumerate_orbits
from stabring import words
from stabring.pipeline import PipelineConfig, _well_definedness_verdict, run_pipeline
from stabring.ring import build_ring
from stabring.words import (MarkedAutomorphism, WordError, apply_images,
                            boundary_eval, boundary_word, compile_moves,
                            compose_images,
                            enumerate_stabilizing_automorphisms,
                            identity_images, invert_word, moveset_hash,
                            moveset_manifest, reduce_word)

letters = st.integers(-4, 4).filter(lambda x: x != 0)


def test_reduce_examples():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, 1]) == (1, 1)
    assert reduce_word(boundary_word(1)) == (1, 2, -1, -2)


@given(st.lists(letters, max_size=30))
def test_reduce_idempotent_and_inverse_cancels(w):
    r = reduce_word(w)
    assert reduce_word(r) == r
    assert not any(r[i] == -r[i + 1] for i in range(len(r) - 1))
    assert reduce_word(tuple(r) + invert_word(r)) == ()


def test_boundary_word_lengths():
    assert len(boundary_word(1)) == 4
    assert len(boundary_word(2)) == 8
    with pytest.raises(WordError):
        boundary_word(0)


def test_boundary_evaluates_to_identity_on_abelian():
    G = cyclic_group(4)
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = tuple(int(x) for x in rng.integers(0, 4, size=6))
        assert boundary_eval(G, v) == 0


def test_named_t1_is_returned_at_genus_one():
    moves = enumerate_stabilizing_automorphisms(1)
    images = {m.images for m in moves}
    assert ((1, 2), (2,)) in images           # a -> ab, b -> b


def test_every_move_fixes_boundary_and_has_inverse():
    for n in (1, 2, 3):
        W = boundary_word(n)
        # MarkedAutomorphism checks on construction that inverse_images inverts it
        for m in enumerate_stabilizing_automorphisms(n):
            assert apply_images(m.images, W) == W
            assert apply_images(m.inverse_images, W) == W


def test_marked_automorphism_rejects_non_stabilizer():
    with pytest.raises(WordError, match="does not fix"):
        MarkedAutomorphism(1, ((1,), (1, 2)), ((1,), (-1, 2)), "bad")


def test_depth_two_finds_handle_mixer_at_genus_two():
    # the reference search must be strong enough to mix handles, or comparing
    # orbits against it would say little
    moves = whitehead_stabilizers(2, 2)
    mixers = [m for m in moves if mixes_handles(m)]
    assert mixers, "no automorphism mixes the two handles"
    # the abelianized matrix must still be symplectic: check one mixer
    J = symplectic_form(2)
    for m in mixers[:5]:
        A = abelianized_matrix(m)
        assert np.array_equal(A.T @ J @ A, J)


def test_compiled_identity_is_identity_map():
    G = cyclic_group(3)
    ident = MarkedAutomorphism(1, identity_images(1), identity_images(1), "identity")
    assert ident.evaluate(G, (1, 2)).tolist() == [1, 2]


def test_compiled_t1_on_order_two_group():
    G = cyclic_group(2)
    t1 = next(m for m in enumerate_stabilizing_automorphisms(1)
              if m.images == ((1, 2), (2,)))
    assert t1.evaluate(G, (0, 1)).tolist() == [1, 1]  # a=1_G, b=g maps to (ab, b) = (g, g)


def test_compiled_move_inverse_round_trip():
    G = load_group({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    rng = np.random.default_rng(3)
    for m in enumerate_stabilizing_automorphisms(2):
        inv = MarkedAutomorphism(2, m.inverse_images, m.images, f"{m.provenance}^-1")
        for _ in range(10):
            v = tuple(int(x) for x in rng.integers(0, G.order, size=4))
            assert inv.evaluate(G, m.evaluate(G, v)).tolist() == list(v)


def test_compiled_moves_preserve_boundary_value():
    G = load_group({"kind": "perm", "generators": [[[1, 2]], [[1, 2, 3]]]})
    rng = np.random.default_rng(5)
    for m in compile_moves(2, G):
        for _ in range(20):
            v = tuple(int(x) for x in rng.integers(0, G.order, size=4))
            assert boundary_eval(G, m.evaluate(G, v)) == boundary_eval(G, v)


def test_well_definedness_catches_a_broken_evaluate(monkeypatch, rings):
    # a map that swaps a_1 and b_1 inverts [a_1, b_1], which S3 notices; the
    # moves themselves fix the boundary word exactly, so only a broken
    # evaluation can move the boundary value
    ring = rings["S3"]
    config = PipelineConfig(group=BATTERY_SPECS["S3"], n_max=ring.n_max, p_max=0)
    moves = {n: compile_moves(n, ring.G) for n in range(1, ring.n_max + 1)}
    assert _well_definedness_verdict(ring, moves, config)["status"] == "pass"
    monkeypatch.setattr(MarkedAutomorphism, "evaluate",
                        lambda self, G, v: v[..., [1, 0, *range(2, v.shape[-1])]])
    assert _well_definedness_verdict(ring, moves, config)["status"] == "fail"


def test_well_definedness_catches_a_move_that_forgets_the_generated_subgroup(monkeypatch):
    # on abelian C4 every boundary value is e, and at n_max = 1 no product is
    # sampled, so only the generated-subgroup check sees a map to (e, e)
    G = cyclic_group(4)
    ring = build_ring(G, 1)
    config = PipelineConfig(group={"kind": "cyclic", "order": 4}, n_max=1, p_max=0)
    moves = {1: compile_moves(1, G)}
    assert _well_definedness_verdict(ring, moves, config)["status"] == "pass"
    monkeypatch.setattr(MarkedAutomorphism, "evaluate", lambda self, G, v: np.zeros_like(v))
    verdict = _well_definedness_verdict(ring, moves, config)
    assert (verdict["status"], verdict["statement"]) == ("fail", "generated subgroup is orbit-constant")
    assert verdict["witness"].startswith("generated subgroup changed along a move at v=(")
    assert not verdict["witness"].endswith("v=(0, 0)")


@pytest.mark.parametrize("name", [*BATTERY_SPECS, "C8", "A4"])
def test_array_maps_match_the_per_tuple_references(name, rings):
    # 512 random tuples per degree <= 3: moves, classes, boundary values and
    # generated subgroups, each against its one-tuple-at-a-time reference
    if name in rings:
        ring = rings[name]
    else:
        spec = EXTRA_SPECS.get(name, {"kind": "cyclic", "order": 8})
        ring = build_ring(load_group(spec), 3)
    G = ring.G
    rng = np.random.default_rng(17)
    for deg in range(4):
        v = rng.integers(0, G.order, size=(512, 2 * deg))
        rows = [tuple(r) for r in v.tolist()]
        assert ring.class_index(deg, v).tolist() == [class_index_tuple(ring, deg, r) for r in rows]
        assert boundary_eval(G, v).tolist() == [boundary_eval_tuple(G, r) for r in rows]
        closures = [frozenset(np.flatnonzero(m).tolist()) for m in generated_subgroups(G, v)]
        assert closures == [subgroup_closure(G, r) for r in rows]
        for phi in compile_moves(deg, G) if deg else ():
            images = phi.evaluate(G, v)
            assert images.tolist() == [list(evaluate_tuple(G, phi, r)) for r in rows]
            # any leading shape: (..., 2n) maps row by row
            assert np.array_equal(phi.evaluate(G, v.reshape(8, 64, -1)),
                                  images.reshape(8, 64, -1))
        assert np.array_equal(ring.class_index(deg, v.reshape(8, 64, -1)),
                              ring.class_index(deg, v).reshape(8, 64))


def test_every_exported_name_resolves():
    import stabring
    for name in stabring.__all__:
        assert getattr(stabring, name) is not None, name


def test_moveset_hash_is_order_independent_and_content_sensitive():
    m1 = enumerate_stabilizing_automorphisms(1)
    assert moveset_hash(m1) == moveset_hash(tuple(reversed(m1)))
    m2 = enumerate_stabilizing_automorphisms(2)
    assert moveset_hash(m1) != moveset_hash(m2)


def test_manifest_round_trips_hash():
    moves = enumerate_stabilizing_automorphisms(1)
    man = moveset_manifest(1, moves)
    assert man["hash"] == moveset_hash(moves)
    assert len(man["moves"]) == len(moves)


def test_genus_validation():
    with pytest.raises(WordError):
        enumerate_stabilizing_automorphisms(0)


def test_move_count_is_3n_minus_1():
    for n in range(1, 7):
        moves = enumerate_stabilizing_automorphisms(n)
        assert len(moves) == len({m.images for m in moves}) == 3 * n - 1
        assert sorted(m.provenance for m in moves) == sorted(
            [f"T{k}_{i}" for k in (1, 2) for i in range(1, n + 1)]
            + [f"M_{i}" for i in range(1, n)])


def test_mixer_abelianizes_to_the_transvection_by_b_i_minus_a_next():
    # M_1 at genus 2 is the first handle-mixing move of the depth-2 search
    moves = {m.provenance: m for m in enumerate_stabilizing_automorphisms(2)}
    assert moves["M_1"].images == ((1, -3, 2), (-2, 3, 2, -3, 2), (-2, 3, 2), (4, -3, 2))
    for n in (2, 3, 4):
        moves = {m.provenance: m for m in enumerate_stabilizing_automorphisms(n)}
        for i in range(1, n):
            v = np.zeros(2 * n, dtype=np.int64)
            v[2 * i - 1], v[2 * i] = 1, -1  # b_i - a_{i+1}
            assert np.array_equal(abelianized_matrix(moves[f"M_{i}"]), transvection_matrix(v))


REFERENCE_GROUPS = {**BATTERY_SPECS, "C5": {"kind": "cyclic", "order": 5},
                    "C8": {"kind": "cyclic", "order": 8}}


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_orbit_ids_match_the_reference_search(name):
    """The closed-form set partitions G^(2n) exactly as the depth-2 search does.

    Every closed-form move is in the reference set, so each reference orbit
    is a union of closed-form orbits; and every reference move keeps each
    tuple inside its closed-form orbit, so the two partitions are equal.
    Orbit ids are numbered by least rank, so equal partitions have equal
    orbit_id arrays.  At n = 3 the reference moves are checked one image at a
    time, which costs less than running the orbit kernel on all 123 of them.
    """
    G = load_group(REFERENCE_GROUPS[name])
    for n in (1, 2, 3):
        reference = whitehead_stabilizers(n, 2)
        ours = enumerate_stabilizing_automorphisms(n)
        assert {m.images for m in ours} <= {m.images for m in reference}
        orbit_id = enumerate_orbits(G, n, compile_moves(n, G)).orbit_id
        for phi in reference:
            assert np.array_equal(orbit_id[image_ranks(G, phi)], orbit_id), phi.provenance
        if n <= 2:
            ref_table = enumerate_orbits(G, n, reference)
            assert np.array_equal(ref_table.orbit_id, orbit_id)


def test_reference_set_is_the_8n_minus_3_inverse_closed_set():
    for n in (1, 2, 3):
        moves = reference_moves(n)
        images = {m.images for m in moves}
        assert len(moves) == len(images) == 8 * n - 3
        assert {m.inverse_images for m in moves} == images
        assert identity_images(n) in images
        assert {m.images for m in enumerate_stabilizing_automorphisms(n)} <= images


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_orbits_match_the_8n_minus_3_reference_set(name):
    """Dropping the identity, the inverses and the swaps S_i keeps every
    orbit: the orbit_id and reps arrays are equal."""
    G = load_group(REFERENCE_GROUPS[name])
    for n in (1, 2, 3):
        ours = enumerate_orbits(G, n, compile_moves(n, G))
        ref = enumerate_orbits(G, n, reference_moves(n))
        assert np.array_equal(ours.orbit_id, ref.orbit_id), (name, n)
        assert np.array_equal(ours.reps, ref.reps), (name, n)


def test_genus_five_builds_and_compiles_fast():
    G = load_group(REFERENCE_GROUPS["S3"])
    t0 = time.perf_counter()
    moves = compile_moves(5, G)
    elapsed = time.perf_counter() - t0
    assert len(moves) == 3 * 5 - 1
    assert elapsed < 0.5, f"genus-5 move set took {elapsed:.2f} s"


def test_compile_moves_refuses_a_move_set_that_is_not_local(monkeypatch):
    """The local orbit construction needs every move on two adjacent handles
    and equal to a move of degree 1 or 2 there, and every degree-2 move on
    every pair of adjacent handles."""
    G = cyclic_group(2)
    base = enumerate_stabilizing_automorphisms
    moves = base(3)
    m1, m2 = (next(phi for phi in moves if phi.provenance == name) for name in ("M_1", "M_2"))
    composite = MarkedAutomorphism(3, compose_images(m1.images, m2.images),
                                   compose_images(m2.inverse_images, m1.inverse_images),
                                   "M_1 M_2")
    inverse = MarkedAutomorphism(3, m1.inverse_images, m1.images, "M_1^-1")
    for extra, message in ((composite, "M_1 M_2: not a move of degree 1 or 2"),
                           (inverse, "M_1\\^-1: not a move of degree 1 or 2")):
        monkeypatch.setattr(words, "enumerate_stabilizing_automorphisms",
                            lambda n, extra=extra: base(n) + (extra,) if n == 3 else base(n))
        with pytest.raises(WordError, match=message):
            compile_moves(3, G)
        report = run_pipeline(PipelineConfig(group={"kind": "cyclic", "order": 2},
                                             n_max=3, p_max=0))
        assert report.failure["stage"] == "moves"
    monkeypatch.setattr(words, "enumerate_stabilizing_automorphisms",
                        lambda n: tuple(phi for phi in base(n) if phi.provenance != "M_2")
                        if n == 3 else base(n))
    with pytest.raises(WordError, match="miss a degree-2 move"):
        compile_moves(3, G)
    assert len(compile_moves(2, G)) == 5
