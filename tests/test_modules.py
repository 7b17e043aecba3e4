import dataclasses

import numpy as np
import pytest

import reference_modules as ref
from conftest import BATTERY_SPECS, EXTRA_SPECS
from stabring.groups import load_group
from stabring.modules import (GradedModule, ModuleError, _class_images, _u_image,
                              delta_and_bounds, deg_of, derive_module,
                              generated_in_degrees_upto, graded_tensor, h0, module_deg,
                              quotient_u_module, regular_module, ring_parts, shift_module,
                              truncate_module, u_kernel_module, ur_ideal_module)
from stabring.ring import GradedRing, build_ring
from stabring.zlinalg import HomologyGroup, LinAlgError

RECIPES = (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1))


def z_module(ring, side: str = "left") -> GradedModule:
    """Z = R / R_{>0}, concentrated in degree 0 with the zero action."""
    ranks = tuple([1] + [0] * ring.n_max)
    images = [np.full((ring.basis_size(1), ranks[n]), -1, dtype=np.int64)
              for n in range(ring.n_max)]
    return GradedModule("Z", ring, side, ranks, images, ring.n_max)


def test_regular_module_consistency(rings):
    for name in ("C2", "C4", "S3"):
        assert regular_module(rings[name]).consistency_failures() == []


def mutant(M: GradedModule, n: int, c: int) -> GradedModule:
    """M with class c at degree n sending e_0 to the basis vector after its
    image (cyclically), in place of that image."""
    images = [image.copy() for image in M.images]
    images[n][c, 0] = (images[n][c, 0] + 1) % M.rank(n + 1)
    return dataclasses.replace(M, images=images)


def test_graded_module_refuses_a_bad_shape_and_an_out_of_range_image(rings):
    R = regular_module(rings["S3"])
    images = [image.copy() for image in R.images]
    with pytest.raises(ModuleError, match="R: images at degree 1 have shape"):
        dataclasses.replace(R, images=images[:1] + [images[1][:, 1:]] + images[2:])
    with pytest.raises(ModuleError, match="R: images at degree 0 have shape"):
        dataclasses.replace(R, images=[images[0][1:]] + images[1:])
    with pytest.raises(ModuleError, match="image arrays and"):
        dataclasses.replace(R, images=images[:-1])
    for n in range(R.n_max):
        for wrong in (-2, R.rank(n + 1)):
            bad = [image.copy() for image in images]
            bad[n][-1, -1] = wrong
            with pytest.raises(ModuleError, match=rf"R: an image at degree {n} lies outside "
                                                  rf"\[-1, {R.rank(n + 1)}\)"):
                dataclasses.replace(R, images=bad)
    # the last value in range is accepted
    images[-1][-1, -1] = R.rank(R.n_max) - 1
    assert dataclasses.replace(R, images=images).images[-1][-1, -1] == R.rank(R.n_max) - 1


def test_consistency_matches_the_per_tuple_reference(rings):
    for ring in rings.values():
        modules = [regular_module(ring, "right")] + [
            derive_module(ring, recipe) for recipe in
            (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1))]
        for M in modules:
            assert M.consistency_failures() == ref.consistency_failures(M) == [], M.name


def test_consistency_matches_the_per_tuple_reference_on_mutants(rings):
    # one class's image redirected at degree 0 or 1 breaks the relations of
    # every degree-2 class whose tuples compose it with other classes
    for name in ("S3", "C4", "C2xC2"):
        ring = rings[name]
        for side in ("left", "right"):
            R = regular_module(ring, side)
            for n in (0, 1):
                for c in range(ring.basis_size(1)):
                    M = mutant(R, n, c)
                    want = ref.consistency_failures(M)
                    assert want, (name, side, n, c)
                    assert M.consistency_failures() == want, (name, side, n, c)


def test_derived_modules_consistency(rings):
    ring = rings["C2xC2"]
    for recipe in (("Rbar",), ("RU",), ("shift", 1), ("trunc", 2)):
        assert derive_module(ring, recipe).consistency_failures() == [], recipe


def test_regular_module_trivial_group(rings):
    R = regular_module(rings["trivial"])
    assert R.ranks == (1, 1, 1, 1, 1)
    for n in range(R.n_max):
        assert R.images[n].tolist() == [[0]]


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


def assert_same_module(M: GradedModule, N: ref.DenseModule) -> None:
    """The library module M, written out dense, is the reference N."""
    M = ref.dense(M)
    assert (M.name, M.side, M.ranks, M.n_max) == (N.name, N.side, N.ranks, N.n_max)
    assert len(M.acts) == len(N.acts) == M.n_max
    for n in range(M.n_max):
        for pair in ref.pairs(M.ring.G):
            a, b = ref.act(M, pair, n), ref.act(N, pair, n)
            assert a.dtype == b.dtype and a.shape == b.shape, (M.name, pair, n)
            assert np.array_equal(a, b), (M.name, pair, n)


def not_monomial(M: ref.DenseModule) -> list:
    """The degrees where an action of M has an entry outside {0, 1} or two
    nonzeros in one column."""
    return [n for n, act in enumerate(M.acts)
            if ((act != 0) & (act != 1)).any() or (np.count_nonzero(act, axis=1) > 1).any()]


def assert_matches_reference(ring) -> list:
    """R, R/UR, R[U], U(R) and every truncation of R and of R/UR equal the
    per-tuple references, on both sides; R[U] is refused instead, at the first degree
    where the reference's is not monomial, if there is one.  Returns whether
    R[U] was refused on each side."""
    assert [c.tolist() for c in _u_image(ring)] == ref.u_image(ring)
    refused = []
    for side in ("left", "right"):
        R = ref.regular_module(ring, side)
        assert_same_module(regular_module(ring, side), R)
        Q = ref.quotient_u_module(R)
        assert_same_module(quotient_u_module(ring, side), Q)
        want = ref.u_kernel_module(R)
        bad = not_monomial(want)
        if bad:
            with pytest.raises(ModuleError, match=rf"^R\[U\]: the action at degree {bad[0]} "
                                                  "is not monomial"):
                u_kernel_module(ring, side)
        else:
            assert_same_module(u_kernel_module(ring, side), want)
        refused.append(bool(bad))
        assert_same_module(ur_ideal_module(ring, side), ref.ur_ideal_module(ring, side))
        for k in range(ring.n_max + 1):
            # R/UR has images -1, which a truncation must keep at 0
            for M, N in ((regular_module(ring, side), R), (quotient_u_module(ring, side), Q)):
                assert_same_module(truncate_module(M, k), ref.truncate_module(N, k))
    return refused


def relabelled(ring, n: int, labels: np.ndarray) -> GradedRing:
    """ring with its degree-n step table product(n - 1, 1) replaced by the
    classes ``labels`` (one label per entry), renumbered by least entry as the
    ring numbers them.  A class of degree n stands for the tuples of its least
    entry, so product(n, 1) keeps the row of that entry's former class."""
    steps = list(ring.steps)
    old = steps[n - 1].ravel()
    _, first, inverse = np.unique(labels.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[order] = np.arange(len(first))
    steps[n - 1] = renumber[inverse].reshape(steps[n - 1].shape)
    if n < ring.n_max:
        steps[n] = steps[n][old[first[order]]]
    return GradedRing(ring.G, ring.n_max, ring.pair_class, steps)


def test_derived_modules_match_the_reference(rings):
    for ring in rings.values():
        assert assert_matches_reference(ring) == [False, False]


def merged_top(ring) -> GradedRing:
    """ring with a single top-degree class, so that the last U merges every class."""
    top = ring.n_max
    return relabelled(ring, top, np.zeros(ring.steps[top - 1].shape, dtype=np.int64))


def merged_below_top(ring):
    """ring with the U images of the pairs of classes below the top degree
    merged, and those pairs: (0, 3) and (1, 2) where there are four classes."""
    top = ring.n_max
    umap = ring.u_map(top - 2)
    pairs = [(0, 3), (1, 2)] if len(umap) >= 4 else [(0, 1)]
    labels = ring.steps[top - 2].copy()
    for j, l in pairs:
        labels[labels == umap[l]] = umap[j]
    return relabelled(ring, top - 1, labels), pairs


def test_derived_modules_match_the_reference_where_u_merges_classes(rings):
    # Every battery ring has an injective U.  One top-degree class makes the
    # last U merge every class.  Merging U images of pairs of classes below it
    # puts e_j - e_l in ker U, and the actions carry it into the top kernel;
    # the pairs (0, 3) and (1, 2) order ker U by image differently than by class.
    # The library builds R[U] where the reference's is monomial and refuses
    # it exactly where it is not.
    nonzero, refused = {}, {}
    for name in ("C2", "C4", "C2xC2", "S3"):
        ring = merged_top(rings[name])
        top = ring.n_max
        assert ring.counts[top] == 1
        assert not ring.stability_profile().u_injective[top - 1]
        assert u_kernel_module(ring).ranks[top - 1] == ring.counts[top - 1] - 1
        assert assert_matches_reference(ring) == [False, False]
        ring, pairs = merged_below_top(ring)
        RU = ref.u_kernel_module(ref.regular_module(ring))
        assert RU.ranks[top - 2] == len(pairs)
        nonzero[name] = bool(RU.acts[top - 2].any())
        refused[name] = assert_matches_reference(ring)
    # with two degree-3 classes, C2's merge leaves one class there and zero actions
    assert nonzero == {"C2": False, "C4": True, "C2xC2": True, "S3": True}
    assert refused == {"C2": [False, False], "C4": [True, True], "C2xC2": [True, True],
                       "S3": [True, True]}


def test_u_kernel_refuses_an_action_that_leaves_the_kernel(rings):
    # merging the U images of two degree-1 classes puts their difference in
    # ker U, but the degree-1 actions carry it to classes U keeps apart
    ring = rings["S3"]
    umap = ring.u_map(1)
    labels = ring.steps[1].copy()
    labels[labels == umap[1]] = umap[0]
    bad = relabelled(ring, 2, labels)
    for side in ("left", "right"):
        with pytest.raises(ModuleError, match="escapes"):
            u_kernel_module(bad, side)
        with pytest.raises(ModuleError, match="escapes"):
            ref.u_kernel_module(ref.regular_module(bad, side))


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
    assert all(g.is_zero for g in ref.h1(regular_module(rings["trivial"])))


def test_h0_h1_pair(rings):
    R = regular_module(rings["C2"])
    zero_part, one_part = h0(R), ref.h1(R)
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
    rbar_r = quotient_u_module(ring, side="right")
    t2 = graded_tensor(rbar_r, R_left)
    assert [g.free_rank for g in t2] == list(rbar_r.ranks)
    assert all(not g.torsion for g in t2)


def test_tensor_degree_bound_randomized(rings):
    # deg(N (x) M) <= min(deg N + deg H0(M), deg H0(N) + deg M)
    ring = rings["C4"]
    rights = [regular_module(ring, side="right"),
              quotient_u_module(ring, side="right"),
              truncate_module(regular_module(ring, side="right"), 1),
              truncate_module(regular_module(ring, side="right"), 2),
              z_module(ring, side="right")]
    lefts = [regular_module(ring),
              derive_module(ring, ("Rbar",)),
              derive_module(ring, ("trunc", 1)),
              derive_module(ring, ("shift", 1))]
    for N in rights:
        for M in lefts:
            tensor = graded_tensor(N, M)
            assert tensor == ref.graded_tensor(N, M), (N.name, M.name)
            assert h0(M) == ref.h0(M) and h0(N) == ref.h0(N), (N.name, M.name)
            t_deg = deg_of(tensor)
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
    # the ring's parts, built once and passed in, give what each call builds alone
    for name in ("C2", "C3", "C4", "C2xC2", "S3"):
        ring = rings[name]
        parts = ring_parts(ring)
        for recipe in (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1)):
            M = derive_module(ring, recipe)
            db = delta_and_bounds(M)
            assert db.a_bound_ok, (name, recipe)
            assert db.tensor_bound_ok, (name, recipe)
            assert db.deg_h0 == deg_of(h0(M)), (name, recipe)
            assert delta_and_bounds(M, parts) == db, (name, recipe)


def as_images(acting: np.ndarray) -> np.ndarray:
    """A stack of monomial matrices as image arrays: the row of each column's
    one nonzero, or -1."""
    out = np.full((acting.shape[0], acting.shape[2]), -1)
    c, r, m = np.nonzero(acting)
    out[c, m] = r
    return out


def test_act_class_respects_factorization(rings):
    # the batched action of a degree-i class on M_{n-i} is the product of the
    # pair actions of its representative, last pair first; on a mutant too.
    # On the monomial R the library's class images are those products.
    for name in ("S3", "C2xC2"):
        ring = rings[name]
        R = regular_module(ring)
        images = _class_images(R, ring.n_max)
        for M in (R, mutant(R, 1, 1)):
            for n in range(ring.n_max + 1):
                for i, acting in enumerate(ref.class_actions(M, n)):
                    assert acting.shape == (ring.basis_size(i), M.rank(n), M.rank(n - i))
                    if M is R:
                        assert np.array_equal(images[i, n - i], as_images(acting)), (name, n, i)
                    for idx in range(ring.basis_size(i)):
                        rep = ring.rep(i, idx)
                        want = np.eye(M.rank(n - i), dtype=np.int64)
                        for h in range(i):
                            want = ref.act(M, rep[2 * (i - 1 - h):2 * (i - h)], n - i + h) @ want
                        assert np.array_equal(acting[idx], want), (name, n, i, idx)


def raised(M: GradedModule) -> ref.DenseModule:
    """M, written out dense, with its first nonzero action entry raised by
    one (1 becomes 2)."""
    M = ref.dense(M)
    for n, act in enumerate(M.acts):
        hit = np.argwhere(act)
        if len(hit):
            acts = [a.copy() for a in M.acts]
            acts[n][tuple(hit[0])] += 1
            assert acts[n][tuple(hit[0])] == 2
            return dataclasses.replace(M, name=f"{M.name}+", acts=acts)
    raise AssertionError(f"{M.name} has no nonzero action")


def two_in_a_column(M: GradedModule) -> ref.DenseModule:
    """M, written out dense, with a second 1 in the column of its first
    nonzero action entry."""
    M = ref.dense(M)
    for n, act in enumerate(M.acts):
        hit = np.argwhere(act)
        if len(hit) and act.shape[1] > 1:
            c, r, j = hit[0]
            acts = [a.copy() for a in M.acts]
            acts[n][c, (r + 1) % act.shape[1], j] = 1
            return dataclasses.replace(M, name=f"{M.name}2", acts=acts)
    raise AssertionError(f"{M.name} has no column to add to")


def test_tensor_and_beta_match_the_dense_references(rings):
    # the reference's triplets read off the action arrays equal the dense kron
    # blocks and the per-generator class products, split by split, also on
    # dense modules with an entry of 2 or a column with two nonzeros
    calls = 0
    for name in ("C2", "C4", "C2xC2", "S3"):
        ring = rings[name]
        lefts = [derive_module(ring, recipe) for recipe in
                 (("R",), ("Rbar",), ("RU",), ("shift", 1), ("trunc", 1))]
        lefts += [raised(lefts[0]), two_in_a_column(lefts[0])]
        # each right module with the ring class behind each of its basis vectors
        image = _u_image(ring)
        rights = [(regular_module(ring, "right"), [range(c) for c in ring.counts]),
                  (quotient_u_module(ring, "right"),
                   [np.setdiff1d(np.arange(c), k) for c, k in zip(ring.counts, image)]),
                  (ur_ideal_module(ring, "right"), image)]
        rights += [(raised(rights[0][0]), rights[0][1]),
                   (two_in_a_column(rights[0][0]), rights[0][1])]
        for N, classes in rights:
            for M in lefts:
                for n in range(min(N.n_max, M.n_max) + 1):
                    for min_i in (0, 1):
                        got = ref.tensor_presentation(N, M, n, min_i)
                        assert got == ref.kron_tensor_presentation(N, M, n, min_i), \
                            (name, N.name, M.name, n, min_i)
                        got = ref.beta_matrix(N, M, n, min_i, classes)
                        assert got == ref.generator_beta_matrix(N, M, n, min_i, classes), \
                            (name, N.name, M.name, n, min_i)
                        calls += 2
    assert calls > 1000


@pytest.fixture(scope="module")
def battery_rings(rings):
    """The fixture rings past the trivial group, and C8 (n <= 3), C2^3, A4 and
    D4 (n <= 8), where the Smith-form battery takes under 0.5 s each."""
    out = {name: rings[name] for name in ("C2", "C3", "C4", "C2xC2", "S3")}
    specs = {"C8": ({"kind": "cyclic", "order": 8}, 3),
             "C2^3": ({"kind": "product", "factors": [BATTERY_SPECS["C2"]] * 3}, 8),
             "A4": (EXTRA_SPECS["A4"], 8), "D4": (EXTRA_SPECS["D4"], 8)}
    out.update((name, build_ring(load_group(spec), n)) for name, (spec, n) in specs.items())
    return out


def test_battery_matches_the_smith_form_reference(battery_rings):
    # every DeltaBounds field, and generation up to deg H0(M) but not below it,
    # equal the chain_homology and smith_normal_form answers
    for name, ring in battery_rings.items():
        parts, want_parts = ring_parts(ring), ref.ring_parts(ring)
        assert parts.rbar_h0_deg == want_parts.rbar_h0_deg, name
        for recipe in RECIPES:
            M = derive_module(ring, recipe)
            db = delta_and_bounds(M, parts)
            assert db == ref.delta_and_bounds(M, want_parts), (name, recipe)
            for a in (db.deg_h0, db.deg_h0 - 1):
                assert generated_in_degrees_upto(M, a) == \
                    ref.generated_in_degrees_upto(M, a), (name, recipe, a)


def test_battery_refuses_modules_that_are_not_monomial(rings):
    # every count of the battery needs a monomial module, and a module holds
    # only image arrays, so none other can reach it: R[U] of a ring whose U
    # merges classes below its top degree, where e_j - e_l maps to a
    # difference, is refused where it is built.  An entry of 2 or a column
    # with two nonzeros has no image array (see the shape and range test).
    ring = rings["C4"]
    merged = merged_below_top(merged_top(ring))[0]
    RU = ref.u_kernel_module(ref.regular_module(merged))
    assert (RU.acts[-1] < 0).any() and not_monomial(RU) == [RU.n_max - 1]
    with pytest.raises(ModuleError, match=rf"R\[U\]: the action at degree {RU.n_max - 1} "
                                          r"is not monomial \(an entry outside \{0, 1\} or "
                                          r"two nonzeros in one column\)"):
        u_kernel_module(merged)
    # the reference's Smith forms take any module
    assert len(ref.delta_and_bounds(RU).tor0) == RU.n_max + 1


def test_tor1_refuses_a_beta_that_does_not_vanish_on_the_relations(rings):
    # U(R)'s classes in reverse order make beta differ across some relation;
    # the library refuses it where the reference's chain check fails
    for name in ("C4", "S3"):
        ring = rings[name]
        parts = ring_parts(ring)
        wrong = dataclasses.replace(parts, ur_classes=[c[::-1] for c in parts.ur_classes])
        R = regular_module(ring)
        with pytest.raises(ModuleError, match="R: beta"):
            delta_and_bounds(R, wrong)
        with pytest.raises(LinAlgError, match="d_out . d_in != 0"):
            ref.delta_and_bounds(R, dataclasses.replace(ref.ring_parts(ring),
                                                        ur_classes=wrong.ur_classes))


def test_unknown_recipe(rings):
    with pytest.raises(ModuleError, match="recipe"):
        derive_module(rings["C2"], ("bogus",))


def test_window_guard(rings):
    R = regular_module(rings["C2"])
    for n in (-1, R.n_max):
        with pytest.raises(ModuleError):
            ref.dense(R).u_matrix(n)
    with pytest.raises(ModuleError):
        R.rank(R.n_max + 1)
