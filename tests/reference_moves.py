"""Test-only references: the generating sets and the Whitehead search that
the 3n - 1 Dehn twists of ``stabring.words`` and the 3n - 1 transvections of
``stabring.oracle`` replaced, and homology helpers for moves.

``reference_moves(n)`` is the former 8n - 3 move set: the identity, the twists
T1_i, T2_i and M_i each with its inverse, and the adjacent handle swaps S_i
with theirs.  ``pairwise_transvection_vectors(n)`` is the former n(2n + 1)
transvection family.

``whitehead_stabilizers(n, depth)`` returns the identity, the named twists
T1_i, T2_i and swaps S_i with their inverses, and every Whitehead
automorphism (depth 1) or composite of two (depth 2) that fixes the boundary
word exactly.  It scans 4n * 2^(4n-2) Whitehead keys, so keep it to n <= 3.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from stabring.words import (MarkedAutomorphism, _with_image, apply_images,
                            boundary_word, compose_images,
                            enumerate_stabilizing_automorphisms,
                            identity_images, invert_word, reduce_word)


def _commutator_word(u, v) -> tuple:
    return reduce_word(tuple(u) + tuple(v) + invert_word(u) + invert_word(v))


def _swap(n: int, i: int) -> MarkedAutomorphism:
    """S_i: exchange handles i and i+1 up to conjugation by their commutators."""
    a, b, c, d = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
    conj = _commutator_word((c,), (d,))       # [a_{i+1}, b_{i+1}]
    conj_prev = _commutator_word((a,), (b,))  # [a_i, b_i]
    fwd = _with_image(n, {
        a: (c,), b: (d,),
        c: invert_word(conj) + (a,) + conj,
        d: invert_word(conj) + (b,) + conj,
    })
    bwd = _with_image(n, {
        a: conj_prev + (c,) + invert_word(conj_prev),
        b: conj_prev + (d,) + invert_word(conj_prev),
        c: (a,), d: (b,),
    })
    return MarkedAutomorphism(n, fwd, bwd, f"S_{i}")


def _inverse(phi: MarkedAutomorphism) -> MarkedAutomorphism:
    return MarkedAutomorphism(phi.n, phi.inverse_images, phi.images, f"{phi.provenance}_inv")


def reference_moves(n: int) -> tuple:
    """The identity, T1_i, T2_i, S_i and M_i, and their inverses: 8n - 3 moves,
    closed under inverses, sorted by images."""
    ident = identity_images(n)
    moves = [MarkedAutomorphism(n, ident, ident, "identity")]
    moves += enumerate_stabilizing_automorphisms(n)
    moves += [_swap(n, i) for i in range(1, n)]
    moves += [_inverse(phi) for phi in moves[1:]]
    return tuple(sorted(moves, key=lambda a: a.images))


def pairwise_transvection_vectors(n: int) -> np.ndarray:
    """Standard-basis vectors and sums of two distinct ones: n(2n + 1) 0/1 rows."""
    eye = np.eye(2 * n, dtype=np.int8)
    pairs = [eye[i] + eye[j] for i in range(2 * n) for j in range(i + 1, 2 * n)]
    return np.array(list(eye) + pairs, dtype=np.int8).reshape(-1, 2 * n)


def _whitehead_images(n: int, v: int, cut: frozenset) -> tuple:
    """Type-II Whitehead move: multiplier letter v, cut set of signed letters."""
    imgs = []
    for g in range(1, 2 * n + 1):
        if g == abs(v):
            imgs.append((g,))
            continue
        w = []
        if -g in cut:
            w.append(-v)
        w.append(g)
        if g in cut:
            w.append(v)
        imgs.append(reduce_word(w))
    return tuple(imgs)


def _whitehead_inverse_key(v: int, cut: frozenset) -> tuple:
    return -v, (cut - {v}) | {-v}


def _iter_whitehead_keys(n: int):
    """All (v, cut) with v in cut, -v not in cut, deterministic order."""
    letters = [l for g in range(1, 2 * n + 1) for l in (g, -g)]
    for v in letters:
        others = [l for l in letters if abs(l) != abs(v)]
        for mask in range(1 << len(others)):
            cut = {v} | {others[i] for i in range(len(others)) if mask >> i & 1}
            yield v, frozenset(cut)


def _solve_signed_perm(src, dst, n: int):
    """Signed permutation sigma with sigma(src) = dst positionally, or None."""
    if len(src) != len(dst):
        return None
    img = {}
    for a, b in zip(src, dst):
        g, s = abs(a), (1 if a > 0 else -1)
        want = b * s
        if img.setdefault(g, want) != want:
            return None
    if len(img) < 2 * n:
        return None  # every generator occurs in the boundary word, so this is total
    if len({abs(t) for t in img.values()}) != 2 * n:
        return None
    return tuple((img[g],) for g in range(1, 2 * n + 1))


def _signed_perm_inverse(images) -> tuple:
    inv = [None] * len(images)
    for g, (t,) in enumerate(images, start=1):
        if t > 0:
            inv[t - 1] = (g,)
        else:
            inv[-t - 1] = (-g,)
    return tuple(inv)


@lru_cache(maxsize=None)
def whitehead_stabilizers(n: int, depth: int) -> tuple:
    """Named twists and swaps plus every Whitehead automorphism (and, at depth
    2, every composite of two Whitehead automorphisms, or of one with a signed
    permutation) fixing the boundary word exactly, deduplicated by images.

    A type-I (signed permutation) automorphism maps the reduced boundary word
    to a reduced word positionally, so the identity is the only one fixing it.
    """
    if depth not in (1, 2):
        raise ValueError("search depth must be 1 or 2")
    W = boundary_word(n)
    found = {}

    def add(images, inverse_images, provenance):
        if images not in found:
            found[images] = MarkedAutomorphism(n, images, inverse_images, provenance)

    for phi in reference_moves(n):
        if not phi.provenance.startswith("M_"):  # the mixers are what the search must recover
            add(phi.images, phi.inverse_images, phi.provenance)

    keys = list(_iter_whitehead_keys(n))
    images_of_W = {}
    for key in keys:
        u = apply_images(_whitehead_images(n, *key), W)
        images_of_W[key] = u
        if u == W:
            add(_whitehead_images(n, *key),
                _whitehead_images(n, *_whitehead_inverse_key(*key)),
                f"whitehead(v={key[0]})")

    if depth == 2:
        by_word = {}
        for key, u in images_of_W.items():
            by_word.setdefault(u, []).append(key)
        for key2 in keys:
            inv2 = _whitehead_inverse_key(*key2)
            for key1 in by_word.get(images_of_W[inv2], ()):  # phi1(W) = phi2^-1(W)
                comp = compose_images(_whitehead_images(n, *key2),
                                      _whitehead_images(n, *key1))
                if apply_images(comp, W) != W:
                    continue
                comp_inv = compose_images(
                    _whitehead_images(n, *_whitehead_inverse_key(*key1)),
                    _whitehead_images(n, *inv2))
                add(comp, comp_inv, f"whitehead2(v={key2[0]},v={key1[0]})")
        # composites with one signed-permutation factor
        for key, u in images_of_W.items():
            imgs_t = _whitehead_images(n, *key)
            inv_key = _whitehead_inverse_key(*key)
            imgs_t_inv = _whitehead_images(n, *inv_key)
            # sigma o tau fixes W  iff  tau(W) = sigma^-1(W)
            sigma_inv = _solve_signed_perm(W, u, n)
            if sigma_inv is not None:
                sigma = _signed_perm_inverse(sigma_inv)
                add(compose_images(sigma, imgs_t),
                    compose_images(imgs_t_inv, sigma_inv),
                    f"perm*whitehead(v={key[0]})")
            # tau o sigma fixes W  iff  sigma(W) = tau^-1(W)
            sigma2 = _solve_signed_perm(W, images_of_W[inv_key], n)
            if sigma2 is not None:
                add(compose_images(imgs_t, sigma2),
                    compose_images(_signed_perm_inverse(sigma2), imgs_t_inv),
                    f"whitehead*perm(v={key[0]})")

    return tuple(sorted(found.values(), key=lambda a: a.images))


def abelianized_matrix(phi: MarkedAutomorphism) -> np.ndarray:
    """Integer 2n x 2n matrix of the automorphism on the abelianization."""
    n = phi.n
    mat = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for j, w in enumerate(phi.images):
        for l in w:
            mat[abs(l) - 1, j] += 1 if l > 0 else -1
    return mat


def mixes_handles(phi: MarkedAutomorphism) -> bool:
    """True if the abelianized matrix has a nonzero entry off the 2x2 handle blocks."""
    mat = abelianized_matrix(phi)
    n = phi.n
    return any(mat[r, c] != 0 for r in range(2 * n) for c in range(2 * n)
               if r // 2 != c // 2)


def image_ranks(G, phi: MarkedAutomorphism) -> np.ndarray:
    """Rank of phi applied to every tuple of G^(2n), by direct word evaluation."""
    two_n = 2 * phi.n
    ranks = np.arange(G.order ** two_n, dtype=np.int64)
    digits = [ranks // G.order ** (two_n - 1 - j) % G.order for j in range(two_n)]
    out = np.zeros_like(ranks)
    for w in phi.images:
        acc = np.full_like(ranks, G.identity)
        for l in w:
            acc = G.table[acc, digits[l - 1] if l > 0 else G.inverse[digits[-l - 1]]]
        out = out * G.order + acc
    return out
