"""Free-group words over 2n letters, the boundary word, and a generating set of its stabilizer.

Words are tuples of nonzero signed integers: letter k stands for the k-th
generator, -k for its inverse.  Generator 2i-1 plays the a_i role of handle i,
generator 2i the b_i role.  All words are kept freely reduced.  A map of
G^(2n) is given by its image words, one per generator; a move
(``MarkedAutomorphism``) evaluates them on an array of G-tuples, and the orbit
kernel (``_kernels.word_orbit_parents``) on every tuple of G^(2n) at once.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .groups import FiniteGroup


class WordError(ValueError):
    """Raised on malformed words or non-stabilizing automorphisms."""


def reduce_word(letters) -> tuple:
    """Freely reduce to the unique normal form (cancel adjacent x x^-1)."""
    out = []
    for l in letters:
        if l == 0:
            raise WordError("letter 0 is not a generator")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def invert_word(w) -> tuple:
    return tuple(-l for l in reversed(w))


def boundary_word(n: int) -> tuple:
    """W = [x1, x2][x3, x4]...[x_{2n-1}, x_{2n}], reduced, length 4n."""
    if n < 1:
        raise WordError("boundary word needs genus n >= 1")
    w = []
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        w += [a, b, -a, -b]
    return tuple(w)


def apply_images(images, w) -> tuple:
    """Substitute each letter of w by its image word, freely reducing."""
    out = []
    for l in w:
        img = images[l - 1] if l > 0 else invert_word(images[-l - 1])
        for m in img:
            if out and out[-1] == -m:
                out.pop()
            else:
                out.append(m)
    return tuple(out)


def compose_images(outer, inner) -> tuple:
    """Images of (outer o inner): apply outer to each image word of inner."""
    return tuple(apply_images(outer, w) for w in inner)


def identity_images(n: int) -> tuple:
    return tuple((k,) for k in range(1, 2 * n + 1))


@dataclass(frozen=True)
class MarkedAutomorphism:
    """An automorphism of the rank-2n free group fixing the boundary word exactly."""

    n: int
    images: tuple
    inverse_images: tuple
    provenance: str

    def evaluate(self, G: FiniteGroup, entries) -> np.ndarray:
        """The images of G-tuples, ``entries`` of shape (..., 2n): each image word
        folded one letter at a time over every row at once."""
        entries = np.asarray(entries, dtype=np.int64)
        out = []
        for w in self.images:
            acc = np.full(entries.shape[:-1], G.identity, dtype=np.int64)
            for l in w:
                acc = G.table[acc, entries[..., l - 1] if l > 0
                              else G.inverse[entries[..., -l - 1]]]
            out.append(acc)
        return np.stack(out, axis=-1)

    def __post_init__(self):
        W = boundary_word(self.n)
        if apply_images(self.images, W) != W:
            raise WordError(f"{self.provenance}: does not fix the boundary word")
        ident = identity_images(self.n)
        if compose_images(self.images, self.inverse_images) != ident:
            raise WordError(f"{self.provenance}: inverse images do not invert it")
        if compose_images(self.inverse_images, self.images) != ident:
            raise WordError(f"{self.provenance}: images do not invert the inverse")


def _with_image(n: int, repl: dict) -> tuple:
    imgs = list(identity_images(n))
    for gen, w in repl.items():
        imgs[gen - 1] = reduce_word(w)
    return tuple(imgs)


def _handle_mixer(n: int, i: int, x: tuple) -> tuple:
    """a_i -> a_i x, b_i -> x^-1 b_i x, a_{i+1} -> x^-1 a_{i+1} x, b_{i+1} -> b_{i+1} x."""
    a, b, c, d = 2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2
    xi = invert_word(x)
    return _with_image(n, {a: (a,) + x, b: xi + (b,) + x, c: xi + (c,) + x, d: (d,) + x})


def enumerate_stabilizing_automorphisms(n: int) -> tuple:
    """The Dehn twists T1_i, T2_i (i = 1..n) and M_i (i = 1..n-1): 3n - 1 automorphisms.

    They generate the whole stabilizer of the boundary word in Aut(F_2n),
    which is the mapping class group of the genus-n surface with one boundary
    component fixed (Dehn-Nielsen-Baer, Zieschang).  T1_i: a_i -> a_i b_i and
    T2_i: b_i -> b_i a_i are the Dehn twists about the curves of class b_i and
    a_i (T2_i with the opposite sense), so they generate the mapping class
    group of handle i.  M_i is the twist about a curve of class b_i - a_{i+1}:
    the handle mixer with x = a_{i+1}^-1 b_i.  Conjugating M_i by the quarter
    turn T1_{i+1} T2_{i+1}^-1 T1_{i+1} of handle i+1 gives the twist about the
    curve of class b_i - b_{i+1} that meets a_i and a_{i+1} once each.  The
    curves a_i, b_i and these connecting curves are Lickorish's 3n - 1 twist
    curves, which contain Humphries' 2n + 1 generators (Humphries 1979,
    "Generators for the mapping class group").

    Orbits are the connected components of the undirected graph with an edge
    from v to phi(v) for every move phi, so the inverse of a move adds no edge
    and the identity adds none.  The orbits of G^(2n) under this set are
    therefore the orbits of the full stabilizer, for every finite group G and
    genus n.  Each move carries its inverse images, which certify that it is
    an automorphism.
    """
    if n < 1:
        raise WordError("genus must be >= 1")
    moves = []
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        moves.append(MarkedAutomorphism(
            n, _with_image(n, {a: (a, b)}), _with_image(n, {a: (a, -b)}), f"T1_{i}"))
        moves.append(MarkedAutomorphism(
            n, _with_image(n, {b: (b, a)}), _with_image(n, {b: (b, -a)}), f"T2_{i}"))
    for i in range(1, n):
        b, c = 2 * i, 2 * i + 1
        moves.append(MarkedAutomorphism(
            n, _handle_mixer(n, i, (-c, b)), _handle_mixer(n, i, (-b, c)), f"M_{i}"))
    return tuple(sorted(moves, key=lambda a: a.images))


def boundary_eval(G: FiniteGroup, entries) -> np.ndarray:
    """prod_i [a_i, b_i] in G for each row of ``entries``, shape (..., 2n); an
    orbit invariant of the move action."""
    entries = np.asarray(entries, dtype=np.int64)
    acc = np.full(entries.shape[:-1], G.identity, dtype=np.int64)
    for i in range(0, entries.shape[-1], 2):
        acc = G.table[acc, G.commutator(entries[..., i], entries[..., i + 1])]
    return acc


def _placed(images, n: int, i: int) -> tuple:
    """Images of a degree-k automorphism acting on handles i+1..i+k of genus n,
    the identity on the other handles."""
    shift = 2 * i
    out = list(identity_images(n))
    for j, w in enumerate(images):
        out[shift + j] = tuple(l + shift if l > 0 else l - shift for l in w)
    return tuple(out)


@functools.cache
def _move_images(k: int) -> tuple:
    return tuple(phi.images for phi in enumerate_stabilizing_automorphisms(k))


def check_local(n: int, moves) -> None:
    """Refuse a degree-n move set the local orbit construction cannot use.

    Every move must be the identity outside handles i, i+1 and equal a move
    of degree 1 or 2 placed there, and every degree-2 move placed at every
    (i, i+1) must be a move.  Then the orbits of degree n follow from those
    of degrees 1 and 2 (``orbits.local_steps``)."""
    placed = {k: {_placed(images, n, i) for images in _move_images(k)
                  for i in range(n - k + 1)} for k in (1, 2)}
    have = {phi.images for phi in moves}
    for phi in moves:
        if phi.images not in placed[1] | placed[2]:
            raise WordError(f"{phi.provenance}: not a move of degree 1 or 2 on adjacent "
                            f"handles, so the degree-{n} orbits are not local")
    if placed[2] - have:
        raise WordError(f"the degree-{n} moves miss a degree-2 move on some adjacent handles")


def compile_moves(n: int, G: FiniteGroup) -> tuple:
    """The moves of ``enumerate_stabilizing_automorphisms``, after ``check_local``.

    They are the same for every G.  Each keeps the boundary value in G because
    ``MarkedAutomorphism`` refuses a map that does not fix the boundary word
    W exactly, and W(phi(v)) = phi(W)(v) = W(v)."""
    moves = enumerate_stabilizing_automorphisms(n)
    check_local(n, moves)
    return moves


def moveset_hash(moves) -> str:
    """Content hash over the sorted image-word tuples."""
    payload = sorted(m.images for m in moves)
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return _kernels.sha256(blob).hexdigest()


def moveset_manifest(n: int, moves) -> dict:
    return {
        "n": n,
        "moves": [
            {"provenance": m.provenance, "images": [list(w) for w in m.images]}
            for m in moves
        ],
        "hash": moveset_hash(moves),
    }
