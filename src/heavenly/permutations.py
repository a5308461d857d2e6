"""Permutations on a fixed set of points.

Points are 1-indexed; a permutation of degree n stores the image tuple
(images[i-1] is where point i goes).  Composition is left-to-right:
(p * q)(i) = q(p(i)), so parsing "(1 2)" then "(2 3)" and multiplying gives
the 3-cycle (1 3 2).  The degree is not capped: no document or command-line
argument builds a permutation, and the largest the toolkit builds is the
272-point regular representation of the affine group of F17.  Closing that
representation takes hundreds of 272-point products, so a product is one
C-level gather over the image tuple rather than a Python loop per point.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import InputError
from .records import Record


class Perm(Record):
    """A permutation of {1, ..., n} as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        object.__setattr__(self, "images", images)
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {self.images}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self):
        return hash((self.images,))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Left-to-right composition: apply self first, then other."""
        if self.degree != other.degree:
            raise InputError("composition of permutations of unequal degree")
        return _unchecked(compose_images(self.images, other.images))

    def inverse(self) -> "Perm":
        out = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return _unchecked(tuple(out))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def is_involution(self) -> bool:
        """True when self^2 is the identity (includes the identity itself)."""
        return (self * self).is_identity()

    def order(self) -> int:
        k = 1
        acc = self
        while not acc.is_identity():
            acc = acc * self
            k += 1
        return k

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Perm({format_cycles(self)}, degree={self.degree})"


def compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of a then b, for image tuples of equal length.

    One itemgetter gather.  With no index itemgetter raises and with one it
    returns a scalar, so degree at most 1 returns b: the only permutation on
    at most one point is the identity.
    """
    if len(a) <= 1:
        return b
    return itemgetter(*a)((0,) + b)


def _unchecked(images: tuple[int, ...]) -> Perm:
    """A Perm without the permutation check, for images already known valid
    (products and inverses of validated permutations)."""
    p = object.__new__(Perm)
    object.__setattr__(p, "images", images)
    return p


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1 2 3 4)(5 6)"; "()" is the identity.

    Points are whitespace-separated and 1-indexed; points not mentioned are
    fixed.  The degree must be given since fixed points are implicit.
    """
    s = text.strip()
    if not s:
        raise InputError("empty cycle string")
    stripped = _CYCLE_RE.sub("", s)
    if stripped.strip():
        raise InputError(f"unbalanced or stray text in cycle string {text!r}")
    images = list(range(1, degree + 1))
    for body in _CYCLE_RE.findall(s):
        points = [int(tok) for tok in body.split()]
        if not points:
            continue
        if len(set(points)) != len(points):
            raise InputError(f"repeated point in cycle ({body})")
        for pt in points:
            if not 1 <= pt <= degree:
                raise InputError(f"point {pt} outside 1..{degree}")
        for i, pt in enumerate(points):
            if images[pt - 1] != pt:
                raise InputError(f"point {pt} appears in two cycles")
            images[pt - 1] = points[(i + 1) % len(points)]
    return Perm(tuple(images))


def format_cycles(p: Perm) -> str:
    """Cycle notation; the identity renders as "()"."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(pt) for pt in cyc) + ")" for cyc in cycs)
