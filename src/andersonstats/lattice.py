"""Multi-index algebra over the integer lattice Z^d.

A multi-index assigns a positive integer exponent to finitely many lattice
points; it names a monomial in the per-site variables of a random field.
Translation acts on multi-indices by shifting their support, and each
non-zero translation class has a unique canonical representative whose
lexicographically smallest support point is the origin.

The point symmetries of Z^d are the 2^d d! signed axis permutations. They
are reached only through their generators ``first_hop_maps`` (the 2d maps
taking e_1 to each unit vector): ``orbit`` closes a translation class under
them and ``fold_key`` names its orbit. L1 balls are grown without the cube.

All values are immutable after construction and safe to share across
threads. Lexicographic order on points compares coordinates left to right.

Text grammar (used by the CLI and JSON payloads)::

    "p1:e1;p2:e2;..."   with  p = "c1,c2,...,cd"  (signed decimal integers)

e.g. in d=2: ``0,0:1;1,1:2``. The zero multi-index serializes to the empty
string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub
from typing import Mapping

Point = tuple[int, ...]
# A signed axis permutation (perm, signs) maps p to q, q[i] = signs[i] p[perm[i]].
Symmetry = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class MultiIndex:
    """Finitely supported map from lattice points to positive exponents.

    ``entries`` is sorted by point in lexicographic order, giving a canonical
    serialization and O(support) equality. Points with exponent zero are
    never stored; the zero multi-index has empty ``entries``.
    """

    d: int
    entries: tuple[tuple[Point, int], ...] = ()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        previous: Point | None = None
        for point, exponent in self.entries:
            if len(point) != self.d:
                raise ValueError(
                    f"point {point!r} has dimension {len(point)}, expected {self.d}"
                )
            if exponent < 1:
                raise ValueError(f"exponent at {point!r} must be >= 1, got {exponent}")
            if previous is not None and point <= previous:
                raise ValueError("entries must be strictly sorted by point")
            previous = point

    @classmethod
    def from_map(cls, d: int, mapping: Mapping[Point, int]) -> "MultiIndex":
        """Build from a point -> exponent mapping, dropping zero exponents."""
        entries = tuple(
            (tuple(point), int(e)) for point, e in sorted(mapping.items()) if e != 0
        )
        return cls(d, entries)

    @classmethod
    def zero(cls, d: int) -> "MultiIndex":
        return cls(d, ())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def support(self) -> tuple[Point, ...]:
        return tuple(point for point, _ in self.entries)

    def exponent(self, point: Point) -> int:
        for candidate, e in self.entries:
            if candidate == point:
                return e
        return 0

    def total_exponent(self) -> int:
        return sum(e for _, e in self.entries)

    def to_map(self) -> dict[Point, int]:
        return dict(self.entries)

    def shift(self, i: Point) -> "MultiIndex":
        """Translate the support by +i."""
        if len(i) != self.d:
            raise ValueError(f"shift vector {i!r} has dimension {len(i)}, expected {self.d}")
        entries = tuple(
            (tuple(c + s for c, s in zip(point, i)), e) for point, e in self.entries
        )
        return MultiIndex(self.d, entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            return NotImplemented
        if other.d != self.d:
            raise ValueError("cannot add multi-indices of different dimensions")
        merged = self.to_map()
        for point, e in other.entries:
            merged[point] = merged.get(point, 0) + e
        return MultiIndex.from_map(self.d, merged)

    def format(self) -> str:
        """Serialize using the text grammar; the zero index gives ''."""
        return ";".join(
            f"{','.join(str(c) for c in point)}:{e}" for point, e in self.entries
        )

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "MultiIndex":
        """Parse the text grammar. ``d`` is inferred from the first point
        unless given; the empty string needs an explicit ``d``."""
        text = text.strip()
        if not text:
            if d is None:
                raise ValueError("cannot infer dimension of the zero multi-index")
            return cls.zero(d)
        mapping: dict[Point, int] = {}
        for part in text.split(";"):
            head, sep, tail = part.rpartition(":")
            if not sep:
                raise ValueError(f"malformed multi-index entry {part!r}")
            point = tuple(int(c) for c in head.split(","))
            exponent = int(tail)
            if exponent < 1:
                raise ValueError(f"exponent must be >= 1 in entry {part!r}")
            if d is None:
                d = len(point)
            if point in mapping:
                raise ValueError(f"duplicate point {point!r}")
            mapping[point] = exponent
        assert d is not None
        return cls.from_map(d, mapping)


def delta(d: int, site: Point, exponent: int = 1) -> MultiIndex:
    """Point mass: the multi-index with value ``exponent`` at ``site``."""
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if len(site) != d:
        raise ValueError(f"site {site!r} has dimension {len(site)}, expected {d}")
    return MultiIndex(d, ((tuple(site), exponent),))


def canonicalize(index: MultiIndex) -> tuple[MultiIndex, Point]:
    """Canonical representative of the translation class of ``index``.

    Returns ``(rep, i)`` with ``rep = index.shift(i)`` and the lexicographic
    minimum of the support of ``rep`` at the origin (so the origin always
    carries a positive exponent). Idempotent on the representative. The zero
    multi-index has no representative and is rejected.
    """
    if index.is_zero:
        raise ValueError("the zero multi-index has no canonical representative")
    anchor = min(point for point, _ in index.entries)
    move = tuple(-c for c in anchor)
    return index.shift(move), move


def l1_ball(d: int, r: int) -> list[Point]:
    """Points of Z^d with L1 norm <= r, ordered by norm, so that every
    smaller ball is a prefix of the list (the origin first), and each norm
    in lexicographic order. Grown axis by axis from prefixes of norm <= r."""
    ball: list[tuple[Point, int]] = [((), 0)]
    for _ in range(d):
        ball = [(p + (c,), n + abs(c)) for p, n in ball for c in range(n - r, r - n + 1)]
    return [point for point, _ in sorted(ball, key=lambda item: item[1])]


def adjacent(point: Point) -> list[Point]:
    """The 2d lattice neighbours of ``point``, one unit away along an axis."""
    return [
        point[:axis] + (point[axis] + step,) + point[axis + 1 :]
        for axis in range(len(point))
        for step in (1, -1)
    ]


@lru_cache(maxsize=None)
def first_hop_maps(d: int) -> tuple[Symmetry, ...]:
    """One symmetry g_u per unit vector u = s e_a with g_u(e_1) = u, each its
    own inverse: x_1 -> s x_1 if a = 1, else x_1 -> s x_a and x_a -> s x_1.
    The identity comes first. They generate all 2^d d! point symmetries."""
    maps = []
    for axis in range(d):
        perm = list(range(d))
        perm[0], perm[axis] = axis, 0
        for sign in (1, -1):
            signs = [1] * d
            signs[0] = signs[axis] = sign
            maps.append((tuple(perm), tuple(signs)))
    return tuple(maps)


def map_point(symmetry: Symmetry, point: Point) -> Point:
    perm, signs = symmetry
    return tuple([s * point[i] for s, i in zip(signs, perm)])


def map_entries(symmetry: Symmetry, entries: tuple) -> tuple:
    """Canonical entries (as in ``canonicalize``) of the image of the
    translation class with the given entries."""
    perm, signs = symmetry
    pairs = list(zip(signs, perm))
    mapped = sorted([(tuple([s * p[i] for s, i in pairs]), e) for p, e in entries])
    anchor = mapped[0][0]
    return tuple([(tuple(map(sub, p, anchor)), e) for p, e in mapped])


def orbit(entries: tuple) -> set[tuple]:
    """Canonical entries of the images of the non-zero translation class
    with these entries under the point symmetries: its closure under
    ``first_hop_maps``, at 2d map applications per image."""
    maps = first_hop_maps(len(entries[0][0]))
    images: set[tuple] = set()
    found = [entries]
    for current in found:  # each new image joins the list being read
        new = {map_entries(g, current) for g in maps} - images
        images |= new
        found += new
    return images


def fold_key(index: MultiIndex) -> tuple:
    """Orbit key of the translation class under the point symmetries: the
    lexicographically smallest canonical entries of its images."""
    if index.is_zero:
        raise ValueError("the zero multi-index has no fold key")
    return min(orbit(index.entries))
