"""Vertices and coordinate masks of the n-cube.

Vertices of the n-cube are sign vectors in {±1}^n, packed into an n-bit
integer: bit i-1 set means coordinate i equals -1.  The even-parity
vertices (an even number of -1 entries) are the vertices of the half cube;
the half cube graph joins two of them whenever their Hamming distance is 2.

Coordinates are 1-based throughout the public API, so a mask is literally
a subset of {1, ..., n}.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIM = 32


@dataclass(frozen=True, order=True)
class Vertex:
    """A hypercube vertex; bit i-1 of ``bits`` set means coordinate i is -1."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension {self.n} outside 1..{MAX_DIM}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"vertex bits {self.bits:#x} do not fit in {self.n} coordinates")

    @classmethod
    def from_signs(cls, signs) -> "Vertex":
        signs = tuple(signs)
        if any(s not in (1, -1) for s in signs):
            raise ValueError("coordinates must be +1 or -1")
        bits = 0
        for i, s in enumerate(signs):
            if s == -1:
                bits |= 1 << i
        return cls(len(signs), bits)

    def signs(self) -> tuple:
        return tuple(-1 if self.bits >> i & 1 else 1 for i in range(self.n))

    @property
    def parity(self) -> int:
        return self.bits.bit_count() & 1

    @property
    def is_even(self) -> bool:
        """True iff the vertex lies in the even class (a half cube vertex)."""
        return self.parity == 0

    def flip(self, coord: int) -> "Vertex":
        """Flip the sign of the 1-based coordinate ``coord``."""
        if not 1 <= coord <= self.n:
            raise ValueError(f"coordinate {coord} outside 1..{self.n}")
        return Vertex(self.n, self.bits ^ (1 << (coord - 1)))


@dataclass(frozen=True)
class Mask:
    """A subset S of the coordinate set {1, ..., n}, packed into bits."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise ValueError(f"dimension {self.n} outside 1..{MAX_DIM}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("mask bits exceed the ambient dimension")

    @classmethod
    def of(cls, n: int, *coords: int) -> "Mask":
        bits = 0
        for c in coords:
            if not 1 <= c <= n:
                raise ValueError(f"coordinate {c} outside 1..{n}")
            bits |= 1 << (c - 1)
        return cls(n, bits)

    @classmethod
    def full(cls, n: int) -> "Mask":
        return cls(n, (1 << n) - 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def coords(self) -> tuple:
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def __contains__(self, coord: int) -> bool:
        return 1 <= coord <= self.n and bool(self.bits >> (coord - 1) & 1)

    def __iter__(self):
        return iter(self.coords())

    def without(self, coord: int) -> "Mask":
        if coord not in self:
            raise ValueError(f"coordinate {coord} not in mask")
        return Mask(self.n, self.bits & ~(1 << (coord - 1)))

    def with_coord(self, coord: int) -> "Mask":
        if not 1 <= coord <= self.n:
            raise ValueError(f"coordinate {coord} outside 1..{self.n}")
        return Mask(self.n, self.bits | 1 << (coord - 1))


def hamming_distance(x: Vertex, y: Vertex) -> int:
    """Number of coordinates at which x and y differ."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} != {y.n}")
    return (x.bits ^ y.bits).bit_count()
