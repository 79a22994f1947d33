"""Signed permutations, face orbits, and the induced action on homology.

The even-signed permutation group (type D_n, order 2^(n-1) n!) acts on the
half cube by permuting coordinates and flipping an even number of signs.
It maps each family of faces (K or L) to itself, so its face orbits follow the
kind split; at n = 4 one extra orthogonal reflection (perpendicular to the
all-ones vector) stabilizes the polytope and merges the two tetrahedron
orbits.  The orbits are closed under three generators of the group
(``orbit_generators``): the transposition of coordinates 1 and 2, the
n-cycle i -> i+1 and the double flip at n-1, n.  The first two generate
S_n; the S_n-conjugates of the double flip are all the double flips, which
generate the even sign changes (Z/2)^(n-1), and D_n is their semidirect
product (Humphreys, Reflection Groups and Coxeter Groups, 1990, 2.10).

Every such map is linear, so it permutes the even vertices, and the image
of a face is the face on the image vertex set.  Orbits and chain maps move
face keys through a vertex permutation table (``vertex_table``), and chain
maps read each cell's vertex count and span off its key; the tests check
the tables against moving each face by its (v, S) (``tests/oracles.py``).

Chain-map signs are parities, taken by ``complexes.sort_sign``.  A cell
with dim + 1 vertices (a simplex, or a half-cube tetrahedron) is oriented
by its whole sorted key, so its sign is the parity of the permutation that
sorts its image vertices.  A half cube or the top cell f on the coordinate
set S goes to g f on pi(S), pi being g's permutation.
In the frames (e_i, i in S ascending) and (e_j, j in pi(S) ascending) its
sign is eps_f eps_gf det(g|_S), with eps the frame sign of the lemma in
``halfcube.complexes``.  det(g|_S) is sgn(pi|_S) times (-1) per sign g
flips inside pi(S), and eps_f eps_gf is (-1) per sign g flips outside
pi(S), since those flips change the parity of the outside bits.  g flips
an even number of signs, so the sign is sgn(pi|_S), the parity of
(pi(i), i in S ascending).  The tests check both against the determinant
of the orientation bases.

On the cut complexes the action is cellular and therefore acts on the
one nonzero homology group; the matrices of that action are assembled
from a kernel-modulo-image basis that two runs of the unit phase give,
by back-substitution through their +-1 pivots (``HomologyBasis``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import build_complex, sort_sign
from .faces import (
    KIND_HALFCUBE,
    KIND_SIMPLEX,
    KIND_TOP,
    KIND_VERTEX,
    _span,
    build_face_lattice,
    face_count,
    face_counts_by_type,
    kind_split,
)
from .linalg import unit_pivots
from .triangle import predicted_betti


@dataclass(frozen=True)
class SignedPermutation:
    """perm[i] is the image position of i (0-based); signs index targets."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)) or len(self.signs) != n:
            raise ValueError("not a signed permutation")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def is_even_signed(self) -> bool:
        """Membership in the type-D group: an even number of sign flips."""
        return sum(1 for s in self.signs if s == -1) % 2 == 0

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(tuple(range(n)), (1,) * n)

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "SignedPermutation":
        """Swap 1-based coordinates a and b."""
        p = list(range(n))
        p[a - 1], p[b - 1] = p[b - 1], p[a - 1]
        return cls(tuple(p), (1,) * n)

    @classmethod
    def sign_flips(cls, n: int, coords) -> "SignedPermutation":
        """Flip the listed 1-based coordinates, no permutation."""
        s = [1] * n
        for c in coords:
            s[c - 1] = -1
        return cls(tuple(range(n)), tuple(s))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        """Composition: (g * h) acts as g after h."""
        g, h = self, other
        if g.n != h.n:
            raise ValueError("dimension mismatch")
        n = g.n
        p = [0] * n
        s = [1] * n
        for i in range(n):
            t = g.perm[h.perm[i]]
            p[i] = t
            s[t] = g.signs[t] * h.signs[h.perm[i]]
        return SignedPermutation(tuple(p), tuple(s))

    def inverse(self) -> "SignedPermutation":
        n = self.n
        p = [0] * n
        s = [1] * n
        for i in range(n):
            p[self.perm[i]] = i
            s[i] = self.signs[self.perm[i]]
        return SignedPermutation(tuple(p), tuple(s))


# The n = 4 reflection x -> x - (sum(x) / 2) (1,1,1,1), perpendicular to the
# all-ones vector, as a vertex table (not a signed permutation): it swaps the
# even vertices 0 (all +1) and 15 (all -1) and fixes the six with two -1
# entries; it takes no odd vertex to a vertex, so odd entries are -1
SPECIAL_REFLECTION_4 = (15, -1, -1, 3, -1, 5, 6, -1, -1, 9, 10, -1, 12, -1, -1, 0)


def vertex_table(g: SignedPermutation, n: int) -> list:
    """The list t with t[b] = bits of g's image of the vertex b, 0 <= b < 2^n."""
    if g.n != n:
        raise ValueError("dimension mismatch")
    # the image is linear over GF(2) in the bits, plus the flipped signs
    flips = 0
    for t, s in enumerate(g.signs):
        if s == -1:
            flips |= 1 << t
    lin = [0] * (1 << n)
    for b in range(1, 1 << n):
        low = b & -b
        lin[b] = lin[b ^ low] | 1 << g.perm[low.bit_length() - 1]
    return [x ^ flips for x in lin]


def orbit_generators(n: int) -> list:
    """(1 2), the n-cycle i -> i+1 and the double flip at n-1, n: three generators of W(D_n)."""
    return [
        SignedPermutation.transposition(n, 1, 2),
        SignedPermutation(tuple((i + 1) % n for i in range(n)), (1,) * n),
        SignedPermutation.sign_flips(n, (n - 1, n)),
    ]


def random_wdn(n: int, rng: random.Random) -> SignedPermutation:
    """Uniformly random even-signed permutation."""
    p = list(range(n))
    rng.shuffle(p)
    s = [rng.choice((1, -1)) for _ in range(n)]
    if sum(1 for x in s if x == -1) % 2:
        s[rng.randrange(n)] *= -1
    return SignedPermutation(tuple(p), tuple(s))


# ---------------------------------------------------------------------------
# Orbits


@dataclass(frozen=True)
class Orbit:
    representative: tuple  # the smallest key of the orbit
    size: int
    kind: str  # "simplex" / "halfcube" / "vertex" / "top" / "mixed"


@dataclass(frozen=True)
class OrbitReport:
    n: int
    extended: bool
    orbits: tuple  # per dimension, tuple of Orbit


def _image_positions(table, keys, index, error: str) -> list:
    """index[image key] for each key moved through the vertex table ``table``.

    An image key that ``index`` does not hold raises ValueError(error).
    """
    try:
        return [index[tuple(sorted(map(table.__getitem__, key)))] for key in keys]
    except KeyError:
        raise ValueError(error) from None


def orbits(n: int, extended: bool = False) -> OrbitReport:
    """Face orbits per dimension under W(D_n).

    Per dimension each generator of ``orbit_generators`` becomes the list of
    its faces' image positions: (1 2) and the n-cycle i -> i+1 generate
    S_n, and with the double flip at n-1, n, whose S_n-conjugates are all
    the double flips, the even sign changes.  The orbits are the connected
    components of those maps, each collected by one stack traversal; the
    keys are sorted, so the first face not yet reached in key order is its
    orbit's smallest key, the representative, and orbits come out in the
    order of their representatives.  An orbit's kind comes from its
    ``kind_split`` counts ("mixed" when both are nonzero).
    extended adds the table of the n = 4 reflection (``SPECIAL_REFLECTION_4``)
    and is rejected elsewhere.
    """
    if extended and n != 4:
        raise ValueError("the special reflection exists only at n = 4")
    lattice = build_face_lattice(n)
    tables = [vertex_table(g, n) for g in orbit_generators(n)]
    if extended:
        tables.append(SPECIAL_REFLECTION_4)

    report = []
    for dim, dim_keys in enumerate(lattice.keys):
        index = {key: i for i, key in enumerate(dim_keys)}
        maps = [_image_positions(t, dim_keys, index, "image vertex set is not a face") for t in tables]
        # each map permutes the faces, so what a face reaches forward is its orbit
        seen = bytearray(len(dim_keys))
        dim_orbits = []
        for start, representative in enumerate(dim_keys):
            if seen[start]:
                continue
            seen[start] = 1
            stack = [start]
            members = [representative]
            while stack:
                i = stack.pop()
                for m in maps:
                    j = m[i]
                    if not seen[j]:
                        seen[j] = 1
                        stack.append(j)
                        members.append(dim_keys[j])
            simp, hc = kind_split(dim, members)
            if simp and hc:
                kind = "mixed"
            elif dim in (0, n):
                kind = KIND_VERTEX if dim == 0 else KIND_TOP
            else:
                kind = KIND_SIMPLEX if simp else KIND_HALFCUBE
            dim_orbits.append(Orbit(representative, len(members), kind))
        report.append(tuple(dim_orbits))
    return OrbitReport(n, extended, tuple(report))


def expected_orbit_profile(n: int, extended: bool = False) -> list:
    """Orbit (kind, size) lists per dimension, from the census split."""
    out = []
    by_type = face_counts_by_type(n)
    for dim in range(n + 1):
        if dim < 3 or dim == n:
            out.append([(KIND_VERTEX if dim == 0 else KIND_SIMPLEX if dim < n else KIND_TOP, face_count(n, dim))])
        elif n == 4 and extended:
            out.append([("mixed", face_count(n, dim))])
        else:
            simp, hc = by_type[dim]
            out.append([(KIND_SIMPLEX, simp), (KIND_HALFCUBE, hc)])
    return out


# ---------------------------------------------------------------------------
# Homology representation


class HomologyBasis:
    """Kernel-modulo-image coordinates on the one nonzero homology group.

    Chains are sparse {cell index: coefficient} over the (k-1)-cells.  The
    unit phase takes the boundary of degree k - 1 to +-1 pivots
    (``unit_pivots``), whose rows are triangular in pivot order: a cycle
    is fixed by its entries on the free (non-pivot) cells, its kernel
    coordinates.  The image of the boundary of degree k on the free cells
    is eliminated transposed, so that row operations keep the image; its
    pivot rows span it and, triangular with +-1 pivots, complete to a
    basis of the kernel with the free ``cells`` they do not pivot on.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        cx = build_complex(n, k)
        self.cx = cx
        d = k - 1
        mats = cx.matrices()
        self._down = down = mats[d - 1]
        kernel_pivots = unit_pivots(down.nrows, down.ncols, zip(down.rows, down.signs))
        free = bytearray([1]) * down.ncols
        for _, c, _, _ in kernel_pivots:
            free[c] = 0
        self._free = free

        # the transpose of the image (cycles: assembly checks that the boundary
        # squares to zero): column c lists the (d + 1)-cells whose boundary
        # meets the free cell c, with their signs
        image = [([], []) for _ in range(down.ncols)]
        up_cells = 0
        for up in mats[d:d + 1]:  # none when the complex stops at dimension d
            up_cells = up.ncols
            for j, (rows, signs) in enumerate(zip(up.rows, up.signs)):
                for r, s in zip(rows, signs):
                    if free[r]:
                        image[r][0].append(j)
                        image[r][1].append(s)
        self._image_pivots = unit_pivots(up_cells, down.ncols, image)
        image_cells = {c for _, c, _, _ in self._image_pivots}
        self.cells = [c for c, f in enumerate(free) if f and c not in image_cells]
        self.rank = len(self.cells)
        if self.rank != predicted_betti(n, k):
            raise AssertionError("basis size disagrees with the predicted Betti number")

        # basis cycles, back-substituted in one reverse pass: cycle i is 1 on
        # cells[i] and 0 on the other free cells, and a pivot's row
        # v x_c + rest . x = 0 sets x_c = -v (rest . x), v being +-1
        values = {c: {i: 1} for i, c in enumerate(self.cells)}  # cell -> {cycle: value}
        for _, c, v, rest in reversed(kernel_pivots):
            got = {}
            for cc, a in rest.items():
                for i, x in values.get(cc, {}).items():
                    got[i] = got.get(i, 0) - v * a * x
            values[c] = {i: x for i, x in got.items() if x}
        self.cycles = [{} for _ in self.cells]
        for c, col in values.items():
            for i, x in col.items():
                self.cycles[i][c] = x

    def coords_of(self, chains) -> list:
        """The homology classes of cycles {cell: coef}, each in the basis ``cycles``.

        A chain with a nonzero boundary raises AssertionError.
        """
        down, free = self._down, self._free
        rows, signs = down.rows, down.signs
        chains = list(chains)
        w = {}  # free cell -> {chain: kernel coordinate}
        for t, chain in enumerate(chains):
            boundary = [0] * down.nrows
            for j, coef in chain.items():
                if coef:
                    for r, s in zip(rows[j], signs[j]):
                        boundary[r] += coef * s
                    if free[j]:
                        w.setdefault(j, {})[t] = coef
            if any(boundary):
                raise AssertionError("not a cycle")
        # subtract the image pivot rows in pivot order; a pivot's rest holds no
        # cell an earlier pivot cleared, so what is left lies on the cells
        for _, c, v, rest in self._image_pivots:
            col = w.pop(c, None)
            for cc, a in rest.items() if col else ():
                dst = w.setdefault(cc, {})
                for t, x in col.items():
                    dst[t] = dst.get(t, 0) - v * a * x
        out = [[0] * self.rank for _ in chains]
        for i, c in enumerate(self.cells):
            for t, x in w.get(c, {}).items():
                out[t][i] = x
        return out


_basis_cache = {}


def homology_basis(n: int, k: int) -> HomologyBasis:
    got = _basis_cache.get((n, k))
    if got is None:
        got = _basis_cache[(n, k)] = HomologyBasis(n, k)
    return got


def chain_map_on_cells(g, cx, dim):
    """The signed permutation matrix of g on the dimension-dim chain group."""
    if not g.is_even_signed:
        raise ValueError("only even-signed permutations act on the half cube")
    n = cx.n
    table = vertex_table(g, n)
    cells = cx.cells[dim]
    targets = _image_positions(table, cells, cx.index[dim], "image cell left the complex")
    out = []  # (target index, sign) per source cell
    for key, j in zip(cells, targets):
        if len(key) == dim + 1:
            # a vertex, a simplex or a half-cube tetrahedron, oriented by its
            # whole sorted key, and g is linear: moving the vertices in key
            # order gives the image's orientation up to the sorting permutation
            out.append((j, sort_sign(list(map(table.__getitem__, key)))))
        else:
            # a larger half cube or the top cell on S: the parity of g's
            # permutation restricted to S
            s = _span(key)
            out.append((j, sort_sign([g.perm[i] for i in range(n) if s >> i & 1])))
    return out


def homology_action(n: int, k: int, g: SignedPermutation):
    """The matrix of g on the (k-1)-st homology of the k-cut complex."""
    if not g.is_even_signed:
        raise ValueError("only even-signed permutations act")
    basis = homology_basis(n, k)
    cx = basis.cx
    cmap = chain_map_on_cells(g, cx, k - 1)
    images = []
    for cycle in basis.cycles:
        image = {}
        for i, coef in cycle.items():
            j, s = cmap[i]
            image[j] = s * coef  # cmap is a signed permutation: no two cells meet
        images.append(image)
    return [list(row) for row in zip(*basis.coords_of(images))]
