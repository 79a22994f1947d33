"""Independent brute-force references the tests check the library against.

Everything here works from first principles on explicit vertex sets; none
of it reuses the key arithmetic under test, except these routes:

* describe names the face of a lattice key by (kind, point, mask) through
  _classify and _opposite_point of halfcube.faces, the key readers that
  morse and complexes use; lattice_faces, face_of and intersection build
  their descriptors with it, so comparing lattice_faces with
  reference_lattice checks those readers against the (v, S) construction;
* reference_lattice builds every descriptor one face at a time from (v, S),
  through the key routines _k_key of halfcube.faces and _l_key here, as do
  the (v, S) constructors vertex_face, simplex_face, halfcube_face and
  top_face;
* reference_orbits moves faces by their descriptors (act_on_face) under
  the n Coxeter generators (coxeter_generators) to check the vertex-table
  orbits that halfcube.symmetry closes under three generators;
* face_from_vertices rebuilds a descriptor through the clique
  classification at the end of this module;
* orientation_tuple defines the orientation convention (the cache's
  lexmin-outward-v1): each cell is oriented by the lexicographically
  smallest affinely independent subsequence of its key, found by an
  integer echelon.  gram_sign takes an incidence sign from the Gram
  determinant (det_sign) of the full n-length orientation bases, with
  either cell reoriented, against the bit rules the library assembles
  with; reoriented_matrices assembles a whole complex that way, and
  frame_sign takes a half-cube cell's sign against its coordinate frame,
  the lemma both bit rules rest on;
* hasse_acyclicity sorts the whole reoriented Hasse digraph of a matching,
  every cell included;
* rank_mod_p is halfcube.linalg.eliminate modulo one prime, an elimination
  of its own beside the Smith form and the dense ranks here;
* reference_unit_phase is halfcube.linalg._unit_phase in its plain form,
  one row-operation loop for every modulus and a score tuple per
  candidate: the pivot records and residual rows of the library's kernel
  must equal its own, in the same order.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from heapq import heapify, heappop, heappush
from math import gcd

from halfcube import linalg
from halfcube.complexes import BoundaryMatrix, assert_boundary_squared_zero
from halfcube.faces import (
    KIND_HALFCUBE,
    KIND_SIMPLEX,
    KIND_TOP,
    KIND_VERTEX,
    MAX_DIM,
    _classify,
    _k_key,
    _opposite_point,
)
from halfcube.morse import AcyclicityCertificate
from halfcube.symmetry import SignedPermutation


# ---------------------------------------------------------------------------
# Vertices, coordinate masks and face descriptors
#
# A vertex of the n-cube is a sign vector in {+-1}^n packed into an n-bit
# integer: bit i-1 set means coordinate i equals -1.  The even-parity
# vertices are the vertices of the half cube, and its graph joins two of
# them at Hamming distance 2.  Coordinates are 1-based, so a mask is
# literally a subset of {1, ..., n}.


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


class FaceDescriptor:
    """One face as (kind, point, mask); equality and hashing go through its vertex key."""

    __slots__ = ("kind", "n", "point", "mask", "dim", "key")

    def __init__(self, kind, n, point, mask, dim, key):
        self.kind = kind
        self.n = n
        self.point = point
        self.mask = mask
        self.dim = dim
        self.key = key

    def __eq__(self, other):
        return isinstance(other, FaceDescriptor) and self.n == other.n and self.key == other.key

    def __hash__(self):
        return hash((self.n, self.key))

    def __repr__(self):
        if self.kind == KIND_VERTEX:
            return f"Face(vertex {self.point.signs()})"
        if self.kind == KIND_TOP:
            return f"Face(top, n={self.n})"
        tag = "K" if self.kind == KIND_SIMPLEX else "L"
        return f"Face({tag}({self.point.signs()}, {set(self.mask.coords())}))"

    def vertices(self):
        return [Vertex(self.n, b) for b in self.key]


def key_kind(n: int, key: tuple) -> str:
    """The kind of the face with this key, read off the key alone."""
    return _classify(n, key)[0]


@lru_cache(maxsize=None)
def _points_and_masks(n: int) -> tuple:
    """One Vertex per bit pattern and one Mask per coordinate set, shared by the descriptors."""
    return [Vertex(n, b) for b in range(1 << n)], [Mask(n, b) for b in range(1 << n)]


def describe(lattice, key: tuple) -> FaceDescriptor:
    """The descriptor of the face with this key, built from the key alone.

    A simplex is named by its opposite point (``_opposite_point``), a half
    cube or the top cell by its smallest vertex.
    """
    n = lattice.n
    points, masks = _points_and_masks(n)
    kind, span = _classify(n, key)
    mask = None if kind == KIND_VERTEX else masks[span]
    if kind == KIND_SIMPLEX:
        dim, point = len(key) - 1, _opposite_point(key)
    else:
        dim, point = span.bit_count(), key[0]
    return FaceDescriptor(kind, n, points[point], mask, dim, key)


def lattice_faces(lattice) -> list:
    """The descriptors of the lattice's faces per dimension, in key order."""
    return [[describe(lattice, key) for key in keys] for keys in lattice.keys]


def is_face(lattice, key: tuple) -> bool:
    """Whether ``key`` is the key of a face of the lattice, by its ``positions`` dicts."""
    return any(key in lattice.positions(d) for d in range(lattice.n + 1))


def face_of(lattice, key) -> FaceDescriptor:
    """The descriptor of the lattice's face with this key; KeyError for any other key."""
    key = tuple(key)
    if not is_face(lattice, key):
        raise KeyError(key)
    return describe(lattice, key)


def intersection(lattice, f: FaceDescriptor, g: FaceDescriptor):
    """The face of the lattice on the common vertices of f and g, or None when disjoint."""
    if not (is_face(lattice, f.key) and is_face(lattice, g.key)):
        raise ValueError("faces do not belong to this lattice")
    other = set(g.key)
    common = tuple(b for b in f.key if b in other)  # f.key is sorted
    if not common:
        return None
    if not is_face(lattice, common):
        raise ValueError("vertex-set intersection is not a face")
    return describe(lattice, common)


def rank_mod_p(nrows: int, ncols: int, triplets, p: int) -> int:
    """Rank of an integer matrix given by (row, col, value) triplets over the prime field F_p."""
    if linalg._prime_factors(p) != [p]:
        raise ValueError(f"modulus must be a prime, got {p!r}")
    return linalg.eliminate(nrows, ncols, linalg.triplet_columns(ncols, triplets), p)[0][p]


def reference_unit_phase(rows, cols, m):
    """Unit pivots mod m of sparse rows {r: {c: v}} with columns {c: {r}}, both reduced in place.

    Yields (row, column, value, rest) as ``halfcube.linalg._unit_phase``
    does, with the same choices: the sparsest live column holding a unit
    (gcd(v, m) = 1), ties by index, its unit in the shortest row, ties by
    index.  Every pivot, alone in its row or not, runs the one update loop.
    """
    counts = {c: len(s) for c, s in cols.items()}
    heap = [(cnt, c) for c, cnt in counts.items() if cnt]
    heapify(heap)
    stalled = set()  # columns popped without a unit and not pushed since
    while heap:
        cnt, c = heappop(heap)
        if counts.get(c) != cnt:
            continue
        best = None
        for r in cols[c]:
            if gcd(rows[r][c], m) == 1:
                score = (len(rows[r]), r)
                if best is None or score < best:
                    best = score
        if best is None:
            stalled.add(c)
            continue
        pr = best[1]
        prow = rows.pop(pr)
        pv = prow.pop(c)
        inv = pow(pv, -1, m) if m else pv
        for r in cols.pop(c):
            if r == pr:
                continue
            row = rows[r]
            w = -row.pop(c) * inv
            if m:
                w %= m
            for cc, x in prow.items():
                cur = row.get(cc, 0) + w * x
                if m:
                    cur %= m
                if cur:
                    row[cc] = cur
                    cols[cc].add(r)
                elif cc in row:  # mod a composite m, w * x itself may be 0
                    del row[cc]
                    cols[cc].discard(r)
            if not row:
                del rows[r]
        del counts[c]
        for cc in prow:
            col = cols[cc]
            col.discard(pr)
            # the row operations wrote into cc: a stalled cc may hold a unit now
            if len(col) != counts[cc] or cc in stalled:
                stalled.discard(cc)
                counts[cc] = len(col)
                if col:
                    heappush(heap, (len(col), cc))
        yield pr, c, pv, prow


def even_vertices(n: int):
    """All half cube vertices of dimension n, in increasing bit order."""
    return [Vertex(n, b) for b in range(1 << n) if b.bit_count() % 2 == 0]


def odd_vertices(n: int):
    return [Vertex(n, b) for b in range(1 << n) if b.bit_count() % 2 == 1]


def even_bits(n):
    return [b for b in range(1 << n) if b.bit_count() % 2 == 0]


def graph_neighbors(n):
    """Adjacency of the distance-2 graph on the even vertices."""
    vs = even_bits(n)
    idx = {b: i for i, b in enumerate(vs)}
    nbr = {b: set() for b in vs}
    for i, a in enumerate(vs):
        for b in vs[i + 1:]:
            if (a ^ b).bit_count() == 2:
                nbr[a].add(b)
                nbr[b].add(a)
    return vs, idx, nbr


def brute_force_cliques(n, size):
    """All cliques of the given size, as frozensets of vertex bits."""
    vs, _, nbr = graph_neighbors(n)
    out = set()

    def grow(clique, candidates, want):
        if want == 0:
            out.add(frozenset(clique))
            return
        for v in sorted(candidates):
            grow(clique + [v], {u for u in candidates if u > v and u in nbr[v]}, want - 1)

    grow([], set(vs), size)
    return out


def extends_to_larger_clique(n, clique_bits):
    """Does this clique extend by one more mutually adjacent vertex?"""
    vs, _, nbr = graph_neighbors(n)
    members = set(clique_bits)
    for v in vs:
        if v in members:
            continue
        if all(v in nbr[u] for u in members):
            return True
    return False


def dense_rank(rows):
    """Rank over Q by plain fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def dense_rank_mod(rows, p):
    a = [[x % p for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        for i in range(nr):
            if i != r and a[i][c]:
                m = (-a[i][c] * inv) % p
                a[i] = [(x + m * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def dense_det(rows):
    """Determinant of a square integer matrix by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def invariant_factors(rows):
    """Nonzero invariant factors from the determinantal divisors.

    The k-th determinantal divisor d_k is the gcd of all k x k minors, and
    the k-th invariant factor is d_k / d_(k-1); the number of minors grows
    fast, so this is for matrices of a few rows and columns.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                d = gcd(d, dense_det([[rows[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def triplets_to_dense(nrows, ncols, trip):
    out = [[0] * ncols for _ in range(nrows)]
    for r, c, v in trip:
        out[r][c] += v
    return out


def dense_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def reference_orbits(n, extended=False):
    """Face orbits per dimension by breadth-first closure of descriptor images.

    Each orbit is (smallest key, size, kind), with kind "mixed" for an orbit
    of several kinds; orbits are listed in the order of their smallest key.
    """
    from halfcube.faces import build_face_lattice

    lattice = build_face_lattice(n)
    moves = [lambda f, g=g: act_on_face(g, f) for g in coxeter_generators(n)]
    if extended:
        sp = SpecialReflection4()
        moves.append(lambda f: face_image_by_vertices(sp, f, lattice))
    out = []
    for dim_faces in lattice_faces(lattice):
        seen = set()
        dim_orbits = []
        for f in dim_faces:
            if f.key in seen:
                continue
            orbit = {f.key: f}
            frontier = [f]
            while frontier:
                nxt = []
                for x in frontier:
                    for move in moves:
                        y = move(x)
                        if y.key not in orbit:
                            orbit[y.key] = y
                            nxt.append(y)
                frontier = nxt
            seen.update(orbit)
            kinds = {y.kind for y in orbit.values()}
            kind = kinds.pop() if len(kinds) == 1 else "mixed"
            dim_orbits.append((min(orbit), len(orbit), kind))
        out.append(sorted(dim_orbits))
    return out


def dense_smith_with_transforms(dense):
    """Smith normal form of a small dense matrix with U M V = D, by dense row and column operations.

    The pivot is the entry of smallest (|value|, row, column) in the live
    block; its column and row are cleared by floor-quotient operations,
    swapping in any remainder, and a row with an entry the pivot does not
    divide is added to the pivot row.  Returns (factors, U, Uinv, V, Vinv):
    the factors are the reference for halfcube.linalg.smith_normal_form,
    and the rows of U past the rank span a matrix's integer left kernel.
    """
    m = len(dense)
    n = len(dense[0]) if m else 0
    D = [list(row) for row in dense]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(dst, src, mult):
        # D_dst += mult * D_src, tracked in U (and inverse op in Uinv)
        D[dst] = [a + mult * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + mult * b for a, b in zip(U[dst], U[src])]
        for row in Uinv:
            row[src] -= mult * row[dst]

    def col_op(dst, src, mult):
        for row in D:
            row[dst] += mult * row[src]
        for row in V:
            row[dst] += mult * row[src]
        Vinv[src] = [a - mult * b for a, b in zip(Vinv[src], Vinv[dst])]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_negate(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for row in Uinv:
            row[i] = -row[i]

    factors = []
    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j]:
                    score = (abs(D[i][j]), i, j)
                    if pivot is None or score < pivot[0]:
                        pivot = (score, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        while True:
            restart = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, -q)
                    if D[i][t]:
                        row_swap(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, -q)
                    if D[t][j]:
                        col_swap(t, j)
                        restart = True
            if restart:
                continue
            v = D[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % v:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, 1)
        if D[t][t] < 0:
            row_negate(t)
        factors.append(D[t][t])
        t += 1
    return factors, U, Uinv, V, Vinv


# ---------------------------------------------------------------------------
# Faces from (v, S), one descriptor at a time


def _l_key(base_bits: int, mask_bits: int) -> tuple:
    out = []
    sub = mask_bits
    while True:
        if sub.bit_count() % 2 == 0:
            out.append(base_bits ^ sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask_bits
    out.sort()
    return tuple(out)


def vertex_face(v: Vertex) -> FaceDescriptor:
    if not v.is_even:
        raise ValueError("face vertices have even parity")
    return FaceDescriptor(KIND_VERTEX, v.n, v, None, 0, (v.bits,))


def simplex_face(v_opp: Vertex, mask: Mask) -> FaceDescriptor:
    """K(v', S) as a face; |S| >= 2.  Edges get the smaller opposite point."""
    if v_opp.n != mask.n:
        raise ValueError("dimension mismatch between vertex and mask")
    if v_opp.is_even:
        raise ValueError("the opposite point must have odd parity")
    if mask.size < 2:
        raise ValueError("simplex faces need |S| >= 2")
    bits = v_opp.bits
    if mask.size == 2:
        # both opposite points describe the same edge; keep the smaller
        bits = min(bits, bits ^ mask.bits)
    return FaceDescriptor(
        KIND_SIMPLEX, v_opp.n, Vertex(v_opp.n, bits), mask, mask.size - 1, _k_key(bits, mask.bits)
    )


def halfcube_face(v_base: Vertex, mask: Mask) -> FaceDescriptor:
    """L(v, S) as a face; 3 <= |S| <= n, where |S| = n is the top cell."""
    if v_base.n != mask.n:
        raise ValueError("dimension mismatch between vertex and mask")
    if not v_base.is_even:
        raise ValueError("the base point must have even parity")
    if mask.size < 3:
        raise ValueError("half-cube faces need |S| >= 3")
    if mask.size == v_base.n:
        return top_face(v_base.n)
    key = _l_key(v_base.bits, mask.bits)
    base = Vertex(v_base.n, key[0])
    return FaceDescriptor(KIND_HALFCUBE, v_base.n, base, mask, mask.size, key)


def top_face(n: int) -> FaceDescriptor:
    key = tuple(b for b in range(1 << n) if b.bit_count() % 2 == 0)
    base = Vertex(n, 0)
    return FaceDescriptor(KIND_TOP, n, base, Mask.full(n), n, key)


# ---------------------------------------------------------------------------
# The type-D action on descriptors


def mask_image(g, mask: Mask) -> Mask:
    """The coordinate set g's permutation moves ``mask`` to."""
    bits = 0
    for i in range(g.n):
        if mask.bits >> i & 1:
            bits |= 1 << g.perm[i]
    return Mask(g.n, bits)


def vector_image(g, vec):
    """The linear action of the signed permutation g on an n-vector."""
    out = [0] * g.n
    for i, x in enumerate(vec):
        t = g.perm[i]
        out[t] = g.signs[t] * x
    return out


class SpecialReflection4:
    """The n = 4 reflection perpendicular to (1,1,1,1), by its vector formula.

    x -> x - (sum(x) / 2) (1,1,1,1); it is not a signed permutation, and
    halfcube.symmetry tabulates it as SPECIAL_REFLECTION_4.
    """

    n = 4

    def vector_image(self, vec):
        if len(vec) != 4:
            raise ValueError("dimension mismatch")
        half = sum(vec)
        if half % 2:
            raise ValueError("image is not integral")
        half //= 2
        return [x - half for x in vec]

    def vertex_image(self, v: Vertex) -> Vertex:
        return Vertex.from_signs(self.vector_image(v.signs()))


def act_on_vertex(g, v: Vertex) -> Vertex:
    """The image of v under a signed permutation or another vertex map."""
    if v.n != g.n:
        raise ValueError("dimension mismatch")
    if isinstance(g, SignedPermutation):
        return Vertex.from_signs(vector_image(g, v.signs()))
    return g.vertex_image(v)


def coxeter_generators(n: int) -> list:
    """Adjacent transpositions plus the double sign flip at the last two coordinates."""
    gens = [SignedPermutation.transposition(n, i, i + 1) for i in range(1, n)]
    gens.append(SignedPermutation.sign_flips(n, (n - 1, n)))
    return gens


def group_order_by_closure(gens: list) -> int:
    """The order of the group the signed permutations gens generate, by breadth-first closure."""
    seen = {SignedPermutation.identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = h * g
                if gh not in seen:
                    seen.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return len(seen)


def act_on_face(g, f):
    """Transport a face descriptor: K goes to K, L to L, kinds preserved."""
    if not g.is_even_signed:
        raise ValueError("only even-signed permutations act on the half cube")
    if g.n != f.n:
        raise ValueError("dimension mismatch")
    if f.kind == KIND_VERTEX:
        return vertex_face(act_on_vertex(g, f.point))
    if f.kind == KIND_SIMPLEX:
        return simplex_face(act_on_vertex(g, f.point), mask_image(g, f.mask))
    if f.kind == KIND_HALFCUBE:
        return halfcube_face(act_on_vertex(g, f.point), mask_image(g, f.mask))
    return top_face(f.n)


def face_image_by_vertices(g, f, lattice):
    """Image of a face under any vertex map that stabilizes the polytope."""
    key = tuple(sorted(act_on_vertex(g, Vertex(lattice.n, b)).bits for b in f.key))
    if not is_face(lattice, key):
        raise ValueError("image vertex set is not a face")
    return describe(lattice, key)


# ---------------------------------------------------------------------------
# The orientation convention, and incidence signs by the full Gram
# determinant under any reorientation


def det_sign(mat) -> int:
    """Sign of the determinant of a small square integer matrix (Bareiss)."""
    a = [list(row) for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    last = a[n - 1][n - 1]
    if last == 0:
        return 0
    return sign if last > 0 else -sign


def _coords(n: int, bits: int) -> tuple:
    return tuple(1 - 2 * (bits >> i & 1) for i in range(n))


def _reduce_gcd(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        return [x // g for x in vec]
    return list(vec)


class _IntEchelon:
    """Incremental affine-independence test over the integers."""

    def __init__(self):
        self.rows = []  # (pivot index, reduced integer row), pivot ascending

    def try_add(self, vec) -> bool:
        vec = list(vec)
        for piv, row in self.rows:
            if vec[piv]:
                a, b = row[piv], vec[piv]
                vec = [x * a - y * b for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        vec = _reduce_gcd(vec)
        self.rows.append((piv, vec))
        self.rows.sort(key=lambda t: t[0])
        return True


_orient_memo = {}  # (n, key) -> orientation tuple


def orientation_tuple(face) -> tuple:
    """Lexicographically smallest affinely independent vertex subsequence."""
    if len(face.key) == face.dim + 1:
        # dim + 1 vertices spanning a dim-face are affinely independent
        return face.key
    n = face.n
    got = _orient_memo.get((n, face.key))
    if got is not None:
        return got
    base = face.key[0]
    base_coords = _coords(n, base)
    chosen = [base]
    ech = _IntEchelon()
    for b in face.key[1:]:
        if len(chosen) == face.dim + 1:
            break
        vec = [x - y for x, y in zip(_coords(n, b), base_coords)]
        if ech.try_add(vec):
            chosen.append(b)
    if len(chosen) != face.dim + 1:
        raise AssertionError(f"face {face!r} did not span its dimension")
    got = tuple(chosen)
    _orient_memo[n, face.key] = got
    return got


def orientation_of(cx, face) -> tuple:
    """The ordered vertex tuple whose edge vectors orient a cell of ``cx``."""
    if cx.cell_dim(face.key) != face.dim:  # cell_dim raises on a key that is not a cell
        raise ValueError(f"{face!r} is not a cell of this complex in its dimension")
    return orientation_tuple(face)


def orientation_basis(n, tup):
    """The edge vectors from the first vertex of an orientation tuple to the others."""
    base = _coords(n, tup[0])
    return [[x - y for x, y in zip(_coords(n, b), base)] for b in tup[1:]]


def orientation_sign(basis, frame) -> int:
    """+1 when ``frame`` is oriented like ``basis``, -1 when opposite.

    Both are lists of vectors spanning the same space: the sign of the
    determinant of their Gram matrix <basis_i, frame_j> compares them.
    """
    s = det_sign([[sum(a * b for a, b in zip(row, col)) for col in frame] for row in basis])
    if s == 0:
        raise AssertionError("degenerate orientation comparison")
    return s


def frame_sign(face) -> int:
    """sign det(P|_S) of a half-cube or top cell on S: its orientation basis P
    against the frame (e_i, i in S ascending)."""
    cols = [i for i in range(face.n) if face.mask.bits >> i & 1]
    basis = orientation_basis(face.n, orientation_tuple(face))
    return det_sign([[vec[i] for i in cols] for vec in basis])


def _flip(tup):
    return tup[:-2] + (tup[-1], tup[-2])


def _coord_sums(n: int, face) -> list:
    """Sum of the +-1 vertex coordinates of ``face``, from per-bit counts."""
    key = face.key
    m = len(key)
    return [m - 2 * sum(b >> i & 1 for b in key) for i in range(n)]


def gram_sign(lattice, parent, child, flip_parent=False, flip_child=False) -> int:
    """The incidence sign from the Gram determinant of the full n-length bases.

    A flipped cell swaps the last two vertices of its orientation tuple,
    which reverses its orientation.
    """
    n = lattice.n
    ptup = orientation_tuple(parent)
    ctup = orientation_tuple(child)
    if flip_parent:
        ptup = _flip(ptup)
    if flip_child and len(ctup) >= 2:
        ctup = _flip(ctup)
    pb = orientation_basis(n, ptup)  # d vectors
    cb = orientation_basis(n, ctup)  # d-1 vectors

    # outward direction: from the parent barycenter toward the child's,
    # scaled to stay integral; its component along the cb columns does not
    # change the determinant, so it is used as is
    sum_p = _coord_sums(n, parent)
    sum_c = _coord_sums(n, child)
    m_p = len(parent.key)
    m_c = len(child.key)
    w = [m_p * a - m_c * b for a, b in zip(sum_c, sum_p)]
    if not any(w):
        raise AssertionError("degenerate outward direction")
    return orientation_sign(pb, [w] + cb)


def random_flip_set(cx, rng) -> frozenset:
    """A random selection of positive-dimensional cells to reorient."""
    picked = []
    for d in range(1, cx.top_dim + 1):
        for cell in cx.cells[d]:
            if rng.random() < 0.5:
                picked.append(cell)
    return frozenset(picked)


def reoriented_matrices(cx, flips) -> list:
    """The boundary matrices of ``cx`` with the cells keyed in ``flips`` reoriented.

    Every sign is a gram_sign; asserts boundary-of-boundary = 0.  Nothing
    the library holds or caches is read or replaced.
    """
    lat = cx.lattice
    mats = []
    for d in range(1, cx.top_dim + 1):
        row_of = cx.index[d - 1]
        # facets come in key order, which is row order
        entries = tuple(
            (row_of[g], j, gram_sign(lat, describe(lat, c), describe(lat, g), c in flips, g in flips))
            for j, c in enumerate(cx.cells[d])
            for g in lat.facets(c)
        )
        mats.append(BoundaryMatrix(d, len(cx.cells[d - 1]), len(cx.cells[d]), entries))
    assert_boundary_squared_zero(mats)
    return mats


def reference_lattice(n):
    """Every face descriptor of the half cube, per dimension in key order.

    One descriptor per face, enumerated from (v, S): each simplex K(v', S)
    and each half cube L(v, S) gets its own Vertex and its key from the
    sorting key routines _k_key and _l_key.
    """
    faces = [[] for _ in range(n + 1)]
    faces[0] = [vertex_face(v) for v in even_vertices(n)]

    odd_bits = [b for b in range(1 << n) if b.bit_count() % 2 == 1]
    for size in range(2, n + 1):
        dim = size - 1
        bucket = faces[dim]
        for coords in combinations(range(n), size):
            mask_bits = 0
            for c in coords:
                mask_bits |= 1 << c
            mask = Mask(n, mask_bits)
            for v in odd_bits:
                if size == 2 and v > v ^ mask_bits:
                    continue  # the partner opposite point names the same edge
                bucket.append(
                    FaceDescriptor(
                        KIND_SIMPLEX, n, Vertex(n, v), mask, dim, _k_key(v, mask_bits)
                    )
                )

    for size in range(3, n):
        for coords in combinations(range(n), size):
            mask_bits = 0
            for c in coords:
                mask_bits |= 1 << c
            mask = Mask(n, mask_bits)
            outside = [i for i in range(n) if not mask_bits >> i & 1]
            low = mask_bits & -mask_bits
            for pattern in range(1 << len(outside)):
                bits = 0
                for j, i in enumerate(outside):
                    if pattern >> j & 1:
                        bits |= 1 << i
                # force an even base point with these outside values
                if bits.bit_count() % 2 == 1:
                    bits |= low
                key = _l_key(bits, mask_bits)
                faces[size].append(
                    FaceDescriptor(KIND_HALFCUBE, n, Vertex(n, key[0]), mask, size, key)
                )

    faces[n].append(top_face(n))
    for dim_faces in faces:
        dim_faces.sort(key=lambda f: f.key)
    return faces


def face_from_vertices(verts):
    """Rebuild the descriptor of a face from its vertex set.

    Simplex faces are cliques; half-cube faces above the tetrahedron are
    recognized by their 2^(|S|-1) size and reproduced for verification.
    """
    verts = sorted(verts, key=lambda v: v.bits)
    n = verts[0].n
    m = len(verts)
    key = tuple(v.bits for v in verts)
    if m == 1:
        return vertex_face(verts[0])
    if m == (1 << (n - 1)):
        f = top_face(n)
        if f.key == key:
            return f
        raise ValueError("vertex set is not a face")
    c = CliqueSet.of(verts, require_clique=False)
    d = disagreement_mask(c)
    if 3 <= d.size < n and m == 1 << (d.size - 1):
        f = halfcube_face(verts[0], d)
        if f.key == key:
            return f
    if m == 2:
        if d.size != 2:
            raise ValueError("vertex set is not a face")
        return simplex_face(verts[0].flip(d.coords()[0]), d)
    if m == d.size:
        cls = classify_clique(c)
        if cls.kind == "K":
            return simplex_face(cls.point, cls.mask)
    raise ValueError("vertex set is not a face")


def simplex_contains_point(f, point) -> bool:
    """Exact membership of a rational point in the hull of a simplex face.

    The hull of K(v', S) is cut out by three conditions on x:
      (a) x_i = v'_i off the mask,
      (b) sgn(v'_i) (x_i - v'_i) <= 0 everywhere,
      (c) sum over S of sgn(v'_i) (x_i - v'_i) = -2.
    """
    if f.kind != KIND_SIMPLEX:
        raise ValueError("membership test applies to simplex faces")
    x = [Fraction(t) for t in point]
    if len(x) != f.n:
        raise ValueError("point dimension mismatch")
    v = f.point.signs()
    total = Fraction(0)
    for i in range(1, f.n + 1):
        vi = v[i - 1]
        d = vi * (x[i - 1] - vi)
        if i not in f.mask:
            if x[i - 1] != vi:
                return False
        if d > 0:
            return False
        if i in f.mask:
            total += d
    return total == -2


def echelon_orientation_tuple(n, key, dim):
    """The lexicographically smallest affinely independent subsequence of ``key``.

    The greedy search of orientation_tuple above, with the independence
    test done by dense_rank on the +-1 edge vectors.
    """

    def coords(b):
        return [1 - 2 * (b >> i & 1) for i in range(n)]

    base = coords(key[0])
    chosen = [key[0]]
    edges = []
    for b in key[1:]:
        if len(chosen) == dim + 1:
            break
        vec = [x - y for x, y in zip(coords(b), base)]
        if dense_rank(edges + [vec]) > len(edges):
            edges.append(vec)
            chosen.append(b)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Cliques of the half cube graph, in two descriptor families:
#
#   K(v', S)  -- the |S| even vertices differing from the odd vertex v' in
#                exactly one coordinate i in S,
#   L(v, S)   -- the 2^(|S|-1) even vertices agreeing with the even vertex v
#                outside S.


@dataclass(frozen=True)
class CliqueSet:
    """A set of half cube vertices, kept as a sorted tuple.

    Sets built by clique_K, and by clique_L with |S| <= 3, are cliques;
    clique_L with a larger mask yields the vertex set of a half-cube face,
    which is not a clique.  ensure_clique() checks the pairwise condition.
    """

    vertices: tuple = field()

    @classmethod
    def of(cls, vertices, require_clique: bool = True) -> "CliqueSet":
        c = cls(tuple(sorted(set(vertices), key=lambda v: v.bits)))
        if require_clique:
            c.ensure_clique()
        return c

    def __post_init__(self):
        vs = self.vertices
        if not vs:
            raise ValueError("empty clique")
        n = vs[0].n
        for v in vs:
            if v.n != n:
                raise ValueError("mixed dimensions in clique")
            if not v.is_even:
                raise ValueError(f"vertex {v.signs()} is not a half cube vertex")

    def ensure_clique(self):
        vs = self.vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if hamming_distance(vs[i], vs[j]) != 2:
                    raise ValueError(
                        f"not a clique: {vs[i].signs()} and {vs[j].signs()} "
                        "are not at Hamming distance 2"
                    )

    @property
    def n(self) -> int:
        return self.vertices[0].n

    @property
    def key(self) -> tuple:
        return tuple(v.bits for v in self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v):
        return v in self.vertices


@dataclass(frozen=True)
class CliqueClassification:
    """Result of classify_clique: kind is 'K', 'L' or 'small'."""

    kind: str
    point: Vertex | None
    mask: Mask | None
    key: tuple


def clique_K(v_opp: Vertex, mask: Mask) -> CliqueSet:
    """The |S|-clique of even vertices differing from the odd vertex v' in one coordinate of S."""
    if v_opp.n != mask.n:
        raise ValueError("dimension mismatch between vertex and mask")
    if v_opp.is_even:
        raise ValueError("the opposite point must have odd parity")
    if mask.size == 0:
        raise ValueError("empty mask")
    return CliqueSet.of(v_opp.flip(i) for i in mask)


def clique_L(v_base: Vertex, mask: Mask) -> CliqueSet:
    """The 2^(|S|-1) even vertices agreeing with the even vertex v outside S.

    A clique exactly when |S| <= 3; for larger masks this is the vertex set
    of a half-cube shaped face.
    """
    if v_base.n != mask.n:
        raise ValueError("dimension mismatch between vertex and mask")
    if not v_base.is_even:
        raise ValueError("the base point must have even parity")
    out = []
    sub = mask.bits
    while True:
        if sub.bit_count() % 2 == 0:
            out.append(Vertex(v_base.n, v_base.bits ^ sub))
        if sub == 0:
            break
        sub = (sub - 1) & mask.bits
    return CliqueSet.of(out, require_clique=mask.size <= 3)


def disagreement_mask(c: CliqueSet) -> Mask:
    """Coordinates at which not all members of the clique agree."""
    acc = 0
    first = c.vertices[0].bits
    for v in c.vertices[1:]:
        acc |= first ^ v.bits
    return Mask(c.n, acc)


def recover_K_descriptor(c: CliqueSet) -> tuple:
    """Recover the unique (v', S) with clique_K(v', S) == c, for |c| >= 3.

    Majority vote per coordinate: all members but at most one share each
    coordinate value, so the shared values assemble the opposite point.
    """
    m = len(c)
    if m < 3:
        raise ValueError("descriptor is not unique for cliques of size < 3")
    n = c.n
    bits = 0
    for i in range(n):
        ones = sum(1 for v in c.vertices if v.bits >> i & 1)
        if 2 * ones > m:
            bits |= 1 << i
    v_opp = Vertex(n, bits)
    mask_bits = 0
    for v in c.vertices:
        diff = v.bits ^ bits
        if diff.bit_count() != 1:
            raise ValueError("clique is not of K-form")
        mask_bits |= diff
    mask = Mask(n, mask_bits)
    if v_opp.is_even or mask.size != m:
        raise ValueError("clique is not of K-form")
    return v_opp, mask


def classify_clique(c: CliqueSet) -> CliqueClassification:
    """Sort a clique into K-form, L-form, or the ambiguous small sizes.

    Cliques of size >= 5 and all triangles are K-form; a 4-clique is K-form
    when its members disagree in four coordinates and L-form when they
    disagree in three.  Sizes <= 2 are identified by vertex set only.
    """
    c.ensure_clique()
    m = len(c)
    if m <= 2:
        return CliqueClassification("small", None, None, c.key)
    if m == 4:
        d = disagreement_mask(c)
        if d.size == 3:
            base = c.vertices[0]
            return CliqueClassification("L", base, d, c.key)
        if d.size != 4:
            raise ValueError("4-clique disagrees in neither 3 nor 4 coordinates")
    v_opp, mask = recover_K_descriptor(c)
    return CliqueClassification("K", v_opp, mask, c.key)


def _masks_of_size(n: int, size: int):
    for coords in combinations(range(1, n + 1), size):
        yield Mask.of(n, *coords)


def enumerate_cliques(n: int, size: int) -> list:
    """All distinct cliques of the given size, generated from descriptors.

    K-descriptors cover every size; L-descriptors contribute the second
    family of 4-cliques.  Duplicates (sizes <= 2 have several descriptors)
    are removed by vertex-set key and the result is key-sorted.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if size < 1:
        raise ValueError("need size >= 1")
    seen = {}
    if size <= n:
        for v_opp in odd_vertices(n):
            for mask in _masks_of_size(n, size):
                c = clique_K(v_opp, mask)
                seen[c.key] = c
    if size == 4:
        for v in even_vertices(n):
            for mask in _masks_of_size(n, 3):
                c = clique_L(v, mask)
                seen[c.key] = c
    return [seen[k] for k in sorted(seen)]


EMPTY_CELL = ()  # the (-1)-dimensional empty cell, always unpaired


def hasse_acyclicity(cells_by_dim, facets, pairs) -> AcyclicityCertificate:
    """Topologically sort the whole reoriented Hasse digraph.

    cells_by_dim: {dim: [key, ...]}; facets: {key: [facet keys]} (facets of
    dimension-0 cells are implied to be the empty cell); pairs: (lower key,
    upper key) list.  Unmatched edges point from facet to cell; matched
    ones are reversed.  Returns either acyclicity or an explicit cycle.
    """
    matched = {(lo, up) for lo, up in pairs}
    # integer node ids in (dimension, listed key order): deterministic ties
    nodes = [EMPTY_CELL]
    for dim in sorted(cells_by_dim):
        nodes.extend(cells_by_dim[dim])
    node_id = {key: i for i, key in enumerate(nodes)}
    succ = [[] for _ in nodes]
    indeg = [0] * len(nodes)
    for dim in sorted(cells_by_dim):
        for key in cells_by_dim[dim]:
            i = node_id[key]
            if dim <= 0:
                succ[0].append(i)
                indeg[i] += 1
                continue
            for fk in facets.get(key, ()):
                j = node_id[fk]
                if (fk, key) in matched:
                    succ[i].append(j)
                    indeg[j] += 1
                else:
                    succ[j].append(i)
                    indeg[i] += 1

    ready = []
    for i, d in enumerate(indeg):
        if d == 0:
            heappush(ready, i)
    remaining = len(nodes)
    while ready:
        i = heappop(ready)
        remaining -= 1
        for nxt in succ[i]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heappush(ready, nxt)
    if remaining == 0:
        return AcyclicityCertificate(True)

    # every leftover node keeps a leftover predecessor; walk back until a repeat
    leftover = {i for i, d in enumerate(indeg) if d > 0}
    pred = {i: [] for i in leftover}
    for i in leftover:
        for nxt in succ[i]:
            if nxt in leftover:
                pred[nxt].append(i)
    start = min(leftover)
    trail = [start]
    seen_at = {start: 0}
    while True:
        prv = min(pred[trail[-1]])
        if prv in seen_at:
            cycle = trail[seen_at[prv]:]
            cycle.reverse()
            return AcyclicityCertificate(False, tuple(nodes[i] for i in cycle))
        seen_at[prv] = len(trail)
        trail.append(prv)
