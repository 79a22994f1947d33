"""The face lattice of the n-dimensional half cube.

Faces are stored by descriptor and identified by their canonical key, the
sorted tuple of vertex bit patterns.  Four kinds:

  vertex    -- a single even vertex, dimension 0
  simplex   -- K(v', S) with odd opposite point v' and |S| >= 2; dim |S|-1
  halfcube  -- L(v, S) with even base point and 3 <= |S| < n; dim |S|
  top       -- the polytope itself, dimension n

Per-dimension census (k-faces, 0 <= k < n):

  N_0 = 2^(n-1)                     N_1 = 2^(n-2) C(n,2)
  N_2 = 2^(n-1) C(n,3)              N_k = 2^(n-1) C(n,k+1) + 2^(n-k) C(n,k)
                                          for 3 <= k < n
plus the single n-face.
"""

from __future__ import annotations

from math import comb

from .core import MAX_DIM, Mask, Vertex, even_vertices

# the largest lattice built: n = 11 (2,193,403 faces) fits, n = 12 (8,731,633) does not
MAX_FACES = 4_000_000

KIND_VERTEX = "vertex"
KIND_SIMPLEX = "simplex"
KIND_HALFCUBE = "halfcube"
KIND_TOP = "top"


class FaceDescriptor:
    """One face; equality and hashing go through the canonical vertex key."""

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


def _k_key(v_bits: int, mask_bits: int) -> tuple:
    out = []
    m = mask_bits
    while m:
        b = m & -m
        out.append(v_bits ^ b)
        m ^= b
    out.sort()
    return tuple(out)


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


def face_count(n: int, k: int) -> int:
    """Closed-form number of k-faces."""
    if k == 0:
        return 1 << (n - 1)
    if k == 1:
        return (1 << (n - 2)) * comb(n, 2)
    if k == 2:
        return (1 << (n - 1)) * comb(n, 3)
    if 3 <= k < n:
        return (1 << (n - 1)) * comb(n, k + 1) + (1 << (n - k)) * comb(n, k)
    if k == n:
        return 1
    raise ValueError(f"dimension {k} outside 0..{n}")


def face_counts(n: int) -> list:
    return [face_count(n, k) for k in range(n + 1)]


def check_face_budget(n: int) -> None:
    """Refuse, before building anything, a lattice of more than MAX_FACES faces."""
    total = sum(face_counts(n))
    if total > MAX_FACES:
        raise ValueError(
            f"the n = {n} half cube has {total} faces, above the limit of {MAX_FACES}"
        )


def face_counts_by_type(n: int) -> list:
    """Per-dimension (simplex-count, halfcube-count); the top cell counts as half cube."""
    out = []
    for k in range(n + 1):
        if k < 3:
            out.append((face_count(n, k), 0))
        elif k < n:
            out.append(((1 << (n - 1)) * comb(n, k + 1), (1 << (n - k)) * comb(n, k)))
        else:
            out.append((0, 1))
    return out


class FaceLattice:
    """All faces of the half cube, indexed by canonical vertex key."""

    def __init__(self, n: int, faces_by_dim: list):
        self.n = n
        self.faces = faces_by_dim
        self.index = {f.key: f for dim_faces in faces_by_dim for f in dim_faces}
        self._facet_memo = {}
        self._orient_memo = {}
        # per half-cube or top parent: its facet signs (complexes.column_signs)
        # and its frame on the coordinate face (complexes._parent_frame)
        self._sign_memo = {}
        self._frame_memo = {}

    def face(self, key) -> FaceDescriptor:
        return self.index[tuple(key)]

    def facets(self, f: FaceDescriptor) -> list:
        """The codimension-1 faces of f, from its vertex key alone.

        A face with dim + 1 vertices (a simplex, or the half-cube
        tetrahedron) loses one vertex at a time.  A larger half cube or the
        top cell, varying on the coordinate set S, has for each i in S the
        two halves of its key with bit i clear and set, and for each odd
        vertex u of its subcube the simplex of the neighbours u ^ (1 << i),
        i in S.
        """
        got = self._facet_memo.get(f.key)
        if got is not None:
            return got
        if f.dim == 0:
            raise ValueError("vertices have no facets")
        key = f.key
        if len(key) == f.dim + 1:
            keys = [key[:i] + key[i + 1 :] for i in range(len(key))]
        else:
            bits = [1 << i for i in range(self.n) if f.mask.bits >> i & 1]
            keys = []
            for bit in bits:
                keys.append(tuple(b for b in key if not b & bit))
                keys.append(tuple(b for b in key if b & bit))
            # b ^ bits[0] runs over the odd vertices of the subcube
            for u in (b ^ bits[0] for b in key):
                keys.append(tuple(sorted(u ^ bit for bit in bits)))
        got = [self.index[k] for k in keys]
        self._facet_memo[f.key] = got
        return got

    def intersection(self, f: FaceDescriptor, g: FaceDescriptor):
        """The face on the common vertices, or None when disjoint."""
        if f.key not in self.index or g.key not in self.index:
            raise ValueError("faces do not belong to this lattice")
        other = set(g.key)
        common = tuple(b for b in f.key if b in other)  # f.key is sorted
        if not common:
            return None
        got = self.index.get(common)
        if got is None:
            raise ValueError("vertex-set intersection is not a face")
        return got

    def counts(self) -> list:
        return [len(fs) for fs in self.faces]


_lattice_cache = {}


def build_face_lattice(n: int) -> FaceLattice:
    """Enumerate every face of the half cube; cached per dimension n."""
    if not 4 <= n <= MAX_DIM:
        raise ValueError(f"need 4 <= n <= {MAX_DIM}")
    got = _lattice_cache.get(n)
    if got is not None:
        return got
    check_face_budget(n)

    import itertools

    faces = [[] for _ in range(n + 1)]
    faces[0] = [vertex_face(v) for v in even_vertices(n)]

    odd_bits = [b for b in range(1 << n) if b.bit_count() % 2 == 1]
    for size in range(2, n + 1):
        dim = size - 1
        bucket = faces[dim]
        for coords in itertools.combinations(range(n), size):
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
        for coords in itertools.combinations(range(n), size):
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

    lattice = FaceLattice(n, faces)
    counts = lattice.counts()
    expected = face_counts(n)
    if counts != expected:
        raise AssertionError(f"face census mismatch at n={n}: {counts} != {expected}")
    _lattice_cache[n] = lattice
    return lattice
