"""The face lattice of the n-dimensional half cube.

Faces are identified by their canonical key, the sorted tuple of vertex bit
patterns (bit i-1 set means coordinate i is -1; the half cube's vertices
are the patterns with an even number of bits set).  Four kinds:

  vertex    -- a single even vertex, dimension 0
  simplex   -- K(v', S) with odd opposite point v' and |S| >= 2; dim |S|-1
  halfcube  -- L(v, S) with even base point and 3 <= |S| < n; dim |S|
  top       -- the polytope itself, dimension n

The lattice is built keys first, with no per-face sort.  A simplex
K(v', S) with |S| >= 3 is a subsequence of the sorted neighbours of its odd
opposite point v', so the combinations of those neighbours are its sorted
keys.  Edges, half cubes and the top cell are the even vertices of a
subcube h + 2^S (h outside S), and come from one depth-first walk over the
coordinate sets S, which grows S only by a coordinate c above its maximum:
the sorted key of the subcube h + 2^S is that of h + 2^(S-c) followed by
that of h + e_c + 2^(S-c), one tuple concatenation of two keys already
built.  The kind of a face can be read off its key, too: a simplex's |S|
vertices disagree on exactly S, while a half cube's 2^(|S|-1) > |S|
vertices do so on its S.  Past the lattice a cell is its key.

One enumeration, ``_generate``, yields the keys in batches and has two
consumers.  ``build_face_lattice`` joins the batches per dimension, sorts
each dimension's keys once and caches the lattice.  ``face_census`` counts
each batch and its kind split and drops it, so the census neither sorts
nor keeps a lattice, only one batch and the subcube tables along one path
of the walk, whether or not a lattice of that n is built.

Per-dimension census (k-faces, 0 <= k < n):

  N_0 = 2^(n-1)                     N_1 = 2^(n-2) C(n,2)
  N_2 = 2^(n-1) C(n,3)              N_k = 2^(n-1) C(n,k+1) + 2^(n-k) C(n,k)
                                          for 3 <= k < n
plus the single n-face.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import countOf

MAX_DIM = 32  # the largest n that any command or builder accepts

# the largest lattice built: n = 11 (2,193,403 faces) fits, n = 12 (8,731,633) does not.
# It guards the lattices that orbits and the complexes keep: build_face_lattice(11)
# takes 0.6-0.8 s at 231 MB peak RSS.  The census keeps no lattice (`faces --n 11`:
# 0.27-0.43 s at 16 MB over ten fresh processes, each timed from fork to exit with
# its ru_maxrss), but validate_args applies the limit to every command, so
# `faces --n 12` is still refused (shared 2-vCPU x86-64 host, Python 3.11).
MAX_FACES = 4_000_000

KIND_VERTEX = "vertex"
KIND_SIMPLEX = "simplex"
KIND_HALFCUBE = "halfcube"
KIND_TOP = "top"


def _k_key(v_bits: int, mask_bits: int) -> tuple:
    out = []
    m = mask_bits
    while m:
        b = m & -m
        out.append(v_bits ^ b)
        m ^= b
    out.sort()
    return tuple(out)


def face_count(n: int, k: int) -> int:
    """Closed-form number of k-faces: simplices plus half cubes."""
    return sum(_face_split(n, k))


def _face_split(n: int, k: int) -> tuple:
    """(simplex-count, halfcube-count) of the k-faces; the top cell counts as half cube."""
    if k == 0:
        return (1 << (n - 1), 0)
    if k == 1:
        return ((1 << (n - 2)) * comb(n, 2), 0)
    if k == 2:
        return ((1 << (n - 1)) * comb(n, 3), 0)
    if 3 <= k < n:
        return ((1 << (n - 1)) * comb(n, k + 1), (1 << (n - k)) * comb(n, k))
    if k == n:
        return (0, 1)
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
    return [_face_split(n, k) for k in range(n + 1)]


def _span(key: tuple) -> int:
    """The mask bits of the coordinates on which the vertices of this key disagree."""
    first = key[0]
    span = 0
    for b in key:
        span |= first ^ b
    return span


def _classify(n: int, key: tuple) -> tuple:
    """The kind of the face with this key, and the mask bits of the coordinates it spans."""
    span = _span(key)
    size = span.bit_count()
    if len(key) == 1:
        return KIND_VERTEX, span
    if len(key) == size:
        return KIND_SIMPLEX, span
    return (KIND_TOP if size == n else KIND_HALFCUBE), span


def _opposite_point(key: tuple) -> int:
    """The opposite point v' of the simplex K(v', S) with this key.

    Each vertex flips one coordinate of v', so with |S| >= 3, v'_i is set
    exactly where at least two vertices have bit i set.  An edge is named
    by the smaller of its two opposite points.
    """
    if len(key) == 2:
        span = key[0] ^ key[1]
        return key[0] ^ (span & -span)  # the smaller flips the lower coordinate
    once = twice = 0
    for b in key:
        twice |= once & b
        once |= b
    return twice


def simplex_keys(dim: int, keys: list) -> list:
    """The keys of the vertices or simplices among the keys of one dimension, in their order.

    A simplex has dim + 1 vertices and a half cube 2^(dim-1), which differ
    except at dim 3, where the tetrahedra K(v', S), |S| = 4, and L(v, S),
    |S| = 3, are told apart by the XOR of their four vertices.
    """
    if dim == 3:
        # L(v, S), |S| = 3, has the vertices h + q over the even subsets q of
        # S or over the odd ones, h fixed outside S: either way the four q
        # XOR to 0, and so do the four vertices.  K(v', S), |S| = 4, has the
        # vertices v' ^ (1 << i), i in S, which XOR to the mask of S, not 0
        return [k for k in keys if k[0] ^ k[1] ^ k[2] ^ k[3]]
    return [k for k in keys if len(k) == dim + 1]


def kind_split(dim: int, keys: list) -> tuple:
    """(vertex or simplex, half cube or top) counts among the keys of one dimension."""
    # off dim 3 the lengths alone are counted, without a list of the keys
    simp = len(simplex_keys(dim, keys)) if dim == 3 else countOf(map(len, keys), dim + 1)
    return simp, len(keys) - simp


class FaceLattice:
    """All faces of the half cube: ``keys[d]`` lists the d-faces' keys in increasing order.

    ``facets`` takes and returns keys, and ``positions(d)`` (key -> place in
    ``keys[d]``) serves every complex that keeps dimension d whole; it is
    built on first use per dimension and kept.
    """

    def __init__(self, n: int, keys: list):
        self.n = n
        self.keys = keys
        self._positions = [None] * len(keys)

    def positions(self, d: int) -> dict:
        if self._positions[d] is None:
            self._positions[d] = {key: i for i, key in enumerate(self.keys[d])}
        return self._positions[d]

    def facets(self, key: tuple) -> list:
        """The keys of the codimension-1 faces of the face with this key, in key order.

        Computed on every call.  A face with dim + 1 vertices (a simplex, or
        the half-cube tetrahedron, on three coordinates) loses one vertex at
        a time, the last one first (the order of its combinations of all
        but one vertex): that is key order.  A larger half cube
        or the top cell, varying on the coordinate set S, has for each i in
        S the two halves of its key with bit i clear and set, and for each
        odd vertex u of its subcube the simplex of the neighbours
        u ^ (1 << i), i in S; these keys are sorted once.  Key order is row
        order in a boundary column.
        """
        if len(key) == 1:
            raise ValueError("vertices have no facets")
        span = _span(key)
        if len(key) <= span.bit_count() + 1:
            keys = list(combinations(key, len(key) - 1))
        else:
            bits = [1 << i for i in range(self.n) if span >> i & 1]
            keys = []
            for bit in bits:
                keys.append(tuple(b for b in key if not b & bit))
                keys.append(tuple(b for b in key if b & bit))
            # b ^ bits[0] runs over the odd vertices of the subcube
            for u in (b ^ bits[0] for b in key):
                keys.append(tuple(sorted(u ^ bit for bit in bits)))
            keys.sort()
        return keys

    def counts(self) -> list:
        return [len(keys) for keys in self.keys]


_lattice_cache = {}


def _check_size(n: int) -> None:
    """Refuse, before any enumeration, an n out of range or over the face budget."""
    if not 4 <= n <= MAX_DIM:
        raise ValueError(f"need 4 <= n <= {MAX_DIM}")
    check_face_budget(n)


def _generate(n: int):
    """Yield the key of every face of the half cube in (dim, keys) batches, unsorted.

    Vertices come first.  Then a depth-first walk over the coordinate sets S
    yields per S, 2 <= |S| <= n, its edges (|S| = 2), its half cubes L(v, S)
    or the top cell (|S| = n) as one batch; per odd vertex v' and size
    3 <= |S| <= n, the simplices K(v', S) follow as one batch each.  Every key
    holds the one shared int object of each of its vertices.  Joined per
    dimension and sorted, the batches are ``build_face_lattice(n).keys``.
    Callers check n first (``_check_size``).
    """
    ints = list(range(1 << n))  # one int object per vertex, shared by every key
    yield 0, [(b,) for b in ints if not b.bit_count() & 1]
    # the table of S maps each h outside S to the sorted even vertices of the subcube
    # h + 2^S.  S grows only by a coordinate c above its maximum, so each S is reached
    # once, from S minus c; all vertices of the subcube h lie below those of h + e_c,
    # so the key of h in S + c is the key of h in S followed by that of h + e_c.
    # A walk entry is (|S|, the table of S, the next c to add to S)
    walk = [(0, {h: () if h.bit_count() & 1 else (h,) for h in ints}, 0)]
    while walk:
        size, table, c = walk.pop()
        if c + 1 < n:
            walk.append((size, table, c + 1))
        bit = 1 << c
        table = {h: key + table[h | bit] for h, key in table.items() if not h & bit}
        size += 1
        if size >= 2:
            yield (1 if size == 2 else size), list(table.values())
        if c + 1 < n:
            walk.append((size, table, c + 1))
    # K(v', S) for odd v' has the vertices v' ^ (1 << i), i in S: a subsequence of
    # the sorted neighbours of v', so each combination of them is a sorted key
    for v in ints:
        if v.bit_count() & 1:
            neighbours = sorted(ints[v ^ (1 << i)] for i in range(n))
            for size in range(3, n + 1):
                yield size - 1, list(combinations(neighbours, size))


def build_face_lattice(n: int) -> FaceLattice:
    """Every face's key, joined per dimension from ``_generate`` and sorted; cached per n."""
    got = _lattice_cache.get(n)
    if got is not None:
        return got
    _check_size(n)
    keys = [[] for _ in range(n + 1)]
    for dim, batch in _generate(n):
        keys[dim].extend(batch)
    for dim_keys in keys:
        dim_keys.sort()

    lattice = FaceLattice(n, keys)
    counts = lattice.counts()
    expected = face_counts(n)
    if counts != expected:
        raise AssertionError(f"face census mismatch at n={n}: {counts} != {expected}")
    _lattice_cache[n] = lattice
    return lattice


def face_census(n: int) -> list:
    """Per-dimension ``kind_split`` of the face keys; their sum is the face count.

    Each batch of ``_generate`` is counted and dropped, so the census keeps no
    lattice: its memory is one batch and the subcube tables along one path of
    the coordinate-set walk, not the 2.2M keys of n = 11.
    """
    _check_size(n)
    split = [(0, 0)] * (n + 1)
    for dim, batch in _generate(n):
        simp, hc = kind_split(dim, batch)
        split[dim] = (split[dim][0] + simp, split[dim][1] + hc)
    return split
