"""Cell complexes of the half cube and their signed boundary matrices.

The full complex consists of every face; the cut complexes delete the
interiors of all half-cube shaped cells (top cell included) of dimension
at least k_cut, leaving the simplex cells untouched.  Cells are ordered
lexicographically by canonical vertex key inside each dimension.

Incidence signs are geometric.  Every cell carries an orientation: the
lexicographically smallest affinely independent subsequence of its
(canonically ordered) vertices, which for a cell with dim + 1 vertices is
its whole key.  The sign of facet t in cell s compares the basis (outward
vector from s's barycenter to t's, then t's basis) against s's basis: the
sign of the determinant of their Gram matrix.  The outward vector needs no
projection off t's hull, since adding multiples of t's basis to it leaves
the determinant unchanged.  Each boundary column is built once per parent:

* A simplex is oriented by its whole sorted key, so the sign of the facet
  dropping the i-th vertex of the key is (-1)^i.  ``FaceLattice.facets``
  drops the last vertex first, so position t of a d-simplex's column holds
  (-1)^(d-t), read off a precomputed alternating tuple.
* A half cube L(v, S), or the top cell (S = all coordinates), spans exactly
  the coordinate face {x_i = v_i, i not in S}.  Its basis P and the frame
  Q = [outward vector; facet basis] vanish off S, so the Gram determinant
  factors as det(P|_S) det(Q|_S).  The parent's barycenter is the centre
  of that face, 0 on S, so on S the outward vector is the facet's
  coordinate sum.  Per parent, S and sign det(P|_S) are computed once; per
  facet, ``incidence_sign`` takes one |S| x |S| determinant sign of Q|_S.

Every matrix is assembled by ``boundary_matrices``: each column's rows in
``FaceLattice.facets`` order (key order, so row order) paired with its
signs, computed or read from a cache file; the last complex's matrices are
held by ``boundary_key`` and reused.  The boundary-squared assertion
certifies every new matrix, and the tests check both rules above against
the full Gram determinant of reoriented cells (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from .core import MAX_DIM
from .faces import KIND_HALFCUBE, KIND_SIMPLEX, KIND_TOP, FaceLattice, build_face_lattice
from .linalg import det_sign


class CellComplex:
    """Cells of the full or cut complex, per dimension, in key order."""

    def __init__(self, n: int, k_cut: int, lattice: FaceLattice, cells: list):
        self.n = n
        self.k_cut = k_cut
        self.lattice = lattice
        self.cells = cells
        self.index = [
            {f.key: i for i, f in enumerate(dim_cells)} for dim_cells in cells
        ]
        self._matrices = None

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    @property
    def is_full(self) -> bool:
        return self.k_cut == self.n + 1

    def cell_counts(self) -> list:
        return [len(cs) for cs in self.cells]

    def has_cell(self, face) -> bool:
        return face.dim <= self.top_dim and face.key in self.index[face.dim]

    def matrices(self) -> list:
        if self._matrices is None:
            self._matrices = boundary_matrices(self)
        return self._matrices

    def orientation_of(self, face) -> tuple:
        """The ordered vertex tuple whose edge vectors orient the cell."""
        if not self.has_cell(face):
            raise ValueError(f"{face!r} is not a cell of this complex")
        return orientation_tuple(self.lattice, face)


def build_complex(n: int, k_cut=None) -> CellComplex:
    """The complex with half-cube cells of dimension >= k_cut removed.

    k_cut = n+1 (or None) keeps everything, giving the full complex;
    k_cut = 4 gives the clique complex of the half cube graph.
    """
    if not 4 <= n <= MAX_DIM:
        raise ValueError(f"need 4 <= n <= {MAX_DIM}")
    if k_cut is None:
        k_cut = n + 1
    if not 3 <= k_cut <= n + 1:
        raise ValueError("need 3 <= k_cut <= n+1")
    lattice = build_face_lattice(n)
    cells = []
    for dim in range(n + 1):
        keep = [
            f
            for f in lattice.faces[dim]
            if dim < k_cut or f.kind not in (KIND_HALFCUBE, KIND_TOP)
        ]
        if keep:
            cells.append(keep)
        else:
            break
    return CellComplex(n, k_cut, lattice, cells)


def euler_characteristic(c: CellComplex) -> int:
    return sum((-1) ** d * len(cs) for d, cs in enumerate(c.cells))


# ---------------------------------------------------------------------------
# Orientation geometry


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


def orientation_tuple(lattice: FaceLattice, face) -> tuple:
    """Lexicographically smallest affinely independent vertex subsequence."""
    if len(face.key) == face.dim + 1:
        # dim + 1 vertices spanning a dim-face are affinely independent
        return face.key
    memo = lattice._orient_memo
    got = memo.get(face.key)
    if got is not None:
        return got
    n = lattice.n
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
    memo[face.key] = got
    return got


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


def _half_basis(tup, cols) -> list:
    """Half the edge vectors of an orientation tuple, restricted to the coordinates ``cols``."""
    base = tup[0]
    return [[(base >> i & 1) - (b >> i & 1) for i in cols] for b in tup[1:]]


def _parent_frame(lattice, parent) -> tuple:
    """(S as a coordinate list, sign det(P|_S)) of a half-cube or top cell."""
    got = lattice._frame_memo.get(parent.key)
    if got is None:
        cols = [i for i in range(lattice.n) if parent.mask.bits >> i & 1]
        eps = det_sign(_half_basis(orientation_tuple(lattice, parent), cols))
        if eps == 0:
            raise AssertionError(f"face {parent!r} does not span its coordinate face")
        got = (cols, eps)
        lattice._frame_memo[parent.key] = got
    return got


def incidence_sign(lattice, parent, child) -> int:
    """Sign of the facet ``child`` in the half-cube or top cell ``parent``.

    Simplex columns are alternating tuples (``_ALTERNATING``); a simplex
    parent raises ValueError.
    """
    if parent.kind not in (KIND_HALFCUBE, KIND_TOP):
        raise ValueError(f"{parent!r} is not a half-cube or top cell")
    # the Gram determinant factors over the parent's coordinate set S.  Every
    # coordinate in S is set in half the parent's vertices, so its barycenter
    # is 0 on S and the outward vector on S is the child's coordinate sum
    cols, eps = _parent_frame(lattice, parent)
    ckey = child.key
    m_c = len(ckey)
    w = [m_c - 2 * sum(b >> i & 1 for b in ckey) for i in cols]
    s = det_sign([w] + _half_basis(orientation_tuple(lattice, child), cols))
    if s == 0:
        raise AssertionError("degenerate orientation comparison")
    return eps * s


# facet signs of a d-simplex column in FaceLattice.facets order, per d: the
# facet at position t drops vertex d - t of the key, so has sign (-1)^(d-t)
_ALTERNATING = tuple(
    tuple(-1 if (d - t) & 1 else 1 for t in range(d + 1)) for d in range(MAX_DIM + 1)
)


def column_signs(lattice, cell) -> tuple:
    """The signs of ``cell``'s facets in ``lattice.facets(cell)`` order."""
    if cell.kind == KIND_SIMPLEX:
        return _ALTERNATING[cell.dim]
    return tuple(incidence_sign(lattice, cell, g) for g in lattice.facets(cell))


# ---------------------------------------------------------------------------
# Boundary matrices


@dataclass(frozen=True)
class BoundaryMatrix:
    """Sparse signed incidence matrix of one degree; entries are +-1."""

    degree: int
    nrows: int
    ncols: int
    entries: tuple  # (row, col, val), sorted by (col, row)

    def to_text(self) -> str:
        lines = [f"{self.degree} {self.nrows} {self.ncols}"]
        lines.extend(f"{r} {c} {v}" for r, c, v in self.entries)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BoundaryMatrix":
        """Parses ``to_text`` output; raises ValueError on any other text."""
        header, *body = [ln for ln in text.splitlines() if ln.strip()] or [""]
        degree, nrows, ncols = map(int, header.split())
        if min(degree, nrows, ncols) < 0:
            raise ValueError(f"negative header field in {header!r}")
        entries = {}  # (col, row) -> value
        for ln in body:
            r, c, v = map(int, ln.split())
            if not (0 <= r < nrows and 0 <= c < ncols and v in (1, -1)) or (c, r) in entries:
                raise ValueError(f"entry {ln!r} is outside {nrows} x {ncols}, not +-1 or repeated")
            entries[c, r] = v
        return cls(degree, nrows, ncols, tuple((r, c, v) for (c, r), v in sorted(entries.items())))

    def triplets(self):
        return list(self.entries)

    def columns(self) -> list:
        cols = [[] for _ in range(self.ncols)]
        for r, c, v in self.entries:
            cols[c].append((r, v))
        return cols


def boundary_key(cx: CellComplex, d: int) -> tuple:
    """(n, d, row mode, column mode); complexes with equal keys have equal degree-d matrices."""
    # below the cut every face is present; at or above it only simplex cells
    return (cx.n, d, *("full" if dim < cx.k_cut else "simplex" for dim in (d - 1, d)))


# the matrices of the last complex assembled, by boundary_key
_held = {}


def boundary_matrices(cx: CellComplex, signs=None) -> list:
    """One signed matrix per degree 1..top; asserts boundary-of-boundary = 0.

    ``signs`` (one +-1 list per degree, in (col, row) order) replaces
    computing them, and raises ValueError where it does not fit.  A call
    reuses the last one's matrices of equal boundary_key, then holds its
    own instead.
    """
    lat = cx.lattice
    keys = [boundary_key(cx, d) for d in range(1, cx.top_dim + 1)]
    given = [None] * len(keys) if signs is None else signs
    mats, new = [], []
    for d, (key, signs_d) in enumerate(zip(keys, given, strict=True), start=1):
        m = _held.get(key)
        if m is None:
            new.append(d)
            cells = cx.cells[d]
            if signs_d is None:
                signs_d = chain.from_iterable(column_signs(lat, c) for c in cells)
            row_of = cx.index[d - 1]
            # facets come in key order, which is row order
            pairs = ((row_of[g.key], j) for j, c in enumerate(cells) for g in lat.facets(c))
            entries = tuple((r, j, s) for (r, j), s in zip(pairs, signs_d, strict=True))
            m = BoundaryMatrix(d, len(cx.cells[d - 1]), len(cells), entries)
        elif signs_d is not None and [v for _, _, v in m.entries] != list(signs_d):
            raise ValueError(f"degree {d} signs differ from the held matrix")
        mats.append(m)
    # the new degrees and their neighbours; a pair of reused matrices was
    # consecutive, and so checked, in the complex that assembled them
    if new:
        assert_boundary_squared_zero(mats[max(new[0] - 2, 0) : new[-1] + 1])
    _held.clear()
    _held.update(zip(keys, mats))
    return mats


def assert_boundary_squared_zero(mats) -> None:
    # each matrix's columns are built once and serve as upper, then lower
    columns = (m.columns() for m in mats)
    lower_cols = next(columns, None)
    for upper, upper_cols in zip(mats[1:], columns):
        for j, col in enumerate(upper_cols):
            acc = {}
            for mid, v in col:
                for r, w in lower_cols[mid]:
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                raise AssertionError(
                    f"boundary squared nonzero in degree {upper.degree} column {j}"
                )
        lower_cols = upper_cols
