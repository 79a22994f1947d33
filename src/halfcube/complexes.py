"""Cell complexes of the half cube and their signed boundary matrices.

The full complex consists of every face; the cut complexes delete the
interiors of all half-cube shaped cells (top cell included) of dimension
at least k_cut, leaving the simplex cells untouched.  A cell is its
canonical vertex key, and each dimension lists its cells in key order.

Incidence signs are geometric, and their convention (the cache's
``lexmin-outward-v1``) is unchanged; it is defined by the reference route
in ``tests/oracles.py``.  Every cell is oriented by the lexicographically
smallest affinely independent subsequence of its sorted vertex key (the
whole key when the cell has dim + 1 vertices), and the sign of facet t in
cell s compares (outward vector from s's barycenter to t's, then t's
basis) against s's basis by the sign of their Gram determinant.  The
library takes every sign from two bit rules instead, each column once per
parent:

* A simplex is oriented by its whole sorted key, so the sign of the facet
  dropping the i-th vertex of the key is (-1)^i.  ``FaceLattice.facets``
  drops the last vertex first, so position t of a d-simplex's column holds
  (-1)^(d-t), read off a precomputed alternating tuple.
* A half cube L(v, S) with |S| = m, or the top cell (S = all coordinates),
  spans the coordinate face {x_i = v_i, i not in S}.  Both bases vanish
  off S, so the Gram determinant factors as eps_P det(Q|_S), in the frame
  (e_i, i in S ascending), with Q = [outward vector; facet basis].  The
  parent's barycenter is 0 on S, so on S the outward vector is the
  facet's coordinate sum.

  Frame-sign lemma: with h the bits of v outside S, eps_P = sign det(P|_S)
  = (-1)^(m+1+|h|).  For S = {s_1 < ... < s_m} the orientation tuple is
  h plus {}, {s_1,s_2}, {s_1,s_3}, {s_2,s_3}, {s_1,s_j} (j >= 4) when |h|
  is even, and h plus {s_1}, {s_2}, {s_3}, {s_1,s_2,s_3}, {s_j} (j >= 4)
  when it is odd.  Either way the basis is block triangular: the first
  three edges give a 3 x 3 block of sign (-1)^|h|, and each later edge
  one diagonal entry -2.

  Half-cube facet C on S - {i}, with bit i fixed to c.  The outward
  vector is a positive multiple of (-1)^c e_i, and C's basis vanishes at
  i, so expanding det(Q|_S) along column i gives (-1)^c (-1)^p eps_C,
  p = #{j in S : j < i}.  C's outside bits are h plus c at i, so the lemma
  gives eps_P eps_C = (-1)^(1+c), and the sign is -(-1)^p.

  Simplex facet K(u, S), u odd and equal to h off S.  Its key lists
  u ^ e_tau_0, ..., u ^ e_tau_(m-1), and its outward vector is
  (m-2) x_u on S.  In the frame (x_u,j e_j), columns in tau order, Q's rows
  are (m-2)(1, ..., 1) and 2(f_tau_0 - f_tau_t), of sign (-1)^(m-1);
  changing back to (e_i ascending) multiplies by sgn(tau) (-1)^|u & S|.
  Since eps_P (-1)^(m-1) (-1)^|u & S| = (-1)^(|h| + |u & S|) = (-1)^|u|
  = -1, the sign is -sgn(tau).

  ``incidence_sign`` computes both with one parity helper, ``sort_sign``:
  tau lists (b ^ u).bit_length() for the facet's vertices b in key order.

Every matrix is assembled by ``boundary_matrices`` column by column and
held as its columns, with no (row, col, sign) tuple per entry: one
``FaceLattice.facets`` call (no memo) gives a column's facet keys in key
order, which is row order, and their positions form the column's row
tuple; ``column_signs``, which reads the column's kind and span off its key
once, gives its sign tuple (a shared ``_ALTERNATING`` tuple for a simplex)
unless a cache file's sign string, cut at the column lengths, supplies it.
``BoundaryMatrix.entries`` rebuilds the triplets on demand.

The complexes of one n are nested, C(n, 3) in C(n, 4) in ... in C(n, n),
and every facet of a simplex is a simplex, so each of their matrices is a
restriction of the sphere C(n, n)'s: ``boundary_matrices`` takes a degree
from the last complex's matrices, held by ``boundary_key``, when the held
degree's row and column cells contain its own.  ``verify`` sweeps each n
from C(n, n) down, so only the sphere is assembled: below it a cut calls
no ``facets``, computes no sign and checks no pair for boundary squared
zero, since each of its products is a held, checked one, rows renumbered.
The tests check the sign rules and the lemma against the full Gram
determinant of reoriented cells and the echelon orientation tuple
(``tests/oracles.py``), and every restricted matrix against one assembled
with nothing held.
"""

from __future__ import annotations

from . import linalg
from .faces import (
    MAX_DIM,
    FaceLattice,
    _opposite_point,
    _span,
    build_face_lattice,
    simplex_keys,
)


class CellComplex:
    """Cell keys of the full or cut complex per dimension; ``index[d]`` maps them to positions.

    Below the cut both are the lattice's own, ``keys[d]`` and ``positions(d)``.
    ``cell_dim`` finds a key's dimension in at most two of them.
    """

    def __init__(self, n: int, k_cut: int, lattice: FaceLattice, cells: list):
        self.n = n
        self.k_cut = k_cut
        self.lattice = lattice
        self.cells = cells
        below = [lattice.positions(d) for d in range(k_cut)]
        self.index = below + [{key: i for i, key in enumerate(keys)} for keys in cells[k_cut:]]
        self._matrices = None

    @property
    def top_dim(self) -> int:
        return len(self.cells) - 1

    @property
    def is_full(self) -> bool:
        return self.k_cut == self.n + 1

    def cell_counts(self) -> list:
        return [len(cs) for cs in self.cells]

    def cell_dim(self, key: tuple) -> int:
        """The dimension of the cell with this key; ValueError when it is not one."""
        index = self.index
        d = len(key) - 1
        # a simplex or a half-cube tetrahedron has dim + 1 vertices; a larger
        # half cube or the top cell spans as many coordinates as its dimension
        if 0 <= d < len(index) and key in index[d]:
            return d
        if key:
            d = _span(key).bit_count()
            if d < len(index) and key in index[d]:
                return d
        raise ValueError(f"{key!r} is not a cell of the complex")

    def matrices(self) -> list:
        if self._matrices is None:
            self._matrices = boundary_matrices(self)
        return self._matrices


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
    lat = build_face_lattice(n)
    # below the cut a dimension's cells are the lattice's key list itself; at
    # and above it, short of dim n (the top cell alone), its simplex keys
    cells = lat.keys[:k_cut] + [simplex_keys(d, lat.keys[d]) for d in range(k_cut, n)]
    return CellComplex(n, k_cut, lat, cells)


def euler_characteristic(c: CellComplex) -> int:
    return sum((-1) ** d * len(cs) for d, cs in enumerate(c.cells))


# ---------------------------------------------------------------------------
# Orientation signs


def sort_sign(seq) -> int:
    """Sign of the permutation that sorts the distinct items of seq."""
    inversions = 0
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if x > y:
                inversions += 1
    return -1 if inversions & 1 else 1


def incidence_sign(parent: tuple, s: int, ckey: tuple) -> int:
    """Sign of the facet with key ``ckey`` in the half-cube or top cell with key ``parent``.

    ``s`` holds the mask bits of the coordinate set S that ``parent`` spans.
    Simplex columns are alternating tuples (``_ALTERNATING``); a simplex
    parent, or a key that is not a facet of ``parent``, raises ValueError.
    """
    # a half cube on m >= 3 coordinates has 2^(m-1) > m vertices, a simplex m
    if not len(parent) > s.bit_count() >= 3:
        raise ValueError(f"{parent!r} is not a half-cube or top cell")
    # every facet agrees with the parent off its coordinate set S
    if not (ckey[0] ^ parent[0]) & ~s:
        span = _span(ckey)
        simplex = len(ckey) == span.bit_count()
        if simplex and span == s:
            # K(u, S): -sgn of the coordinates its vertices flip in u, in key order
            u = _opposite_point(ckey)
            return -sort_sign([(b ^ u).bit_length() for b in ckey])
        i = s ^ span
        if not simplex and span | s == s and i.bit_count() == 1:
            # the half on S - {i}: -(-1)^#{j in S : j < i}
            return 1 if (s & (i - 1)).bit_count() & 1 else -1
    raise ValueError(f"{ckey!r} is not a facet of {parent!r}")


# facet signs of a d-simplex column in FaceLattice.facets order, per d: the
# facet at position t drops vertex d - t of the key, so has sign (-1)^(d-t)
_ALTERNATING = tuple(
    tuple(-1 if (d - t) & 1 else 1 for t in range(d + 1)) for d in range(MAX_DIM + 1)
)


def column_signs(cell: tuple, facet_keys) -> tuple:
    """The signs of the facets of the cell with key ``cell``, in ``FaceLattice.facets`` order."""
    s = _span(cell)
    if len(cell) == s.bit_count():  # a simplex: dim + 1 vertices on dim + 1 coordinates
        return _ALTERNATING[len(cell) - 1]
    return tuple(incidence_sign(cell, s, g) for g in facet_keys)


# ---------------------------------------------------------------------------
# Boundary matrices


class BoundaryMatrix:
    """Sparse signed incidence matrix of one degree, held as its columns.

    Column j is ``rows[j]``, its row positions, and ``signs[j]``, their
    entries (+-1 in a boundary matrix), in one order; an assembled column
    lists its rows ascending, and computed simplex columns share ``_ALTERNATING``.
    ``BoundaryMatrix(degree, nrows, ncols, entries)`` groups (row, col,
    value) triplets into columns, keeping their order within a column;
    ``from_columns`` takes the columns themselves.  Equality and hashing
    read the shape and the columns alone, so both constructions agree;
    ``repr`` adds ``given_signs``.  It carries its eliminations, which all
    three ignore, to every complex that reuses it.  Its attributes are
    read-only: assigning or deleting one raises AttributeError.
    """

    __slots__ = (
        "degree",
        "nrows",
        "ncols",
        "rows",  # per column, its row positions
        "signs",  # per column, the entries at those rows
        "given_signs",  # the signs were given (read from a cache file), not computed
        "_eliminations",  # modulus -> linalg.eliminate's (result, pivot rows)
    )

    def __init__(self, degree: int, nrows: int, ncols: int, entries=(), given_signs=False):
        columns = linalg.triplet_columns(ncols, entries)
        rows = tuple(col_rows for col_rows, _ in columns)
        signs = tuple(col_signs for _, col_signs in columns)
        self._set(degree, nrows, ncols, rows, signs, given_signs)

    @classmethod
    def from_columns(cls, degree, nrows, ncols, rows, signs, given_signs=False) -> "BoundaryMatrix":
        """The matrix whose column j has ``signs[j]`` at the rows ``rows[j]``; both are tuples."""
        m = cls.__new__(cls)
        m._set(degree, nrows, ncols, rows, signs, given_signs)
        return m

    def _set(self, *values):
        # the one place the attributes are written
        for name, value in zip(self.__slots__, (*values, {}), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _columns(self) -> tuple:
        return (self.degree, self.nrows, self.ncols, self.rows, self.signs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._columns() == other._columns()

    def __hash__(self):
        return hash(self._columns())

    def __repr__(self):
        return (
            f"BoundaryMatrix(degree={self.degree!r}, nrows={self.nrows!r}, ncols={self.ncols!r}, "
            f"rows={self.rows!r}, signs={self.signs!r}, given_signs={self.given_signs!r})"
        )

    def __reduce__(self):
        # pickle and copy rebuild through from_columns; the eliminations stay behind
        return (self.from_columns, (*self._columns(), self.given_signs))

    @property
    def entries(self) -> tuple:
        """The (row, col, value) triplets, column by column; rebuilt on every read."""
        return tuple(
            (r, j, v) for j, (rs, vs) in enumerate(zip(self.rows, self.signs)) for r, v in zip(rs, vs)
        )

    def eliminate(self, m: int, cleared=None):
        """``linalg.eliminate`` of this matrix modulo m, memoized by m; ``cleared``
        shapes only the first call, and any call's pivot rows clear the degree below.
        """
        memo = self._eliminations
        if m not in memo:
            memo[m] = linalg.eliminate(self.nrows, self.ncols, zip(self.rows, self.signs), m, cleared)
        return memo[m]

    def sign_text(self) -> str:
        """The signs in (col, row) order, '+' for a positive entry, else '-': a cache file's form."""
        text = {}  # sign tuple -> its text, so each distinct column is converted once
        return "".join([
            text.get(s) or text.setdefault(s, "".join(["+" if v > 0 else "-" for v in s]))
            for s in self.signs
        ])


def boundary_key(cx: CellComplex, d: int) -> tuple:
    """(n, d, row mode, column mode); complexes with equal keys have equal degree-d matrices."""
    # below the cut every face is present; at or above it only simplex cells
    return (cx.n, d, *("full" if dim < cx.k_cut else "simplex" for dim in (d - 1, d)))


# the matrices of the last complex assembled, by boundary_key, with their eliminations
_held = {}


def boundary_matrices(cx: CellComplex, signs=None) -> list:
    """One signed matrix per degree 1..top; asserts boundary-of-boundary = 0.

    ``signs`` (one string of '+' and '-' per degree, in (col, row) order,
    as ``sign_text`` gives and a cache file holds) replaces computing them,
    and raises ValueError where it does not fit.  A call takes each degree
    d it can from the last one's matrices (``_held``), then holds its own
    instead.  A degree takes the held degree-d matrix of the same n whose
    row and column cells contain its own: as it is when their keys are
    equal, else restricted to its own cells by ``_restricted``.  Every facet
    of a simplex is a simplex, so a restriction keeps all of a kept column.

    A computed degree never takes given signs, so a consistently reoriented
    file cannot meet computed signs in one complex; a loaded degree takes a
    held matrix of equal key only when the file's signs equal it (else it
    raises), and a restriction only when they equal the restriction's (else
    it is assembled from the file).  The boundary-squared check skips a
    pair whose two degrees were both taken: each of its product columns is
    one of the held pair's, rows renumbered, and that pair was certified.
    """
    lat = cx.lattice
    keys = [boundary_key(cx, d) for d in range(1, cx.top_dim + 1)]
    given = [None] * len(keys) if signs is None else signs
    held = {key[:2]: (key, m) for key, m in _held.items()}  # (n, d) -> the held degree d
    mats, taken = [], []
    for d, (key, text) in enumerate(zip(keys, given, strict=True), start=1):
        src_key, src = held.get(key[:2], (None, None))
        if (
            src is not None
            and not (text is None and src.given_signs)
            and all(mode in ("full", own) for mode, own in zip(src_key[2:], key[2:]))
        ):
            m = src if src_key == key else _restricted(cx, src, src_key, key, text is not None)
            if text is None or m.sign_text() == text:
                mats.append(m)
                taken.append(True)
                continue
            if m is src:
                raise ValueError(f"degree {d} signs differ from the held matrix")
        row_of = cx.index[d - 1].__getitem__
        rows, col_signs = [], []
        for c in cx.cells[d]:
            # one facets call per column; facets come in key order, which is row order
            fks = lat.facets(c)
            rows.append(tuple(map(row_of, fks)))
            if text is None:
                col_signs.append(column_signs(c, fks))
        if text is not None:
            col_signs = _parse_signs(d, text, rows)
        mats.append(BoundaryMatrix.from_columns(
            d, len(cx.cells[d - 1]), len(rows), tuple(rows), tuple(col_signs), text is not None
        ))
        taken.append(False)
    for d in range(1, len(mats)):
        if not (taken[d - 1] and taken[d]):
            assert_boundary_squared_zero(mats[d - 1 : d + 1])
    _held.clear()
    _held.update(zip(keys, mats))
    return mats


def _restricted(cx: CellComplex, src, src_key, key, given_signs) -> BoundaryMatrix:
    """cx's degree d (``key``) as ``src``, the held degree d of ``src_key``, restricted.

    A (full, simplex) degree takes src's full columns at its simplex
    d-cells; a (simplex, simplex) degree renumbers src's rows to its
    simplex (d-1)-cells, an order-preserving map.  When every column is
    kept the rows are all that change, and src's eliminations carry over,
    pivot rows renumbered: the result and pivots of eliminating it anew.
    """
    lat, d = cx.lattice, key[1]
    cells, lower = cx.cells[d], cx.cells[d - 1]
    rows, signs = src.rows, src.signs
    if src_key[3] != key[3]:  # src's columns are every d-face
        at = list(map(lat.positions(d).__getitem__, cells))
        rows, signs = tuple(map(rows.__getitem__, at)), tuple(map(signs.__getitem__, at))
    if src_key[2] != key[2]:  # src's rows are every (d-1)-face
        row_at = list(map(lat.positions(d - 1).__getitem__, lower))
        renum = dict(zip(row_at, range(len(row_at))))
        rows = tuple([tuple(map(renum.__getitem__, col)) for col in rows])
    m = BoundaryMatrix.from_columns(d, len(lower), len(cells), rows, signs, given_signs)
    if src_key[3] == key[3]:
        for modulus, (result, pivots) in src._eliminations.items():
            m._eliminations[modulus] = (result, bytes(map(pivots.__getitem__, row_at)))
    return m


def _parse_signs(d: int, text: str, rows: list) -> list:
    """The sign tuples of ``text`` cut to the columns' lengths; equal columns share one tuple."""
    parsed = {}
    out = []
    at = 0
    for col in rows:
        part = text[at : at + len(col)]
        at += len(col)
        signs = parsed.get(part)
        if signs is None:
            signs = parsed[part] = tuple(1 if ch == "+" else -1 for ch in part)
        out.append(signs)
    if at != len(text):
        raise ValueError(f"degree {d} has {at} incidences but {len(text)} signs")
    return out


def assert_boundary_squared_zero(mats) -> None:
    """Every column of each matrix after the first, times the matrix before it, is zero.

    Each product column is summed into one list of the lower matrix's
    nrows zeros, kept across columns; only the rows it touched are read
    back, and when they are all zero the whole list is again.  Every row
    must lie in 0..nrows - 1, as in an assembled matrix.
    """
    for lower, upper in zip(mats, mats[1:]):
        lower_rows, lower_signs = lower.rows, lower.signs
        acc = [0] * lower.nrows
        for j, (rows, signs) in enumerate(zip(upper.rows, upper.signs)):
            touched = []
            for mid, v in zip(rows, signs):
                rs = lower_rows[mid]
                for r, w in zip(rs, lower_signs[mid]):
                    acc[r] += v * w
                touched += rs
            if any(map(acc.__getitem__, touched)):
                raise AssertionError(
                    f"boundary squared nonzero in degree {upper.degree} column {j}"
                )
