"""Exact integer linear algebra: sparse elimination and Smith normal form.

One sparse elimination routine, ``_unit_phase``, serves every rank, every
Smith form and the homology bases.  It works modulo m, where m is 0 (the
integers) or a squarefree product of primes, and a unit is an entry v
with gcd(v, m) = 1: +-1 over the integers, a residue coprime to m
otherwise, so every nonzero residue when m is prime.  It takes the
sparsest live column that holds a unit, pivots on that unit in the
shortest row, clears the column and yields the pivot with the rest of its
row.  A pivot alone in its row clears the column by deleting the other
entries; any other runs its row operations in one loop over the integers
or in another modulo m, so no entry asks which.  Over the integers each
pivot splits off an invariant factor 1, and ``_residual_factors``
finishes the Smith normal form on what is left: it splits off each least
entry whose row and column its floor quotients clear, then puts the
diagonal in divisibility order by gcd/lcm exchanges.  Its rank is the
rank over Q, which has no other entry point.  ``unit_pivots`` returns the
integer pivot records themselves, and refuses a matrix the unit phase
does not finish; the homology bases back-substitute through them.
``eliminate`` and ``unit_pivots`` take a matrix as its columns, (rows,
values) each, which is how a ``BoundaryMatrix`` holds it;
``smith_normal_form`` takes (row, col, value) triplets and groups them
with ``triplet_columns``.  One loader, ``_sparse``, reads the columns for
all of them.  The rank over a single prime p is ``eliminate`` modulo p:
the modulus has one prime factor, so that elimination is its own, and a
rank over F_p that agrees with the rank of the Smith form is evidence,
not a restatement of it.

Modulo a squarefree m = p_1 ... p_s the Chinese remainder theorem makes
Z/m the product of the fields F_{p_i}, and a unit of Z/m is a unit in
each of them.  So one elimination mod m is an elimination over every
F_{p_i} at once: each of its pivots counts once in every rank, and

    rank over F_p = (unit pivots mod m) + (rank over F_p of the residual),

the residual being what the unit phase leaves: the zero divisors mod m,
and any entry that became a unit in a column the phase had passed over.
Each prime finishes its own residual with the unit phase mod p, on a copy
of the residual rows reduced mod p; for m prime the residual is empty.
Entries are Python integers throughout, so no answer depends on a machine
word size.

``eliminate`` also reports the rows the unit phase pivoted on, and deletes
the columns a caller flags before it starts ("clearing", the twist of
Chen and Kerber).  If the flagged columns are the unit-pivot rows R of a
matrix B with A B = 0, and C are B's pivot columns, then B[R, C] is
invertible over the ring (Z, or Z/m): its determinant is a product of
units.  So each column of A in R is a combination, with coefficients in
the ring, of A's other columns, and deleting it changes neither the rank
nor the column lattice, hence neither the nonzero invariant factors.
Over Z/m that holds in every factor F_p, so the pivot rows of one
elimination mod m clear the next one for every p dividing m.  Only unit
pivots of the same ring count: the pivots ``_residual_factors`` splits
off carry no inverse over Z, and those of a residual over F_p none over
the other factors; integer pivot rows clear only a Smith form, and
rows pivoted mod m only an elimination mod m.
"""

from __future__ import annotations

import heapq
from math import gcd
from typing import NamedTuple


def kernel_name() -> str:
    """The rank kernel in use; the benchmark records it with every run."""
    return "pure-python"


def _prime_factors(m):
    """The primes dividing m in increasing order, or None unless m is a squarefree int >= 2."""
    if type(m) is not int or m < 2:
        return None
    primes = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return None
            primes.append(q)
        q += 1
    if m > 1:
        primes.append(m)
    return primes


def triplet_columns(ncols: int, triplets) -> list:
    """(row, col, value) triplets as ncols columns, tuples (rows, values), in their order.

    A column index outside the shape raises ValueError; ``_sparse`` checks
    the rows.
    """
    rows = [[] for _ in range(ncols)]
    values = [[] for _ in range(ncols)]
    for r, c, v in triplets:
        if not 0 <= c < ncols:
            raise ValueError("triplet index outside the stated shape")
        rows[c].append(r)
        values[c].append(v)
    return list(zip(map(tuple, rows), map(tuple, values)))


def eliminate(nrows: int, ncols: int, columns, m: int, cleared=None):
    """Smith normal form (m = 0) or the ranks over F_p for each prime p dividing m.

    ``columns`` gives each of the ncols columns as (rows, values), as a
    ``BoundaryMatrix`` holds them or ``triplet_columns`` groups triplets.
    m is 0 or a squarefree product of primes.  Returns (result,
    pivot_rows): the SmithForm for m = 0, else {p: rank over F_p} over the
    primes p dividing m, in increasing order; pivot_rows is one byte per
    row, 1 where the unit phase pivoted.  ``cleared``, when given, is one
    byte per column; the columns flagged 1 are deleted first.  That is
    exact when they are the pivot_rows that an elimination with the same
    m of a matrix B with (this matrix) B = 0 returned; see the module
    docstring.
    """
    primes = _prime_factors(m)
    if type(m) is not int or (m != 0 and primes is None):
        raise ValueError(f"modulus must be 0 or a squarefree product of primes, got {m!r}")
    if cleared is not None and len(cleared) != ncols:
        raise ValueError("cleared must hold one flag per column")
    rows, cols = _sparse(nrows, ncols, columns, m, cleared)
    pivot_rows = bytearray(nrows)
    for r, _, _, _ in _unit_phase(rows, cols, m):
        pivot_rows[r] = 1
    unit_rank = sum(pivot_rows)
    if m:
        # each prime finishes over F_p what the unit phase mod m left
        ranks = {}
        for p in primes:
            rows_p = {r: {c: v % p for c, v in row.items() if v % p}
                      for r, row in rows.items() if row}
            ranks[p] = unit_rank + sum(1 for _ in _unit_phase(rows_p, _columns(rows_p), p))
        return ranks, bytes(pivot_rows)
    factors = [1] * unit_rank + _residual_factors(rows)
    return SmithForm(tuple(factors)), bytes(pivot_rows)


# ---------------------------------------------------------------------------
# Sparse elimination


def _sparse(nrows, ncols, columns, m, cleared=None):
    """Rows {r: {c: v}} and columns {c: {r}} of the nonzero entries, mod m if m.

    ``columns`` holds ncols columns, each a pair of tuples (rows, values).
    Repeated rows in a column add up; a row outside the shape, or a column
    count other than ncols, raises ValueError, whatever the values.  Every
    row gets a (possibly empty) dict.  The entries of the columns flagged
    in ``cleared`` (one byte per column) are dropped.
    """
    rows = {r: {} for r in range(nrows)}
    cols = {}
    reduced = {}  # values -> values mod m, converted once per distinct column
    c = -1
    try:
        for c, (col_rows, values) in enumerate(columns):
            if c >= ncols:
                break
            if cleared is not None and cleared[c]:
                for r in col_rows:  # a deleted column's rows are checked all the same
                    rows[r]
                continue
            if m:
                got = reduced.get(values)
                if got is None:
                    got = reduced[values] = tuple(v % m for v in values)
                values = got
            col = set(col_rows)
            if len(col) == len(col_rows) and 0 not in values:
                # no repeated row and no zero: each entry is stored as it is
                for r, v in zip(col_rows, values, strict=True):
                    rows[r][c] = v
            else:
                for r, v in zip(col_rows, values, strict=True):
                    row = rows[r]
                    cur = row.get(c, 0) + v
                    if m:
                        cur %= m
                    if cur:
                        row[c] = cur
                    else:
                        row.pop(c, None)
                col = {r for r in col if c in rows[r]}
            if col:
                cols[c] = col
    except KeyError:  # only rows[r] raises it: the lookup is the row range check
        raise ValueError("triplet index outside the stated shape") from None
    if c + 1 != ncols:
        raise ValueError("triplet index outside the stated shape")
    return rows, cols


def _columns(rows):
    """The column sets {c: {r}} of sparse rows {r: {c: v}}."""
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    return cols


def _unit_phase(rows, cols, m):
    """Eliminate unit pivots modulo m in place, yielding each as (row, column, value, rest).

    A unit is an entry v with gcd(v, m) = 1, which for m = 0 is v = +-1;
    entries stay reduced mod m when m > 0.  While some live column holds
    a unit, take the sparsest such column (heap of live column counts, ties
    by column index), pivot on its unit in the shortest row (ties by row
    index) and clear the column by the row operations row += -w * pv^-1 *
    prow.  The column operations that would clear the pivot row then touch
    no other row, so the pivot splits off as a 1x1 block: its row and
    column are deleted, and the pivot is yielded with ``rest``, the rest of
    its row {column: value} at that step.  A pivot's rest holds no column
    pivoted before it, so the yielded rows are triangular in pivot order;
    ``rest`` is the caller's once yielded, and the phase keeps no list of
    them.  A column goes back on the heap when its count changes, or, if it
    was passed over for want of a unit, when a row operation writes into
    it, since that may make a unit without changing the count.

    The loops spend as little as they can per entry.  A heap entry packs
    (count, column) into one int, count << shift | column, which orders as
    the pair does.  The search for the pivot row keeps the best (length,
    row) so far in two locals and tests a unit only in a row that would
    beat them.  When the pivot row holds the pivot alone, clearing the
    column only deletes its entries from the other rows, and no other
    column changes.  Otherwise the row operations run in one of two loops,
    over the integers or modulo m; only the second reduces, and only it
    can make a zero out of a fill-in (w * x mod a composite m).

    With m = 0 a unit is +-1, each pivot is an invariant factor 1, and what
    is left in rows is the residual that ``eliminate`` hands to
    ``_residual_factors`` (the boundary matrices of every cut complex with
    n <= 8, and of C(9, 4), leave none).  With m prime every nonzero
    residue is a unit, so nothing is left and the number of pivots is the
    rank over F_m.  With m composite what is left holds the zero divisors
    mod m, and ``eliminate`` finishes it one prime factor at a time.
    """
    counts = {c: len(s) for c, s in cols.items()}
    shift = max(counts, default=0).bit_length()
    low = (1 << shift) - 1
    heap = [cnt << shift | c for c, cnt in counts.items() if cnt]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    stalled = set()  # columns popped without a unit and not pushed since
    while heap:
        key = heappop(heap)
        c = key & low
        if counts.get(c) != key >> shift:
            continue
        pr = -1  # the unit's row of least (length, index) so far
        best = 1 << 62  # longer than any row
        for r in cols[c]:
            row = rows[r]
            size = len(row)
            # the unit test only for a row that would win
            if size < best or (size == best and r < pr):
                v = row[c]
                if (gcd(v, m) == 1) if m else (v == 1 or v == -1):
                    best, pr = size, r
        if pr < 0:
            stalled.add(c)
            continue
        prow = rows.pop(pr)
        pv = prow.pop(c)
        col = cols.pop(c)
        col.discard(pr)
        del counts[c]
        if not prow:
            # the column's other entries go, and nothing else changes
            for r in col:
                row = rows[r]
                del row[c]
                if not row:
                    del rows[r]
            yield pr, c, pv, prow
            continue
        items = prow.items()
        if m:
            inv = pow(pv, -1, m)
            for r in col:
                row = rows[r]
                w = -row.pop(c) * inv % m
                for cc, x in items:
                    cur = row.get(cc)
                    if cur is None:
                        cur = w * x % m  # 0 when w and x are zero divisors of m
                        if cur:
                            row[cc] = cur
                            cols[cc].add(r)
                    else:
                        cur = (cur + w * x) % m
                        if cur:
                            row[cc] = cur
                        else:
                            del row[cc]
                            cols[cc].discard(r)
                if not row:
                    del rows[r]
        else:
            for r in col:
                row = rows[r]
                w = -row.pop(c) * pv  # pv = +-1 is its own inverse
                for cc, x in items:
                    cur = row.get(cc)
                    if cur is None:
                        row[cc] = w * x
                        cols[cc].add(r)
                    else:
                        cur += w * x
                        if cur:
                            row[cc] = cur
                        else:
                            del row[cc]
                            cols[cc].discard(r)
                if not row:
                    del rows[r]
        for cc in prow:
            col = cols[cc]
            col.discard(pr)
            # the row operations wrote into cc: a stalled cc may hold a unit now
            if len(col) != counts[cc] or cc in stalled:
                stalled.discard(cc)
                counts[cc] = len(col)
                if col:
                    heappush(heap, len(col) << shift | cc)
        yield pr, c, pv, prow


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm(NamedTuple("SmithForm", [("factors", tuple)])):
    """Nonzero invariant factors d1 | d2 | ... | dr of an integer matrix."""

    __slots__ = ()

    def __new__(cls, factors: tuple):
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors violate the divisibility chain")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__'s check
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.factors)


def smith_normal_form(nrows: int, ncols: int, triplets) -> SmithForm:
    """Diagonalize by unimodular row/column operations; sparse, exact.

    The unit phase splits off every +-1 pivot it finds as a factor 1.  The
    rows it leaves go to ``_residual_factors``; its factors follow the 1s.
    """
    return eliminate(nrows, ncols, triplet_columns(ncols, triplets), 0)[0]


def unit_pivots(nrows: int, ncols: int, columns) -> list:
    """The +-1 pivots of the integer unit phase, each (row, column, value, rest of its row).

    ``columns`` gives the ncols columns as (rows, values), as for
    ``eliminate``.  The records come in pivot order, triangular as
    ``_unit_phase`` yields them.  A matrix whose unit phase leaves any
    entry is refused with ValueError: one with a factor above 1, or one
    such as [[2, 3]] whose factors are 1 but whose pivots are not +-1.
    """
    rows, cols = _sparse(nrows, ncols, columns, 0)
    pivots = list(_unit_phase(rows, cols, 0))
    if any(rows.values()):
        raise ValueError("the unit phase left entries that no +-1 pivot clears")
    return pivots


def _residual_factors(rows) -> list:
    """Nonzero invariant factors of sparse integer rows {r: {c: v}}, reduced in place.

    Each round takes the live entry a of least (|a|, row, column) and
    reduces the rest of its column by row operations with floor quotients.
    If that clears the column, it reduces the rest of a's row by column
    operations, which then change a's row alone.  When both are clear, |a|
    splits off with its row and column; otherwise a remainder, smaller than
    |a|, is the next round's pivot, so the least magnitude falls until a
    pivot splits off.  The split-off diagonal is put in divisibility order
    by exchanging each pair (x, y) for (gcd, lcm).
    """
    cols = _columns(rows)
    diagonal = []
    while True:
        live = [(abs(v), r, c) for r, row in rows.items() for c, v in row.items()]
        if not live:
            break
        _, pr, pc = min(live)
        prow = rows[pr]
        a = prow[pc]
        for r in cols[pc] - {pr}:
            row = rows[r]
            q = row[pc] // a
            for c, x in prow.items():
                cur = row.get(c, 0) - q * x
                if cur:
                    row[c] = cur
                    cols[c].add(r)
                else:
                    del row[c]
                    cols[c].discard(r)
        if len(cols[pc]) > 1:
            continue
        for c in [c for c in prow if c != pc]:
            cur = prow[c] % a
            if cur:
                prow[c] = cur
            else:
                del prow[c]
                cols[c].discard(pr)
        if len(prow) == 1:
            diagonal.append(abs(a))
            del rows[pr], cols[pc]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            x, y = diagonal[i], diagonal[j]
            g = gcd(x, y)
            diagonal[i], diagonal[j] = g, x // g * y
    return diagonal
