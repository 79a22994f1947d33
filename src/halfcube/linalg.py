"""Exact integer linear algebra: rank kernels, Smith normal form, small solvers.

The rank kernels (rank over Q and over F_p) are the sparse elimination
routines of ``halfcube._elim_py``, run on Python integers, so no answer
depends on a machine word size.  Smith normal form is sparse and runs in
two phases: unit pivots (+-1 entries, sparsest column first) are split
off as invariant factors 1, then the small residual is reduced with
smallest-magnitude pivots.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import _elim_py


def kernel_name() -> str:
    """The rank kernel in use; the benchmark records it with every run."""
    return "pure-python"


def rank_over_q(nrows: int, ncols: int, triplets) -> int:
    """Rank over Q of an integer matrix given as (row, col, value) triplets."""
    if nrows == 0 or ncols == 0 or not triplets:
        return 0
    return _elim_py.rank_int(nrows, ncols, triplets)


def rank_mod_p(nrows: int, ncols: int, triplets, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p."""
    if nrows == 0 or ncols == 0 or not triplets:
        return 0
    return _elim_py.rank_mod(nrows, ncols, triplets, p)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """Nonzero invariant factors d1 | d2 | ... | dr of an integer matrix."""

    factors: tuple
    rank: int

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError("invariant factors violate the divisibility chain")


def smith_normal_form(nrows: int, ncols: int, triplets) -> SmithForm:
    """Diagonalize by unimodular row/column operations; sparse, exact.

    Unit phase: while some live column holds a +-1 entry, take the
    sparsest such column (heap of live column counts), pivot on its +-1
    entry in the shortest row (ties by row index) and clear the column by
    the row operations row += (-w * pv) * prow.  The column operations that
    would clear the pivot row then touch no other row, so the pivot splits
    off as a 1x1 block [+-1]: its row and column are deleted and factor 1
    is recorded.  The boundary matrices of every cut complex with n <= 7
    reduce entirely in this phase.

    Residual phase: on what is left, pivots are the smallest nonzero
    magnitude with (row, col) tie-break.  After a pivot clears its row and
    column it is made to divide every remaining entry, so the recorded
    factors form the divisibility chain (the 1s of the unit phase divide
    everything and come first).
    """
    rows = {}
    cols = {}
    for r, c, v in triplets:
        if v == 0:
            continue
        row = rows.setdefault(r, {})
        cur = row.get(c, 0) + v
        if cur:
            row[c] = cur
            cols.setdefault(c, set()).add(r)
        else:
            del row[c]
            cols[c].discard(r)
    if any(r >= nrows for r in rows) or any(c >= ncols for c in cols):
        raise ValueError("triplet index outside the stated shape")

    factors = []
    counts = {c: len(s) for c, s in cols.items()}
    heap = [(cnt, c) for c, cnt in counts.items() if cnt]
    heapq.heapify(heap)
    while heap:
        cnt, c = heapq.heappop(heap)
        if counts.get(c) != cnt:
            continue
        best = None
        for r in cols[c]:
            if abs(rows[r][c]) == 1:
                score = (len(rows[r]), r)
                if best is None or score < best:
                    best = score
        if best is None:
            # no unit entry; the column is pushed again when its count changes
            continue
        pr = best[1]
        prow = rows.pop(pr)
        pv = prow.pop(c)
        for r in cols.pop(c):
            if r == pr:
                continue
            row = rows[r]
            m = -row.pop(c) * pv
            for cc, x in prow.items():
                cur = row.get(cc, 0) + m * x
                if cur:
                    row[cc] = cur
                    cols[cc].add(r)
                else:
                    del row[cc]
                    cols[cc].discard(r)
            if not row:
                del rows[r]
        del counts[c]
        for cc in prow:
            col = cols[cc]
            col.discard(pr)
            if len(col) != counts[cc]:
                counts[cc] = len(col)
                if col:
                    heapq.heappush(heap, (len(col), cc))
        factors.append(1)

    def set_entry(r, c, v):
        row = rows.setdefault(r, {})
        if v:
            row[c] = v
            cols.setdefault(c, set()).add(r)
        else:
            if c in row:
                del row[c]
                cols[c].discard(r)

    def add_row(dst, src, m):
        # row dst += m * row src
        if m == 0:
            return
        for c, x in list(rows.get(src, {}).items()):
            set_entry(dst, c, rows.get(dst, {}).get(c, 0) + m * x)

    def add_col(dst, src, m):
        if m == 0:
            return
        for r in list(cols.get(src, set())):
            x = rows[r][src]
            set_entry(r, dst, rows[r].get(dst, 0) + m * x)

    while True:
        # re-pick the global smallest-magnitude pivot after every pass;
        # quotient reduction leaves remainders strictly smaller, so the
        # minimum entry is a descent measure and the loop terminates
        pivot = None
        for r, row in rows.items():
            for c, v in row.items():
                score = (abs(v), r, c)
                if pivot is None or score < pivot[0]:
                    pivot = (score, r, c)
        if pivot is None:
            break
        _, pr, pc = pivot
        v = rows[pr][pc]

        others_col = [r for r in cols.get(pc, set()) if r != pr]
        others_row = [c for c in rows.get(pr, {}) if c != pc]
        if others_col or others_row:
            for r in sorted(others_col):
                add_row(r, pr, -(rows[r][pc] // v))
            for c in sorted(others_row):
                add_col(c, pc, -(rows[pr][c] // v))
            continue

        # pivot row and column are clear; it must divide all that remains
        offender = None
        for r, row in sorted(rows.items()):
            if r == pr:
                continue
            for c, w in sorted(row.items()):
                if w % v:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(pr, offender, 1)
            continue

        factors.append(abs(v))
        set_entry(pr, pc, 0)
        if not rows.get(pr):
            rows.pop(pr, None)
    return SmithForm(tuple(factors), len(factors))


@dataclass
class SmithTransforms:
    """Dense U M V = D bookkeeping for kernel/quotient bases.

    factors lists the nonzero diagonal of D; V's columns beyond ``rank``
    are a basis of the integer kernel lattice of M; Vinv and Uinv are the
    exact unimodular inverses, maintained alongside the reduction.
    """

    factors: list
    rank: int
    U: list
    Uinv: list
    V: list
    Vinv: list


def smith_with_transforms(dense) -> SmithTransforms:
    """Smith normal form of a small dense matrix, with all four transforms."""
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
    return SmithTransforms(factors, len(factors), U, Uinv, V, Vinv)


# ---------------------------------------------------------------------------
# Small exact dense helpers (orientation geometry, group actions)


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


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]

