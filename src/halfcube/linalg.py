"""Exact integer linear algebra: sparse elimination, Smith normal form, small solvers.

One sparse elimination routine, ``_unit_phase``, serves every rank and
Smith form.  It takes the sparsest live column that holds a unit, pivots
on that unit in the shortest row and clears the column.  Over the
integers (modulus 0) a unit is +-1: each pivot splits off an invariant
factor 1, and the dense smallest-magnitude reduction
``smith_with_transforms``, the one that also gives the homology bases
their transforms, finishes the Smith normal form on what is left; its
rank is the rank over Q, which has no other entry point.  Over F_p
every nonzero residue is a unit and entries are reduced mod p, so the
pivot count is the rank over F_p.  Entries are Python integers
throughout, so no answer depends on a machine word size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isqrt


def kernel_name() -> str:
    """The rank kernel in use; the benchmark records it with every run."""
    return "pure-python"


def rank_mod_p(nrows: int, ncols: int, triplets, p: int) -> int:
    """Rank of an integer matrix over the prime field F_p.

    It is an elimination over F_p of its own, so a rank over F_p that
    agrees with the rank over Q (the rank of ``smith_normal_form``) is
    evidence, not a restatement of the Smith form.
    """
    if not (isinstance(p, int) and p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))):
        raise ValueError(f"modulus must be a prime, got {p!r}")
    rows, cols = _sparse(nrows, ncols, triplets, p)
    return _unit_phase(rows, cols, p)


# ---------------------------------------------------------------------------
# Sparse elimination


def _sparse(nrows, ncols, triplets, p):
    """Rows {r: {c: v}} and columns {c: {r}} of the nonzero entries, mod p if p.

    Repeated (row, col) triplets add up; an index outside the shape raises
    ValueError, whatever its value.
    """
    rows = {}
    cols = {}
    for r, c, v in triplets:
        row = rows.get(r)
        if row is None:
            if not 0 <= r < nrows:
                raise ValueError("triplet index outside the stated shape")
            row = rows[r] = {}
        col = cols.get(c)
        if col is None:
            if not 0 <= c < ncols:
                raise ValueError("triplet index outside the stated shape")
            col = cols[c] = set()
        cur = row.get(c, 0) + v
        if p:
            cur %= p
        if cur:
            row[c] = cur
            col.add(r)
        elif c in row:
            del row[c]
            col.discard(r)
    return rows, cols


def _unit_phase(rows, cols, p) -> int:
    """Eliminate unit pivots in place; return how many there were.

    While some live column holds a unit, take the sparsest such column
    (heap of live column counts, ties by column index), pivot on its unit
    in the shortest row (ties by row index) and clear the column by the
    row operations row += -w * pv^-1 * prow.  The column operations that
    would clear the pivot row then touch no other row, so the pivot splits
    off as a 1x1 block: its row and column are deleted.

    With p = 0 a unit is +-1, each pivot is an invariant factor 1, and what
    is left in rows/cols is the residual that ``smith_normal_form`` hands
    to the dense reduction (the boundary matrices of every cut complex
    with n <= 8 leave none).  With p
    prime every nonzero residue is a unit and entries stay reduced mod p,
    so nothing is left and the count is the rank over F_p.
    """
    counts = {c: len(s) for c, s in cols.items()}
    heap = [(cnt, c) for c, cnt in counts.items() if cnt]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        cnt, c = heapq.heappop(heap)
        if counts.get(c) != cnt:
            continue
        best = None
        for r in cols[c]:
            if p or abs(rows[r][c]) == 1:
                score = (len(rows[r]), r)
                if best is None or score < best:
                    best = score
        if best is None:
            # no unit entry; the column is pushed again when its count changes
            continue
        pr = best[1]
        prow = rows.pop(pr)
        pv = prow.pop(c)
        inv = pow(pv, -1, p) if p else pv
        for r in cols.pop(c):
            if r == pr:
                continue
            row = rows[r]
            m = -row.pop(c) * inv
            if p:
                m %= p
            for cc, x in prow.items():
                cur = row.get(cc, 0) + m * x
                if p:
                    cur %= p
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
        pivots += 1
    return pivots


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

    The unit phase splits off every +-1 pivot it finds as a factor 1.  The
    live rows and columns it leaves are densified and reduced by
    ``smith_with_transforms``, the smallest-magnitude routine that also
    serves the homology bases; its factors follow the 1s.
    """
    rows, cols = _sparse(nrows, ncols, triplets, 0)
    factors = [1] * _unit_phase(rows, cols, 0)
    live = sorted(c for c, col in cols.items() if col)
    residual = [[row.get(c, 0) for c in live] for _, row in sorted(rows.items()) if row]
    if residual:
        factors += smith_with_transforms(residual).factors
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

