"""Sparse elimination kernels for matrix rank over Q and over F_p.

Both compute matrix rank by row elimination on a dict-of-rows sparse
layout, taking (row, col, value) triplets as input, picking pivots from
the sparsest live column and preferring unit entries so that integer
elimination stays division-free.  Entries are Python integers throughout;
rows whose entries grow large are divided by their content.
"""

from __future__ import annotations

import heapq
from math import gcd

# rows whose largest entry passes this bound get divided by their content
_REDUCE_LIMIT = 1 << 256


def _build(nrows, ncols, triplets):
    rows = [dict() for _ in range(nrows)]
    cols = [set() for _ in range(ncols)]
    for r, c, v in triplets:
        if v == 0:
            continue
        cur = rows[r].get(c, 0) + v
        if cur:
            rows[r][c] = cur
            cols[c].add(r)
        else:
            del rows[r][c]
            cols[c].discard(r)
    return rows, cols


def _pick_column(heap, counts):
    """Pop the live column with the smallest (count, column) pair, or -1.

    A column's entry is pushed only when its count falls to a positive
    value, and a count rises only in a column of the pivot row, which falls
    again when that row retires.  So between pivot steps every live column
    has an entry equal to its count, and entries that differ are stale.  A
    column that reaches count 0 has no rows left and never fills in again.
    """
    while heap:
        cnt, c = heapq.heappop(heap)
        if counts[c] == cnt:
            return c
    return -1


def _set_count(heap, counts, c, cnt):
    if 0 < cnt < counts[c]:
        heapq.heappush(heap, (cnt, c))
    counts[c] = cnt


def rank_int(nrows, ncols, triplets) -> int:
    """Exact rank over the rationals of an integer matrix in triplet form."""
    rows, cols = _build(nrows, ncols, triplets)
    counts = [len(s) for s in cols]
    heap = [(counts[c], c) for c in range(ncols) if counts[c]]
    heapq.heapify(heap)

    rank = 0
    while True:
        c = _pick_column(heap, counts)
        if c < 0:
            break
        # prefer unit pivots, then small magnitude, then short rows
        best = None
        for r in cols[c]:
            v = rows[r][c]
            score = (abs(v) != 1, abs(v), len(rows[r]), r)
            if best is None or score < best[0]:
                best = (score, r, v)
        _, pr, pv = best
        prow = rows[pr]
        for r in list(cols[c]):
            if r == pr:
                continue
            row = rows[r]
            w = row[c]
            if w % pv == 0:
                m = -(w // pv)
                scale = 1
            else:
                g = gcd(pv, w)
                scale = abs(pv // g)
                m = -(w // g) * (1 if pv > 0 else -1)
            big = 0
            for cc, x in prow.items():
                cur = row.get(cc, 0) * scale + m * x
                if cur:
                    row[cc] = cur
                    cols[cc].add(r)
                    if abs(cur) > big:
                        big = abs(cur)
                elif cc in row:
                    del row[cc]
                    cols[cc].discard(r)
                    _set_count(heap, counts, cc, len(cols[cc]))
                    continue
                counts[cc] = len(cols[cc])
            if scale != 1:
                for cc in row:
                    if cc not in prow:
                        row[cc] *= scale
                        if abs(row[cc]) > big:
                            big = abs(row[cc])
            if big > _REDUCE_LIMIT:
                g = 0
                for x in row.values():
                    g = gcd(g, x)
                if g > 1:
                    for cc in row:
                        row[cc] //= g
        # retire the pivot row and column
        for cc in prow:
            cols[cc].discard(pr)
            _set_count(heap, counts, cc, len(cols[cc]))
        rows[pr] = dict()
        cols[c] = set()
        counts[c] = 0
        rank += 1
    return rank


def rank_mod(nrows, ncols, triplets, p) -> int:
    """Rank of an integer matrix over the field of p elements (p prime)."""
    rows = [dict() for _ in range(nrows)]
    cols = [set() for _ in range(ncols)]
    for r, c, v in triplets:
        cur = (rows[r].get(c, 0) + v) % p
        if cur:
            rows[r][c] = cur
            cols[c].add(r)
        else:
            rows[r].pop(c, None)
            cols[c].discard(r)
    counts = [len(s) for s in cols]
    heap = [(counts[c], c) for c in range(ncols) if counts[c]]
    heapq.heapify(heap)

    rank = 0
    while True:
        c = _pick_column(heap, counts)
        if c < 0:
            break
        best = None
        for r in cols[c]:
            score = (len(rows[r]), r)
            if best is None or score < best[0]:
                best = (score, r)
        pr = best[1]
        prow = rows[pr]
        inv = pow(prow[c], p - 2, p)
        for r in list(cols[c]):
            if r == pr:
                continue
            row = rows[r]
            m = (-row[c] * inv) % p
            for cc, x in prow.items():
                cur = (row.get(cc, 0) + m * x) % p
                if cur:
                    row[cc] = cur
                    cols[cc].add(r)
                elif cc in row:
                    del row[cc]
                    cols[cc].discard(r)
                cnt = len(cols[cc])
                if 0 < cnt < counts[cc]:
                    heapq.heappush(heap, (cnt, cc))
                counts[cc] = cnt
        for cc in prow:
            cols[cc].discard(pr)
            _set_count(heap, counts, cc, len(cols[cc]))
        rows[pr] = dict()
        cols[c] = set()
        counts[c] = 0
        rank += 1
    return rank
