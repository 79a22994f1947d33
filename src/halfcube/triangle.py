"""The Pascal-like triangle T(n, k) behind the nonzero Betti numbers.

Defined by T(n, 0) = T(n, n) = 1 and T(n, k) = 2 T(n-1, k-1) + T(n-1, k),
with T(n, k) = 0 outside 0 <= k <= n (Sloane A119258).  Four independent
routes are implemented -- the recurrence, an alternating sum, a sum of
positive products, and the generating function

    sum_n T(n, n-k) x^n  =  x^k / ((1-2x)^k (1-x))

-- plus the Strehl identity T(n, k-1) + T(n, k) = 2^k C(n, k) that links
consecutive entries.  T(n, n-k) is the predicted (k-1)-st Betti number of
the k-cut complex.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple


class TriangleTable(NamedTuple):
    """Rows 0..n_max of T(n, k)."""

    rows: tuple

    def value(self, n: int, k: int) -> int:
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1


def triangle_recurrence(n_max: int) -> TriangleTable:
    """Fill the table from the defining recurrence."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(2 * prev[k - 1] + prev[k])
        row.append(1)
        rows.append(tuple(row))
    return TriangleTable(tuple(rows))


def triangle_alternating(n: int, k: int) -> int:
    """T(n, k) as sum_{i=n-k}^{n} (-1)^(i-n+k) 2^(n-i) C(n, i)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    # the exponent i - (n - k) is never negative, so every term stays an int
    return sum(
        (-1) ** (i - (n - k)) * (1 << (n - i)) * comb(n, i) for i in range(n - k, n + 1)
    )


def _binom_with_convention(a: int, b: int) -> int:
    # C(-1, -1) means 1 here; every other out-of-range binomial is 0
    if a == -1 and b == -1:
        return 1
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


def triangle_positive(n: int, k: int) -> int:
    """T(n, k) as sum_{i=n-k}^{n} C(n, i) C(i-1, n-k-1), all terms positive."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(
        comb(n, i) * _binom_with_convention(i - 1, n - k - 1)
        for i in range(n - k, n + 1)
    )


def gf_coefficients(k: int, n_max: int) -> list:
    """Coefficients of x^n in x^k / ((1-2x)^k (1-x)), i.e. T(n, n-k), n <= n_max.

    The binomial series of (1-2x)^(-k) is generated by an integer
    recurrence, a running prefix sum supplies the 1/(1-x) factor, and the
    x^k numerator shifts the result.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    out = [0] * (n_max + 1)
    a = 1  # coefficient of x^m in (1-2x)^(-k)
    acc = 0
    for m in range(0, n_max + 1 - k):
        acc += a
        out[m + k] = acc
        a = a * 2 * (m + k) // (m + 1)
    return out


def strehl_identity_check(n_max: int) -> bool:
    """T(n, k-1) + T(n, k) = 2^k C(n, k) for all 1 <= k <= n <= n_max."""
    table = triangle_recurrence(n_max)
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            if table.value(n, k - 1) + table.value(n, k) != (1 << k) * comb(n, k):
                return False
    return True


def predicted_betti(n: int, k: int) -> int:
    """T(n, n-k): the predicted rank of H_{k-1} of the k-cut complex."""
    if not 3 <= k <= n:
        raise ValueError("need 3 <= k <= n")
    return triangle_recurrence(n).value(n, n - k)
