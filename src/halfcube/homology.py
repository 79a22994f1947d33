"""Integer homology of the cut complexes, by exact rank and Smith normal form.

All ranks come from the one sparse elimination routine of ``linalg``: the
rank over Q is the rank of the Smith normal form, and each rank over F_p is
an elimination over F_p of its own.  Torsion is certified either by the
full Smith normal form or, for the largest sweeps, by rank agreement over
Q and F_p for p in {2, 3, 5} -- the latter rules out p-torsion at exactly
those primes and is reported as such.

Boundary matrices of a cut complex agree with those of the full complex in
all degrees below the cut, so ranks are cached by (n, degree, row-mode,
column-mode, modulus) and shared across the (n, k) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import linalg
from .complexes import BoundaryMatrix, CellComplex, build_complex
from .triangle import predicted_betti

CERT_SNF = "snf"
CERT_RANK = "rank"
CERT_RANK_AGREE = "rank-agree(2,3,5)"

_AGREE_PRIMES = (2, 3, 5)

_rank_cache = {}
_snf_cache = {}


def _mode(cx: CellComplex, dim: int) -> str:
    # below the cut every face is present; at or above it only simplex cells
    return "full" if dim < cx.k_cut else "simplex"


def _cache_key(cx: CellComplex, d: int, modulus: int):
    return (cx.n, d, _mode(cx, d - 1), _mode(cx, d), modulus)


def rank_of_boundary(cx: CellComplex, d: int, modulus: int = 0) -> int:
    """Rank of the degree-d boundary matrix, over Q (modulus 0) or F_p."""
    if d < 1 or d > cx.top_dim:
        return 0
    key = _cache_key(cx, d, modulus)
    got = _rank_cache.get(key)
    if got is None:
        m = cx.matrices()[d - 1]
        if modulus:
            got = linalg.rank_mod_p(m.nrows, m.ncols, m.triplets(), modulus)
        else:
            got = linalg.rank_over_q(m.nrows, m.ncols, m.triplets())
        _rank_cache[key] = got
    return got


def smith_of_boundary(cx: CellComplex, d: int) -> linalg.SmithForm:
    key = _cache_key(cx, d, "snf")
    got = _snf_cache.get(key)
    if got is None:
        m = cx.matrices()[d - 1]
        got = linalg.smith_normal_form(m.nrows, m.ncols, m.triplets())
        _snf_cache[key] = got
    return got


def smith_normal_form(matrix) -> linalg.SmithForm:
    """Smith normal form of a BoundaryMatrix, dense rows, or triplet triple."""
    nrows, ncols, trip = _as_triplets(matrix)
    return linalg.smith_normal_form(nrows, ncols, trip)


def _as_triplets(matrix):
    if isinstance(matrix, BoundaryMatrix):
        return matrix.nrows, matrix.ncols, matrix.triplets()
    if isinstance(matrix, tuple) and len(matrix) == 3:
        return matrix
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    trip = [
        (i, j, v) for i, row in enumerate(matrix) for j, v in enumerate(row) if v
    ]
    return nrows, ncols, trip


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree Betti numbers and torsion lists of one complex."""

    betti: tuple
    torsion: tuple | None  # per degree: invariant factors > 1, or None if uncertified
    reduced: bool
    certificate: str

    def is_concentrated(self, degree: int) -> bool:
        """True iff all (reduced) homology sits in the stated degree, torsion-free."""
        for d, b in enumerate(self.betti):
            expect_zero = d != degree
            if expect_zero and b != 0:
                return False
        if self.torsion is None:
            return False
        return all(not t for t in self.torsion)


def homology_from_matrices(cell_counts, mats, reduced=False, certification=CERT_SNF):
    """Homology of an explicit chain complex (no caching)."""
    by_degree = {m.degree: m for m in mats}

    def rank(d, modulus):
        m = by_degree[d]
        if modulus:
            return linalg.rank_mod_p(m.nrows, m.ncols, m.triplets(), modulus)
        return linalg.rank_over_q(m.nrows, m.ncols, m.triplets())

    def smith(d):
        m = by_degree[d]
        return linalg.smith_normal_form(m.nrows, m.ncols, m.triplets())

    return _homology(cell_counts, by_degree, rank, smith, reduced, certification)


def homology_of(cx: CellComplex, reduced=False, certification=CERT_SNF) -> HomologyProfile:
    """Homology of a cut complex, with cached ranks shared across the sweep."""
    return _homology(
        cx.cell_counts(),
        range(1, cx.top_dim + 1),
        lambda d, modulus: rank_of_boundary(cx, d, modulus),
        lambda d: smith_of_boundary(cx, d),
        reduced,
        certification,
    )


def _homology(counts, degrees, rank, smith, reduced, certification) -> HomologyProfile:
    # rank(d, modulus) and smith(d) give the degree-d boundary's rank over Q
    # (modulus 0) or F_p and its Smith form, for each d in degrees
    ranks = [0] * (len(counts) + 1)
    torsion = None
    if certification == CERT_SNF:
        torsion = [[] for _ in counts]
        for d in degrees:
            sf = smith(d)
            ranks[d] = sf.rank
            torsion[d - 1] = [f for f in sf.factors if f > 1]
    elif certification in (CERT_RANK, CERT_RANK_AGREE):
        for d in degrees:
            ranks[d] = rank(d, 0)
        if certification == CERT_RANK_AGREE:
            for d in degrees:
                for p in _AGREE_PRIMES:
                    if rank(d, p) != ranks[d]:
                        raise ValueError(
                            f"rank over F_{p} differs from rank over Q in degree {d}: "
                            f"torsion at {p}"
                        )
            torsion = [[] for _ in counts]
    else:
        raise ValueError(f"unknown certification {certification!r}")
    betti = [counts[d] - ranks[d] - ranks[d + 1] for d in range(len(counts))]
    if reduced:
        betti[0] -= 1
    return HomologyProfile(
        tuple(betti),
        None if torsion is None else tuple(tuple(t) for t in torsion),
        reduced,
        certification,
    )


def betti_numbers(cx: CellComplex, reduced=False) -> tuple:
    """Rank-only fast path."""
    return homology_of(cx, reduced=reduced, certification=CERT_RANK).betti


def closed_form_rank(n: int, k: int) -> int:
    """Alternating-sum formula for the rank of H_{k-1} of the cut complex."""
    return sum((-1) ** (k + i) * (1 << (n - i)) * comb(n, i) for i in range(k, n + 1))


def betti_table(n_max: int, mode: str = "both", max_cells: int | None = None) -> list:
    """Rows (n, k, entries...) comparing computed and closed-form ranks.

    mode 'closed_form' skips all matrix work; 'computed' skips the formulas;
    'both' checks the two agree.  Oversized jobs are reported as skipped.
    """
    if mode not in ("computed", "closed_form", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    for n in range(4, n_max + 1):
        for k in range(3, n + 1):
            row = {"n": n, "k": k}
            if mode in ("closed_form", "both"):
                cf = closed_form_rank(n, k)
                row["closed_form"] = cf
                row["triangle"] = predicted_betti(n, k)
            if mode in ("computed", "both"):
                if max_cells is not None and _peak_cells(n, k) > max_cells:
                    row["computed"] = None
                    row["status"] = "skipped"
                    out.append(row)
                    continue
                cx = build_complex(n, k)
                row["computed"] = betti_numbers(cx, reduced=True)[k - 1]
            if mode == "both":
                row["status"] = (
                    "ok"
                    if row["computed"] == row["closed_form"] == row["triangle"]
                    else "mismatch"
                )
            else:
                row["status"] = "ok"
            out.append(row)
    return out


def _peak_cells(n: int, k: int) -> int:
    from .faces import face_count

    peak = 0
    for d in range(n + 1):
        if d < k:
            peak = max(peak, face_count(n, d))
        elif d < n:
            peak = max(peak, (1 << (n - 1)) * comb(n, d + 1))
    return peak
