"""Integer homology of the cut complexes, by exact rank and Smith normal form.

All ranks come from the one sparse elimination routine of ``linalg``: the
rank over Q is always the rank of the memoized Smith normal form, and the
ranks over F_2, F_3 and F_5 come from one elimination of their own over
Z/30.  Torsion is read off the Smith normal form under either
certificate; for the largest sweeps, rank agreement over Q and F_p for p
in {2, 3, 5} checks it independently -- it rules out p-torsion at exactly
those primes and is reported as such.  Z/30 is F_2 x F_3 x F_5 (the
Chinese remainder theorem), so its unit pivots are pivots over all three
fields at once, and each prime finishes only what that elimination leaves.

The degrees are eliminated from the top down, and each elimination of
the degree-d boundary first deletes the columns at the unit-pivot rows of
the same modulus's elimination of the degree-(d+1) boundary ("clearing";
``linalg.eliminate`` says why that keeps the rank and the Smith factors).
The Smith form clears only with integer unit pivots, and the elimination
over Z/30 only with its own unit pivots, which are invertible in each of
the three fields, so rank agreement stays an elimination independent of
the Smith form.  ``homology_from_matrices`` takes its matrices from the
caller, so it first checks that consecutive boundaries compose to zero,
which clearing relies on.

Clearing deletes a whole rank's worth of columns of degree d when only
unit pivots reduce degree d + 1, so when H_d is zero every column left
adds to the rank and none reduces to zero, the costly kind.  ``verify``
sweeps each n from the sphere C(n, n) down, whose homology is one class
in its top degree.  Each degree with every face a column is eliminated
there, once.  Below the sphere, C(n, k) eliminates its degree k alone,
whose columns are the k-simplices, cleared by its degree k + 1, and
H_k(C(n, k)) = 0 as well; that elimination, rows renumbered, is degree
k + 1 of C(n, k - 1).  So only each sphere's top degree keeps a column
that reduces to zero, one per modulus.

Each elimination, with its pivot rows, is memoized on the ``BoundaryMatrix``
it eliminates, by modulus (0 for the Smith form, 30 for the F_p ranks), and
lives as long as the matrix: ``complexes`` hands the last complex's matrices
on to the next one of the sweep that shares their degree, and carries the
eliminations of a matrix whose rows it renumbers, pivot rows renumbered; the
pivot rows they carry clear that complex's degree below.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from typing import NamedTuple

from .complexes import CellComplex, assert_boundary_squared_zero

CERT_SNF = "snf"
CERT_RANK_AGREE = "rank-agree(2,3,5)"

_AGREE_PRIMES = (2, 3, 5)
_AGREE_MODULUS = prod(_AGREE_PRIMES)


class HomologyProfile(NamedTuple):
    """Per-degree Betti numbers and torsion lists of one complex."""

    betti: tuple
    torsion: tuple  # per degree: invariant factors > 1
    reduced: bool
    certificate: str

    def is_concentrated(self, degree: int) -> bool:
        """True iff all (reduced) homology sits in the stated degree, torsion-free."""
        for d, b in enumerate(self.betti):
            expect_zero = d != degree
            if expect_zero and b != 0:
                return False
        return all(not t for t in self.torsion)


def homology_from_matrices(cell_counts, mats, reduced=False, certification=CERT_SNF):
    """Homology of an explicit chain complex.

    Raises ValueError when two matrices share a degree, or, naming the
    degree, when a matrix's degree, shape or row positions do not fit
    ``cell_counts``, it does not hold ``ncols`` columns of rows and signs
    of one length, or two consecutive boundaries do not compose to zero:
    the matrices then form no chain complex.  Every column is checked
    against the shape before any product is taken.
    """
    by_degree = {m.degree: m for m in mats}
    if len(by_degree) != len(mats):
        raise ValueError("two matrices of the same degree")
    for d, m in by_degree.items():
        if not 1 <= d < len(cell_counts):
            raise ValueError(f"degree {d} is outside 1..{len(cell_counts) - 1}")
        if (m.nrows, m.ncols) != (cell_counts[d - 1], cell_counts[d]):
            raise ValueError(
                f"degree {d} boundary is {m.nrows} x {m.ncols}, "
                f"the cell counts need {cell_counts[d - 1]} x {cell_counts[d]}"
            )
        if len(m.rows) != m.ncols or list(map(len, m.rows)) != list(map(len, m.signs)):
            raise ValueError(
                f"degree {d} boundary columns: need {m.ncols}, each with as many signs as rows"
            )
        positions = list(chain.from_iterable(m.rows))
        if positions and not 0 <= min(positions) <= max(positions) < m.nrows:
            raise ValueError(f"degree {d} boundary has a row outside 0..{m.nrows - 1}")
        above = by_degree.get(d + 1)
        if above is not None and above.nrows != m.ncols:
            raise ValueError(f"boundary shapes do not compose in degree {d + 1}")
    for d, m in by_degree.items():
        above = by_degree.get(d + 1)
        if above is None:
            continue
        try:
            assert_boundary_squared_zero([m, above])
        except AssertionError as exc:
            raise ValueError(f"not a chain complex: {exc}") from None
    return _homology(cell_counts, by_degree, reduced, certification)


def homology_of(cx: CellComplex, reduced=False, certification=CERT_SNF) -> HomologyProfile:
    """Homology of a cut complex; a boundary matrix that an earlier complex
    shared brings its eliminations along and is not eliminated again.
    """
    return _homology(cx.cell_counts(), dict(enumerate(cx.matrices(), 1)), reduced, certification)


def _homology(counts, by_degree, reduced, certification) -> HomologyProfile:
    # a matrix's eliminate(0, cleared) gives its Smith form, whose rank is the
    # rank over Q, and eliminate(30, cleared) its ranks over F_2, F_3 and F_5,
    # one elimination of their own; each also gives its pivot rows, which
    # clear the same modulus's elimination one degree down
    if certification not in (CERT_SNF, CERT_RANK_AGREE):
        raise ValueError(f"unknown certification {certification!r}")
    ranks = [0] * (len(counts) + 1)
    torsion = [[] for _ in counts]
    above = {}  # modulus -> pivot rows of the degree above, if it is a degree here
    for d in sorted(by_degree, reverse=True):
        if d + 1 not in by_degree:
            above = {}
        matrix = by_degree[d]
        sf, above[0] = matrix.eliminate(0, above.get(0))
        ranks[d] = sf.rank
        torsion[d - 1] = [f for f in sf.factors if f > 1]
        if certification == CERT_SNF:
            continue
        m = _AGREE_MODULUS
        ranks_p, above[m] = matrix.eliminate(m, above.get(m))
        for p in _AGREE_PRIMES:
            if ranks_p[p] != sf.rank:
                raise ValueError(
                    f"rank over F_{p} differs from rank over Q in degree {d}: "
                    f"torsion at {p}"
                )
    betti = [counts[d] - ranks[d] - ranks[d + 1] for d in range(len(counts))]
    if reduced:
        betti[0] -= 1
    return HomologyProfile(
        tuple(betti), tuple(tuple(t) for t in torsion), reduced, certification
    )

