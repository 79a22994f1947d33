"""Independent simplicial route to the homology of the k = 3, 4 cuts.

Those cuts are simplicial complexes (every cell is a simplex on its
vertices).  A simplex is oriented by its sorted vertex key, so the
classical alternating-sign boundary over sorted vertex lists, built here
from the keys alone, must reproduce the library's matrices entry for entry
and hence its Betti numbers.  The geometric derivation of those signs is
checked against the determinant in test_complexes.
"""

import itertools

import pytest

from oracles import triplets_to_dense, dense_rank

from halfcube.complexes import build_complex
from halfcube.homology import homology_of
from halfcube.linalg import smith_normal_form


def simplicial_boundaries(cx):
    """Alternating-sign boundary triplets from sorted vertex tuples alone."""
    cells = cx.cells
    index = [{key: i for i, key in enumerate(dim_cells)} for dim_cells in cells]
    mats = []
    for d in range(1, len(cells)):
        trip = []
        for j, key in enumerate(cells[d]):
            for drop in range(len(key)):
                face = key[:drop] + key[drop + 1:]
                trip.append((index[d - 1][face], j, (-1) ** drop))
        mats.append((len(cells[d - 1]), len(cells[d]), trip))
    return mats


def boundary_squared_is_zero(mats):
    for (nr1, nc1, t1), (nr2, nc2, t2) in zip(mats, mats[1:]):
        lower = [[] for _ in range(nc1)]
        for r, c, v in t1:
            lower[c].append((r, v))
        upper = [[] for _ in range(nc2)]
        for r, c, v in t2:
            upper[c].append((r, v))
        for col in upper:
            acc = {}
            for mid, v in col:
                for r, w in lower[mid]:
                    acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                return False
    return True


@pytest.mark.parametrize("n,k", [(4, 3), (4, 4), (5, 3), (5, 4)])
def test_simplicial_route_matches_geometric_route(n, k):
    cx = build_complex(n, k)
    # each cell really is the simplex on its vertices in these cuts
    for dim, dim_cells in enumerate(cx.cells):
        for key in dim_cells:
            assert len(key) == dim + 1
    mats = simplicial_boundaries(cx)
    assert boundary_squared_is_zero(mats)
    for (nr, nc, trip), m in zip(mats, cx.matrices(), strict=True):
        assert (nr, nc) == (m.nrows, m.ncols)
        assert sorted(trip, key=lambda t: (t[1], t[0])) == list(m.entries), (n, k, m.degree)
    counts = cx.cell_counts()
    ranks = [0] * (len(counts) + 1)
    for d, (nr, nc, trip) in enumerate(mats, start=1):
        # the dense oracle, not the SNF that homology_of reads
        ranks[d] = dense_rank(triplets_to_dense(nr, nc, trip))
    betti = [
        counts[d] - ranks[d] - ranks[d + 1] for d in range(len(counts))
    ]
    betti[0] -= 1
    assert tuple(betti) == homology_of(cx, reduced=True).betti, (n, k)


def test_simplicial_route_small_rank_against_dense_oracle():
    cx = build_complex(4, 3)
    for nr, nc, trip in simplicial_boundaries(cx):
        assert smith_normal_form(nr, nc, trip).rank == dense_rank(triplets_to_dense(nr, nc, trip))
