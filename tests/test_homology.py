import random
from operator import itemgetter

import pytest

import halfcube
from halfcube import complexes, homology, linalg
from halfcube.complexes import BoundaryMatrix, build_complex
from halfcube.faces import simplex_keys
from halfcube.homology import CERT_RANK_AGREE, CERT_SNF, homology_from_matrices, homology_of
from halfcube.triangle import predicted_betti, triangle_alternating
from oracles import random_flip_set, rank_mod_p, reoriented_matrices


def test_cut3_n4_rank_seven():
    prof = homology_of(build_complex(4, 3), reduced=True)
    assert prof.betti == (0, 0, 7, 0)
    assert prof.torsion == ((), (), (), ())
    assert prof.is_concentrated(2)


def test_boundary_sphere_n4():
    prof = homology_of(build_complex(4, 4), reduced=True)
    assert prof.betti == (0, 0, 0, 1)
    assert prof.is_concentrated(3)


def test_full_complex_contractible():
    for n in (4, 5):
        prof = homology_of(build_complex(n), reduced=True)
        assert all(b == 0 for b in prof.betti)
        assert all(not t for t in prof.torsion)


def test_unreduced_degree_zero():
    prof = homology_of(build_complex(4, 3), reduced=False)
    assert prof.betti[0] == 1


def test_certifications_agree():
    cx = build_complex(5, 4)
    a = homology_of(cx, reduced=True, certification=CERT_SNF)
    c = homology_of(cx, reduced=True, certification=CERT_RANK_AGREE)
    assert a.betti == c.betti
    assert c.torsion == tuple(() for _ in a.betti)
    assert c.is_concentrated(3)


def test_both_certificates_share_one_integer_elimination(monkeypatch):
    # the rank over Q comes only from the memoized Smith form: rank agreement
    # followed by snf eliminates each degree over the integers once, and
    # over Z/30 once, after which F_2, F_3 and F_5 each finish the residual
    # of that one pass (empty for these matrices); no held matrix, so every
    # matrix is new and carries no elimination yet
    monkeypatch.setattr(complexes, "_held", {})
    moduli, residual_cells = [], []
    unit_phase = linalg._unit_phase

    def counting(rows, cols, m):
        moduli.append(m)
        if m in (2, 3, 5):
            residual_cells.append(sum(map(len, rows.values())))
        return unit_phase(rows, cols, m)

    monkeypatch.setattr(linalg, "_unit_phase", counting)
    cx = build_complex(5, 4)
    agree = homology_of(cx, reduced=True, certification=CERT_RANK_AGREE)
    snf = homology_of(cx, reduced=True, certification=CERT_SNF)
    assert agree.betti == snf.betti
    assert agree.torsion == snf.torsion
    for m in (0, 30, 2, 3, 5):
        assert moduli.count(m) == cx.top_dim, m
    assert moduli == [0, 30, 2, 3, 5] * cx.top_dim
    assert residual_cells == [0] * (3 * cx.top_dim)


def test_eliminations_live_on_their_matrix(monkeypatch):
    # one path to linalg.eliminate for homology_of and homology_from_matrices:
    # the matrix's own memo, no module-level table
    for name in ("_eliminations", "boundary_elimination", "boundary_key"):
        assert not hasattr(homology, name), name
    monkeypatch.setattr(complexes, "_held", {})
    calls = []
    eliminate = linalg.eliminate

    def counting(nrows, ncols, columns, m, cleared=None):
        calls.append(m)
        return eliminate(nrows, ncols, columns, m, cleared)

    monkeypatch.setattr(linalg, "eliminate", counting)
    cx = build_complex(5, 4)
    prof = homology_of(cx)
    assert calls == [0] * cx.top_dim
    mats = cx.matrices()
    assert [set(m._eliminations) for m in mats] == [{0}] * cx.top_dim
    # the same matrix objects: every Smith form is read off its matrix
    assert homology_from_matrices(cx.cell_counts(), mats) == prof
    assert len(calls) == cx.top_dim


def test_betti_numbers_fast_path():
    assert homology_of(build_complex(6, 3), reduced=True).betti[2] == 111
    assert homology_of(build_complex(5, 3), reduced=True).betti[2] == 31


def test_closed_form_matches_triangle_route():
    for n in range(4, 10):
        for k in range(3, n + 1):
            assert triangle_alternating(n, n - k) == predicted_betti(n, k)


def test_homology_from_matrices_with_flips():
    cx = build_complex(4, 3)
    base = homology_of(cx, reduced=True)
    rng = random.Random(7)
    flips = random_flip_set(cx, rng)
    mats = reoriented_matrices(cx, flips)
    prof = homology_from_matrices(cx.cell_counts(), mats, reduced=True)
    assert prof.betti == base.betti
    assert prof.torsion == base.torsion


def _smith_of_dense(rows):
    trip = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return linalg.smith_normal_form(len(rows), len(rows[0]), trip)


def test_smith_normal_form_of_dense_and_boundary_matrices():
    sf = _smith_of_dense([[2, 0], [0, 0]])
    assert sf.factors == (2,) and sf.rank == 1
    for dense in ([[2, 0], [0, 3], [0, 0]], ((2, 0), (0, 3), (0, 0))):
        sf = _smith_of_dense(dense)
        assert sf.factors == (1, 6) and sf.rank == 2
    assert linalg.smith_normal_form(3, 2, [(0, 0, 2), (1, 1, 3)]).factors == (1, 6)
    # a gcd/lcm exchange, a row remainder, a column remainder, and pivots
    # that need both
    for dense, factors in (
        ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
        ([[2, 3]], (1,)),
        ([[2], [3]], (1,)),
        ([[-6, 4], [4, -6]], (2, 10)),
        ([[0, -4], [-6, 0]], (2, 12)),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (2, 6, 12)),
    ):
        assert _smith_of_dense(dense).factors == factors, dense
    m = build_complex(4, 4).matrices()[0]
    sf = linalg.smith_normal_form(m.nrows, m.ncols, m.entries)
    assert sf.rank == 7
    assert all(f == 1 for f in sf.factors)


def test_one_smith_normal_form_and_rank_read_off_factors():
    assert halfcube.smith_normal_form is linalg.smith_normal_form
    assert not hasattr(homology, "smith_normal_form")
    for factors in ((), (1,), (1, 2, 6)):
        assert linalg.SmithForm(factors).rank == len(factors)
    with pytest.raises(ValueError, match="divisibility chain"):
        linalg.SmithForm((2, 3))
    with pytest.raises(ValueError, match="divisibility chain"):
        linalg.SmithForm((1, 2))._replace(factors=(2, 3))


def test_torsion_reported_from_factors():
    # fake complex: one 1-cell attached twice to a 0-cycle -> Z/2 in degree 0
    mats = [BoundaryMatrix(1, 1, 1, ((0, 0, 2),))]
    prof = homology_from_matrices([1, 1], mats, reduced=False)
    assert prof.betti == (0, 0)
    assert prof.torsion == ((2,), ())


def test_alternating_betti_sum_matches_closed_form_euler():
    # the nontrivial Euler cross-check: matrix-side homology against the
    # census-side characteristic 1 + (-1)^(k-1) T(n, n-k)
    from halfcube.complexes import euler_characteristic

    for n in (4, 5):
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            prof = homology_of(cx, reduced=False)
            alt = sum((-1) ** d * b for d, b in enumerate(prof.betti))
            assert alt == euler_characteristic(cx)
            assert alt == 1 + (-1) ** (k - 1) * predicted_betti(n, k)


@pytest.mark.parametrize("n", [4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_cleared_eliminations_match_whole_matrices(n):
    # each complex top-down, each modulus clearing with the pivot rows of
    # its own elimination one degree up; every distinct boundary matrix of
    # the cut and full complexes against rank_mod_p and smith_normal_form,
    # over each prime alone and over Z/30 = F_2 x F_3 x F_5 in one pass
    whole = {}
    for k in list(range(3, n + 1)) + [n + 1]:
        cx = build_complex(n, k)
        above = {}
        for d in range(cx.top_dim, 0, -1):
            m = cx.matrices()[d - 1]
            key = complexes.boundary_key(cx, d)
            if key not in whole:
                trip = m.entries
                ranks = {p: rank_mod_p(m.nrows, m.ncols, trip, p) for p in (2, 3, 5)}
                whole[key] = [linalg.smith_normal_form(m.nrows, m.ncols, trip)]
                whole[key] += [{p: r} for p, r in ranks.items()] + [ranks]
            for p, want in zip((0, 2, 3, 5, 30), whole[key]):
                cleared = above.get(p)
                got, above[p] = linalg.eliminate(m.nrows, m.ncols, zip(m.rows, m.signs), p, cleared)
                assert got == want, (n, k, d, p)
                if cleared is not None:
                    # the degree above had no residual: it cleared a whole rank's worth
                    assert sum(cleared) == whole[complexes.boundary_key(cx, d + 1)][0].rank


def test_each_modulus_clears_with_its_own_pivot_rows(monkeypatch):
    # verify's order: the sphere C(6, 6) eliminates every degree; C(6, 5)
    # reuses its degrees 1..4 and eliminates only its new top degree 5,
    # whose columns it takes from C(6, 6)'s; C(6, 4) reuses degrees 1..3,
    # renumbers the rows of C(6, 5)'s degree 5, which carries its
    # eliminations, and eliminates degree 4 alone, cleared by those pivot
    # rows at their places among the 4-simplices
    monkeypatch.setattr(complexes, "_held", {})
    degree, calls = [], []
    eliminate, unit_phase = BoundaryMatrix.eliminate, linalg._unit_phase

    def eliminating(matrix, m, cleared=None):
        degree.append(matrix.degree)
        return eliminate(matrix, m, cleared)

    def recording(rows, cols, m):
        live = {c for c, rs in cols.items() if rs}
        pivots = list(unit_phase(rows, cols, m))
        calls.append((degree[-1], m, live, {r for r, _, _, _ in pivots}))
        return iter(pivots)

    monkeypatch.setattr(BoundaryMatrix, "eliminate", eliminating)
    monkeypatch.setattr(linalg, "_unit_phase", recording)
    returned = {}  # (boundary key, modulus) -> the pivot rows its elimination returned
    eliminated = {}  # k_cut -> the degrees it eliminated
    for cx in (build_complex(6, 6), build_complex(6, 5), build_complex(6, 4)):
        if cx.k_cut == 4:
            # the 4-simplices' places among the 4-faces
            lattice = cx.lattice
            moved = {
                lattice.positions(4)[f]: i
                for i, f in enumerate(simplex_keys(4, lattice.keys[4]))
            }
            for m in (0, 30):
                pivots = returned[((6, 5, "full", "simplex"), m)]
                returned[((6, 5, "simplex", "simplex"), m)] = {moved[r] for r in pivots}
        calls.clear()
        homology_of(cx, certification=CERT_RANK_AGREE)
        # top-down, the Smith form and then one pass over Z/30 in every degree
        # computed, whose residual F_2, F_3 and F_5 each find empty
        assert [m for _, m, _, _ in calls] == [0, 30, 2, 3, 5] * (len(calls) // 5)
        assert [d for d, _, _, _ in calls[::5]] == sorted({d for d, *_ in calls}, reverse=True)
        eliminated[cx.k_cut] = {d for d, *_ in calls}
        for d, m, live, pivots in calls:
            if m in (2, 3, 5):
                assert not live and not pivots, (cx.k_cut, d, m)
                continue
            # every column of a boundary matrix holds entries
            deleted = set(range(cx.cell_counts()[d])) - live
            assert deleted == returned.get((complexes.boundary_key(cx, d + 1), m), set())
            assert bool(deleted) == (d < cx.top_dim), (cx.k_cut, d, m)
            returned[(complexes.boundary_key(cx, d), m)] = pivots
    assert eliminated == {6: {1, 2, 3, 4, 5}, 5: {5}, 4: {4}}
    # C(6, 4)'s degree 5 carries C(6, 5)'s pivot rows, renumbered
    for m in (0, 30):
        carried = cx.matrices()[4].eliminate(m)[1]
        assert {r for r, flag in enumerate(carried) if flag} == returned[(complexes.boundary_key(cx, 5), m)]


@pytest.mark.parametrize("certification", [CERT_SNF, CERT_RANK_AGREE])
def test_torsion_outside_the_agreement_primes_is_reported(certification):
    # one 1-cell glued to the one 0-cell, one 2-cell wrapped 7 times around it:
    # H_1 = Z/7.  Rank agreement over F_2, F_3, F_5 cannot see 7-torsion, so
    # both certificates read the torsion off the Smith form
    mats = [BoundaryMatrix(1, 1, 1, ()), BoundaryMatrix(2, 1, 1, ((0, 0, 7),))]
    prof = homology_from_matrices([1, 1, 1], mats, certification=certification)
    assert prof.certificate == certification
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (7,), ())
    assert not prof.is_concentrated(0)


def _rp2():
    # the 6-vertex real projective plane: H_1 = Z/2, nothing else reduced
    triangles = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
                 (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    edges = sorted({e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))})
    row = {e: i for i, e in enumerate(edges)}
    d1 = [(v, j, s) for j, (a, b) in enumerate(edges) for v, s in ((a, -1), (b, 1))]
    d2 = [
        (row[e], j, s)
        for j, (a, b, c) in enumerate(triangles)
        for e, s in (((b, c), 1), ((a, c), -1), ((a, b), 1))
    ]
    by_column = itemgetter(1, 0)
    mats = [
        BoundaryMatrix(1, 6, len(edges), tuple(sorted(d1, key=by_column))),
        BoundaryMatrix(2, len(edges), len(triangles), tuple(sorted(d2, key=by_column))),
    ]
    return [6, len(edges), len(triangles)], mats


def test_torsion_survives_the_clearing_rp2(monkeypatch):
    counts, mats = _rp2()
    assert counts == [6, 15, 10]
    d2 = mats[1]
    # the unit phase leaves a +-2 residual: only its nine unit pivots clear,
    # not the ten rows an elimination over F_3 pivots on
    d2_columns = list(zip(d2.rows, d2.signs))
    sf, pivot_rows = linalg.eliminate(d2.nrows, d2.ncols, d2_columns, 0)
    assert sf.factors == (1,) * 9 + (2,)
    assert sum(pivot_rows) == 9
    assert sum(linalg.eliminate(d2.nrows, d2.ncols, d2_columns, 3)[1]) == 10
    # mod 30 the +-2 is a zero divisor: F_3 and F_5 finish it as a pivot of
    # their own, F_2 finds it zero, and only the nine joint unit pivots clear
    ranks, joint_rows = linalg.eliminate(d2.nrows, d2.ncols, d2_columns, 30)
    assert ranks == {2: 9, 3: 10, 5: 10}
    assert sum(joint_rows) == 9
    d1 = mats[0]
    d1_columns = zip(d1.rows, d1.signs)
    assert linalg.eliminate(d1.nrows, d1.ncols, d1_columns, 30, joint_rows)[0] == {2: 5, 3: 5, 5: 5}
    live, moduli = [], []
    unit_phase = linalg._unit_phase

    def recording(rows, cols, m):
        live.append({c for c, rs in cols.items() if rs})
        moduli.append(m)
        return unit_phase(rows, cols, m)

    monkeypatch.setattr(linalg, "_unit_phase", recording)
    prof = homology_from_matrices(counts, mats)
    assert prof.betti == (1, 0, 0)
    assert prof.torsion == ((), (2,), ())
    assert set(range(15)) - live[1] == {r for r, f in enumerate(pivot_rows) if f}
    # the top degree's Smith form, then its one pass over Z/30, whose F_2
    # rank already disagrees; the same matrices carry their Smith forms from
    # the call above, so only the pass over Z/30 runs on them
    for fresh, want in ((False, [30, 2, 3, 5]), (True, [0, 30, 2, 3, 5])):
        moduli.clear()
        given = _rp2()[1] if fresh else mats
        with pytest.raises(ValueError, match="torsion at 2"):
            homology_from_matrices(counts, given, certification=CERT_RANK_AGREE)
        assert moduli == want, fresh


def _one_by_one(rows, signs):
    return BoundaryMatrix.from_columns(1, 1, 1, rows, signs)


@pytest.mark.parametrize(
    "upper, message",
    [
        (BoundaryMatrix(2, 1, 1, ((0, 0, 1),)), "not a chain complex: .* degree 2"),
        (BoundaryMatrix(2, 2, 1, ((0, 0, 1), (1, 0, -1))), "do not compose in degree 2"),
        (BoundaryMatrix(2, 1, 2, ()), "degree 2 boundary is 1 x 2"),
        (BoundaryMatrix(3, 1, 1, ()), "degree 3 is outside 1..2"),
        (BoundaryMatrix(1, 2, 1, ()), "two matrices of the same degree"),
        # a row outside 0..nrows - 1 is refused before the product is taken,
        # whether the product would cancel or not
        (BoundaryMatrix(2, 1, 1, ((-1, 0, 1),)), r"degree 2 boundary has a row outside 0\.\.0"),
        (BoundaryMatrix(2, 1, 1, ((1, 0, 1),)), r"degree 2 boundary has a row outside 0\.\.0"),
        (BoundaryMatrix(2, 1, 1, ((0, 0, 1), (-1, 0, -1))), "degree 2 boundary has a row outside"),
        # a 1 x 1 matrix alone, against cell counts [1, 1], whose columns
        # do not fit its shape: refused before any product or elimination
        ([_one_by_one(((0,),), ((1, 1),))], "degree 1 boundary columns: need 1, each"),
        ([_one_by_one(((0, 0),), ((1,),))], "degree 1 boundary columns: need 1, each"),
        ([_one_by_one((), ())], "degree 1 boundary columns: need 1, each"),
        ([_one_by_one(((0,),), ())], "degree 1 boundary columns: need 1, each"),
    ],
)
def test_homology_from_matrices_rejects_a_non_complex(upper, message):
    # d1 d2 = [1, 1]^T != 0, shapes that cannot be multiplied, a matrix
    # that does not fit the cell counts, two for one degree, a row
    # outside the shape, or columns that do not fit the shape
    lower = BoundaryMatrix(1, 2, 1, ((0, 0, 1), (1, 0, 1)))
    counts, mats = ([1, 1], upper) if isinstance(upper, list) else ([2, 1, 1], [lower, upper])
    with pytest.raises(ValueError, match=message):
        homology_from_matrices(counts, mats)


@pytest.mark.slow
def test_n8_cut_complexes_certified(monkeypatch):
    # every n = 8 cut complex: all invariant factors 1, and the ranks over
    # F_2, F_3 and F_5 equal the Smith ranks (rank agreement raises otherwise)
    monkeypatch.setattr(complexes, "_held", {})
    for k in range(3, 9):
        cx = build_complex(8, k)
        agree = homology_of(cx, reduced=True, certification=CERT_RANK_AGREE)
        for m in cx.matrices():
            sf = m.eliminate(0)[0]  # the Smith form homology_of memoized
            assert set(sf.factors) <= {1}, (k, m.degree)
        assert agree.is_concentrated(k - 1), k
        assert agree.betti[k - 1] == predicted_betti(8, k)
