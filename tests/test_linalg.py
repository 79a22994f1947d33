import random
import time
from math import gcd, prod

import pytest

from halfcube import linalg
from oracles import (
    dense_det,
    dense_mat_mul,
    dense_rank,
    dense_rank_mod,
    dense_smith_with_transforms,
    det_sign,
    invariant_factors,
    rank_mod_p,
    reference_unit_phase,
    triplets_to_dense,
)


def random_triplets(rng, nr, nc, lo=-4, hi=4):
    trip = []
    for _ in range(rng.randrange(0, nr * nc + 1)):
        trip.append((rng.randrange(nr), rng.randrange(nc), rng.randint(lo, hi)))
    return trip


def dense_to_triplets(dense):
    return [(i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row) if v]


def test_rank_kernels_against_dense_oracle():
    rng = random.Random(42)
    for _ in range(250):
        nr = rng.randrange(1, 9)
        nc = rng.randrange(1, 9)
        trip = random_triplets(rng, nr, nc)
        dense = triplets_to_dense(nr, nc, trip)
        want = dense_rank(dense)
        assert linalg.smith_normal_form(nr, nc, trip).rank == want
        for p in (2, 3, 5, 7):
            assert rank_mod_p(nr, nc, trip, p) == dense_rank_mod(dense, p)


@pytest.mark.parametrize("m", [6, 30, 210])
def test_joint_ranks_mod_30_against_dense_oracle(m):
    # entries in -15..15 include zero divisors mod m (2 and 3 mod 6; 2, 3,
    # 5, 6, 10 and 15 mod 30; 7 and 14 too mod 210), so most matrices leave
    # the unit phase a residual that each prime finishes over its own F_p
    primes = [p for p in (2, 3, 5, 7) if m % p == 0]
    rng = random.Random(m)
    residuals = 0
    for _ in range(300):
        nr = rng.randrange(1, 9)
        nc = rng.randrange(1, 9)
        trip = random_triplets(rng, nr, nc, -15, 15)
        dense = triplets_to_dense(nr, nc, trip)
        ranks, pivot_rows = linalg.eliminate(nr, nc, linalg.triplet_columns(nc, trip), m)
        assert ranks == {p: dense_rank_mod(dense, p) for p in primes}, trip
        assert ranks == {p: rank_mod_p(nr, nc, trip, p) for p in primes}, trip
        assert sum(pivot_rows) <= min(ranks.values())
        residuals += sum(pivot_rows) < max(ranks.values())
    assert residuals > 100


def test_unit_phase_leaves_no_unit_in_the_residual():
    # a row operation can make a unit in a column the phase passed over
    # without changing that column's count; the column must be searched again
    rng = random.Random(2000)
    for _ in range(2000):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        dense = [[rng.randint(-15, 15) for _ in range(nc)] for _ in range(nr)]
        trip = dense_to_triplets(dense)
        for m in (0, 2, 30):
            rows, cols = linalg._sparse(nr, nc, linalg.triplet_columns(nc, trip), m)
            pivots = list(linalg._unit_phase(rows, cols, m))
            assert not any(gcd(v, m) == 1 for row in rows.values() for v in row.values()), (m, dense)
            if m == 2:
                assert len(pivots) == dense_rank_mod(dense, 2)
        assert linalg.smith_normal_form(nr, nc, trip).rank == dense_rank(dense)
        ranks, _ = linalg.eliminate(nr, nc, linalg.triplet_columns(nc, trip), 30)
        assert ranks == {p: dense_rank_mod(dense, p) for p in (2, 3, 5)}, dense


def _unit_phase_run(phase, nr, nc, columns, m):
    # the records, every rest and residual row in its dict order, and the column sets
    rows, cols = linalg._sparse(nr, nc, columns, m)
    records = [(r, c, v, list(rest.items())) for r, c, v, rest in phase(rows, cols, m)]
    return records, [(r, list(row.items())) for r, row in rows.items()], cols


def test_unit_phase_matches_the_reference_records():
    # the kernel's pivot choices, records and residual rows are those of the
    # plain one-loop unit phase in oracles: on every boundary matrix of
    # C(n, k), n = 4..6, and on random 9 x 9 matrices with entries in -4..4
    from halfcube.complexes import build_complex

    cases = []
    for n in range(4, 7):
        for k in range(3, n + 2):
            for mat in build_complex(n, k).matrices():
                cases.append((mat.nrows, mat.ncols, list(zip(mat.rows, mat.signs))))
    boundary = len(cases)
    rng = random.Random(39)
    for _ in range(400):
        cases.append((9, 9, linalg.triplet_columns(9, random_triplets(rng, 9, 9))))
    seen = {"alone": 0, "residual over Z": 0, "residual mod 30": 0, "unit made": 0}
    for i, (nr, nc, columns) in enumerate(cases):
        for m in (0, 2, 3, 5, 30):
            got = _unit_phase_run(linalg._unit_phase, nr, nc, columns, m)
            want = _unit_phase_run(reference_unit_phase, nr, nc, columns, m)
            assert got == want, (i, m)
            records, residual, _ = want
            seen["alone"] += sum(not rest for _, _, _, rest in records)
            if i < boundary:
                continue
            left = any(row for _, row in residual)
            seen["residual over Z"] += m == 0 and left
            seen["residual mod 30"] += m == 30 and left
            # a pivot column that held no unit before the phase began
            start = linalg._sparse(nr, nc, columns, m)[0]
            seen["unit made"] += any(
                all(gcd(row.get(c, 0), m) != 1 for row in start.values()) for _, c, _, _ in records
            )
    assert all(count > 20 for count in seen.values()), seen


def test_joint_pivot_rows_clear_for_every_prime():
    # A B = 0 with A's rows drawn from B's integer left kernel (the rows of
    # U past the rank in U B V = D, from the dense oracle); the rows where
    # the elimination of B mod 30 pivoted on a unit clear A for F_2, F_3
    # and F_5 at once
    rng = random.Random(31)
    cleared_some = 0
    for _ in range(150):
        nr = rng.randrange(2, 8)
        nc = rng.randrange(1, 7)
        b_trip = random_triplets(rng, nr, nc, -15, 15)
        b = triplets_to_dense(nr, nc, b_trip)
        factors, U = dense_smith_with_transforms(b)[:2]
        kernel = U[len(factors):]
        if not kernel:
            continue
        a_rows = rng.randrange(1, 6)
        a = [[0] * nr for _ in range(a_rows)]
        for row in a:
            for vec in kernel:
                coeff = rng.randint(-3, 3)
                for j, x in enumerate(vec):
                    row[j] += coeff * x
        assert all(not any(r) for r in dense_mat_mul(a, b))
        a_trip = dense_to_triplets(a)
        pivot_rows = linalg.eliminate(nr, nc, linalg.triplet_columns(nc, b_trip), 30)[1]
        whole = linalg.eliminate(a_rows, nr, linalg.triplet_columns(nr, a_trip), 30)[0]
        assert whole == {p: dense_rank_mod(a, p) for p in (2, 3, 5)}
        a_columns = linalg.triplet_columns(nr, a_trip)
        assert linalg.eliminate(a_rows, nr, a_columns, 30, pivot_rows)[0] == whole, (a, b)
        cleared_some += any(pivot_rows)
    assert cleared_some > 50


def test_rank_empty_and_zero():
    assert linalg.smith_normal_form(0, 5, []).rank == 0
    assert linalg.smith_normal_form(5, 0, []).rank == 0
    assert linalg.smith_normal_form(3, 3, [(0, 0, 0)]).rank == 0
    assert linalg.smith_normal_form(3, 3, [(1, 1, 5)]).rank == 1


def test_rank_duplicate_triplets_accumulate():
    # (0,0) gets 2 + (-2) = 0; the matrix is the zero matrix
    trip = [(0, 0, 2), (0, 0, -2)]
    assert linalg.smith_normal_form(1, 1, trip).rank == 0
    assert rank_mod_p(1, 1, trip, 3) == 0


def test_smith_diag_and_rank_one():
    sf = linalg.smith_normal_form(2, 2, [(0, 0, 2)])
    assert sf.factors == (2,) and sf.rank == 1
    sf = linalg.smith_normal_form(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    assert sf.factors == (1,) and sf.rank == 1


def test_smith_triangle_incidence():
    # oriented boundary of a 3-cycle graph
    trip = [(0, 0, -1), (1, 0, 1), (1, 1, -1), (2, 1, 1), (0, 2, 1), (2, 2, -1)]
    sf = linalg.smith_normal_form(3, 3, trip)
    assert sf.factors == (1, 1) and sf.rank == 2


def test_smith_torsion_example():
    # standard Klein-bottle style relation matrix
    sf = linalg.smith_normal_form(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert sf.factors == (1, 2)


def certify_smith(dense, factors, U, Uinv, V, Vinv):
    """U M V = D = diag(d1 | d2 | ...), d_i > 0, and U, V unimodular (integer inverses)."""
    nr, nc = len(dense), len(dense[0])
    assert all(a > 0 for a in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    d = dense_mat_mul(dense_mat_mul(U, dense), V)
    for i in range(nr):
        for j in range(nc):
            assert d[i][j] == (factors[i] if i == j and i < len(factors) else 0)
    eye_u = dense_mat_mul(U, Uinv)
    eye_v = dense_mat_mul(V, Vinv)
    assert all(eye_u[i][j] == (i == j) for i in range(nr) for j in range(nr))
    assert all(eye_v[i][j] == (i == j) for i in range(nc) for j in range(nc))


def factors_matching_oracle(nr, nc, trip):
    """The dense oracle's (factors, U, Uinv, V, Vinv), after checking smith_normal_form's factors against it."""
    want = dense_smith_with_transforms(triplets_to_dense(nr, nc, trip))
    sf = linalg.smith_normal_form(nr, nc, trip)
    assert list(sf.factors) == want[0], trip
    assert sf.rank == len(want[0])
    return want


def test_smith_divisibility_chain_random():
    # the reference is the determinantal divisors: d_k = gcd of the k x k minors
    rng = random.Random(9)
    residuals = 0
    for _ in range(150):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        trip = random_triplets(rng, nr, nc, -9, 9)
        dense = triplets_to_dense(nr, nc, trip)
        sf = linalg.smith_normal_form(nr, nc, trip)
        assert list(sf.factors) == invariant_factors(dense), trip
        assert sf.rank == dense_rank(dense)
        rows, cols = linalg._sparse(nr, nc, linalg.triplet_columns(nc, trip), 0)
        list(linalg._unit_phase(rows, cols, 0))
        residuals += any(rows.values())
    # most cases leave the unit phase a residual for _residual_factors
    assert residuals > 50


def test_smith_recovers_known_invariant_factors():
    # scramble a known diagonal by random unimodular row/column operations;
    # the invariant factors must come back unchanged
    from itertools import combinations

    def invariant_factors_of_diagonal(diag):
        nonzero = [abs(d) for d in diag if d]
        out = []
        prev = 1
        for k in range(1, len(nonzero) + 1):
            g = 0
            for combo in combinations(nonzero, k):
                g = gcd(g, prod(combo))
            out.append(g // prev)
            prev = g
        return out

    rng = random.Random(77)
    for _ in range(60):
        size = rng.randrange(1, 5)
        diag = [rng.choice((1, 1, 2, 3, 4, 6, 0)) for _ in range(size)]
        m = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
        for _ in range(12):
            a, b = rng.randrange(size), rng.randrange(size)
            if a == b:
                continue
            mult = rng.randint(-2, 2)
            if rng.random() < 0.5:
                m[a] = [x + mult * y for x, y in zip(m[a], m[b])]
            else:
                for row in m:
                    row[a] += mult * row[b]
        trip = [(i, j, m[i][j]) for i in range(size) for j in range(size) if m[i][j]]
        sf = linalg.smith_normal_form(size, size, trip)
        assert list(sf.factors) == invariant_factors_of_diagonal(diag), (diag, m)


def test_smith_matches_dense_route_on_boundary_matrices():
    # the unit phase alone diagonalizes every one of these matrices, so the
    # sparse Smith form leaves _residual_factors nothing; the dense oracle
    # reduces them whole
    from halfcube.complexes import build_complex

    for n in (4, 5):
        for k in range(3, n + 2):
            for m in build_complex(n, k).matrices():
                trip = m.entries
                rows, cols = linalg._sparse(m.nrows, m.ncols, zip(m.rows, m.signs), 0)
                list(linalg._unit_phase(rows, cols, 0))
                assert not any(rows.values()), (n, k, m.degree)
                factors_matching_oracle(m.nrows, m.ncols, trip)


def test_smith_near_unimodular_random():
    # mostly +-1 entries with a few larger ones: the unit pivots split off
    # first and _residual_factors finishes the residual; too
    # large for minors, so the reference is the dense oracle's reduction of
    # the whole matrix, certified by its transforms
    rng = random.Random(31)
    saw_torsion = False
    for _ in range(120):
        nr = rng.randrange(1, 13)
        nc = rng.randrange(1, 13)
        trip = []
        for i in range(nr):
            for j in range(nc):
                x = rng.random()
                if x < 0.3:
                    trip.append((i, j, rng.choice((-1, 1))))
                elif x < 0.36:
                    trip.append((i, j, rng.choice((-3, -2, 2, 3))))
        dense = triplets_to_dense(nr, nc, trip)
        sf = linalg.smith_normal_form(nr, nc, trip)
        want = dense_smith_with_transforms(dense)
        certify_smith(dense, *want)
        assert list(sf.factors) == want[0], trip
        assert sf.rank == dense_rank(dense)
        saw_torsion = saw_torsion or sf.factors[-1:] > (1,)
    assert saw_torsion


def test_smith_with_transforms_identities():
    # the sparse Smith form against the dense oracle's, whose transforms
    # certify it: U M V = D with U and V unimodular
    rng = random.Random(10)
    for _ in range(100):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        trip = random_triplets(rng, nr, nc, -6, 6)
        dense = triplets_to_dense(nr, nc, trip)
        factors, U, Uinv, V, Vinv = factors_matching_oracle(nr, nc, trip)
        certify_smith(dense, factors, U, Uinv, V, Vinv)
        assert factors == invariant_factors(dense)
        assert det_sign(U) in (1, -1)
        assert det_sign(V) in (1, -1)


def test_smith_with_transforms_matches_dense_oracle_with_torsion():
    # non-unit entries, so the unit phase leaves a residual, and
    # _residual_factors meets pivots above 1, remainders in the pivot's row
    # and column, and split-off pivots that divide no later one
    rng = random.Random(23)
    torsion = 0
    for _ in range(400):
        nr = rng.randrange(1, 9)
        nc = rng.randrange(1, 9)
        dense = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(nc)]
                 for _ in range(nr)]
        factors = factors_matching_oracle(nr, nc, dense_to_triplets(dense))[0]
        torsion += any(f > 1 for f in factors)
    assert torsion > 100
    for dense in ([[0, 0], [0, 0]], [[], []], [[0, 4, 6]], [[2], [3]]):
        factors_matching_oracle(len(dense), len(dense[0]), dense_to_triplets(dense))


def test_smith_scales_on_random_torsion_matrices():
    # square matrices of density 0.3 with entries in -9..9: the residual is
    # nearly the whole matrix; checked size by size, smallest first, so a
    # reduction whose cost explodes fails at the first size instead of hanging
    for size in (20, 30, 40):
        rng = random.Random(size)
        trip = [(i, j, rng.choice([v for v in range(-9, 10) if v]))
                for i in range(size) for j in range(size) if rng.random() < 0.3]
        start = time.perf_counter()
        sf = linalg.smith_normal_form(size, size, trip)
        elapsed = time.perf_counter() - start
        assert elapsed < 2, (size, elapsed)
        dense = triplets_to_dense(size, size, trip)
        rank = dense_rank(dense)
        assert sf.rank == rank, size
        if rank == size:
            assert prod(sf.factors) == abs(dense_det(dense)), size
        for p in (2, 3, 5, 7):
            assert sum(f % p == 0 for f in sf.factors) == rank - dense_rank_mod(dense, p), (size, p)


def test_unit_pivots_are_triangular_and_refuse_a_residual():
    # on a boundary matrix the records are the integer unit pivots, +-1
    # each, one per unit of rank, and a pivot's rest holds no column an
    # earlier pivot took; a matrix the unit phase cannot finish is refused,
    # even [[2, 3]], whose one invariant factor is 1
    from halfcube.complexes import build_complex

    for m in build_complex(5, 4).matrices():
        pivots = linalg.unit_pivots(m.nrows, m.ncols, zip(m.rows, m.signs))
        assert len(pivots) == linalg.smith_normal_form(m.nrows, m.ncols, m.entries).rank
        assert len({r for r, _, _, _ in pivots}) == len({c for _, c, _, _ in pivots}) == len(pivots)
        taken = set()
        for r, c, v, rest in pivots:
            assert v in (1, -1) and c not in rest and not taken & set(rest), (m.degree, r, c)
            taken.add(c)
    assert linalg.smith_normal_form(1, 2, [(0, 0, 2), (0, 1, 3)]).factors == (1,)
    for nrows, ncols, columns in ((1, 2, [((0,), (2,)), ((0,), (3,))]), (1, 1, [((0,), (2,))])):
        with pytest.raises(ValueError, match="left entries"):
            linalg.unit_pivots(nrows, ncols, columns)


def test_det_sign_matches_fraction_determinant():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = dense_det(m)
        assert det_sign(m) == (det > 0) - (det < 0)


def test_kernel_equivalence_on_boundary_matrices():
    # the rank over Q is the rank of the Smith normal form; it and the ranks
    # over F_p are checked against an independent route, the dense oracles
    from halfcube.complexes import build_complex

    for k in range(3, 7):
        for m in build_complex(5, k).matrices():
            trip = m.entries
            dense = triplets_to_dense(m.nrows, m.ncols, trip)
            want = dense_rank(dense)
            assert linalg.smith_normal_form(m.nrows, m.ncols, trip).rank == want
            for p in (2, 3, 5):
                assert rank_mod_p(m.nrows, m.ncols, trip, p) == dense_rank_mod(dense, p)


def test_pure_kernels_pivot_on_the_sparsest_live_column():
    # over F_p every nonzero entry is a unit, so each pivot column must be
    # the smallest (count, column) pair among live columns; the routine
    # retires a pivot column with cols.pop, which is where the pick is seen
    from halfcube.complexes import build_complex

    picks = []

    class Columns(dict):
        def pop(self, c):
            live = min((len(rs), cc) for cc, rs in self.items() if rs)
            assert (len(self[c]), c) == live
            picks.append(c)
            return super().pop(c)

    rng = random.Random(43)
    mats = [(m.nrows, m.ncols, m.entries) for m in build_complex(5, 4).matrices()]
    mats += [(9, 9, random_triplets(rng, 9, 9, -2, 2)) for _ in range(60)]
    for nr, nc, trip in mats:
        dense = triplets_to_dense(nr, nc, trip)
        for p in (2, 3):
            rows, cols = linalg._sparse(nr, nc, linalg.triplet_columns(nc, trip), p)
            rank = sum(1 for _ in linalg._unit_phase(rows, Columns(cols), p))
            assert rank == dense_rank_mod(dense, p)
            assert not rows or not any(rows.values())
    assert len(picks) > 1000


@pytest.mark.parametrize("p", [4, 6, 1, 0, -3, 2.0, None, 30, True])
def test_rank_mod_p_rejects_a_modulus_that_is_not_prime(p):
    # [[2, 1], [1, 3]] has determinant 5: rank 2 over every F_p but F_5
    trip = [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 3)]
    assert [rank_mod_p(2, 2, trip, q) for q in (2, 3, 5, 7, 97)] == [2, 2, 1, 2, 2]
    with pytest.raises(ValueError, match="prime"):
        rank_mod_p(2, 2, trip, p)


@pytest.mark.parametrize(
    "trip", [[(2, 0, 1)], [(0, 2, 1)], [(-1, 0, 1)], [(0, -1, 1)], [(0, 0, 1), (5, 1, 0)]]
)
def test_rank_functions_reject_triplets_outside_the_shape(trip):
    for rank in (
        lambda nr, nc, t: rank_mod_p(nr, nc, t, 3),
        linalg.smith_normal_form,
        lambda nr, nc, t: linalg.unit_pivots(nr, nc, linalg.triplet_columns(nc, t)),
        # clearing every column must not let an index outside the shape through
        lambda nr, nc, t: linalg.eliminate(nr, nc, linalg.triplet_columns(nc, t), 0, bytes([1] * nc)),
    ):
        with pytest.raises(ValueError, match="triplet index outside the stated shape"):
            rank(2, 2, trip)


def test_eliminate_rejects_a_bad_modulus_or_clearing_mask():
    columns = linalg.triplet_columns(2, [(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 3)])
    assert linalg.eliminate(2, 2, columns, 5) == ({5: 1}, b"\1\0")
    assert linalg.eliminate(2, 2, columns, 5, b"\0\1") == ({5: 1}, b"\1\0")
    # mod 30 the unit 1 at (1, 0) is the one pivot; it leaves 1 - 2 * 3 = -5 at
    # (0, 1), a zero divisor that only F_2 and F_3 count, while mod 6 it is a unit
    assert linalg.eliminate(2, 2, columns, 30) == ({2: 2, 3: 2, 5: 1}, b"\0\1")
    assert linalg.eliminate(2, 2, columns, 6) == ({2: 2, 3: 2}, b"\1\1")
    for p in (1, 4, 12, -2, -30, 8, 18, True, False, 0.0, 30.0, None):
        with pytest.raises(ValueError, match="modulus must be 0 or a squarefree product of primes"):
            linalg.eliminate(2, 2, columns, p)
    for cleared in (b"", b"\0", b"\0\0\0"):
        with pytest.raises(ValueError, match="one flag per column"):
            linalg.eliminate(2, 2, columns, 0, cleared)
    # a column count other than ncols is refused like an index outside the shape
    for ncols in (1, 3):
        with pytest.raises(ValueError, match="triplet index outside the stated shape"):
            linalg.eliminate(2, ncols, columns, 0)
