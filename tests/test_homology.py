import random

from halfcube import homology, linalg
from halfcube.complexes import boundary_matrices, build_complex, random_flip_set
from halfcube.homology import (
    CERT_RANK_AGREE,
    CERT_SNF,
    betti_numbers,
    homology_from_matrices,
    homology_of,
    smith_normal_form,
)
from halfcube.triangle import predicted_betti, triangle_alternating


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
    # the rank over Q comes only from the cached Smith form: rank agreement
    # followed by snf eliminates each degree over the integers once, and
    # over F_p once per prime
    monkeypatch.setattr(homology, "_rank_cache", {})
    monkeypatch.setattr(homology, "_snf_cache", {})
    moduli = []
    unit_phase = linalg._unit_phase

    def counting(rows, cols, p):
        moduli.append(p)
        return unit_phase(rows, cols, p)

    monkeypatch.setattr(linalg, "_unit_phase", counting)
    cx = build_complex(5, 4)
    agree = homology_of(cx, reduced=True, certification=CERT_RANK_AGREE)
    snf = homology_of(cx, reduced=True, certification=CERT_SNF)
    assert agree.betti == snf.betti
    assert agree.torsion == snf.torsion
    for p in (0, 2, 3, 5):
        assert moduli.count(p) == cx.top_dim, p


def test_betti_numbers_fast_path():
    assert betti_numbers(build_complex(6, 3), reduced=True)[2] == 111
    assert betti_numbers(build_complex(5, 3), reduced=True)[2] == 31


def test_closed_form_matches_triangle_route():
    for n in range(4, 10):
        for k in range(3, n + 1):
            assert triangle_alternating(n, n - k) == predicted_betti(n, k)


def test_homology_from_matrices_with_flips():
    cx = build_complex(4, 3)
    base = homology_of(cx, reduced=True)
    rng = random.Random(7)
    flips = random_flip_set(cx, rng)
    mats = boundary_matrices(cx, flips)
    prof = homology_from_matrices(cx.cell_counts(), mats, reduced=True)
    assert prof.betti == base.betti
    assert prof.torsion == base.torsion


def test_smith_wrapper_accepts_dense_and_boundary():
    sf = smith_normal_form([[2, 0], [0, 0]])
    assert sf.factors == (2,) and sf.rank == 1
    cx = build_complex(4, 4)
    sf = smith_normal_form(cx.matrices()[0])
    assert sf.rank == 7
    assert all(f == 1 for f in sf.factors)


def test_torsion_reported_from_factors():
    # fake complex: one 1-cell attached twice to a 0-cycle -> Z/2 in degree 0
    from halfcube.complexes import BoundaryMatrix

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
