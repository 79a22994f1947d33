import hashlib
import random
from math import comb

import pytest

from halfcube import complexes, faces, linalg
from halfcube.cli import run_faces
from halfcube.complexes import (
    BoundaryMatrix,
    assert_boundary_squared_zero,
    boundary_key,
    boundary_matrices,
    build_complex,
    column_signs,
    euler_characteristic,
    frame_parity,
    incidence_sign,
)
from halfcube.faces import KIND_SIMPLEX, _opposite_point, _span, build_face_lattice, simplex_keys
from halfcube.homology import CERT_RANK_AGREE, CERT_SNF, homology_of
from halfcube.linalg import smith_normal_form
from oracles import (
    Mask,
    Vertex,
    echelon_orientation_tuple,
    face_of,
    frame_sign,
    gram_sign,
    halfcube_face,
    key_kind,
    lattice_faces,
    orientation_of,
    orientation_tuple,
    random_flip_set,
    reoriented_matrices,
    top_face,
)


def test_clique_complex_census_n4():
    cx = build_complex(4, 4)
    assert cx.cell_counts() == [8, 24, 32, 16]


def test_cut3_census_n5():
    cx = build_complex(5, 3)
    assert cx.cell_counts() == [16, 80, 160, 80, 16]


def test_full_complex_is_everything():
    cx = build_complex(5)
    assert cx.cell_counts() == [16, 80, 160, 120, 26, 1]
    assert cx.is_full
    assert euler_characteristic(cx) == 1
    assert euler_characteristic(build_complex(6)) == 1


def test_deleted_cell_counts_formula():
    # the cut removes 2^(n-i) C(n,i) cells in each dimension i >= k_cut
    for n in (5, 6):
        faces = lattice_faces(build_face_lattice(n))
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            for i in range(n + 1):
                have = len(cx.cells[i]) if i < len(cx.cells) else 0
                removed = len(faces[i]) - have
                want = (1 << (n - i)) * comb(n, i) if i >= k else 0
                assert removed == want, (n, k, i)


def test_euler_characteristic_values():
    assert euler_characteristic(build_complex(4, 3)) == 8
    assert euler_characteristic(build_complex(4, 4)) == 0
    assert euler_characteristic(build_complex(6, 4)) == -48


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_complex(3, 3)
    with pytest.raises(ValueError):
        build_complex(5, 2)
    with pytest.raises(ValueError):
        build_complex(5, 7)


def test_edge_columns_one_plus_one_minus():
    cx = build_complex(4, 4)
    for signs in cx.matrices()[0].signs:
        assert sorted(signs) == [-1, 1]


def test_simplex_column_support_sizes():
    cx = build_complex(5, 3)
    for m in cx.matrices():
        for j, (rows, signs) in enumerate(zip(m.rows, m.signs)):
            cell = cx.cells[m.degree][j]
            assert len(rows) == len(signs) == len(cx.lattice.facets(cell))
            assert all(v in (-1, 1) for v in signs)


def test_rank_d1_connected_graph():
    cx = build_complex(4, 4)
    m = cx.matrices()[0]
    assert smith_normal_form(m.nrows, m.ncols, m.entries).rank == 7


def test_boundary_squared_zero_sweep():
    for n in (4, 5):
        for k in list(range(3, n + 1)) + [n + 1]:
            cx = build_complex(n, k)
            cx.matrices()  # asserts internally


def test_skeleton_agreement_below_cut():
    # matrices of the cut complex equal the full ones in degrees < k_cut
    for n in (5, 6):
        full = build_complex(n).matrices()
        for k in range(3, n + 1):
            cut = build_complex(n, k).matrices()
            for d in range(1, k):
                assert cut[d - 1].entries == full[d - 1].entries, (n, k, d)


def test_orientation_tuple_is_lex_smallest_prefix():
    faces = lattice_faces(build_face_lattice(5))
    for f in faces[3][:40]:
        tup = orientation_tuple(f)
        assert len(tup) == f.dim + 1
        assert tup[0] == f.key[0]
        assert all(a in f.key for a in tup)
        idx = [f.key.index(a) for a in tup]
        assert idx == sorted(idx)
    # simplices use every vertex in order
    for f in faces[2][:20]:
        assert orientation_tuple(f) == f.key


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orientation_tuple_matches_echelon_search(n):
    # a face with dim + 1 vertices (a simplex, or a tetrahedron L(v, S) with
    # |S| = 3) returns its key without the search; every face must agree
    # with the search itself
    lat = build_face_lattice(n)
    for dim_faces in lattice_faces(lat):
        for f in dim_faces:
            assert orientation_tuple(f) == echelon_orientation_tuple(n, f.key, f.dim), f


def test_flipped_orientations_still_give_chain_complex():
    cx = build_complex(4, 4)
    rng = random.Random(5)
    flips = random_flip_set(cx, rng)
    assert flips
    mats = reoriented_matrices(cx, flips)
    assert_boundary_squared_zero(mats)
    base = cx.matrices()
    changed = any(a.entries != b.entries for a, b in zip(mats, base))
    assert changed


def test_boundary_squared_check_catches_a_flipped_entry():
    # a wrong sign in any degree breaks the product with its neighbours,
    # whether the matrix was built from triplets or from assembled columns
    mats = build_complex(4, 4).matrices()
    for i, m in enumerate(mats):
        r, c, v = m.entries[0]
        bad = BoundaryMatrix(m.degree, m.nrows, m.ncols, ((r, c, -v),) + m.entries[1:])
        # the last column, its first sign negated
        last = (-m.signs[-1][0],) + m.signs[-1][1:]
        flipped = BoundaryMatrix.from_columns(
            m.degree, m.nrows, m.ncols, m.rows, m.signs[:-1] + (last,)
        )
        for wrong in (bad, flipped):
            assert wrong != m
            with pytest.raises(AssertionError, match="boundary squared nonzero"):
                assert_boundary_squared_zero(mats[:i] + [wrong] + mats[i + 1:])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_triplet_construction_equals_the_assembled_columns(n, monkeypatch):
    # BoundaryMatrix(degree, nrows, ncols, entries) groups the triplets into
    # the columns that assembly builds: equal, with equal hash, repr and
    # eliminations, for every cut and the full complex
    monkeypatch.setattr(complexes, "_held", {})
    for k in range(3, n + 2):
        cx = build_complex(n, k)
        for m in cx.matrices():
            bare = BoundaryMatrix(m.degree, m.nrows, m.ncols, m.entries)
            assert bare == m and hash(bare) == hash(m), (n, k, m.degree)
            assert repr(bare) == repr(m)
            assert bare.rows == m.rows and bare.signs == m.signs
            for modulus in (0, 30):
                assert bare.eliminate(modulus) == m.eliminate(modulus), (n, k, m.degree, modulus)
            # simplex columns share the alternating sign tuples
            for cell, signs in zip(cx.cells[m.degree], m.signs):
                if key_kind(n, cell) == KIND_SIMPLEX:
                    assert signs is complexes._ALTERNATING[m.degree], (n, k, cell)


def test_eliminations_are_no_part_of_a_matrix(monkeypatch):
    # a matrix memoizes its eliminations, by modulus, but construction,
    # equality, hashing and repr ignore them
    monkeypatch.setattr(complexes, "_held", {})
    for m in build_complex(4, 3).matrices():
        bare = BoundaryMatrix(m.degree, m.nrows, m.ncols, m.entries)
        assert bare._eliminations == {} and m._eliminations == {}
        got = m.eliminate(0)
        assert m.eliminate(0, bytes(m.ncols)) is got
        m.eliminate(30)
        assert set(m._eliminations) == {0, 30}
        back = BoundaryMatrix.from_columns(m.degree, m.nrows, m.ncols, m.rows, m.signs)
        assert back == m == bare and hash(back) == hash(m)
        assert back._eliminations == {} and repr(back) == repr(m)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_next_cut_assembles_only_the_degrees_at_the_cut(monkeypatch, n):
    # C(n, k) and C(n, k + 1) share every boundary but those of degrees k and k + 1
    monkeypatch.setattr(complexes, "_held", {})
    build_complex(n, 3).matrices()
    for k in range(3, n + 1):
        held = dict(complexes._held)
        cx = build_complex(n, k + 1)
        for d, m in enumerate(cx.matrices(), start=1):
            key = boundary_key(cx, d)
            if d in (k, k + 1):
                assert key not in held, (n, k, d)
            else:
                assert m is held[key], (n, k, d)


def test_assembly_computes_each_columns_facets_once(monkeypatch):
    # one FaceLattice.facets call per column, with the signs computed or given
    monkeypatch.setattr(complexes, "_held", {})
    cx = build_complex(5, 4)
    calls = []
    facets = faces.FaceLattice.facets

    def recording(lat, key):
        calls.append(key)
        return facets(lat, key)

    monkeypatch.setattr(faces.FaceLattice, "facets", recording)
    mats = boundary_matrices(cx)
    columns = sorted(key for cs in cx.cells[1:] for key in cs)
    assert sorted(calls) == columns
    calls.clear()
    complexes._held.clear()
    assert boundary_matrices(cx, [m.sign_text() for m in mats]) == mats
    assert sorted(calls) == columns


def test_flipped_assembly_leaves_the_held_matrices_alone(monkeypatch):
    monkeypatch.setattr(complexes, "_held", {})
    cx = build_complex(5, 4)
    mats = cx.matrices()
    held = dict(complexes._held)
    assert [held[boundary_key(cx, d)] for d in range(1, cx.top_dim + 1)] == mats
    flipped = reoriented_matrices(cx, random_flip_set(cx, random.Random(3)))
    assert not any(m is h for m in flipped for h in held.values())
    assert complexes._held.keys() == held.keys()
    assert all(complexes._held[key] is m for key, m in held.items())


@pytest.mark.parametrize(
    "n", [pytest.param(n, marks=[pytest.mark.slow] * (n == 8)) for n in range(4, 9)]
)
def test_borrowed_matrices_equal_the_assembled_ones(n, monkeypatch):
    # the verify sweep of one n, from the sphere C(n, n) down: each complex
    # takes what the one before it holds, and its homology memoizes
    # eliminations.  Every matrix equals the one assembled with nothing
    # held, and every elimination carried to a degree whose rows were
    # renumbered equals linalg.eliminate of that degree, cleared by the
    # pivot rows of the degree above: result and pivots
    monkeypatch.setattr(complexes, "_held", {})
    certification = CERT_SNF if n <= 6 else CERT_RANK_AGREE
    carried = 0
    for k in range(n, 2, -1):
        before = {id(m) for m in complexes._held.values()}
        cx = build_complex(n, k)
        mats = cx.matrices()
        held = dict(complexes._held)
        complexes._held.clear()
        fresh = boundary_matrices(build_complex(n, k))
        complexes._held.clear()
        complexes._held.update(held)
        for m, f in zip(mats, fresh, strict=True):
            assert (m.degree, m.nrows, m.ncols) == (f.degree, f.nrows, f.ncols), (n, k)
            assert m.rows == f.rows and m.signs == f.signs, (n, k, m.degree)
            assert m.entries == f.entries, (n, k, m.degree)
        for d, m in enumerate(mats, start=1):
            if id(m) in before or not m._eliminations:
                continue  # held, or without eliminations of its own yet
            above = mats[d] if d < len(mats) else None
            for modulus, got in m._eliminations.items():
                cleared = None if above is None else above.eliminate(modulus)[1]
                columns = zip(m.rows, m.signs)
                want = linalg.eliminate(m.nrows, m.ncols, columns, modulus, cleared)
                assert got == want, (n, k, d, modulus)
                carried += 1
        homology_of(cx, reduced=True, certification=certification)
    # C(n, k), 3 <= k <= n - 2, renumbers the rows of degree k + 1; each modulus carries
    assert carried == max(n - 4, 0) * (1 if certification == CERT_SNF else 2)


@pytest.mark.parametrize("n", [5, 6])
def test_a_flipped_sign_in_an_assembled_column_is_caught(n, monkeypatch):
    # built upward, C(n, k) takes its degrees below k - 1 from C(n, k - 1),
    # but no held matrix's cells contain those of its degrees k - 1 (full,
    # full) and k (full, simplex): it assembles both whole.  A wrong sign in
    # a half-cube column of degree k - 1, beside the taken degree k - 2,
    # still raises, and leaves the held matrices alone
    monkeypatch.setattr(complexes, "_held", {})
    signs = complexes.column_signs
    for k in range(4, n + 1):
        build_complex(n, k - 1).matrices()
        held = dict(complexes._held)
        cx = build_complex(n, k)
        d = k - 1
        j, cell = next(
            (j, c) for j, c in enumerate(cx.cells[d]) if key_kind(n, c) != KIND_SIMPLEX
        )

        def flipping(c, facet_keys):
            got = signs(c, facet_keys)
            return (-got[0],) + got[1:] if c is cell else got

        monkeypatch.setattr(complexes, "column_signs", flipping)
        with pytest.raises(AssertionError, match=f"nonzero in degree {d} column {j}$"):
            boundary_matrices(cx)
        monkeypatch.setattr(complexes, "column_signs", signs)
        assert complexes._held == held
        assert all(complexes._held[key] is m for key, m in held.items())
        # unflipped, degrees k - 1 and k share no column with a held matrix
        held_columns = {id(rows) for m in held.values() for rows in m.rows}
        for e, m in enumerate(cx.matrices(), start=1):
            if e in (d, k):
                assert not held_columns & set(map(id, m.rows)), (n, k, e)
            else:
                assert m is held[boundary_key(cx, e)], (n, k, e)


def test_cell_order_is_key_order():
    cx = build_complex(5, 4)
    for cells in cx.cells:
        assert cells == sorted(cells)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_cells_are_the_lattice_keys(n):
    # below the cut a complex holds the lattice's own key lists and position
    # dicts; at and above it, the simplex keys among them, in key order, and
    # dicts of its own
    lat = build_face_lattice(n)
    for k in range(3, n + 2):
        cx = build_complex(n, k)
        assert cx.lattice is lat
        for d in range(k):
            assert cx.cells[d] is lat.keys[d], (k, d)
            assert cx.index[d] is lat.positions(d), (k, d)
        for d in range(k, n + 1):
            want = [key for key in lat.keys[d] if key_kind(n, key) == KIND_SIMPLEX]
            assert (cx.cells[d] if d < len(cx.cells) else []) == want, (k, d)
        assert len(cx.index) == len(cx.cells)
        for d, cells in enumerate(cx.cells):
            assert cx.index[d] == {key: i for i, key in enumerate(cells)}, (k, d)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cell_dim_is_the_lattice_dimension(n):
    # every face of the lattice is a cell of its own dimension unless the cut
    # removed it, and only a half cube (or the top cell) at or above the cut is
    lat = build_face_lattice(n)
    not_faces = [(), (0, 1), (3, 0), (0, 15), (0, 3, 5, 6, 9), (*lat.keys[n][0], 1 << n)]
    for k in range(3, n + 2):
        cx = build_complex(n, k)
        for d, keys in enumerate(lat.keys):
            for key in keys:
                if d < k or key_kind(n, key) == KIND_SIMPLEX:
                    assert cx.cell_dim(key) == d, (k, key)
                else:
                    with pytest.raises(ValueError, match="not a cell of the complex"):
                        cx.cell_dim(key)
        for key in not_faces:
            with pytest.raises(ValueError, match="not a cell of the complex"):
                cx.cell_dim(key)


def test_orientation_accessor():
    cx = build_complex(5, 4)
    f = face_of(cx.lattice, cx.cells[3][0])
    tup = orientation_of(cx, f)
    assert len(tup) == 4 and set(tup) <= set(f.key)
    with pytest.raises(ValueError):
        orientation_of(cx, top_face(5))


# simplex-parent incidences of the full complex: edges -> vertices plus
# every simplex -> simplex facet
SIMPLEX_INCIDENCES = {5: 1040, 6: 5472, 7: 26880}


@pytest.mark.parametrize("n", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_simplex_closed_form_matches_determinant(n):
    # the alternating column that assembly reads against the determinant
    # route: reorienting the parent negates the sign.  incidence_sign
    # refuses a simplex parent
    lat = build_face_lattice(n)
    faces = lattice_faces(lat)
    seen = 0
    for dim_faces in faces[1:]:
        for p in dim_faces:
            if p.kind != KIND_SIMPLEX:
                continue
            fks = lat.facets(p.key)
            for c, got in zip(fks, column_signs(p.key, fks), strict=True):
                assert got == -gram_sign(lat, p, face_of(lat, c), flip_parent=True), (p, c)
                seen += 1
    assert seen == SIMPLEX_INCIDENCES[n]
    triangle = faces[2][0]
    with pytest.raises(ValueError, match="not a half-cube or top cell"):
        incidence_sign(triangle.key, triangle.mask.bits, lat.facets(triangle.key)[0])
    # a half-cube parent refuses every child that is not one of its facets:
    # faces of its dimension - 1 off its coordinate set or outside it, and
    # faces two dimensions down
    parent = next(f for f in faces[4] if f.kind != KIND_SIMPLEX)
    facets = set(lat.facets(parent.key))
    refused = [c for c in lat.keys[3] + lat.keys[2] if c not in facets]
    assert len(refused) == len(lat.keys[3]) + len(lat.keys[2]) - len(facets)
    for c in refused:
        with pytest.raises(ValueError, match="is not a facet of"):
            incidence_sign(parent.key, parent.mask.bits, c)


# half-cube- and top-parent incidences of the full complex: L(v, S) with
# |S| = d has 2d half-cube (or, for d = 3, triangle) facets and 2^(d-1)
# simplex facets
HALFCUBE_INCIDENCES = {5: 346, 6: 1956, 7: 9598}


@pytest.mark.parametrize("n", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_factored_halfcube_sign_matches_determinant(n):
    # the determinant over the parent's coordinate face against the full
    # Gram determinant of the reoriented parent (which negates it)
    lat = build_face_lattice(n)
    seen = 0
    for dim_faces in lattice_faces(lat)[3:]:
        for p in dim_faces:
            if p.kind == KIND_SIMPLEX:
                continue
            for c in lat.facets(p.key):
                want = -gram_sign(lat, p, face_of(lat, c), flip_parent=True)
                assert incidence_sign(p.key, p.mask.bits, c) == want, (p, c)
                seen += 1
    assert seen == HALFCUBE_INCIDENCES[n]


@pytest.mark.parametrize("n", [4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_frame_parity_matches_the_sort_parity_of_tau(n):
    # the closed form against the parity of tau itself, the coordinates the
    # vertices of K(u, S) flip in u, in key order, on every simplex with
    # |S| >= 3; a point with no bit in S has parity 1
    from halfcube.symmetry import sort_sign

    lat = build_face_lattice(n)
    seen = {1: 0, -1: 0}
    for d in range(2, n):
        for key in simplex_keys(d, lat.keys[d]):
            u, s = _opposite_point(key), _span(key)
            got = frame_parity(u, s)
            assert got == sort_sign([(b ^ u).bit_length() for b in key]), key
            assert frame_parity(u & ~s, s) == 1
            seen[got] += 1
    assert seen[1] and seen[-1]
    assert sum(seen.values()) == sum(simp for simp, _ in faces.face_counts_by_type(n)[2:n])


@pytest.mark.parametrize("m", range(3, 12))
def test_frame_sign_lemma(m):
    # L(v, S) with |S| = m, h being v's bits outside S, is oriented against
    # (e_i, i in S ascending) with sign (-1)^(m+1+|h|); both bit rules of
    # incidence_sign and the chain map rest on it.  In n = m + 2 coordinates,
    # S sits at two placements, each with both parities of |h| twice; the
    # top cell has S = all coordinates and h = 0.  m = 11 is the largest |S|
    # the face budget lets a lattice reach
    n = m + 2
    for a, b in ((0, 1), (1, n - 1)):
        mask_bits = ((1 << n) - 1) ^ (1 << a) ^ (1 << b)
        low = mask_bits & -mask_bits
        for h in (0, 1 << a, 1 << b, 1 << a | 1 << b):
            v = Vertex(n, h | low if h.bit_count() & 1 else h)
            f = halfcube_face(v, Mask(n, mask_bits))
            assert frame_sign(f) == (-1) ** (m + 1 + h.bit_count()), (m, a, b, h)
    if m >= 4:
        assert frame_sign(top_face(m)) == (-1) ** (m + 1)


def test_columns_follow_facet_order():
    # every column, simplex ones included, against the Gram determinant in
    # lattice.facets order
    lat = build_face_lattice(5)
    for dim_faces in lattice_faces(lat)[1:]:
        for p in dim_faces:
            fks = lat.facets(p.key)
            want = tuple(-gram_sign(lat, p, face_of(lat, c), flip_parent=True) for c in fks)
            assert column_signs(p.key, fks) == want, p


# SHA-256 of the boundary triplets ("degree nrows ncols" header, then
# "row col val" lines per matrix), k = n+1 being the full complex
TRIPLET_SHA256 = {
    (4, 3): "fdd50902f751f515d0831cacb9af0f71cc592ffe55b2ccee66144cc18fb51b91",
    (4, 4): "fe70204568ac3de6803e290d02477259675d652fa63a03ebe48fa47c109c5ec3",
    (4, 5): "e3cc307348335ddddf1f6dfcd7334af2f00c339c36f39abf7031631fc4254667",
    (5, 3): "8806ffc5a390f6e3f9545b075264e4ddcb76606bd56e8afe569a88a9a6b8e0c6",
    (5, 4): "5427e1580470b8880f064af7c8f108de2c26a34069991844f3416049d96f422c",
    (5, 5): "2bae1e3beae0f25aea2c80d46b97a7777fa69a264c9ef31440b49e7a14adfe2d",
    (5, 6): "2bb904070d574e738a8c324f04bae2bd1377db760d0dd7d5630384ab43e4a8d6",
    (6, 3): "fd1ef8c9cd9ee6ef637fdb876ba4f72766a86adfb25d24498247e08fb415d131",
    (6, 4): "37c44f7933ac51758cf7a083cfa808e947802fb0bff36668e0801653407e102f",
    (6, 5): "2bb0b54fd0e56e52106fdf9817fb3350eac526b131f84e818d73ec7076c61415",
    (6, 6): "2f2e20cfc1a659bce24294370e543855de9517ea71e97d25ff815078ef4590b1",
    (6, 7): "1aa97cf8523b23455119c398c9b5a016d5fbf9a9c8762450ab5fa176fcbc3f1d",
    # (7, 3..7) equal perfbench/pins.json's triplets.n=7.k=*.sha256
    (7, 3): "28437210993719c83c9ac7af5e5cd57a953cec959bbe7a5deb01c34f7b2e454e",
    (7, 4): "6f4a6e1a93da9e8185f5ca5efe87b61ea42867f2112a302cd3a5abed96e2a145",
    (7, 5): "744ca3a73f422bffa41402601addb852e2fb61f592b9f4dd926004c6bebf4713",
    (7, 6): "c38bba619688d934db8bf383ec780816c48f309ae9e7e33c018e0c0c14837b56",
    (7, 7): "47f253ba8466cdb861e10e8508688dd229a818f2c9a87b0c75bf3a8d6d54bf62",
    (7, 8): "bd7c4fa54cf7f8c55d0f7e33803cffea587a542481119f8fa169962e99420a15",
    (8, 3): "4b7242b43ae6ed66ff3b39fa82f6047a9fa435fac37b6022708644d2a5ee1740",
    (8, 4): "99ac27b79fb60c00bd79ed7be324ad3632586c3bdcbca6c995a8f4ec773399da",
    (8, 5): "8b574b417c7c2d942bd83e98f8c19f3477e6392d7206d85f4dd839c58ca98244",
    (8, 6): "9bff6b5079aa34325a2785d350d8497da98af1af964cfe20b6dddb58ad44758e",
    (8, 7): "4de23710d999cf7339bfd382950af26ea663a5a0d9b469b771c04fa2bb36a6e6",
    (8, 8): "fb01c05ab50ac697e75f1e60b83775fe3ac230d8a74c4e01650d29bf879f8385",
    (8, 9): "0adb9a2cd70c8c08034fbab6923e84c9aacac366e594a265507ef752ddecf459",
}


def triplet_sha256(cx):
    h = hashlib.sha256()
    for m in cx.matrices():
        h.update(f"{m.degree} {m.nrows} {m.ncols}\n".encode())
        h.update("".join(f"{r} {c} {v}\n" for r, c, v in m.entries).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n,k",  # n = 8 under slow
    [pytest.param(n, k, marks=[pytest.mark.slow] * (n == 8)) for n, k in sorted(TRIPLET_SHA256)],
)
def test_boundary_triplets_are_pinned(n, k):
    assert triplet_sha256(build_complex(n, k)) == TRIPLET_SHA256[(n, k)]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_triplets_are_pinned_on_a_lattice_the_census_built(n, monkeypatch):
    # the census counts the generated keys and keeps no lattice; the complex
    # builds its own from the same enumeration, sorted when it is built
    monkeypatch.setattr(faces, "_lattice_cache", {})
    monkeypatch.setattr(complexes, "_held", {})
    results, _ = run_faces(n)
    assert n not in faces._lattice_cache
    assert [r["total"] for r in results] == faces.face_counts(n)
    assert [(r["simplex"], r["halfcube"]) for r in results] == faces.face_counts_by_type(n)
    for k in range(3, n + 2):
        assert triplet_sha256(build_complex(n, k)) == TRIPLET_SHA256[(n, k)], k
