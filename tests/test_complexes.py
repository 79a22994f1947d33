import hashlib
import random
from math import comb

import pytest

from halfcube import complexes, faces
from halfcube.cli import run_faces
from halfcube.complexes import (
    BoundaryMatrix,
    assert_boundary_squared_zero,
    boundary_key,
    boundary_matrices,
    build_complex,
    column_signs,
    euler_characteristic,
    incidence_sign,
)
from halfcube.faces import KIND_SIMPLEX, build_face_lattice
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
}


def triplet_sha256(cx):
    h = hashlib.sha256()
    for m in cx.matrices():
        h.update(f"{m.degree} {m.nrows} {m.ncols}\n".encode())
        h.update("".join(f"{r} {c} {v}\n" for r, c, v in m.entries).encode())
    return h.hexdigest()


@pytest.mark.parametrize("n,k", sorted(TRIPLET_SHA256))
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
