import hashlib
import json
import math
import random

import pytest
from oracles import (
    Mask,
    Vertex,
    act_on_face,
    act_on_vertex,
    coxeter_generators,
    dense_mat_mul,
    describe,
    det_sign,
    even_vertices,
    face_image_by_vertices,
    face_of,
    group_order_by_closure,
    halfcube_face,
    hamming_distance,
    is_face,
    key_kind,
    lattice_faces,
    orientation_tuple,
    reference_orbits,
    simplex_face,
    SpecialReflection4,
    vector_image,
)

from halfcube import linalg, symmetry
from halfcube.complexes import build_complex
from halfcube.faces import build_face_lattice
from halfcube.symmetry import (
    SignedPermutation,
    SPECIAL_REFLECTION_4,
    chain_map_on_cells,
    expected_orbit_profile,
    homology_action,
    homology_basis,
    orbit_generators,
    orbits,
    random_wdn,
    vertex_table,
)


def test_group_axioms_sampled():
    rng = random.Random(0)
    for n in (4, 5, 6):
        e = SignedPermutation.identity(n)
        for _ in range(50):
            g, h, k = (random_wdn(n, rng) for _ in range(3))
            assert (g * h) * k == g * (h * k)
            assert g * e == g == e * g
            assert g * g.inverse() == e
            assert g.is_even_signed


def test_group_order_by_closure():
    # the n Coxeter generators and the three orbit generators both give all of W(D_n)
    for n in (4, 5, 6):
        order = 2 ** (n - 1) * math.factorial(n)
        assert group_order_by_closure(coxeter_generators(n)) == order, n
        gens = orbit_generators(n)
        assert len(gens) == 3 and all(g.is_even_signed for g in gens)
        assert group_order_by_closure(gens) == order, n


def test_action_formula_and_parity():
    g = SignedPermutation.sign_flips(4, (1, 2))
    v = Vertex.from_signs((1, 1, 1, 1))
    assert act_on_vertex(g, v).signs() == (-1, -1, 1, 1)
    assert act_on_vertex(SignedPermutation.identity(4), v) == v
    rng = random.Random(1)
    for _ in range(200):
        g = random_wdn(5, rng)
        v = Vertex(5, rng.randrange(32))
        assert act_on_vertex(g, v).parity == v.parity


def test_action_is_hamming_isometry():
    rng = random.Random(2)
    for _ in range(1000):
        g = random_wdn(6, rng)
        v = Vertex(6, rng.randrange(64))
        w = Vertex(6, rng.randrange(64))
        assert hamming_distance(act_on_vertex(g, v), act_on_vertex(g, w)) == hamming_distance(v, w)


def test_permutation_convention():
    # transposition of coordinates 1,2 moves the value at position 1 to 2
    g = SignedPermutation.transposition(3, 1, 2)
    v = Vertex.from_signs((-1, 1, 1))
    assert act_on_vertex(g, v).signs() == (1, -1, 1)


def test_face_transport_preserves_kind():
    lat = build_face_lattice(5)
    gens = coxeter_generators(5)
    e = SignedPermutation.identity(5)
    for dim_faces in lattice_faces(lat):
        for f in dim_faces[::5]:
            assert act_on_face(e, f) == f
            for g in gens:
                img = act_on_face(g, f)
                assert img.kind == f.kind
                assert is_face(lat, img.key)
                # transport agrees with mapping the vertex set directly
                assert img == face_image_by_vertices(g, f, lat)


def test_odd_signed_rejected():
    g = SignedPermutation.sign_flips(5, (1,))
    assert not g.is_even_signed
    f = simplex_face(Vertex(5, 1), Mask.of(5, 1, 2))
    with pytest.raises(ValueError):
        act_on_face(g, f)


def test_signed_permutation_is_validated():
    # a permutation of 0..n-1 with one sign +-1 per target, or ValueError
    for perm, signs in (
        ((0, 0, 2), (1, 1, 1)),
        ((0, 1, 3), (1, 1, 1)),
        ((0, 1, 2), (1, 1)),
        ((1, 0), (1, 1, 1)),
    ):
        with pytest.raises(ValueError, match="not a signed permutation"):
            SignedPermutation(perm, signs)
    for signs in ((1, 0, 1), (1, 1, 2), (-1, 1, 1.5)):
        with pytest.raises(ValueError, match="signs must be"):
            SignedPermutation((2, 0, 1), signs)
    with pytest.raises(ValueError, match="signs must be"):
        SignedPermutation(perm=(0, 1), signs=(1, -2))
    g = SignedPermutation(perm=(2, 0, 1), signs=(-1, 1, -1))
    assert g == ((2, 0, 1), (-1, 1, -1)) and g.n == 3 and g.is_even_signed
    # _replace and _make check as the constructor does
    with pytest.raises(ValueError, match="signs must be"):
        g._replace(signs=(1, 1, 0))
    with pytest.raises(ValueError, match="not a signed permutation"):
        SignedPermutation._make([(0, 0, 1), (1, 1, 1)])
    assert g._replace(perm=(0, 1, 2)) == SignedPermutation((0, 1, 2), (-1, 1, -1))


def test_special_reflection_fixed_points_and_image():
    sp = SpecialReflection4()
    assert sp.vertex_image(Vertex.from_signs((1, 1, 1, 1))).signs() == (-1, -1, -1, -1)
    assert sp.vertex_image(Vertex.from_signs((1, -1, -1, 1))).signs() == (1, -1, -1, 1)
    lat = build_face_lattice(4)
    L = face_of(lat, halfcube_face(Vertex.from_signs((1, 1, 1, 1)), Mask.of(4, 1, 2, 3)).key)
    K = simplex_face(Vertex.from_signs((-1, -1, -1, 1)), Mask.of(4, 1, 2, 3, 4))
    assert face_image_by_vertices(sp, L, lat).key == K.key


def test_special_reflection_permutes_all_faces():
    sp = SpecialReflection4()
    lat = build_face_lattice(4)
    for dim_faces in lattice_faces(lat):
        images = {face_image_by_vertices(sp, f, lat).key for f in dim_faces}
        assert images == {f.key for f in dim_faces}


def test_orbit_profiles():
    for n in (4, 5, 6):
        rep = orbits(n)
        for dim, dim_orbits in enumerate(rep.orbits):
            got = sorted((o.kind, o.size) for o in dim_orbits)
            assert got == sorted(expected_orbit_profile(n)[dim]), (n, dim)


def test_orbit_sizes_divide_group_order():
    n = 5
    order = 2 ** (n - 1) * 120
    rep = orbits(n)
    for dim_orbits in rep.orbits:
        for o in dim_orbits:
            assert order % o.size == 0


def test_extended_orbits_merge_tetrahedra():
    rep = orbits(4, extended=True)
    dim3 = rep.orbits[3]
    assert len(dim3) == 1
    assert dim3[0].size == 16
    assert dim3[0].kind == "mixed"
    with pytest.raises(ValueError):
        orbits(5, extended=True)


def test_skeleton_stability_on_cut_complex():
    # images of cells remain cells of the same dimension and kind
    cx = build_complex(5, 3)
    rng = random.Random(3)
    for _ in range(5):
        g = random_wdn(5, rng)
        for dim, cells in enumerate(cx.cells):
            for f in (face_of(cx.lattice, key) for key in cells[::7]):
                img = act_on_face(g, f)
                assert cx.cell_dim(img.key) == dim
                assert img.dim == dim and img.kind == f.kind


def test_chain_map_commutes_with_boundary():
    cx = build_complex(4, 3)
    mats = cx.matrices()
    rng = random.Random(4)
    for _ in range(5):
        g = random_wdn(4, rng)
        maps = [chain_map_on_cells(g, cx, d) for d in range(len(cx.cells))]
        for m in mats:
            d = m.degree
            # P_(d-1) . boundary == boundary . P_d, column by column
            cols = [list(zip(rows, signs)) for rows, signs in zip(m.rows, m.signs)]
            for j, col in enumerate(cols):
                jj, s = maps[d][j]
                lhs = {}
                for r, v in col:
                    rr, sr = maps[d - 1][r]
                    lhs[rr] = lhs.get(rr, 0) + sr * v
                rhs = {r: s * v for r, v in cols[jj]}
                lhs = {k: v for k, v in lhs.items() if v}
                assert lhs == rhs


def test_homology_action_identity_and_functoriality():
    rng = random.Random(5)
    for (n, k) in ((4, 3), (4, 4), *sorted(ACTION_PINS)):
        basis = homology_basis(n, k)
        eye = homology_action(n, k, SignedPermutation.identity(n))
        assert eye == [[int(i == j) for j in range(basis.rank)] for i in range(basis.rank)]
        for _ in range(5):
            g, h = random_wdn(n, rng), random_wdn(n, rng)
            assert homology_action(n, k, g * h) == dense_mat_mul(
                homology_action(n, k, g), homology_action(n, k, h)
            )
            assert det_sign(homology_action(n, k, g)) in (1, -1)


def test_homology_action_rejects_odd():
    with pytest.raises(ValueError):
        homology_action(4, 3, SignedPermutation.sign_flips(4, (1,)))


def test_basis_sizes_match_triangle():
    from halfcube.triangle import predicted_betti

    for (n, k) in ((4, 3), (4, 4), (5, 3)):
        assert homology_basis(n, k).rank == predicted_betti(n, k)


def test_vertex_transitivity():
    # orbit of a single vertex under the generators covers the even class
    n = 5
    gens = coxeter_generators(n)
    seen = {Vertex(n, 0)}
    frontier = [Vertex(n, 0)]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = act_on_vertex(g, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert seen == set(even_vertices(n))


def test_vertex_table_matches_vertex_images():
    rng = random.Random(6)
    for n in (4, 5, 6):
        for g in [random_wdn(n, rng) for _ in range(10)] + coxeter_generators(n):
            t = vertex_table(g, n)
            for v in even_vertices(n):
                assert t[v.bits] == act_on_vertex(g, v).bits
    # the reflection's table against its vector formula at every bit pattern:
    # an even vertex goes to a vertex, an odd one to no vertex
    sp = SpecialReflection4()
    assert len(SPECIAL_REFLECTION_4) == 16
    for b in range(16):
        image = sp.vector_image(Vertex(4, b).signs())
        if b.bit_count() % 2 == 0:
            assert SPECIAL_REFLECTION_4[b] == Vertex.from_signs(image).bits
        else:
            assert SPECIAL_REFLECTION_4[b] == -1
            assert any(x not in (1, -1) for x in image)
    with pytest.raises(ValueError):
        vertex_table(SignedPermutation.identity(5), 4)


@pytest.mark.parametrize(
    "n, extended",
    [(4, False), (4, True), (5, False), (6, False), pytest.param(7, False, marks=pytest.mark.slow)],
)
def test_orbits_match_descriptor_closure(n, extended):
    rep = orbits(n, extended=extended)
    got = [[(o.representative, o.size, o.kind) for o in dim] for dim in rep.orbits]
    assert got == reference_orbits(n, extended)


@pytest.mark.parametrize("n, extended", [(4, False), (4, True), (5, False), (6, False)])
def test_orbit_kinds_match_their_faces_kinds(n, extended, monkeypatch):
    # an orbit's kind comes from the kind_split counts of its members; read
    # face by face with key_kind, the same members give the same kind, and
    # only the n = 4 reflection makes an orbit "mixed"
    got = []
    split = symmetry.kind_split

    def per_face(dim, members):
        kinds = {key_kind(n, key) for key in members}
        got.append(kinds.pop() if len(kinds) == 1 else "mixed")
        return split(dim, members)

    monkeypatch.setattr(symmetry, "kind_split", per_face)
    rep = orbits(n, extended=extended)
    assert got == [o.kind for dim in rep.orbits for o in dim]
    assert ("mixed" in got) == extended


def test_orbit_representatives_are_smallest_keys(monkeypatch):
    # a representative is a key of the lattice, the smallest of its orbit's
    # members (closed here under the generators' vertex tables); described
    # by the oracle, it has the orbit's kind.  orbits leaves the lattice
    # its keys and nothing else
    from halfcube import faces

    monkeypatch.setattr(faces, "_lattice_cache", {})
    for n, extended in ((4, False), (4, True), (6, False)):
        rep = orbits(n, extended=extended)
        lat = faces._lattice_cache[n]
        assert set(vars(lat)) == {"n", "keys", "_positions"}, sorted(vars(lat))
        tables = [vertex_table(g, n) for g in orbit_generators(n)]
        if extended:
            tables.append(SPECIAL_REFLECTION_4)
        for dim, dim_orbits in enumerate(rep.orbits):
            keys = set(lat.keys[dim])
            for o in dim_orbits:
                assert o.representative in keys, (n, dim, o)
                members, frontier = {o.representative}, [o.representative]
                while frontier:
                    images = {tuple(sorted(t[b] for b in key)) for key in frontier for t in tables}
                    frontier = list(images - members)
                    members |= images
                assert len(members) == o.size, (n, dim, o)
                assert min(members) == o.representative, (n, dim, o)
                if o.kind != "mixed":
                    assert describe(lat, o.representative).kind == o.kind, (n, dim, o)


def _determinant_chain_map(g, cx, dim):
    """(index, sign) per cell from descriptor transport and an orientation determinant."""
    n = cx.n
    out = []
    for f in (face_of(cx.lattice, key) for key in cx.cells[dim]):
        img = act_on_face(g, f)
        j = cx.index[dim][img.key]
        if dim == 0:
            out.append((j, 1))
            continue
        bases = []
        for face in (f, img):
            tup = orientation_tuple(face)
            o = Vertex(n, tup[0]).signs()
            bases.append([[x - y for x, y in zip(Vertex(n, b).signs(), o)] for b in tup[1:]])
        mapped = [vector_image(g, vec) for vec in bases[0]]
        mat = [[sum(a * b for a, b in zip(row, col)) for col in mapped] for row in bases[1]]
        out.append((j, det_sign(mat)))
    return out


@pytest.mark.parametrize("n, k", [(5, 3), (5, 4), (5, 5), (5, 6), (6, 5)])
def test_chain_map_matches_determinant_route(n, k):
    cx = build_complex(n, k)
    rng = random.Random(100 * n + k)
    for _ in range(10):
        g = random_wdn(n, rng)
        for dim in range(len(cx.cells)):
            assert chain_map_on_cells(g, cx, dim) == _determinant_chain_map(g, cx, dim), dim


def test_chain_map_rejects_odd():
    cx = build_complex(4, 3)
    with pytest.raises(ValueError, match="even-signed"):
        chain_map_on_cells(SignedPermutation.sign_flips(4, (1,)), cx, 1)


def test_orbits_refuse_an_image_off_the_lattice(monkeypatch):
    # a vertex table that swaps the even vertices 0 and 3 permutes the
    # vertices but not the edges: the edge {0, 12} goes to {3, 12}, two
    # antipodal vertices of the 16-cell
    def swap_0_3(g, n):
        table = list(range(1 << n))
        table[0], table[3] = 3, 0
        return table

    monkeypatch.setattr(symmetry, "vertex_table", swap_0_3)
    with pytest.raises(ValueError, match="image vertex set is not a face"):
        orbits(4)


def test_chain_map_refuses_an_image_cell_off_the_complex(monkeypatch):
    # the n = 4 reflection stabilizes the 16-cell but swaps its simplex and
    # half-cube tetrahedra, and C(4, 3) keeps only the simplex ones
    cx = build_complex(4, 3)
    identity = SignedPermutation.identity(4)
    assert chain_map_on_cells(identity, cx, 3) == [(j, 1) for j in range(len(cx.cells[3]))]
    monkeypatch.setattr(symmetry, "vertex_table", lambda g, n: SPECIAL_REFLECTION_4)
    with pytest.raises(ValueError, match="image cell left the complex"):
        chain_map_on_cells(identity, cx, 3)


@pytest.mark.parametrize("n, k", [(4, 3), (5, 4), (6, 5), (7, 6)])
def test_coords_of_basis_cycles_and_non_cycles(n, k):
    # chains are sparse {cell: coef} over the (k-1)-cells of C(n, k)
    basis = homology_basis(n, k)
    down, up = ([list(zip(*col)) for col in zip(m.rows, m.signs)] for m in basis.cx.matrices()[k - 2:k])

    def boundary(chain):
        out = {}
        for j, coef in chain.items():
            for r, v in down[j]:
                out[r] = out.get(r, 0) + coef * v
        return {r: v for r, v in out.items() if v}

    assert basis.rank == len(basis.cycles) >= 2
    for i, cycle in enumerate(basis.cycles):
        assert cycle and all(coef for coef in cycle.values())
        assert boundary(cycle) == {}
        assert basis.coords_of([cycle])[0] == [int(i == j) for j in range(basis.rank)]
    # every boundary of a k-cell has zero coordinates, read one by one or in one batch
    assert basis.coords_of(dict(col) for col in up) == [[0] * basis.rank] * len(up)
    assert basis.coords_of([dict(up[5])])[0] == [0] * basis.rank
    # coordinates are linear, a boundary adds none, and zero coefficients are ignored
    combo = {}
    for a, cycle in zip((2, -3), basis.cycles):
        for j, coef in cycle.items():
            combo[j] = combo.get(j, 0) + a * coef
    for r, v in up[0]:
        combo[r] = combo.get(r, 0) + v
    combo[next(j for j in range(len(down)) if j not in combo)] = 0
    assert basis.coords_of([combo])[0] == [2, -3] + [0] * (basis.rank - 2)
    assert boundary({0: 1})
    with pytest.raises(AssertionError, match="not a cycle"):
        basis.coords_of([{0: 1}])
    with pytest.raises(AssertionError, match="not a cycle"):
        basis.coords_of([basis.cycles[0], {0: 1}])


@pytest.mark.slow
def test_basis_sizes_at_n8(monkeypatch):
    # the unit phase takes both matrices of every n = 8 basis to +-1 pivots
    monkeypatch.setattr(symmetry, "_basis_cache", {})
    from halfcube.triangle import predicted_betti

    for k in range(3, 9):
        assert homology_basis(8, k).rank == predicted_betti(8, k), k


def test_boundary_factor_above_one_is_refused(monkeypatch):
    # doubling every entry of either matrix the basis eliminates (the
    # boundary, then the transposed image) leaves the unit phase no +-1
    # pivot; unit_pivots refuses what is left with an explicit raise, so
    # the check survives python -O
    for step in (0, 1):
        calls = []

        def doubled(nrows, ncols, columns):
            columns = list(columns)
            if len(calls) == step:
                columns = [(rows, [2 * v for v in values]) for rows, values in columns]
            calls.append(sum(len(rows) for rows, _ in columns))
            return linalg.unit_pivots(nrows, ncols, columns)

        monkeypatch.setattr(symmetry, "unit_pivots", doubled)
        with pytest.raises(ValueError, match="left entries"):
            symmetry.HomologyBasis(4, 3)
        assert len(calls) == step + 1 and calls[step] > 0, step


# SHA-256 of json.dumps of the 8 action matrices below, recorded when the
# basis became the free cells of two unit-pivot eliminations, with its
# cycles back-substituted through the boundary's pivots: a change of basis
# conjugates every matrix, so these pins move with the basis
ACTION_PINS = {
    (5, 4): "2056ce60c2f8471619b0f8979e0f9f2d0fdfe12084c38c2aadf8fb97fcc5f04b",
    (6, 5): "0decabd9690dca907c8e7d29568c159ea1cc24de065e5f07617de2c86b95da45",
    (6, 3): "492cd9b101d4d75c50cad4c71b7be6ac017beff929baf306f509ace5f6e4dc8a",
    (7, 6): "53a7e71c0b6e0393adf55a86754a15ab248cf6717fc4f6cd370daf0e94a1035c",
    (7, 4): "bc67586c36b14a49a8e5c27f1656effb3675c11cf0b75d55a75b3f34c3fef4d1",
}

# what no basis can change: SHA-256 of json.dumps of the traces of g and of
# g * g for the same 8 elements, recorded with the Smith-transform basis
# that came before the unit-pivot one
CHARACTER_PINS = {
    (5, 4): "5ac5b6b4df972a704e78343b7d21fb18500e2a3153c4edf81e60bd0e5540e3c7",
    (6, 3): "f7f7a2315eba09917f793afeae132a05a4a0cf79a2df1d44b6dec00109e272dd",
    (6, 5): "9333aa0922d276b11b3a80dff8b8ce24098618299dcb6e40bfe1b50740eada66",
    (7, 4): "d45c2e52acb19fca4f4930219df9f368afb4a6743f7cebfbced4eee1efdd9e43",
    (7, 6): "667ce4e0f851cd67c9776a778bbdd0603cac63f04f0ef039699f5b45873cdc82",
}


@pytest.mark.parametrize("n, k", sorted(ACTION_PINS))
def test_homology_action_is_pinned(n, k):
    rng = random.Random(20261018)
    mats = [homology_action(n, k, random_wdn(n, rng)) for _ in range(8)]
    assert hashlib.sha256(json.dumps(mats).encode()).hexdigest() == ACTION_PINS[(n, k)]


@pytest.mark.parametrize("n, k", sorted(CHARACTER_PINS))
def test_homology_characters_are_pinned(n, k):
    rng = random.Random(20261018)
    gs = [random_wdn(n, rng) for _ in range(8)]

    def trace(g):
        mat = homology_action(n, k, g)
        return sum(mat[i][i] for i in range(len(mat)))

    traces = [[trace(g) for g in gs], [trace(g * g) for g in gs]]
    assert hashlib.sha256(json.dumps(traces).encode()).hexdigest() == CHARACTER_PINS[(n, k)]
