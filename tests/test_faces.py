import hashlib
import random
from fractions import Fraction

import pytest

from halfcube import faces as faces_mod
from halfcube.faces import (
    KIND_HALFCUBE,
    KIND_SIMPLEX,
    KIND_VERTEX,
    build_face_lattice,
    face_count,
    face_counts,
    kind_split,
)
from oracles import (
    Mask,
    Vertex,
    brute_force_cliques,
    face_from_vertices,
    face_of,
    halfcube_face,
    intersection,
    key_kind,
    lattice_faces,
    odd_vertices,
    reference_lattice,
    simplex_contains_point,
    simplex_face,
    top_face,
    vertex_face,
)


def fields(f):
    return (f.kind, f.n, f.point.bits, None if f.mask is None else f.mask.bits, f.dim, f.key)


def test_counts_closed_forms_small():
    assert face_counts(4) == [8, 24, 32, 16, 1]
    assert face_counts(5) == [16, 80, 160, 120, 26, 1]
    assert face_count(5, 3) == 120


def test_built_census_matches_closed_forms():
    for n in (4, 5, 6):
        lat = build_face_lattice(n)
        assert lat.counts() == face_counts(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, pytest.param(9, marks=pytest.mark.slow)])
def test_lattice_matches_reference_enumerator(n, monkeypatch):
    # a lattice of its own, dropped after the test
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    lat = build_face_lattice(n)
    want = reference_lattice(n)
    assert lat.keys == [[f.key for f in fs] for fs in want]
    got = lattice_faces(lat)
    assert [[fields(f) for f in fs] for fs in got] == [[fields(f) for f in fs] for fs in want]


# SHA-256 of repr() of the _generate batches joined per dimension, in generation order
GENERATED_SHA256 = {
    4: "2c059ca15c314f74d3459f2112d90293c874b03fca63f3df5077d284b31c07d5",
    5: "19110a9909604699fa02b5623d902bae0bde09734cb2c979549427ab629e81d8",
    6: "0e70101dd11848e86c5c3609d1175af0e45b0d14fc3fac1869157db2313d8b84",
    7: "b299f172f590913a58bbf51c0bbc8f21177c38aefda867b0f9fcbae4198cbc8c",
    8: "2e5f263d5ad72c857854fa50e6fb3e3ce6e72ae61c56769537e63146fc6383e3",
    9: "7a29ecbc429ed3f71953592894f9862ebf96753cccaf32bbdf69c4fc2e6b1a19",
}
GENERATED_10_SHA256 = "36b234a11b391b0b1e2c54384a7b080a9b4b56658b479c559c547d6821fee023"
# SHA-256 of repr() of the joined batches with each dimension's keys sorted: the key set
# per dimension, independent of the generation order
LATTICE_SHA256 = {
    4: "cead34df9e48cebce8baf086c2bb64269078c0e133f3074f3d2a758678e2fead",
    5: "ba16257d6640284012f6b116fff31e4608153201e117a816b6ecb36fcf46d8e5",
    6: "4afe1bac6c8c7a927a4ae65912b12b4e3a51a69581a65d97641a13e7418d8d92",
    7: "5eb09a698fd47a33b6c38c866ab2a9d8b1c6084a3dc0422db1c786815bd1d4b8",
    8: "c4a88d45038ceff848c71a73b033f1c69c616344ab78ca321cb6283f1e1afb54",
    9: "5e56246d6cb5cf7b447539d7963402b038c258e24e0958906102d7cff9e0e3b6",
    10: "46e5bbc4f0106da0962f9e73e8fb363cf54c047e4c4303dad7d69271aeb2227d",
}


def joined_batches(n):
    joined = [[] for _ in range(n + 1)]
    for dim, batch in faces_mod._generate(n):
        joined[dim].extend(batch)
    return joined


def sha256_sorted(joined):
    return hashlib.sha256(repr([sorted(keys) for keys in joined]).encode()).hexdigest()


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_simplex_batches_are_neighbours_of_an_odd_point(n):
    # every simplex of dimension d >= 2 has d + 1 vertices on d + 1 coordinates (the
    # half-cube tetrahedra, 4 vertices on 3, are the other keys of that length), and
    # its opposite point, as the library computes it, is odd and one bit from each vertex
    simplices = [0] * (n + 1)
    for dim, batch in faces_mod._generate(n):
        for key in batch:
            if dim < 2 or len(key) != dim + 1 or faces_mod._span(key).bit_count() == dim:
                continue
            point = faces_mod._opposite_point(key)
            assert point.bit_count() & 1, (n, key)
            assert all((point ^ b).bit_count() == 1 for b in key), (n, key)
            assert list(key) == sorted(set(key)), (n, key)
            simplices[dim] += 1
    assert simplices[2:n] == [faces_mod._face_split(n, k)[0] for k in range(2, n)]


@pytest.mark.parametrize("n", sorted(GENERATED_SHA256))
def test_lattice_joins_the_generated_batches(n, monkeypatch):
    # one enumeration serves the census and the lattice, and its order is pinned
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    joined = joined_batches(n)
    assert hashlib.sha256(repr(joined).encode()).hexdigest() == GENERATED_SHA256[n]
    assert sha256_sorted(joined) == LATTICE_SHA256[n]
    split = [kind_split(dim, keys) for dim, keys in enumerate(joined)]
    assert faces_mod.face_census(n) == split  # streamed: no lattice yet
    assert n not in faces_mod._lattice_cache
    assert [sorted(keys) for keys in joined] == build_face_lattice(n).keys
    assert faces_mod.face_census(n) == split  # streamed again, though the lattice is built


def test_census_streams_past_a_cached_lattice(monkeypatch):
    # a lattice in the cache lacking one 3-face: the census enumerates its own
    # keys, so it reads nothing a lattice holds
    for n in (4, 5, 6):
        keys = [list(dim_keys) for dim_keys in build_face_lattice(n).keys]
        del keys[3][0]
        monkeypatch.setitem(faces_mod._lattice_cache, n, faces_mod.FaceLattice(n, keys))
        assert faces_mod.face_census(n) == faces_mod.face_counts_by_type(n), n


@pytest.mark.slow
def test_generated_order_at_the_benchmark_size(monkeypatch):
    # `faces --n 10` counts these batches; hashed alone, with no lattice built
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    joined = joined_batches(10)
    assert hashlib.sha256(repr(joined).encode()).hexdigest() == GENERATED_10_SHA256
    assert sha256_sorted(joined) == LATTICE_SHA256[10]
    assert faces_mod._lattice_cache == {}


def test_keys_share_one_int_per_vertex(monkeypatch):
    # n = 9 is the first n whose vertex values pass CPython's small-int cache
    # (-5..256): every key holds the same int object for a vertex, which keeps
    # the n = 11 lattice near 230 MB
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    lat = build_face_lattice(9)
    assert len({id(b) for keys in lat.keys for key in keys for b in key}) == 1 << 8


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_keys_are_sorted_on_first_read(n, monkeypatch):
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    lat = build_face_lattice(n)
    # a plain attribute, sorted before the lattice is returned: its first
    # read, right after the build, sees increasing keys
    assert "keys" in vars(lat)
    assert len(lat.keys) == n + 1
    for dim, dim_keys in enumerate(lat.keys):
        assert all(a < b for a, b in zip(dim_keys, dim_keys[1:])), (n, dim)
    assert lat.counts() == face_counts(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_kinds_read_off_keys_match_descriptors(n):
    lat = build_face_lattice(n)
    want = reference_lattice(n)
    for dim, dim_faces in enumerate(want):
        simp = sum(1 for f in dim_faces if f.kind in (KIND_VERTEX, KIND_SIMPLEX))
        assert kind_split(dim, lat.keys[dim]) == (simp, len(dim_faces) - simp), (n, dim)
        assert [key_kind(n, f.key) for f in dim_faces] == [f.kind for f in dim_faces]


@pytest.mark.parametrize("n", [4, 6])
def test_face_from_vertices_returns_each_descriptor(n):
    # n = 5 is test_face_from_vertices_round_trip_n5
    for dim_faces in lattice_faces(build_face_lattice(n)):
        for f in dim_faces:
            assert fields(face_from_vertices(f.vertices())) == fields(f)


def test_descriptors_share_vertices_and_masks(monkeypatch):
    monkeypatch.setattr(faces_mod, "_lattice_cache", {})
    lat = build_face_lattice(6)
    points, masks = {}, {}
    for dim_faces in lattice_faces(lat):
        for f in dim_faces:
            assert points.setdefault(f.point.bits, f.point) is f.point
            if f.mask is not None:
                assert masks.setdefault(f.mask.bits, f.mask) is f.mask


@pytest.mark.parametrize("n", [5, 6])
def test_cliques_are_the_faces_with_dim_plus_one_vertices(n):
    # the half cube graph's m-cliques are the simplices on m vertices and,
    # for m = 4, the half-cube tetrahedra
    lat = build_face_lattice(n)
    for m in range(1, n + 1):
        faces_on_m = {frozenset(key) for key in lat.keys[m - 1] if len(key) == m}
        assert faces_on_m == brute_force_cliques(n, m), (n, m)


def test_n4_facets_split_eight_eight():
    lat = build_face_lattice(4)
    dim3 = lattice_faces(lat)[3]
    assert sum(1 for f in dim3 if f.kind == KIND_SIMPLEX) == 8
    assert sum(1 for f in dim3 if f.kind == KIND_HALFCUBE) == 8


def test_top_cell_facet_census():
    lat = build_face_lattice(5)
    fs = [face_of(lat, k) for k in lat.facets(lat.keys[5][0])]
    assert len(fs) == 2**4 + 2 * 5
    assert sum(1 for f in fs if f.kind == KIND_SIMPLEX) == 16
    assert sum(1 for f in fs if f.kind == KIND_HALFCUBE) == 10
    lat4 = build_face_lattice(4)
    assert len(lat4.facets(lat4.keys[4][0])) == 16


def test_edge_facets_are_vertices():
    e = simplex_face(odd_vertices(5)[0], Mask.of(5, 1, 2))
    lat = build_face_lattice(5)
    fs = [face_of(lat, k) for k in lat.facets(e.key)]
    assert [f.kind for f in fs] == [KIND_VERTEX, KIND_VERTEX]
    assert {f.key[0] for f in fs} == set(e.key)


def test_halfcube_tetrahedron_facets_are_simplices():
    f = halfcube_face(Vertex.from_signs((1, -1, -1, 1, 1)), Mask.of(5, 1, 3, 4))
    lat = build_face_lattice(5)
    fs = [face_of(lat, k) for k in lat.facets(f.key)]
    assert len(fs) == 4
    assert all(g.kind == KIND_SIMPLEX and g.dim == 2 for g in fs)


def test_halfcube_facet_rule():
    f = halfcube_face(Vertex(6, 0), Mask.of(6, 1, 2, 3, 4))
    lat = build_face_lattice(6)
    fs = [face_of(lat, k) for k in lat.facets(f.key)]
    simp = [g for g in fs if g.kind == KIND_SIMPLEX]
    hc = [g for g in fs if g.kind == KIND_HALFCUBE]
    assert len(simp) == 2**3 and len(hc) == 2 * 4
    assert all(g.dim == 3 for g in fs)
    for g in fs:
        assert set(g.key) < set(f.key)


def test_facets_have_codimension_one_everywhere():
    lat = build_face_lattice(5)
    faces = lattice_faces(lat)
    for dim in range(1, 6):
        for f in faces[dim]:
            for k in lat.facets(f.key):
                g = face_of(lat, k)
                assert g.dim == dim - 1
                assert set(g.key) < set(f.key)


@pytest.mark.parametrize("n", [4, 5])
def test_facets_match_brute_force(n):
    # the facets of f are exactly the (dim - 1)-faces on a subset of its
    # vertices, in key order (boundary assembly reads it as row order)
    lat = build_face_lattice(n)
    for dim in range(1, n + 1):
        for key in lat.keys[dim]:
            got = lat.facets(key)
            want = [g for g in lat.keys[dim - 1] if set(g) <= set(key)]
            assert got == want, key


def test_vertices_have_no_facets():
    with pytest.raises(ValueError):
        build_face_lattice(5).facets(vertex_face(Vertex(5, 0)).key)


def test_hasse_reaches_every_face():
    lat = build_face_lattice(5)
    seen = set()
    frontier = [lattice_faces(lat)[5][0]]
    seen.add(frontier[0].key)
    while frontier:
        nxt = []
        for f in frontier:
            if f.dim == 0:
                continue
            for k in lat.facets(f.key):
                if k not in seen:
                    seen.add(k)
                    nxt.append(face_of(lat, k))
        frontier = nxt
    assert len(seen) == sum(face_counts(5))


@pytest.mark.parametrize("n", [5, 6])
def test_diamond_property(n):
    # every codimension-2 subface of a face lies in exactly two of its facets
    lat = build_face_lattice(n)
    for dim in range(2, n + 1):
        for f in lat.keys[dim]:
            counts = {}
            for g in lat.facets(f):
                for h in lat.facets(g):
                    counts[h] = counts.get(h, 0) + 1
            assert set(counts.values()) == {2}, (f, counts)


def test_intersection_idempotent_and_commutative():
    lat = build_face_lattice(4)
    faces = [f for dim in lattice_faces(lat) for f in dim]
    for f in faces[::7]:
        assert intersection(lat, f, f) == f
    for f in faces[::11]:
        for g in faces[::13]:
            assert intersection(lat, f, g) == intersection(lat, g, f)


def test_intersection_associative_on_nested_triples():
    lat = build_face_lattice(4)
    faces = [f for dim in lattice_faces(lat) for f in dim]

    def meet(f, g):
        return intersection(lat, f, g) if f is not None and g is not None else None

    for f in faces[::5]:
        for g in faces[::9]:
            for h in faces[::17]:
                assert meet(meet(f, g), h) == meet(f, meet(g, h))


def test_intersection_of_adjacent_top_simplex_facets_is_edge():
    lat = build_face_lattice(5)
    u = odd_vertices(5)[0]
    w = Vertex(5, u.bits ^ 0b00011)
    f = face_of(lat, simplex_face(u, Mask.full(5)).key)
    g = face_of(lat, simplex_face(w, Mask.full(5)).key)
    e = intersection(lat, f, g)
    assert e.dim == 1
    assert set(e.key) == set(f.key) & set(g.key)


def test_intersection_exhaustive_n4():
    lat = build_face_lattice(4)
    faces = [f for dim in lattice_faces(lat) for f in dim]
    for f in faces:
        for g in faces:
            got = intersection(lat, f, g)
            common = set(f.key) & set(g.key)
            if not common:
                assert got is None
            else:
                assert set(got.key) == common


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_intersection_is_the_bitset_and(n):
    # seeded random pairs, each face drawn from a uniformly drawn dimension:
    # None when the AND of the two vertex bitsets is empty, else the face
    # on exactly the vertices of the AND
    lat = build_face_lattice(n)
    keys_of_dim = [set(keys) for keys in lat.keys]
    faces = lattice_faces(lat)
    rng = random.Random(n)
    met = 0
    for _ in range(2000):
        f, g = (rng.choice(faces[rng.randrange(n + 1)]) for _ in range(2))
        both = sum(1 << b for b in f.key) & sum(1 << b for b in g.key)
        got = intersection(lat, f, g)
        if not both:
            assert got is None, (f, g)
            continue
        met += 1
        common = tuple(b for b in range(1 << n) if both >> b & 1)
        assert got.key == common and common in keys_of_dim[got.dim], (f, g, got)
    assert met >= 500, met


def test_intersection_rejects_foreign_faces():
    lat = build_face_lattice(4)
    other = top_face(5)
    with pytest.raises(ValueError):
        intersection(lat, lattice_faces(lat)[0][0], other)


def test_membership_vertices_and_opposite_point():
    f = simplex_face(Vertex.from_signs((1, -1, -1, 1, -1)), Mask.of(5, 2, 3, 4))
    for v in f.vertices():
        assert simplex_contains_point(f, v.signs())
    assert not simplex_contains_point(f, (1, -1, -1, 1, -1))


def test_membership_barycenter():
    f = simplex_face(Vertex.from_signs((1, -1, -1, 1, -1)), Mask.of(5, 2, 3, 4))
    verts = [v.signs() for v in f.vertices()]
    bary = [sum(Fraction(v[i]) for v in verts) / len(verts) for i in range(5)]
    assert simplex_contains_point(f, bary)
    # nudging off the affine hull of the mask coordinates leaves the hull
    off = list(bary)
    off[4] += Fraction(1, 7)
    assert not simplex_contains_point(f, off)


def test_membership_requires_simplex_kind():
    f = halfcube_face(Vertex(5, 0), Mask.of(5, 1, 2, 3))
    with pytest.raises(ValueError):
        simplex_contains_point(f, (1,) * 5)


def test_face_from_vertices_round_trip_n5():
    lat = build_face_lattice(5)
    for dim_faces in lattice_faces(lat):
        for f in dim_faces:
            assert fields(face_from_vertices(f.vertices())) == fields(f)


def test_face_from_vertices_rejects_junk():
    with pytest.raises(ValueError):
        face_from_vertices([Vertex(5, 0), Vertex(5, 0b11110)])


def test_descriptor_equality_is_by_key():
    u = odd_vertices(5)[0]
    w = Vertex(5, u.bits ^ 0b00011)
    e1 = simplex_face(u, Mask.of(5, 1, 2))
    e2 = simplex_face(w, Mask.of(5, 1, 2))
    assert e1 == e2 and hash(e1) == hash(e2)
    assert e1.point.bits == min(u.bits, w.bits)


def test_lattice_orders_faces_by_key():
    lat = build_face_lattice(5)
    for dim_faces in lattice_faces(lat):
        keys = [f.key for f in dim_faces]
        assert keys == sorted(keys)


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_face_lattice(3)
