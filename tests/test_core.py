import random

import pytest

from oracles import (
    CliqueSet,
    Mask,
    Vertex,
    classify_clique,
    clique_K,
    clique_L,
    disagreement_mask,
    enumerate_cliques,
    even_vertices,
    hamming_distance,
    odd_vertices,
    recover_K_descriptor,
)

V1 = Vertex.from_signs((1, -1, -1, 1, -1))  # odd parity


def signs_set(c):
    return {v.signs() for v in c}


def test_vertex_roundtrip_and_parity():
    v = Vertex.from_signs((1, -1, 1, -1))
    assert v.signs() == (1, -1, 1, -1)
    assert v.bits == 0b1010
    assert v.is_even
    assert not V1.is_even
    assert Vertex(4, 0).is_even


def test_vertex_validation():
    with pytest.raises(ValueError):
        Vertex(0, 0)
    with pytest.raises(ValueError):
        Vertex(33, 0)
    with pytest.raises(ValueError):
        Vertex(3, 8)
    with pytest.raises(ValueError):
        Vertex.from_signs((1, 0, 1))


def test_hamming_identity():
    assert hamming_distance(V1, V1) == 0


def test_hamming_single_flip_from_opposite_point():
    # v1 against the one element of its singleton clique differs in
    # coordinate 3 only
    y = Vertex.from_signs((1, -1, 1, 1, -1))
    assert hamming_distance(V1, y) == 1


def test_hamming_between_clique_members():
    x = Vertex.from_signs((1, -1, -1, 1, 1))
    y = Vertex.from_signs((-1, -1, 1, 1, 1))
    assert hamming_distance(x, y) == 2


def test_hamming_dimension_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(Vertex(4, 0), Vertex(5, 0))


def test_clique_K_singleton():
    c = clique_K(V1, Mask.of(5, 3))
    assert signs_set(c) == {(1, -1, 1, 1, -1)}


def test_clique_K_pair():
    c = clique_K(V1, Mask.of(5, 3, 4))
    assert signs_set(c) == {(1, -1, 1, 1, -1), (1, -1, -1, -1, -1)}


def test_clique_K_triple():
    c = clique_K(V1, Mask.of(5, 2, 3, 4))
    assert signs_set(c) == {
        (1, 1, -1, 1, -1),
        (1, -1, 1, 1, -1),
        (1, -1, -1, -1, -1),
    }


def test_clique_K_single_flip_everywhere():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(4, 9)
        v = rng.choice(odd_vertices(n))
        i = rng.randrange(1, n + 1)
        c = clique_K(v, Mask.of(n, i))
        assert c.vertices == (v.flip(i),)


def test_clique_K_rejects_even_point():
    with pytest.raises(ValueError):
        clique_K(Vertex(5, 0), Mask.of(5, 1))
    with pytest.raises(ValueError):
        clique_K(V1, Mask(5, 0))


def test_clique_K_invariants_sampled():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(4, 9)
        v = rng.choice(odd_vertices(n))
        size = rng.randrange(1, n + 1)
        mask = Mask(n, 0)
        while mask.size < size:
            mask = mask.with_coord(rng.randrange(1, n + 1))
        c = clique_K(v, mask)
        assert len(c) == mask.size
        for x in c:
            assert hamming_distance(x, v) == 1
        c.ensure_clique()


def test_clique_L_example():
    v = Vertex.from_signs((1, -1, -1, 1, 1))
    c = clique_L(v, Mask.of(5, 1, 3, 4))
    assert signs_set(c) == {
        (1, -1, -1, 1, 1),
        (-1, -1, 1, 1, 1),
        (-1, -1, -1, -1, 1),
        (1, -1, 1, -1, 1),
    }


def test_clique_L_singleton_mask():
    v = Vertex.from_signs((1, 1, -1, -1))
    assert clique_L(v, Mask.of(4, 2)).vertices == (v,)
    assert clique_L(v, Mask(4, 0)).vertices == (v,)


def test_clique_L_full_mask_gives_all_even_vertices():
    v = Vertex.from_signs((1, 1, 1, 1))
    c = clique_L(v, Mask.full(4))
    assert set(c.key) == {u.bits for u in even_vertices(4)}
    assert len(c) == 8


def test_clique_L_size_and_mask_recovery():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(4, 9)
        v = rng.choice(even_vertices(n))
        size = rng.randrange(0, n + 1)
        mask = Mask(n, 0)
        while mask.size < size:
            mask = mask.with_coord(rng.randrange(1, n + 1))
        c = clique_L(v, mask)
        assert len(c) == 1 << max(mask.size - 1, 0)
        d = disagreement_mask(c)
        if mask.size <= 1:
            assert d.size == 0
        else:
            assert d.bits == mask.bits


def test_recover_K_round_trip_exhaustive_n5():
    import itertools

    for v in odd_vertices(5):
        for coords in itertools.combinations(range(1, 6), 3):
            mask = Mask.of(5, *coords)
            c = clique_K(v, mask)
            got_v, got_mask = recover_K_descriptor(c)
            assert got_v == v and got_mask == mask


def test_recover_K_rejects_small_and_L():
    with pytest.raises(ValueError):
        recover_K_descriptor(clique_K(V1, Mask.of(5, 3, 4)))
    l = clique_L(Vertex.from_signs((1, 1, 1, 1, 1)), Mask.of(5, 1, 2, 3))
    with pytest.raises(ValueError):
        recover_K_descriptor(l)


def test_classify_paper_examples():
    k = classify_clique(clique_K(V1, Mask.of(5, 2, 3, 4)))
    assert k.kind == "K" and k.point == V1 and k.mask == Mask.of(5, 2, 3, 4)
    l = classify_clique(clique_L(Vertex.from_signs((1, -1, -1, 1, 1)), Mask.of(5, 1, 3, 4)))
    assert l.kind == "L" and l.mask == Mask.of(5, 1, 3, 4)
    small = classify_clique(clique_K(V1, Mask.of(5, 3, 4)))
    assert small.kind == "small"


def test_classify_rejects_non_clique():
    bad = CliqueSet.of(
        [Vertex.from_signs((1, 1, 1, 1)), Vertex.from_signs((-1, -1, -1, -1))],
        require_clique=False,
    )
    with pytest.raises(ValueError):
        classify_clique(bad)


def test_enumerate_counts_n5():
    assert len(enumerate_cliques(5, 1)) == 16
    assert len(enumerate_cliques(5, 2)) == 80
    assert len(enumerate_cliques(5, 3)) == 160
    assert len(enumerate_cliques(5, 4)) == 120
    assert len(enumerate_cliques(5, 5)) == 16
    assert len(enumerate_cliques(5, 6)) == 0


def test_enumerate_split_of_4_cliques():
    kinds = [classify_clique(c).kind for c in enumerate_cliques(5, 4)]
    assert kinds.count("K") == 80
    assert kinds.count("L") == 40


def test_enumerate_deterministic_order():
    a = enumerate_cliques(5, 3)
    b = enumerate_cliques(5, 3)
    assert [c.key for c in a] == [c.key for c in b]
    assert [c.key for c in a] == sorted(c.key for c in a)


def test_mask_basics():
    m = Mask.of(6, 2, 5)
    assert m.coords() == (2, 5)
    assert 2 in m and 5 in m and 3 not in m
    assert m.without(2).coords() == (5,)
    assert m.with_coord(1).coords() == (1, 2, 5)
    with pytest.raises(ValueError):
        m.without(3)
    with pytest.raises(ValueError):
        Mask.of(4, 5)
