import hashlib
import random
import tracemalloc

import pytest

from halfcube.complexes import build_complex, euler_characteristic
from halfcube.faces import KIND_HALFCUBE, KIND_SIMPLEX
from halfcube.homology import homology_of
from halfcube.morse import (
    MorseMatching,
    acyclicity_certificate,
    build_matching,
    check_acyclic,
    unpaired_census,
)
from halfcube.triangle import predicted_betti
from oracles import face_of, hasse_acyclicity, lattice_faces


def test_pair_count_n5_k3():
    m = build_matching(build_complex(5, 3))
    assert m.pair_count() == 80
    assert check_acyclic(m).acyclic


def test_pairs_follow_the_mask_rule():
    m = build_matching(build_complex(5, 3))
    n = 5
    for pair in m.pairs:
        lo, up = (face_of(m.complex.lattice, key) for key in pair)
        assert lo.kind == KIND_SIMPLEX and up.kind == KIND_SIMPLEX
        assert lo.point == up.point
        assert n not in lo.mask
        assert up.mask.coords() == tuple(sorted(lo.mask.coords() + (n,)))
        assert lo.mask.size >= 3


def test_every_cell_above_cut_is_paired():
    for n in (4, 5, 6):
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            m = build_matching(cx)
            census = unpaired_census(m)
            assert all(census[p] == 0 for p in range(k, len(census))), (n, k)


def test_paired_iff_rules():
    n, k = 5, 3
    cx = build_complex(n, k)
    m = build_matching(cx)
    paired = {key for pair in m.pairs for key in pair}
    assert len(paired) == 2 * m.pair_count()  # no key in two pairs
    for dim, cells in enumerate(cx.cells):
        for key in cells:
            f = face_of(cx.lattice, key)
            if f.kind != KIND_SIMPLEX or f.mask is None:
                expect = False
            elif f.mask.size >= k + 1:
                expect = True
            elif f.mask.size == k:
                expect = n not in f.mask
            else:
                expect = False
            assert (key in paired) == expect, f


def test_no_halfcube_cell_is_paired():
    cx = build_complex(5, 4)
    m = build_matching(cx)
    for pair in m.pairs:
        lo, up = (face_of(cx.lattice, key) for key in pair)
        assert lo.kind == KIND_SIMPLEX and up.kind == KIND_SIMPLEX


def test_acyclic_for_all_small_cases():
    for n in (4, 5, 6):
        for k in range(3, n + 1):
            m = build_matching(build_complex(n, k))
            assert check_acyclic(m).acyclic, (n, k)


def test_alternating_census_equals_euler():
    for n in (4, 5, 6):
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            m = build_matching(cx)
            census = unpaired_census(m)
            alt = sum((-1) ** p * u for p, u in enumerate(census))
            chi = euler_characteristic(cx)
            assert alt == chi
            assert chi == 1 + (-1) ** (k - 1) * predicted_betti(n, k)


def test_weak_morse_inequality():
    for (n, k) in ((4, 3), (5, 3), (5, 4)):
        cx = build_complex(n, k)
        census = unpaired_census(build_matching(cx))
        b = homology_of(cx, reduced=True).betti
        assert census[k - 1] >= b[k - 1]


def test_census_values_n5_k3():
    m = build_matching(build_complex(5, 3))
    assert unpaired_census(m) == [16, 80, 96, 0, 0]


def _census_by_set(m):
    """The unpaired cells per dimension, each cell tested against the set of paired keys."""
    paired = {key for pair in m.pairs for key in pair}
    return [sum(key not in paired for key in cs) for cs in m.complex.cells]


@pytest.mark.parametrize("n", [4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_census_equals_a_set_based_count(n):
    for k in range(3, n + 1):
        cx = build_complex(n, k)
        for j in range(1, n + 1):
            m = build_matching(cx, coordinate=j)
            assert unpaired_census(m) == _census_by_set(m), (n, k, j)


def test_census_keeps_no_key_set():
    # each pair is subtracted from the cell counts as it is read; a set of
    # the 25,344 paired keys of C(8, 3) would take 2.5 MiB
    m = build_matching(build_complex(8, 3))
    tracemalloc.start()
    try:
        census = unpaired_census(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census == _census_by_set(m)
    assert peak < 1 << 18, peak


def test_census_rejects_a_key_outside_the_complex():
    m = _invalid_c53_matching("removed by the cut")  # its upper cell is not a cell
    cx = m.complex
    top = cx.cells[cx.top_dim][0]
    # a removed lower cell, a lower cell with no dimension above it, the empty key
    for pairs in (m.pairs, [(m.pairs[0][1], top)], [(top, top)], [((), top)]):
        with pytest.raises(ValueError, match="not a cell of the complex"):
            unpaired_census(MorseMatching(cx, tuple(pairs), cx.n))


def test_full_complex_rejected():
    with pytest.raises(ValueError):
        build_matching(build_complex(5))


def test_other_distinguished_coordinate():
    cx = build_complex(5, 3)
    for j in (1, 3):
        m = build_matching(cx, coordinate=j)
        assert m.pair_count() == 80
        assert check_acyclic(m).acyclic
        census = unpaired_census(m)
        assert all(census[p] == 0 for p in range(3, len(census)))
    with pytest.raises(ValueError):
        build_matching(cx, coordinate=6)


def test_empty_matching_is_acyclic():
    facets = {"e": ["a", "b"]}
    assert acyclicity_certificate(lambda key: facets.get(key, ()), []).acyclic


def test_adversarial_cycle_witness():
    # two 2-cells glued along the same two edges, matched into a loop
    facets = {"F": ["e", "f"], "G": ["e", "f"]}
    cert = acyclicity_certificate(lambda key: facets.get(key, ()), [("e", "F"), ("f", "G")])
    assert not cert.acyclic
    assert len(cert.cycle) == 4
    assert set(cert.cycle) == {"e", "f", "F", "G"}
    # the witness is a real directed cycle: check edge by edge
    matched = {("e", "F"), ("f", "G")}
    for a, b in zip(cert.cycle, cert.cycle[1:] + cert.cycle[:1]):
        if (b, a) in matched:
            continue  # reversed matched edge b <- a
        assert (a, b) not in matched and (
            a in facets.get(b, ()) or b in facets.get(a, ())
        )


def _invalid_c53_matching(case):
    """A matching on C(5, 3) of one or two pairs, invalid as ``case`` says."""
    cx = build_complex(5, 3)
    lat = cx.lattice
    lo, up = build_matching(cx).pairs[0]
    cut = next(f.key for f in lattice_faces(lat)[3] if f.kind == KIND_HALFCUBE)
    uppers = cx.cells[face_of(lat, up).dim]
    pairs = {
        # a facet of the lower cell under the upper one: codimension 2
        "codimension 2": [(lat.facets(lo)[0], up)],
        # a dim-3 half cube, whose interior the cut removed, over one of its facets
        "removed by the cut": [(lat.facets(cut)[0], cut)],
        "lower cell in two pairs": [
            (lo, up),
            (lo, next(f for f in uppers if f != up and lo in lat.facets(f))),
        ],
        "not a facet": [(lo, next(f for f in uppers if lo not in lat.facets(f)))],
    }[case]
    return MorseMatching(cx, tuple(pairs), cx.n)


@pytest.mark.parametrize(
    "pairs, match",
    [
        pytest.param([("e", "F"), ("e", "G")], "two pairs", id="pairs0"),  # e lies in two pairs
        pytest.param([("e", "F"), ("f", "F")], "two pairs", id="pairs1"),  # so does F
        pytest.param([("a", "F")], "not a facet", id="pairs2"),  # a is not a facet of F
        pytest.param([("e", "H")], "not a facet", id="pairs3"),  # H has no facets at all
        # matchings on a cut complex, through check_acyclic
        pytest.param("codimension 2", "not a facet", id="codimension 2"),
        pytest.param("removed by the cut", "not a cell of the complex", id="removed by the cut"),
        pytest.param("lower cell in two pairs", "two pairs", id="lower cell in two pairs"),
        pytest.param("not a facet", "not a facet", id="not a facet"),
    ],
)
def test_invalid_matching_is_rejected(pairs, match):
    if isinstance(pairs, str):
        with pytest.raises(ValueError, match=match):
            check_acyclic(_invalid_c53_matching(pairs))
        return
    facets = {"F": ["e", "f"], "G": ["e", "f"]}
    with pytest.raises(ValueError, match=match):
        acyclicity_certificate(lambda key: facets.get(key, ()), pairs)


def test_check_acyclic_keeps_no_facet_table():
    # each upper cell's facets are computed while its pair is checked and
    # dropped after; C(8, 3) has 12,672 pairs and not one edge between
    # them, so the peak is the pair index (a facet table of every upper
    # cell would take 9.4 MiB)
    m = build_matching(build_complex(8, 3))
    tracemalloc.start()
    try:
        assert check_acyclic(m).acyclic
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def _hasse(cx):
    """Every cell by dimension and the facets of every cell above dimension 0, by key."""
    cells = dict(enumerate(cx.cells))
    facets = {key: cx.lattice.facets(key) for cs in cx.cells[1:] for key in cs}
    return cells, facets


def _assert_directed_cycle(cycle, facets, pairs):
    """Each step of the cycle is an edge of the reoriented Hasse digraph."""
    matched = set(pairs)
    assert cycle and len(set(cycle)) == len(cycle)
    assert cycle[0] in {lo for lo, _ in pairs}  # [lo_a, up_b, lo_b, ..., up_a]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if (b, a) in matched:
            continue  # matched edge, reversed: a -> its facet b
        assert (a, b) not in matched and a in facets.get(b, ()), (a, b)


def test_canonical_matchings_agree_with_the_whole_digraph():
    for n in (4, 5, 6):
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            cells, facets = _hasse(cx)
            for j in range(1, n + 1):
                m = build_matching(cx, coordinate=j)
                expect = hasse_acyclicity(cells, facets, m.pairs)
                assert check_acyclic(m) == expect
                assert expect.acyclic, (n, k, j)


def _random_matchings():
    """Greedy matchings on a random share of the shuffled Hasse edges, seeds 0..99 a complex.

    Yields ((n, k, seed), complex, cells, facets, pairs); the short draws are
    mostly acyclic and the long ones mostly cyclic.
    """
    for n, k in ((4, 3), (4, 4), (5, 3)):
        cx = build_complex(n, k)
        cells, facets = _hasse(cx)
        edges = sorted((fk, key) for key, fks in facets.items() for fk in fks)
        for seed in range(100):
            rng = random.Random(seed)
            used, pairs = set(), []
            for lo, up in rng.sample(edges, rng.randrange(len(edges) // 4)):
                if lo not in used and up not in used:
                    used |= {lo, up}
                    pairs.append((lo, up))
            yield (n, k, seed), cx, cells, facets, pairs


def test_random_matchings_agree_with_the_whole_digraph():
    verdicts = set()
    for case, _, cells, facets, pairs in _random_matchings():
        cert = acyclicity_certificate(lambda key: facets.get(key, ()), pairs)
        assert cert.acyclic == hasse_acyclicity(cells, facets, pairs).acyclic, case
        if not cert.acyclic:
            _assert_directed_cycle(list(cert.cycle), facets, pairs)
        verdicts.add(cert.acyclic)
    assert verdicts == {True, False}


def test_census_of_random_matchings_equals_a_set_based_count():
    # every draw is a discrete vector field, acyclic or not, so check_acyclic
    # accepts it and its census is defined
    verdicts = set()
    for case, cx, _, _, pairs in _random_matchings():
        m = MorseMatching(cx, tuple(pairs), cx.n)
        verdicts.add(check_acyclic(m).acyclic)
        assert unpaired_census(m) == _census_by_set(m), case
    assert verdicts == {True, False}


# SHA-256 of the pairs of build_matching(build_complex(n, k), j), one line
# "lower key | upper key" per pair with a trailing newline, joined over
# n = 4..7, k = 3..n and j in (None, 1), in that order
MATCHING_TEXT_SHA256 = "9c54a94d62e7a510bda0076088c7db772660abc6e9d4f7a8daefa73578f79e4f"


def test_matching_pairs_are_pinned():
    h = hashlib.sha256()
    for n in range(4, 8):
        for k in range(3, n + 1):
            cx = build_complex(n, k)
            for j in (None, 1):
                pairs = build_matching(cx, j).pairs
                lines = (" ".join(map(str, lo)) + " | " + " ".join(map(str, up)) for lo, up in pairs)
                h.update(("\n".join(lines) + "\n").encode())
    assert h.hexdigest() == MATCHING_TEXT_SHA256
