"""Discrete vector fields on the cut complexes and their acyclicity check.

The canonical matching pairs the simplex cells K(v', S) with |S| >= k and
j outside S against K(v', S + {j}), for a fixed distinguished coordinate j
(by default the last).  Every cell of dimension >= k ends up paired, no
half-cube cell is ever touched, and the reoriented Hasse digraph -- edges
point up in dimension, matched edges reversed -- must be acyclic.

A matching is a gradient field iff it has no closed V-path (Forman 1998),
iff that digraph is acyclic (Chari 2000).  A matched lower cell is left
only upward, so a directed cycle alternates up_1 -> lo_1 -> up_2 -> lo_2
-> ... within two adjacent dimensions: the check sorts the pairs alone.
A pair holds the two cells' keys.  ``check_acyclic`` is also the only
validity check of a matching: every paired key must be a cell of the
complex and lie in one pair only, and each lower key must be a facet key
of its upper one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .complexes import CellComplex
from .faces import KIND_SIMPLEX, _classify, _k_key, _opposite_point


@dataclass(frozen=True)
class MorseMatching:
    """Pairs (lower, upper) of a discrete vector field on a cut complex."""

    complex: CellComplex
    pairs: tuple  # (lower key, upper key), in (dimension, lower key) order
    coordinate: int

    def pair_count(self) -> int:
        return len(self.pairs)

    def paired_keys(self) -> set:
        return set(chain.from_iterable(self.pairs))


def build_matching(cx: CellComplex, coordinate: int | None = None) -> MorseMatching:
    """The canonical matching on a cut complex.

    Requires an actual cut (k_cut <= n): on the full complex the top cell
    has no simplex partner and the construction does not apply.  A lower
    simplex's span and opposite point, read off its key, give its partner's
    key; the pairs follow the cells' (dimension, key) order.
    """
    if cx.is_full:
        raise ValueError("matching is defined on the cut complexes only")
    n = cx.n
    j = n if coordinate is None else coordinate
    if not 1 <= j <= n:
        raise ValueError(f"coordinate {j} outside 1..{n}")
    bit_j = 1 << (j - 1)
    pairs = []
    for dim in range(cx.k_cut - 1, cx.top_dim):
        for key in cx.cells[dim]:
            kind, span = _classify(n, key)
            if kind == KIND_SIMPLEX and not span & bit_j:
                pairs.append((key, _k_key(_opposite_point(key), span | bit_j)))
    return MorseMatching(cx, tuple(pairs), j)


@dataclass(frozen=True)
class AcyclicityCertificate:
    acyclic: bool
    cycle: tuple = field(default=())  # forward-directed cell keys, when cyclic


def acyclicity_certificate(facets, pairs) -> AcyclicityCertificate:
    """Search the matched pairs for a closed V-path.

    facets: {upper key: [facet keys]}; pairs: (lower key, upper key) list.
    The digraph on pairs, with an edge P -> Q when lo(P) is a facet of up(Q)
    and P != Q, is acyclic iff the reoriented Hasse digraph is.  Returns
    either acyclicity or a cycle of cell keys [lo_a, up_b, lo_b, ..., up_a].
    Raises ValueError, as the reduction needs, when a cell lies in two pairs
    or a lower cell is not a facet of its upper one.
    """
    pair_of = {}  # lower key -> its pair's index; upper key -> None
    for i, (lo, up) in enumerate(pairs):
        for key, tag in ((lo, i), (up, None)):
            if key in pair_of:
                raise ValueError(f"cell {key!r} lies in two pairs")
            pair_of[key] = tag
    succ = [[] for _ in pairs]
    indeg = [0] * len(pairs)
    for q, (lo, up) in enumerate(pairs):
        own = False
        for fk in facets.get(up, ()):
            p = pair_of.get(fk)
            if p == q:
                own = True
            elif p is not None:
                succ[p].append(q)
                indeg[q] += 1
        if not own:
            raise ValueError(f"{lo!r} is not a facet of {up!r}")

    ready = [i for i, d in enumerate(indeg) if d == 0]
    remaining = len(pairs)
    while ready:
        i = ready.pop()
        remaining -= 1
        for nxt in succ[i]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if remaining == 0:
        return AcyclicityCertificate(True)

    # every leftover pair keeps a leftover predecessor; walk back until a repeat
    leftover = {i for i, d in enumerate(indeg) if d > 0}
    pred = {i: [] for i in leftover}
    for i in leftover:
        for nxt in succ[i]:
            if nxt in leftover:
                pred[nxt].append(i)
    start = min(leftover)
    trail = [start]
    seen_at = {start: 0}
    while True:
        prv = min(pred[trail[-1]])
        if prv in seen_at:
            cycle = trail[seen_at[prv]:]
            cycle.reverse()
            steps = zip(cycle, cycle[1:] + cycle[:1])  # lo_a -> up_b, then up_b -> lo_b
            keys = tuple(key for a, b in steps for key in (pairs[a][0], pairs[b][1]))
            return AcyclicityCertificate(False, keys)
        seen_at[prv] = len(trail)
        trail.append(prv)


def check_acyclic(m: MorseMatching) -> AcyclicityCertificate:
    """The acyclicity certificate of a matching, which must be a discrete vector field.

    Raises ValueError when a paired cell is not a cell of the complex, or
    on the conditions of ``acyclicity_certificate`` over the facet keys of
    ``FaceLattice.facets`` (a facet is always codimension 1).
    """
    cx = m.complex
    for key in chain.from_iterable(m.pairs):
        if not cx.has_cell(key):
            raise ValueError(f"{key!r} is not a cell of the complex")
    uppers = {up: cx.lattice.facets(up) for _, up in m.pairs}
    return acyclicity_certificate(uppers, m.pairs)


def unpaired_census(m: MorseMatching) -> list:
    """Unpaired cells per dimension p >= 0 (the empty cell is not counted)."""
    paired = m.paired_keys()
    return [sum(1 for key in cs if key not in paired) for cs in m.complex.cells]
