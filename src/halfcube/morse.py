"""Discrete vector fields on the cut complexes and their acyclicity check.

The canonical matching pairs the simplex cells K(v', S) with |S| >= k and
j outside S against K(v', S + {j}), for a fixed distinguished coordinate j
(by default the last).  Every cell of dimension >= k ends up paired, no
half-cube cell is ever touched, and the reoriented Hasse digraph -- edges
point up in dimension, matched edges reversed -- must be acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .complexes import CellComplex
from .faces import KIND_SIMPLEX, _k_key

EMPTY_CELL = ()  # the (-1)-dimensional empty cell, always unpaired


@dataclass(frozen=True)
class MorseMatching:
    """Pairs (lower, upper) of a discrete vector field on a cut complex."""

    complex: CellComplex
    pairs: tuple  # (lower FaceDescriptor, upper FaceDescriptor), key-sorted
    coordinate: int

    def pair_count(self) -> int:
        return len(self.pairs)

    def paired_keys(self) -> set:
        out = set()
        for lo, up in self.pairs:
            out.add(lo.key)
            out.add(up.key)
        return out

    def to_text(self) -> str:
        lines = []
        for lo, up in self.pairs:
            lines.append(" ".join(map(str, lo.key)) + " | " + " ".join(map(str, up.key)))
        return "\n".join(lines) + "\n"

    def validate(self) -> None:
        """Both discrete-vector-field conditions, checked directly."""
        seen = {}
        lat = self.complex.lattice
        for lo, up in self.pairs:
            if lo.dim != up.dim - 1:
                raise ValueError(f"pair {lo!r} < {up!r} is not codimension 1")
            if lo.key not in {f.key for f in lat.facets(up)}:
                raise ValueError(f"{lo!r} is not a facet of {up!r}")
            for f in (lo, up):
                if not self.complex.has_cell(f):
                    raise ValueError(f"{f!r} is not a cell of the complex")
                if f.key in seen:
                    raise ValueError(f"cell {f!r} lies in two pairs")
                seen[f.key] = True


def build_matching(cx: CellComplex, coordinate: int | None = None) -> MorseMatching:
    """The canonical matching on a cut complex.

    Requires an actual cut (k_cut <= n): on the full complex the top cell
    has no simplex partner and the construction does not apply.
    """
    if cx.is_full:
        raise ValueError("matching is defined on the cut complexes only")
    n = cx.n
    j = n if coordinate is None else coordinate
    if not 1 <= j <= n:
        raise ValueError(f"coordinate {j} outside 1..{n}")
    k = cx.k_cut
    pairs = []
    for dim in range(k - 1, cx.top_dim):
        for lower in cx.cells[dim]:
            if lower.kind != KIND_SIMPLEX:
                continue
            if j in lower.mask:
                continue
            upper_mask = lower.mask.with_coord(j)
            upper = cx.lattice.index[_k_key(lower.point.bits, upper_mask.bits)]
            pairs.append((lower, upper))
    pairs.sort(key=lambda p: (p[0].dim, p[0].key))
    return MorseMatching(cx, tuple(pairs), j)


@dataclass(frozen=True)
class AcyclicityCertificate:
    acyclic: bool
    cycle: tuple = field(default=())  # forward-directed cell keys, when cyclic


def acyclicity_certificate(cells_by_dim, facets, pairs) -> AcyclicityCertificate:
    """Topologically sort the reoriented Hasse digraph.

    cells_by_dim: {dim: [key, ...]}; facets: {key: [facet keys]} (facets of
    dimension-0 cells are implied to be the empty cell); pairs: (lower key,
    upper key) list.  Unmatched edges point from facet to cell; matched
    ones are reversed.  Returns either acyclicity or an explicit cycle.
    """
    matched = {(lo, up) for lo, up in pairs}
    # integer node ids in (dimension, listed key order): deterministic ties
    nodes = [EMPTY_CELL]
    for dim in sorted(cells_by_dim):
        nodes.extend(cells_by_dim[dim])
    node_id = {key: i for i, key in enumerate(nodes)}
    succ = [[] for _ in nodes]
    indeg = [0] * len(nodes)
    for dim in sorted(cells_by_dim):
        for key in cells_by_dim[dim]:
            i = node_id[key]
            if dim <= 0:
                succ[0].append(i)
                indeg[i] += 1
                continue
            for fk in facets.get(key, ()):
                j = node_id[fk]
                if (fk, key) in matched:
                    succ[i].append(j)
                    indeg[j] += 1
                else:
                    succ[j].append(i)
                    indeg[i] += 1

    ready = []
    for i, d in enumerate(indeg):
        if d == 0:
            heappush(ready, i)
    remaining = len(nodes)
    while ready:
        i = heappop(ready)
        remaining -= 1
        for nxt in succ[i]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heappush(ready, nxt)
    if remaining == 0:
        return AcyclicityCertificate(True)

    # every leftover node keeps a leftover predecessor; walk back until a repeat
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
            return AcyclicityCertificate(False, tuple(nodes[i] for i in cycle))
        seen_at[prv] = len(trail)
        trail.append(prv)


def check_acyclic(m: MorseMatching) -> AcyclicityCertificate:
    cx = m.complex
    cells_by_dim = {d: [f.key for f in cs] for d, cs in enumerate(cx.cells)}
    facets = {}
    for d in range(1, cx.top_dim + 1):
        for f in cx.cells[d]:
            facets[f.key] = [g.key for g in cx.lattice.facets(f)]
    pairs = [(lo.key, up.key) for lo, up in m.pairs]
    return acyclicity_certificate(cells_by_dim, facets, pairs)


def unpaired_census(m: MorseMatching) -> list:
    """Unpaired cells per dimension p >= 0 (the empty cell is not counted)."""
    paired = m.paired_keys()
    return [
        sum(1 for f in cs if f.key not in paired) for cs in m.complex.cells
    ]
