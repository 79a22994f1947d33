"""Per-layer tracing of halfcube from outside the library.

Every public function named in ``LAYERS`` is replaced, wherever a halfcube
module binds it, by a wrapper that records call counts, inclusive busy time
and the layer's self time (busy time minus the time of traced callees).
Only these aggregates are kept, no per-call records, so the ~470k calls of
per-cell functions such as ``incidence_sign`` in ``verify-n7-cold`` cost a
counter update each.

Nothing under ``src/`` is modified: the wrappers are installed in the
worker process after ``halfcube`` has been imported.
"""

from __future__ import annotations

import os
import sys
import time

# layer -> functions traced in that layer ("Class.method" for methods).
# A name missing from the library (removed by a later change) is skipped,
# and its metrics read 0.
LAYERS = {
    "faces": ["build_face_lattice", "FaceLattice.facets"],
    "complexes": [
        "build_complex",
        "boundary_matrices",
        "assert_boundary_squared_zero",
        "incidence_sign",
        "orientation_tuple",
    ],
    "linalg": [
        "rank_over_q",
        "rank_mod_p",
        "smith_normal_form",
        "smith_with_transforms",
        "det_sign",
        "solve_fractions",
    ],
    "homology": [
        "homology_of",
        "homology_from_matrices",
        "rank_of_boundary",
        "smith_of_boundary",
    ],
    "morse": ["build_matching", "check_acyclic", "unpaired_census"],
    "symmetry": ["orbits", "act_on_face", "homology_basis", "homology_action"],
    "cli": [
        "main",
        "run_faces",
        "run_betti",
        "run_morse",
        "run_orbits",
        "run_triangle",
        "get_complex",
        "load_complex",
        "save_complex",
        "render",
    ],
}

class Tracer:
    """Counters and busy times of the traced halfcube functions."""

    def __init__(self):
        self.calls = {}  # "layer.func" -> count
        self.busy = {}  # "layer.func" -> inclusive seconds
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.toplevel_s = 0.0
        self.excluded_s = 0.0
        self.counts = {}  # derived counts, e.g. cells, nnz, memo hits
        self._stack = []  # one [child seconds] per active traced call

    # -- recording -------------------------------------------------------

    def _wrap(self, layer, name, fn, observe):
        key = f"{layer}.{name.split('.')[-1]}"
        self.calls[key] = 0
        self.busy[key] = 0.0
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            before = observe[0](args) if observe else None
            frame = [0.0]
            stack.append(frame)
            excluded = tracer.excluded_s
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (tracer.excluded_s - excluded)
                stack.pop()
                tracer.calls[key] += 1
                tracer.busy[key] += dt
                tracer.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.toplevel_s += dt
            if observe:
                observe[1](tracer.counts, args, before, result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function in every loaded halfcube module (for good)."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "halfcube"]
        replace = {}  # id(original) -> wrapper
        for layer, names in LAYERS.items():
            mod = sys.modules.get(f"halfcube.{layer}")
            if mod is None:
                continue
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(layer, name, fn, OBSERVERS.get(name))
                if owner is not mod:
                    setattr(owner, attr, wrapper)
                replace[id(fn)] = (fn, wrapper)
        # rebind every module-level reference, including ``from x import f``
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def exclude(self, seconds):
        """Take benchmark work done inside traced calls out of their times."""
        self.excluded_s += seconds

    # -- reporting -------------------------------------------------------

    def metrics(self, wall_s, factor=1.0):
        """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json.

        ``wall_s`` is the pass's raw time; every time is scaled by the host
        speed ``factor`` (see hostspeed.py), counts and ratios are not.
        """
        c, b, n = self.calls, self.busy, self.counts

        def ratio(hits, base):
            return hits / base if base else 0.0

        out = {
            "complexes.incidence_sign_calls": c.get("complexes.incidence_sign", 0),
            "complexes.incidence_sign_s": b.get("complexes.incidence_sign", 0.0),
            "complexes.sign_memo_hit_ratio": ratio(
                n.get("sign_memo_hits", 0), c.get("complexes.incidence_sign", 0)
            ),
            "complexes.orientation_s": b.get("complexes.orientation_tuple", 0.0),
            "complexes.boundary_s": b.get("complexes.boundary_matrices", 0.0),
            "complexes.d2_check_s": b.get("complexes.assert_boundary_squared_zero", 0.0),
            "complexes.cells": n.get("cells", 0),
            "complexes.nnz": n.get("nnz", 0),
            "linalg.solve_fractions_s": b.get("linalg.solve_fractions", 0.0),
            "linalg.det_sign_calls": c.get("linalg.det_sign", 0),
            "linalg.rank_q_calls": c.get("linalg.rank_over_q", 0),
            "linalg.rank_q_s": b.get("linalg.rank_over_q", 0.0),
            "linalg.rank_p_calls": c.get("linalg.rank_mod_p", 0),
            "linalg.rank_p_s": b.get("linalg.rank_mod_p", 0.0),
            "linalg.snf_calls": c.get("linalg.smith_normal_form", 0),
            "linalg.snf_s": b.get("linalg.smith_normal_form", 0.0),
            "linalg.snf_transforms_s": b.get("linalg.smith_with_transforms", 0.0),
            "linalg.rank_nnz": n.get("rank_nnz", 0),
            "homology.rank_cache_hit_ratio": ratio(
                n.get("rank_cache_hits", 0), c.get("homology.rank_of_boundary", 0)
            ),
            "cli.cache_save_s": b.get("cli.save_complex", 0.0),
            "cli.cache_bytes_written": n.get("cache_bytes_written", 0),
            "cli.cache_load_s": b.get("cli.load_complex", 0.0),
            "cli.cache_hit_ratio": ratio(
                n.get("cache_hits", 0), c.get("cli.load_complex", 0)
            ),
            "cli.render_s": b.get("cli.render", 0.0),
            "faces.facets_calls": c.get("faces.facets", 0),
            "faces.facets_s": b.get("faces.facets", 0.0),
            "faces.lattice_s": b.get("faces.build_face_lattice", 0.0),
            "faces.faces_built": n.get("faces_built", 0),
            "morse.matching_s": b.get("morse.build_matching", 0.0),
            "morse.acyclic_s": b.get("morse.check_acyclic", 0.0),
            "morse.pairs": n.get("pairs", 0),
            "morse.critical_cells": n.get("critical_cells", 0),
            "symmetry.orbits_s": b.get("symmetry.orbits", 0.0),
            "symmetry.face_images": c.get("symmetry.act_on_face", 0),
            "symmetry.basis_s": b.get("symmetry.homology_basis", 0.0),
            "symmetry.action_s": b.get("symmetry.homology_action", 0.0),
            "unattributed_s": wall_s - self.toplevel_s,
        }
        for layer, s in self.self_s.items():
            out[f"{layer}.self_s"] = s
        return {k: v * factor if k.endswith("_s") else v for k, v in out.items()}


# ---------------------------------------------------------------------------
# Observers: derived counts read from arguments and results at the boundary


def _nothing(args):
    return None


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _memo_len(obj, attr):
    memo = getattr(obj, attr, None)
    return None if memo is None else len(memo)


def _sign_after(counts, args, before, result):
    # a memo hit leaves the lattice's sign memo unchanged
    if before is not None and _memo_len(args[0], "_sign_memo") == before:
        _add(counts, "sign_memo_hits", 1)


def _rank_cache_len(args):  # the cache is module state, not an argument
    cache = getattr(sys.modules.get("halfcube.homology"), "_rank_cache", None)
    return None if cache is None else len(cache)


def _rank_after(counts, args, before, result):
    if before is not None and _rank_cache_len(args) == before:
        _add(counts, "rank_cache_hits", 1)


def _rank_nnz(counts, args, before, result):
    _add(counts, "rank_nnz", len(args[2]))


def _boundary_after(counts, args, before, result):
    cx = args[0]
    _add(counts, "cells", sum(len(cs) for cs in cx.cells))
    _add(counts, "nnz", sum(len(m.entries) for m in result))


def _lattice_before(args):
    cache = getattr(sys.modules.get("halfcube.faces"), "_lattice_cache", {})
    return args[0] in cache


def _lattice_after(counts, args, before, result):
    if not before:
        _add(counts, "faces_built", sum(result.counts()))


def _load_after(counts, args, before, result):
    if result is not None:
        _add(counts, "cache_hits", 1)


def _save_after(counts, args, before, result):
    _add(counts, "cache_bytes_written", os.path.getsize(result))


def _matching_after(counts, args, before, result):
    _add(counts, "pairs", result.pair_count())


def _census_after(counts, args, before, result):
    _add(counts, "critical_cells", sum(result))


# function -> (before(args), after(counts, args, before, result))
OBSERVERS = {
    "incidence_sign": (lambda a: _memo_len(a[0], "_sign_memo"), _sign_after),
    "rank_of_boundary": (_rank_cache_len, _rank_after),
    "rank_over_q": (_nothing, _rank_nnz),
    "rank_mod_p": (_nothing, _rank_nnz),
    "boundary_matrices": (_nothing, _boundary_after),
    "build_face_lattice": (_lattice_before, _lattice_after),
    "load_complex": (_nothing, _load_after),
    "save_complex": (_nothing, _save_after),
    "build_matching": (_nothing, _matching_after),
    "unpaired_census": (_nothing, _census_after),
}
