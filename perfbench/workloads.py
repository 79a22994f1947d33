"""The benchmark's workloads and the correctness gate that checks them.

Each workload has a timed body, which calls into halfcube exactly as a CLI
user's run would, and a gate, which runs after the clock stops.  The gate
turns everything the run produced into named checks:

* the CLI's own checks (every one must pass; "skipped" counts as failed),
* observed values compared with the literal pins in ``pins.json``
  (face census, Betti numbers, Morse census, orbit profile, SHA-256 of the
  boundary triplets per (n, k), SHA-256 of the JSON on stdout),
* seed-independent invariants of the homology action.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from fractions import Fraction

# Sizes per scale.  "small" (n <= 5) is what the benchmark's own test runs.
SIZES = {
    "full": {"n_max": 7, "faces_n": 10, "orbits_n": 8, "action": (6, 5), "pairs": 16},
    "small": {"n_max": 5, "faces_n": 5, "orbits_n": 5, "action": (5, 4), "pairs": 4},
}

def verify_argv(n_max, cache_dir):
    return ["verify", "--n-max", str(n_max), "--format", "json", "--cache-dir", cache_dir]


class Capture:
    """Records the boundary digests of the complexes the CLI used, and its cache hits.

    Installed in every pass, traced or not: ``get_complex`` and
    ``load_complex`` run about 40 times in a verify run.  Each complex is
    hashed when the CLI first gets it, so no complex outlives its job (which
    would raise peak_rss_mb); the hashing time is kept out of wall_s, cpu_s
    and, through ``tracer``, out of every layer's time, and ``sampler`` is
    paused meanwhile so that no host-speed sample is taken out twice.
    """

    def __init__(self, cli):
        self.digests = {}  # (n, k) -> triplet digest of the complex the CLI used
        self.loads = 0
        self.load_hits = 0
        self.excluded_s = 0.0
        self.excluded_cpu_s = 0.0
        self.tracer = None
        self.sampler = None
        get_complex, load_complex = cli.get_complex, cli.load_complex

        def capture_get(n, k_cut, cache_dir):
            cx = get_complex(n, k_cut, cache_dir)
            if (n, k_cut) not in self.digests:
                if self.sampler is not None:
                    self.sampler.stop()
                t0, c0 = time.perf_counter(), time.process_time()
                self.digests[(n, k_cut)] = triplet_digest(cx)
                dt = time.perf_counter() - t0
                self.excluded_s += dt
                self.excluded_cpu_s += time.process_time() - c0
                if self.tracer is not None:
                    self.tracer.exclude(dt)
                if self.sampler is not None:
                    self.sampler.start()
            return cx

        def capture_load(cache_dir, n, k_cut):
            cx = load_complex(cache_dir, n, k_cut)
            self.loads += 1
            self.load_hits += cx is not None
            return cx

        cli.get_complex = capture_get
        cli.load_complex = capture_load


def inject(kind, cli, complexes):
    """Corrupt one boundary sign or one output byte (for the gate's own test)."""
    done = []
    if kind == "output":
        main = cli.main

        def corrupt_main(argv):
            rc = main(argv)
            if done:
                return rc
            done.append(True)
            buf = sys.stdout
            text = buf.getvalue()
            buf.seek(0)
            buf.truncate()
            buf.write(text.replace("\n ", "\n\t", 1))  # still valid JSON
            return rc

        cli.main = corrupt_main
        return
    assert kind == "sign", kind

    def flip(mats):
        if done or not mats:
            return
        m = mats[-1]
        r, c, v = m.entries[0]
        mats[-1] = type(m)(m.degree, m.nrows, m.ncols, ((r, c, -v),) + m.entries[1:])
        done.append(True)

    boundary_matrices, load_complex = complexes.boundary_matrices, cli.load_complex

    def corrupt_boundary(cx, *args, **kwargs):
        mats = boundary_matrices(cx, *args, **kwargs)
        flip(mats)
        return mats

    def corrupt_load(cache_dir, n, k_cut):
        cx = load_complex(cache_dir, n, k_cut)
        if cx is not None:
            flip(cx._matrices)
        return cx

    complexes.boundary_matrices = corrupt_boundary
    cli.load_complex = corrupt_load


def run_cli(cli, argv):
    """One CLI invocation in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def draw_pairs(n, count, seed):
    """Pairs of uniformly random even-signed permutations (perm, signs)."""
    rng = random.Random(seed)

    def one():
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if signs.count(-1) % 2:
            signs[rng.randrange(n)] *= -1
        return tuple(perm), tuple(signs)

    return [(one(), one()) for _ in range(count)]


# ---------------------------------------------------------------------------
# Timed bodies


def run_verify(hc, size, cache_dir):
    rc, out = run_cli(hc.cli, verify_argv(size["n_max"], cache_dir))
    return {"verify": (rc, out)}


def run_lattice_symmetry(hc, size, pairs):
    cli, sym = hc.cli, hc.symmetry
    state = {
        "faces": run_cli(cli, ["faces", "--n", str(size["faces_n"]), "--format", "json"]),
        "orbits": run_cli(cli, ["orbits", "--n", str(size["orbits_n"]), "--format", "json"]),
    }
    n, k = size["action"]
    state["identity"] = sym.homology_action(n, k, sym.SignedPermutation.identity(n))
    actions = []
    for gp, hp in pairs:
        g = sym.SignedPermutation(*gp)
        h = sym.SignedPermutation(*hp)
        actions.append(
            (
                sym.homology_action(n, k, g),
                sym.homology_action(n, k, h),
                sym.homology_action(n, k, g * h),
            )
        )
    state["actions"] = actions
    return state


# ---------------------------------------------------------------------------
# Gate


def triplet_digest(cx, chunk=4096):
    """SHA-256 of every boundary matrix's shape and (row, col, value) triplets."""
    h = hashlib.sha256()
    for m in cx.matrices():
        h.update(f"{m.degree} {m.nrows} {m.ncols}\n".encode())
        entries = m.entries
        for i in range(0, len(entries), chunk):
            h.update("".join(f"{r} {c} {v}\n" for r, c, v in entries[i:i + chunk]).encode())
    return h.hexdigest()


def _cli_report(checks, observed, label, rc, out):
    """The CLI's own checks plus the digest of its stdout."""
    checks.append((f"{label}.exit_code", rc == 0))
    observed[f"{label}.stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    report = json.loads(out)
    for c in report["checks"]:
        checks.append((f"cli:{c['name']}", c["status"] == "pass"))
    return report


def _orbit_profiles(report, observed):
    profiles = {}
    for c in report["checks"]:
        name = c["name"]
        if name.startswith("orbits.n=") and not name.endswith(".ext"):
            n, dim = (int(part.split("=")[1]) for part in name.split(".")[1:3])
            profiles.setdefault(n, []).append((dim, c["actual"]))
    for n, dims in profiles.items():
        observed[f"orbits.n={n}.profile"] = [actual for _, actual in sorted(dims)]


def observe_verify(state, size, digests):
    checks, observed = [], {}
    rc, out = state["verify"]
    n_max = size["n_max"]
    report = _cli_report(checks, observed, f"verify.n_max={n_max}", rc, out)
    res = report["results"]
    for row in res["faces"]:
        observed[f"faces.n={row['n']}.census"] = row["counts"]
    for row in res["betti"]:
        observed[f"betti.n={row['n']}.k={row['k']}"] = [row["betti"], row["torsion"]]
    for row in res["morse"]:
        observed[f"morse.n={row['n']}.k={row['k']}"] = [
            row["pairs"], row["acyclic"], row["unpaired"]
        ]
    _orbit_profiles(report, observed)
    for (n, k), digest in sorted(digests.items()):
        observed[f"triplets.n={n}.k={k}.sha256"] = digest
    return checks, observed


def _det(mat):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def observe_lattice_symmetry(state, size, hc, pins):
    checks, observed = [], {}
    fr = _cli_report(checks, observed, f"faces.n={size['faces_n']}", *state["faces"])
    observed[f"faces.n={size['faces_n']}.census"] = [r["total"] for r in fr["results"]]
    orr = _cli_report(checks, observed, f"orbits.n={size['orbits_n']}", *state["orbits"])
    _orbit_profiles(orr, observed)

    n, k = size["action"]
    pinned = pins.get(f"betti.n={n}.k={k}")  # absent only while make_pins.py records
    betti = pinned[0][k - 1] if pinned else None
    ident = state["identity"]
    trace = sum(ident[i][i] for i in range(len(ident)))
    checks.append((f"action.n={n}.k={k}.identity_trace", trace == betti))
    for i, (rg, rh, rgh) in enumerate(state["actions"]):
        checks.append((f"action.pair{i}.size", len(rg) == len(rh) == len(rgh) == betti))
        checks.append((f"action.pair{i}.det_g", abs(_det(rg)) == 1))
        checks.append((f"action.pair{i}.det_h", abs(_det(rh)) == 1))
        checks.append((f"action.pair{i}.homomorphism", _matmul(rg, rh) == rgh))
    cx = hc.symmetry.homology_basis(n, k).cx
    observed[f"triplets.n={n}.k={k}.sha256"] = triplet_digest(cx)
    return checks, observed


def expected_pins(workload, size):
    """Names of every value a pass of this workload must observe."""
    if workload == "lattice-symmetry":
        n, k = size["action"]
        return [f"faces.n={size['faces_n']}.census", f"faces.n={size['faces_n']}.stdout_sha256",
                f"orbits.n={size['orbits_n']}.profile",
                f"orbits.n={size['orbits_n']}.stdout_sha256", f"triplets.n={n}.k={k}.sha256"]
    names = [f"verify.n_max={size['n_max']}.stdout_sha256"]
    for n in range(4, size["n_max"] + 1):
        names += [f"faces.n={n}.census", f"orbits.n={n}.profile"]
        for k in range(3, n + 1):
            names += [f"betti.n={n}.k={k}", f"morse.n={n}.k={k}", f"triplets.n={n}.k={k}.sha256"]
    return names


def gate(checks, observed, expected, pins):
    """All checks as (name, ok): invariants, then every expected pinned value."""
    out = list(checks)
    for name in sorted(set(expected) | set(observed)):
        ok = name in observed and name in pins and _jsonable(observed[name]) == pins[name]
        out.append((f"pin:{name}", ok))
    return out


def _jsonable(value):
    return json.loads(json.dumps(value))


PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins():
    """The pinned values; empty while make_pins.py is recording them."""
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH) as fh:
        return json.load(fh)
