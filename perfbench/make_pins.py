"""Record pins.json: the literal values the benchmark's gate expects.

    python3 perfbench/make_pins.py

Runs the cold verify and lattice-symmetry passes at both scales, takes every
value the gate observes, cross-checks the headline ones against values
computed here independently of halfcube (closed-form face census, the
A119258 triangle, Morse and orbit consistency), and writes pins.json.
Re-record only when a change is meant to alter halfcube's output; the diff
of pins.json then shows exactly what moved.
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from math import comb

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def observe(workload, scale):
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        os.mkdir(cache)
        out = os.path.join(tmp, "result.json")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--mode", "pass",
             "--workload", workload, "--scale", scale, "--seed", "1", "--cache-dir", cache,
             "--launched", repr(time.monotonic()), "--out", out],
            check=True,
            env=run.worker_env(),
        )
        with open(out) as fh:
            result = json.load(fh)
    assert "error" not in result, result["error"]
    return result["observed"]


def face_census(n):
    """Faces per dimension: simplices K(v', S) plus half-cube faces L(v, S)."""
    out = [1 << (n - 1), (1 << (n - 2)) * comb(n, 2)]  # two K's name each edge
    for d in range(2, n):
        out.append((1 << (n - 1)) * comb(n, d + 1) + ((1 << (n - d)) * comb(n, d) if d >= 3 else 0))
    return out + [1]


def triangle(n, k):
    """A119258: T(n, k) = 2 T(n-1, k-1) + T(n-1, k), T(n, 0) = T(n, n) = 1."""
    if k in (0, n):
        return 1
    return 2 * triangle(n - 1, k - 1) + triangle(n - 1, k)


def cross_check(pins):
    assert [triangle(6, k) for k in range(7)] == [1, 11, 49, 111, 129, 63, 1]
    for name, value in pins.items():
        parts = dict(p.split("=") for p in name.split(".") if "=" in p)
        n = int(parts.get("n", 0))
        k = int(parts.get("k", 0))
        if name.endswith(".census"):
            assert value == face_census(n), name
        elif name.startswith("betti."):
            betti, torsion = value
            want = [0] * len(betti)
            want[k - 1] = triangle(n, n - k)
            assert betti == want and not any(torsion), name
        elif name.startswith("morse."):
            pairs, acyclic, unpaired = value
            assert acyclic and sum(unpaired[k:]) == 0, name
        elif name.endswith(".profile"):
            assert [sum(size for _, size in dim) for dim in value] == face_census(n), name
    for n, k, rank in ((4, 3, 7), (5, 3, 31), (6, 3, 111)):
        assert pins[f"betti.n={n}.k={k}"][0][k - 1] == rank


def main():
    if os.path.exists(workloads.PINS_PATH):
        os.remove(workloads.PINS_PATH)
    pins = {}
    for scale in ("small", "full"):
        for workload in ("verify-n7-cold", "lattice-symmetry"):
            for name, value in observe(workload, scale).items():
                if name in pins and pins[name] != value:
                    raise SystemExit(f"{name} differs between runs")
                pins[name] = value
    cross_check(pins)
    with open(workloads.PINS_PATH, "w") as fh:
        lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items())]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pins)} pins to {workloads.PINS_PATH}")


if __name__ == "__main__":
    main()
