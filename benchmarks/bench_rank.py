"""Time the rank kernels and Smith normal form on real boundary matrices.

Compares the compiled and pure-Python rank kernels, and prints the time of
``linalg.smith_normal_form`` on the same matrix next to the rank time.

Usage: python benchmarks/bench_rank.py [--n-max 7]
"""

import argparse
import time

from halfcube import _elim_py, linalg
from halfcube.complexes import build_complex


def bench_matrix(label, m):
    trip = m.triplets()
    rows = [t[0] for t in trip]
    cols = [t[1] for t in trip]
    vals = [t[2] for t in trip]

    t0 = time.perf_counter()
    rank_pure = _elim_py.rank_int(m.nrows, m.ncols, rows, cols, vals)
    t_pure = time.perf_counter() - t0

    t0 = time.perf_counter()
    sf = linalg.smith_normal_form(m.nrows, m.ncols, trip)
    t_snf = time.perf_counter() - t0
    assert sf.rank == rank_pure
    snf = f"snf {t_snf*1000:9.1f} ms"

    if linalg.USING_COMPILED:
        t0 = time.perf_counter()
        rank_fast = linalg._impl.rank_int(m.nrows, m.ncols, rows, cols, vals)
        t_fast = time.perf_counter() - t0
        assert rank_fast == rank_pure
        speedup = t_pure / t_fast if t_fast > 0 else float("inf")
        print(
            f"{label:28s} {m.nrows:5d}x{m.ncols:<5d} rank {rank_pure:5d}   "
            f"pure {t_pure*1000:9.1f} ms   compiled {t_fast*1000:9.1f} ms   x{speedup:.1f}   {snf}"
        )
    else:
        print(
            f"{label:28s} {m.nrows:5d}x{m.ncols:<5d} rank {rank_pure:5d}   "
            f"pure {t_pure*1000:9.1f} ms   {snf}   (compiled kernel not built)"
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=7)
    args = ap.parse_args()

    print(f"active kernel: {linalg.kernel_name()}")
    for n in range(5, args.n_max + 1):
        for k in (3, 4):
            if k > n:
                continue
            cx = build_complex(n, k)
            mats = cx.matrices()
            biggest = max(mats, key=lambda m: m.nrows * m.ncols)
            bench_matrix(f"C({n},{k}) boundary deg {biggest.degree}", biggest)


if __name__ == "__main__":
    main()
