"""Time the elimination routine per prime next to Smith normal form, whole and cleared.

For the largest boundary matrix of each C(n, k), k = 3, 4, times the rank
over F_2, F_3 and F_5 (each its own elimination over F_p) and the sparse
Smith normal form, whose rank is the rank over Q, and checks that all four
ranks agree.  The Smith form plus the three F_p ranks is what ``verify``'s
rank-agreement certificate costs, against the Smith form alone for ``snf``.

Then it times the same four eliminations as ``verify`` runs them, cleared:
each first deletes the columns at the pivot rows that the same modulus's
elimination of the boundary one degree up returned (nothing is deleted
when the matrix is the top boundary).  It exits nonzero unless the cleared
ranks and Smith factors equal the whole-matrix ones.

Usage: python benchmarks/bench_rank.py [--n-max 7]
"""

import argparse
import time

from halfcube import linalg
from halfcube.complexes import build_complex

PRIMES = (2, 3, 5)
MODULI = (0, *PRIMES)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def bench_matrix(label, m, above):
    trip = m.triplets()
    ranks_p, times_p = zip(
        *(timed(linalg.rank_mod_p, m.nrows, m.ncols, trip, p) for p in PRIMES)
    )
    sf, t_snf = timed(linalg.smith_normal_form, m.nrows, m.ncols, trip)
    if set(ranks_p) != {sf.rank}:
        raise SystemExit(f"{label}: ranks disagree: F_p {ranks_p}, snf {sf.rank}")
    # above: the boundary one degree up, or None for the top boundary
    cleared = {p: None for p in MODULI}
    if above is not None:
        for p in MODULI:
            cleared[p] = linalg.eliminate(above.nrows, above.ncols, above.entries, p)[1]
    got, times_c = zip(
        *(timed(linalg.eliminate, m.nrows, m.ncols, trip, p, cleared[p]) for p in MODULI)
    )
    got = [out[0] for out in got]
    if got != [sf, *ranks_p]:
        raise SystemExit(f"{label}: cleared eliminations {got} differ from whole {[sf, *ranks_p]}")
    per_p = "  ".join(f"F_{p} {t*1000:8.1f}" for p, t in zip(PRIMES, times_p))
    agree = t_snf + sum(times_p)
    print(
        f"{label:28s} {m.nrows:5d}x{m.ncols:<5d} rank {sf.rank:5d}   "
        f"{per_p}   snf {t_snf*1000:8.1f}   rank-agree {agree*1000:9.1f} ms"
    )
    dropped = sum(cleared[0]) if above is not None else 0
    per_p = "  ".join(f"F_{p} {t*1000:8.1f}" for p, t in zip(PRIMES, times_c[1:]))
    print(
        f"{'  cleared':28s} {m.nrows:5d}x{m.ncols - dropped:<5d} {'':10s}   "
        f"{per_p}   snf {times_c[0]*1000:8.1f}   rank-agree {sum(times_c)*1000:9.1f} ms"
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=7)
    args = ap.parse_args()

    print(f"kernel: {linalg.kernel_name()}")
    for n in range(5, args.n_max + 1):
        for k in (3, 4):
            if k > n:
                continue
            cx = build_complex(n, k)
            mats = cx.matrices()
            biggest = max(mats, key=lambda m: m.nrows * m.ncols)
            above = mats[biggest.degree] if biggest.degree < cx.top_dim else None
            bench_matrix(f"C({n},{k}) boundary deg {biggest.degree}", biggest, above)


if __name__ == "__main__":
    main()
