"""Time the elimination routine per prime and over Z/30 next to Smith normal form, whole and cleared.

For the largest boundary matrix of each C(n, k), k = 3, 4, times the rank
over F_2, F_3 and F_5 (``linalg.eliminate`` modulo each prime, an
elimination of its own), the joint elimination over Z/30 = F_2 x F_3 x F_5
that gives all three ranks from one pass, and the sparse Smith normal
form, whose rank is the rank over Q.  It exits nonzero unless the three
joint ranks equal the per-prime ranks and the Smith rank.  The Smith form
plus the joint pass is what ``verify``'s rank-agreement certificate costs,
against the Smith form alone for ``snf``; the three per-prime passes are
what it cost before the joint pass.

Then it times the same eliminations as ``verify``'s sweep runs them,
cleared: each first deletes the columns at the pivot rows that the same
modulus's elimination of a boundary one degree up returned.  That sweep
takes each n from the sphere C(n, n) down, so a full degree (every face a
column) is cleared by C(n, n)'s degree above, and a degree with simplex
columns by its own complex's degree above; nothing is deleted from a top
boundary.  It exits nonzero unless the cleared ranks and Smith factors
equal the whole-matrix ones.  Each line also counts the columns that
reduce to zero over Q: the columns it eliminates less the rank.

Usage: python benchmarks/bench_rank.py [--n-max 7]
"""

import argparse
import time

from halfcube import linalg
from halfcube.complexes import boundary_key, build_complex

PRIMES = (2, 3, 5)
JOINT = 30  # 2 * 3 * 5
MODULI = (0, *PRIMES, JOINT)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def bench_matrix(label, m, above):
    trip = m.entries
    columns = list(zip(m.rows, m.signs))  # eliminate takes a matrix as its columns
    per_prime, times_p = zip(
        *(timed(linalg.eliminate, m.nrows, m.ncols, columns, p) for p in PRIMES)
    )
    ranks_p = tuple(ranks[p] for (ranks, _), p in zip(per_prime, PRIMES))
    sf, t_snf = timed(linalg.smith_normal_form, m.nrows, m.ncols, trip)
    (joint, _), t_joint = timed(linalg.eliminate, m.nrows, m.ncols, columns, JOINT)
    if set(ranks_p) != {sf.rank} or joint != dict(zip(PRIMES, ranks_p)):
        raise SystemExit(
            f"{label}: ranks disagree: F_p {ranks_p}, Z/30 {joint}, snf {sf.rank}"
        )
    # above: the boundary one degree up, or None for the top boundary
    cleared = {q: None for q in MODULI}
    if above is not None:
        for q in MODULI:
            above_columns = zip(above.rows, above.signs)
            cleared[q] = linalg.eliminate(above.nrows, above.ncols, above_columns, q)[1]
    got, times_c = zip(
        *(timed(linalg.eliminate, m.nrows, m.ncols, columns, q, cleared[q]) for q in MODULI)
    )
    got = [out[0] for out in got]
    want = [sf, *({p: r} for p, r in zip(PRIMES, ranks_p)), joint]
    if got != want:
        raise SystemExit(f"{label}: cleared eliminations {got} differ from whole {want}")
    print(
        f"{label:28s} {m.nrows:5d}x{m.ncols:<5d} rank {sf.rank:5d}  zero {m.ncols - sf.rank:5d}   "
        + timing_columns(times_p, t_joint, t_snf)
    )
    kept = m.ncols - (sum(cleared[0]) if above is not None else 0)
    print(
        f"{'  cleared':28s} {m.nrows:5d}x{kept:<5d} {'':10s}  zero {kept - sf.rank:5d}   "
        + timing_columns(times_c[1:4], times_c[4], times_c[0])
    )


def timing_columns(times_p, t_joint, t_snf):
    per_p = "  ".join(f"F_{p} {t*1000:8.1f}" for p, t in zip(PRIMES, times_p))
    return (
        f"{per_p}   Z/30 {t_joint*1000:8.1f}   snf {t_snf*1000:8.1f}   "
        f"rank-agree {(t_snf + t_joint)*1000:9.1f} ms (per prime {(t_snf + sum(times_p))*1000:9.1f})"
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=7)
    args = ap.parse_args()

    print(f"kernel: {linalg.kernel_name()}")
    for n in range(5, args.n_max + 1):
        sphere = build_complex(n, n).matrices()
        for k in (3, 4):
            cx = build_complex(n, k)
            mats = cx.matrices()
            biggest = max(mats, key=lambda m: m.nrows * m.ncols)
            d = biggest.degree
            # the sweep eliminates a full degree once, in the sphere, where
            # the sphere's degree above clears it
            source = sphere if boundary_key(cx, d)[3] == "full" else mats
            above = source[d] if d < len(source) else None
            bench_matrix(f"C({n},{k}) boundary deg {d}", biggest, above)


if __name__ == "__main__":
    main()
