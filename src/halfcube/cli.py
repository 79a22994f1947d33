"""Command-line front end: census, homology, Morse, orbit and triangle reports.

Every command emits a results payload plus a list of named checks
(expected vs actual); the exit status is 0 exactly when no check failed.
JSON output is schema-stable: {schema_version, command, params, results,
checks}.  A command builds only what it reports: ``morse`` reads cells,
facets and keys, and assembles no boundary matrix.  Only ``verify`` caches
the complexes it builds on disk, one file per (n, k_cut), as the signs of
their incidences alone: the cells and the incidences follow from (n, k_cut),
so a load rebuilds them and reads the signs.  A file of another format or
orientation, failing a check on load or at odds with a held matrix, is a
miss, and the complex is rebuilt and rewritten.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
import tempfile

from . import homology, morse, symmetry, triangle
from .complexes import CellComplex, boundary_matrices, build_complex, euler_characteristic
from .faces import (
    MAX_DIM,
    check_face_budget,
    face_census,
    face_count,
    face_counts_by_type,
)
from .homology import CERT_RANK_AGREE, CERT_SNF

SCHEMA_VERSION = 1
CACHE_FORMAT = 2
ORIENTATION_TAG = "lexmin-outward-v1"
DEFAULT_MAX_CELLS = 20000
CHARACTER_SEED = 0  # betti --characters samples the same group elements every run
# run_triangle's alternating and positive sums grow steeply with the rows:
# on a 2-vCPU host with Python 3.11, 100 rows take about 0.3 s, 150 about
# 1.3 s and 400 about 98 s
MAX_ROWS = 100
# betti --characters COUNT at (8, 4), single in-process runs: 1 takes 0.9-1.6 s,
# 10 take 4.1 s and 100 take 32 s, at 58-63 MB, so each sample costs about
# 0.3 s once the basis is built; at (7, 6), 100 take 0.7 s (same host)
MAX_CHARACTERS = 100

KNOWN_ROWS = {
    0: (1,),
    1: (1, 1),
    2: (1, 3, 1),
    3: (1, 5, 7, 1),
    4: (1, 7, 17, 15, 1),
    5: (1, 9, 31, 49, 31, 1),
    6: (1, 11, 49, 111, 129, 63, 1),
}


# ---------------------------------------------------------------------------
# Cache


def cache_path(cache_dir: str, n: int, k_cut: int) -> str:
    return os.path.join(cache_dir, f"halfcube-n{n}-k{k_cut}-v{CACHE_FORMAT}.json")


def save_complex(cx: CellComplex, cache_dir: str) -> str:
    """Write the signs of cx's incidences; every other part of a complex is rebuilt on load."""
    text = json.dumps(
        {
            "format_version": CACHE_FORMAT,
            "orientation": ORIENTATION_TAG,
            "n": cx.n,
            "k_cut": cx.k_cut,
            "signs": [m.sign_text() for m in cx.matrices()],
        },
        sort_keys=True,
    )
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, cx.n, cx.k_cut)
    # a temp file of its own, so that concurrent writers of one path never collide
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_complex(cache_dir: str, n: int, k_cut: int) -> CellComplex | None:
    """The cached complex, or None when the file is missing, stale or fails a check.

    The cells and incidences are rebuilt from (n, k_cut); the file supplies
    only their signs.  It must carry this format, orientation, n and k_cut,
    one string of '+' and '-' per degree, each as long as that degree's
    incidence list; its matrices must square to zero and equal any held
    under the same ``boundary_key``.
    """
    path = cache_path(cache_dir, n, k_cut)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):  # missing, unreadable, not UTF-8 or not JSON
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format_version") != CACHE_FORMAT
        or payload.get("orientation") != ORIENTATION_TAG
        or payload.get("n") != n
        or payload.get("k_cut") != k_cut
    ):
        return None
    signs = payload.get("signs")
    if not isinstance(signs, list) or any(
        not isinstance(s, str) or set(s) - {"+", "-"} for s in signs
    ):
        return None
    cx = build_complex(n, k_cut)
    try:
        cx._matrices = boundary_matrices(cx, signs=signs)
    except (ValueError, AssertionError):
        return None
    return cx


def get_complex(n: int, k_cut: int, cache_dir: str | None) -> CellComplex:
    """The (n, k_cut) complex.  With a cache directory it comes assembled, loaded
    or built and saved; without one its matrices are assembled on first use.
    A file that cannot be written is a warning on stderr, not an error."""
    if not cache_dir:
        return build_complex(n, k_cut)
    cx = load_complex(cache_dir, n, k_cut)
    if cx is None:
        cx = build_complex(n, k_cut)
        try:
            save_complex(cx, cache_dir)  # assembles cx's matrices before it writes
        except OSError as exc:
            path = cache_path(cache_dir, n, k_cut)
            print(f"warning: cannot write cache file {path}: {exc.strerror or exc}",
                  file=sys.stderr)
    return cx


# ---------------------------------------------------------------------------
# Report plumbing


def check(checks, name, expected, actual):
    status = "pass" if expected == actual else "fail"
    checks.append({"name": name, "expected": expected, "actual": actual, "status": status})


def skip(checks, name, expected, reason):
    checks.append({"name": name, "expected": expected, "actual": reason, "status": "skipped"})


def render(report, fmt: str, table_rows, header) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(table_rows)
        return buf.getvalue()
    widths = [len(h) for h in header]
    rows = [[str(x) for x in row] for row in table_rows]
    for row in rows:
        widths = [max(w, len(x)) for w, x in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)))
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    skipped = [c for c in report["checks"] if c["status"] == "skipped"]
    lines.append("")
    lines.append(
        f"checks: {len(report['checks']) - len(failed) - len(skipped)} passed, "
        f"{len(failed)} failed, {len(skipped)} skipped"
    )
    for c in failed:
        lines.append(f"  FAIL {c['name']}: expected {c['expected']}, got {c['actual']}")
    return "\n".join(lines) + "\n"


def exit_code(report) -> int:
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


def emit(args, params, results, checks, table_rows, header) -> int:
    """Write the report of ``args.command`` in ``args.format``; return its exit status."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        "results": results,
        "checks": checks,
    }
    sys.stdout.write(render(report, args.format, table_rows, header))
    return exit_code(report)


# ---------------------------------------------------------------------------
# Commands


def run_faces(n: int):
    by_type = face_counts_by_type(n)
    checks = []
    results = []
    for dim, (built_simp, built_hc) in enumerate(face_census(n)):
        got = built_simp + built_hc
        check(checks, f"faces.n={n}.dim={dim}", face_count(n, dim), got)
        check(checks, f"faces.n={n}.dim={dim}.split", by_type[dim], (built_simp, built_hc))
        results.append({"dim": dim, "simplex": built_simp, "halfcube": built_hc, "total": got})
    return results, checks


def cmd_faces(args) -> int:
    results, checks = run_faces(args.n)
    rows = [(r["dim"], r["simplex"], r["halfcube"], r["total"]) for r in results]
    return emit(args, {"n": args.n}, results, checks, rows,
                ["dim", "simplex", "halfcube", "total"])


def _peak_cells(n: int, k: int) -> int:
    """Size of the largest chain group of the (n, k) cut complex, from the census."""
    # the cut keeps every simplex and the half cubes of dimension below k
    return max(
        simp + (half if d < k else 0) for d, (simp, half) in enumerate(face_counts_by_type(n))
    )


def budgeted_complex(n, k, cache_dir, max_cells) -> CellComplex | None:
    """The (n, k) complex, or None, before anything is built, when its
    largest chain group exceeds max_cells."""
    if max_cells is not None and _peak_cells(n, k) > max_cells:
        return None
    return get_complex(n, k, cache_dir)


def run_betti(n, k, cert, cx, characters=0):
    """Homology report of one cut complex; cx is None for a job over the cell budget."""
    checks = []
    predicted = triangle.predicted_betti(n, k)
    result = {"n": n, "k": k, "predicted": predicted, "certificate": None, "betti": None}
    if cx is None:
        result["torsion"] = None
        result["status"] = "skipped"
        skip(checks, f"betti.n={n}.k={k}.rank", predicted, "cell budget exceeded")
        return result, checks
    certification = CERT_SNF if cert == "snf" else CERT_RANK_AGREE
    prof = homology.homology_of(cx, reduced=True, certification=certification)
    result["betti"] = list(prof.betti)
    result["torsion"] = [list(t) for t in prof.torsion]
    result["certificate"] = prof.certificate
    result["status"] = "ok"
    check(checks, f"betti.n={n}.k={k}.rank", predicted, prof.betti[k - 1])
    check(checks, f"betti.n={n}.k={k}.concentrated", True, prof.is_concentrated(k - 1))
    alt = sum((-1) ** d * b for d, b in enumerate(prof.betti)) + 1
    check(checks, f"betti.n={n}.k={k}.euler", euler_characteristic(cx), alt)
    if characters:
        result["character_samples"] = character_samples(n, k, characters)
    return result, checks


def character_samples(n, k, count):
    """Traces of the homology action on reproducible random group elements."""
    import random

    rng = random.Random(CHARACTER_SEED)
    out = []
    for _ in range(count):
        g = symmetry.random_wdn(n, rng)
        mat = symmetry.homology_action(n, k, g)
        out.append(
            {
                "perm": [p + 1 for p in g.perm],
                "signs": list(g.signs),
                "trace": sum(mat[i][i] for i in range(len(mat))),
            }
        )
    return out


def cmd_betti(args) -> int:
    cx = budgeted_complex(args.n, args.k, None, args.max_cells)
    result, checks = run_betti(args.n, args.k, args.cert, cx, args.characters)
    params = {"n": args.n, "k": args.k, "cert": args.cert, "characters": args.characters}
    row = [
        result["n"],
        result["k"],
        result["predicted"],
        result["betti"][args.k - 1] if result["betti"] else None,
        result["certificate"],
        result["status"],
    ]
    header = ["n", "k", "predicted", "computed", "certificate", "status"]
    if args.characters:
        samples = result.get("character_samples")  # none for a skipped job
        row.append(" ".join(str(c["trace"]) for c in samples) if samples else None)
        header.append("traces")
    return emit(args, params, result, checks, [row], header)


def run_morse(n, k, cx):
    """Morse report of one cut complex; cx is None for a job over the cell budget."""
    checks = []
    predicted = 1 + (-1) ** (k - 1) * triangle.predicted_betti(n, k)
    if cx is None:
        reason = "cell budget exceeded"
        skip(checks, f"morse.n={n}.k={k}.acyclic", True, reason)
        skip(checks, f"morse.n={n}.k={k}.unpaired_above_cut", 0, reason)
        skip(checks, f"morse.n={n}.k={k}.euler", predicted, reason)
        skip(checks, f"morse.n={n}.k={k}.euler_closed_form", predicted, reason)
        result = dict.fromkeys(("pairs", "acyclic", "cycle", "unpaired", "euler"))
        return {"n": n, "k": k, **result, "status": "skipped"}, checks
    matching = morse.build_matching(cx)
    cert = morse.check_acyclic(matching)
    census = morse.unpaired_census(matching)
    chi = euler_characteristic(cx)
    check(checks, f"morse.n={n}.k={k}.acyclic", True, cert.acyclic)
    check(checks, f"morse.n={n}.k={k}.unpaired_above_cut", 0, sum(census[k:]))
    alt = sum((-1) ** p * u for p, u in enumerate(census))
    check(checks, f"morse.n={n}.k={k}.euler", chi, alt)
    check(checks, f"morse.n={n}.k={k}.euler_closed_form", predicted, chi)
    result = {
        "n": n,
        "k": k,
        "pairs": matching.pair_count(),
        "acyclic": cert.acyclic,
        "cycle": [list(key) for key in cert.cycle],
        "unpaired": census,
        "euler": chi,
    }
    return result, checks


def cmd_morse(args) -> int:
    cx = budgeted_complex(args.n, args.k, None, args.max_cells)
    result, checks = run_morse(args.n, args.k, cx)
    unpaired = result["unpaired"]
    rows = [
        (result["n"], result["k"], result["pairs"], result["acyclic"],
         None if unpaired is None else " ".join(map(str, unpaired)), result["euler"])
    ]
    return emit(args, {"n": args.n, "k": args.k}, result, checks, rows,
                ["n", "k", "pairs", "acyclic", "unpaired", "euler"])


def run_orbits(n, extended):
    checks = []
    rep = symmetry.orbits(n, extended=extended)
    expected = symmetry.expected_orbit_profile(n, extended)
    results = []
    for dim, dim_orbits in enumerate(rep.orbits):
        got = sorted((o.kind, o.size) for o in dim_orbits)
        want = sorted(expected[dim])
        check(checks, f"orbits.n={n}.dim={dim}{'.ext' if extended else ''}", want, got)
        for o in dim_orbits:
            results.append(
                {
                    "dim": dim,
                    "kind": o.kind,
                    "size": o.size,
                    "representative": list(o.representative),
                }
            )
    return results, checks


def cmd_orbits(args) -> int:
    results, checks = run_orbits(args.n, args.extended)
    rows = [(r["dim"], r["kind"], r["size"]) for r in results]
    return emit(args, {"n": args.n, "extended": args.extended}, results, checks, rows,
                ["dim", "kind", "size"])


def run_triangle(rows_max):
    checks = []
    # the routes are compared on at least rows 0..6; the report lists rows 0..rows_max
    agree_max = max(rows_max, 6)
    table = triangle.triangle_recurrence(agree_max)
    all_agree = True
    for n in range(agree_max + 1):
        for k in range(n + 1):
            v = table.value(n, k)
            if (
                triangle.triangle_alternating(n, k) != v
                or triangle.triangle_positive(n, k) != v
            ):
                all_agree = False
    for k in range(agree_max + 1):
        coeffs = triangle.gf_coefficients(k, agree_max)
        for n in range(agree_max + 1):
            if coeffs[n] != (table.value(n, n - k) if n >= k else 0):
                all_agree = False
    check(checks, f"triangle.routes_agree.n<={agree_max}", True, all_agree)
    for n in range(min(rows_max, 6) + 1):
        check(checks, f"triangle.row.{n}", list(KNOWN_ROWS[n]), list(table.rows[n]))
    check(checks, f"triangle.strehl.n<={agree_max}", True, triangle.strehl_identity_check(agree_max))
    results = [{"n": n, "row": list(row)} for n, row in enumerate(table.rows[: rows_max + 1])]
    return results, checks


def cmd_triangle(args) -> int:
    results, checks = run_triangle(args.rows)
    rows = [(r["n"], " ".join(map(str, r["row"]))) for r in results]
    return emit(args, {"rows": args.rows}, results, checks, rows, ["n", "row"])


def verify_cut(n, k, cache_dir, max_cells):
    """The betti and Morse reports of one (n, k), on one fetch of the complex.

    A job over the cell budget builds and loads nothing; both reports skip.
    """
    cert = "snf" if n <= 6 else "rank"
    cx = budgeted_complex(n, k, cache_dir, max_cells)
    return run_betti(n, k, cert, cx), run_morse(n, k, cx)


def cmd_verify(args) -> int:
    checks = []
    results = {"faces": [], "triangle": [], "betti": [], "morse": [], "orbits": []}

    for n in range(4, args.n_max + 1):
        res, ch = run_faces(n)
        results["faces"].append({"n": n, "counts": [r["total"] for r in res]})
        checks.extend(ch)

    res, ch = run_triangle(max(args.n_max, 6))
    results["triangle"] = res
    checks.extend(ch)

    # one pass over (n, k), each n from the sphere C(n, n) down, so that every
    # cut restricts the complex before it; the report lists the jobs in
    # ascending (n, k), every betti job before every Morse job
    reports = {
        (n, k): verify_cut(n, k, args.cache_dir, args.max_cells)
        for n in range(4, args.n_max + 1)
        for k in range(n, 2, -1)
    }
    betti_out, morse_out = zip(*(reports[job] for job in sorted(reports)))
    for section, outs in (("betti", betti_out), ("morse", morse_out)):
        for result, ch in outs:
            results[section].append(result)
            checks.extend(ch)

    for n in range(4, args.n_max + 1):
        res, ch = run_orbits(n, extended=False)
        results["orbits"].append({"n": n})
        checks.extend(ch)
        if n == 4:
            res, ch = run_orbits(4, extended=True)
            results["orbits"].append({"n": 4, "extended": True})
            checks.extend(ch)

    rows = [(c["name"], c["status"]) for c in checks if c["status"] != "pass"] or [
        ("all", "pass")
    ]
    return emit(args, {"n_max": args.n_max, "threads": 1}, results, checks, rows,
                ["check", "status"])


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table")

    # betti, morse and verify build cut complexes: only they budget them
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument(
        "--max-cells",
        type=int,
        default=DEFAULT_MAX_CELLS,
        help="skip jobs whose largest chain group exceeds this",
    )

    ap = argparse.ArgumentParser(
        prog="halfcube",
        description="Exact face, homology, Morse, orbit and triangle reports "
        "for the n-dimensional half cube.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("faces", parents=[common],
                       help="per-dimension face census against the closed forms")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("betti", parents=[budgeted], help="homology of one cut complex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cert", choices=("rank", "snf"), default="snf")
    p.add_argument(
        "--characters",
        type=int,
        default=0,
        metavar="COUNT",
        help="also report traces of the homology action on COUNT sampled elements",
    )
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("morse", parents=[budgeted], help="canonical matching report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("orbits", parents=[common], help="face orbits under the type-D group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extended", action="store_true", help="include the n=4 reflection")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("triangle", parents=[common], help="triangle rows by four routes")
    p.add_argument("--rows", type=int, required=True)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("verify", parents=[budgeted],
                       help="full sweep; exit 0 only if everything matches")
    p.add_argument("--n-max", type=int, default=6)
    # the disk cache serves verify alone; betti and morse always build, so no
    # cache file reaches betti --characters
    p.add_argument("--cache-dir", help="directory for cached complexes")
    p.set_defaults(func=cmd_verify)

    return ap


def usage_error(message: str):
    """Refuse the invocation: the message on stderr, exit status 2, as argparse does."""
    print(f"usage error: {message}", file=sys.stderr)
    raise SystemExit(2)


def validate_args(args) -> None:
    n = getattr(args, "n", None)
    if n is not None and not 4 <= n <= MAX_DIM:
        usage_error(f"--n must be in 4..{MAX_DIM}, got {n}")
    k = getattr(args, "k", None)
    if k is not None:
        if not 3 <= k <= n:
            usage_error(f"--k must be in 3..{n}, got {k}")
    for name in ("rows", "max_cells", "characters"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            usage_error(f"{flag} must be nonnegative, got {value}")
    if getattr(args, "extended", False) and n != 4:
        usage_error(f"--extended needs --n 4, the only n with the special reflection; got {n}")
    rows = getattr(args, "rows", None)
    if rows is not None and rows > MAX_ROWS:
        usage_error(f"--rows must be at most {MAX_ROWS}, got {rows}")
    characters = getattr(args, "characters", None)
    if characters is not None and characters > MAX_CHARACTERS:
        usage_error(f"--characters must be at most {MAX_CHARACTERS}, got {characters}")
    n_max = getattr(args, "n_max", None)
    if n_max is not None and not 4 <= n_max <= MAX_DIM:
        usage_error(f"--n-max must be in 4..{MAX_DIM}, got {n_max}")
    # face counts grow with n, so the largest n of a command decides
    largest = n if n is not None else n_max
    if largest is not None:
        try:
            check_face_budget(largest)
        except ValueError as exc:
            usage_error(str(exc))
    # made or checked before any complex is built
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            reason = None if os.access(cache_dir, os.W_OK | os.X_OK) else "not writable"
        except OSError as exc:
            reason = exc.strerror
        if reason:
            usage_error(f"--cache-dir {cache_dir!r} is not a usable directory: {reason}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    validate_args(args)
    # the package's work makes no reference cycles, so the cyclic collector
    # only costs a command time; the caller's setting comes back afterwards
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
