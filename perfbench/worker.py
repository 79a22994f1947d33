"""One pass of one workload in a fresh process (started by run.py).

The process imports halfcube from ``<root>/src``, reports how long that took
since the parent launched it (``setup_s``), runs the workload's timed body,
then runs the gate and writes one JSON object to ``--out``.  Every time it
reports is normalised to a reference host speed sampled while that time ran
(see hostspeed.py); the raw times go along as ``raw_*``.

    python3 perfbench/worker.py --root . --mode pass --workload verify-n7-cold \
        --scale full --seed 1 --cache-dir DIR --trace 0 --launched T --out FILE
"""

import sys
import time


def main(argv):
    import hostspeed

    # sample the host while halfcube imports; a 2 ms interval gives a few
    # dozen samples over the ~0.1 s of setup
    sampler = hostspeed.Sampler()
    sampler.start(0.002)
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--mode", choices=("probe", "populate", "pass"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--inject", choices=("sign", "output"), default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, f"{args.root}/src")
    import halfcube.cli  # noqa: F401  (the CLI pulls in every layer)

    sampler.stop()
    raw_setup_s = time.monotonic() - args.launched - sampler.spent_s
    import json

    result = {"setup_s": raw_setup_s * sampler.factors()[0], "raw_setup_s": raw_setup_s}
    if args.mode == "pass":
        result.update(run_pass(args))
    elif args.mode == "populate":
        from workloads import SIZES, run_cli, verify_argv

        rc, _ = run_cli(halfcube.cli, verify_argv(SIZES[args.scale]["n_max"], args.cache_dir))
        result["exit_code"] = rc
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _cpu_s(resource):
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(args):
    import os
    import resource
    import traceback
    from types import SimpleNamespace

    import halfcube.complexes
    import halfcube.linalg
    import halfcube.symmetry

    import hostspeed
    import layertrace
    import workloads as wl

    hc = SimpleNamespace(
        cli=halfcube.cli, symmetry=halfcube.symmetry, complexes=halfcube.complexes
    )
    size = wl.SIZES[args.scale]
    pins = wl.load_pins()
    checks = []
    if args.workload == "lattice-symmetry":
        pairs = wl.draw_pairs(size["action"][0], size["pairs"], args.seed)
    else:
        # a cold pass must find no cache; a warm one must find a full one
        empty = not os.listdir(args.cache_dir)
        checks.append(("cache.empty_at_start", empty == (args.workload == "verify-n7-cold")))

    capture = wl.Capture(hc.cli)
    if args.inject:
        wl.inject(args.inject, hc.cli, hc.complexes)
    tracer = layertrace.Tracer() if args.trace else None
    if tracer:
        capture.tracer = tracer
        tracer.install()

    sampler = capture.sampler = hostspeed.Sampler(tracer.exclude if tracer else None)
    state, error = None, None
    cpu0 = _cpu_s(resource)
    t0 = time.perf_counter()
    sampler.start()
    try:
        if args.workload == "lattice-symmetry":
            state = wl.run_lattice_symmetry(hc, size, pairs)
        else:
            state = wl.run_verify(hc, size, args.cache_dir)
    except Exception:  # a failing program is a failed check, not a crashed run
        error = traceback.format_exc()
    sampler.stop()
    raw_wall_s = time.perf_counter() - t0 - capture.excluded_s - sampler.spent_s
    raw_cpu_s = _cpu_s(resource) - cpu0 - capture.excluded_cpu_s - sampler.spent_cpu_s
    wall_factor, cpu_factor = sampler.factors()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "wall_s": raw_wall_s * wall_factor,
        "cpu_s": raw_cpu_s * cpu_factor,
        "raw_wall_s": raw_wall_s,
        "raw_cpu_s": raw_cpu_s,
        "wall_factor": wall_factor,
        "peak_rss_mb": peak_rss_mb,
        "kernel": halfcube.linalg.kernel_name(),
    }
    if tracer:
        out["layers"] = tracer.metrics(raw_wall_s, wall_factor)

    observed = {}
    if error is None:
        try:
            if args.workload == "lattice-symmetry":
                more, observed = wl.observe_lattice_symmetry(state, size, hc, pins)
            else:
                more, observed = wl.observe_verify(state, size, capture.digests)
            checks.extend(more)
        except Exception:
            error = traceback.format_exc()
    if args.workload == "verify-n7-warm":
        # load_complex returns None on a stale or unreadable entry, which
        # would silently turn this pass cold
        all_hit = capture.loads > 0 and capture.load_hits == capture.loads
        checks.append(("cache.warm_hit_ratio_is_1", all_hit))
    results = wl.gate(checks, observed, wl.expected_pins(args.workload, size), pins)
    if error is not None:
        results.append(("pass.no_exception", False))
        out["error"] = error
    out["attempted"] = len(results)
    out["failed_checks"] = [name for name, ok in results if not ok]
    out["observed"] = observed
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
