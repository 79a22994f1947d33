"""halfcube benchmark driver: one run of one workload, closed loop, one worker at a time.

    python3 perfbench/run.py --workload verify-n7-cold --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each pass is a fresh,
single-threaded worker process (perfbench/worker.py), so every pass starts
with cold in-process caches, as a CLI user's run does.  Passes repeat while
another one fits in ``--seconds``, but at least two run, so ``--seconds`` is a
floor on measuring time: a verify-n7-cold pass takes about 20 s, so its runs
measure about 40 s.  The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.

Every time below is normalised to a reference host speed that the worker
samples while the time runs (perfbench/hostspeed.py): on a shared host the
raw times of identical passes spread by 13-26% (quartiles over median) and
their medians drift by up to ~40% over minutes; normalised ones spread 3-7%.
The raw times are in the meta line.

--trace 0 reports the end-to-end metrics:
  wall_s       first call into halfcube until its last result is returned
               (the benchmark's gate runs after the clock stops)
  cpu_s        user + system CPU of the worker and its children over wall_s
  peak_rss_mb  peak resident memory of the worker (getrusage, own process)
  setup_s      worker launch until halfcube.cli is imported, over every
               worker of the run plus six import-only probes
each the median over the run's passes.
--trace 1 alternates untraced and traced passes (at least one pair) and
reports the per-layer metrics of the traced ones (low medians; see
perfbench/layertrace.py), plus trace_overhead_s = the median over pairs of
traced wall_s - untraced wall_s.  With the one pair of a verify-n7-cold or
lattice-symmetry run that difference is within the ~7% noise of one pass.
Metric units are those declared in BENCHMARK.json.

A line {"meta": ...} before the result records the kernel name, Python
version, git revision, source digest, nproc and seed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-n7-cold", "verify-n7-warm", "lattice-symmetry")
SETUP_PROBES = 6
MIN_PASSES = 2
RUN_LIMIT_S = 170  # the whole run, workers included, ends well within 180 s


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision(root):
    """HEAD's commit from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env():
    """The caller's environment minus anything that would change the path taken."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HALFCUBE_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.env = worker_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.setups = []

    def worker(self, mode, **opts):
        """Run one worker to completion; returns its JSON result or None."""
        out = self.work / f"result-{len(self.setups)}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--mode", mode, "--out", str(out), "--scale", self.args.scale]
        for key, val in opts.items():
            if val is not None:
                cmd += [f"--{key.replace('_', '-')}", str(val)]
        launched = time.monotonic()
        cmd += ["--launched", repr(launched)]
        timeout = max(1.0, self.deadline - launched)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"worker {mode} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not out.exists():
            print(f"worker {mode} exited with {proc.returncode}", file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        out.unlink()
        self.setups.append({k: result[k] for k in ("setup_s", "raw_setup_s")})
        return result

    def warm_cache(self, src_digest):
        """A cache directory written by the code under test, made once per source tree."""
        size_key = f"{self.args.scale}-{src_digest[:16]}"
        final = self.work.parent / f"warm-{size_key}"
        if not final.exists():
            tmp = Path(tempfile.mkdtemp(prefix="warm-tmp-", dir=self.work))
            got = self.worker("populate", cache_dir=tmp)
            if got is None or got["exit_code"] != 0:
                shutil.rmtree(tmp, ignore_errors=True)
                return None
            try:
                tmp.rename(final)
            except OSError:  # another run made it first
                shutil.rmtree(tmp, ignore_errors=True)
        return final

    def one_pass(self, warm_src, trace):
        cache = self.work / "cache"
        shutil.rmtree(cache, ignore_errors=True)
        if warm_src is not None:
            shutil.copytree(warm_src, cache)
        else:
            cache.mkdir()
        try:
            return self.worker("pass", workload=self.args.workload, seed=self.args.seed,
                               cache_dir=cache, trace=trace, inject=self.args.inject)
        finally:
            shutil.rmtree(cache, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small (n <= 5) is for the benchmark's own test")
    ap.add_argument("--inject", choices=("sign", "output"), default=None,
                    help="corrupt one boundary sign or output byte (gate test)")
    args = ap.parse_args(argv)

    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    if not (src / "halfcube" / "__init__.py").is_file():
        print(f"no halfcube sources under {src}", file=sys.stderr)
        return 2

    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        return run(args, Runner(args, work), source_digest(src))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, runner, src_digest):
    for _ in range(SETUP_PROBES):
        runner.worker("probe")
    warm_src = None
    if args.workload == "verify-n7-warm":
        warm_src = runner.warm_cache(src_digest)
        if warm_src is None:
            print("could not write the warm cache", file=sys.stderr)
            return 1

    # closed loop: start another pass (or untraced/traced pair) while it fits
    plain, traced, failed_passes = [], [], 0
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        for trace in ((0, 1) if args.trace else (0,)):
            got = runner.one_pass(warm_src, trace)
            if got is None:
                failed_passes += 1
            else:
                (traced if trace else plain).append(got)
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - start
        if failed_passes or time.monotonic() + longest > runner.deadline:
            break
        if elapsed + longest > args.seconds and (args.trace or len(plain) >= MIN_PASSES):
            break

    passes = plain + traced
    if not plain or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 1
    kernels = sorted({p["kernel"] for p in passes})
    if len(kernels) != 1:
        print(f"passes ran different kernels: {kernels}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + failed_passes
    failed = sum(len(p["failed_checks"]) for p in passes) + failed_passes
    for p in passes:
        for name in p["failed_checks"][:20]:
            print(f"FAILED {name}", file=sys.stderr)
        if "error" in p:
            print(p["error"], file=sys.stderr)

    if args.trace:
        layer_keys = traced[0]["layers"].keys()
        metrics = {key: statistics.median_low(p["layers"][key] for p in traced)
                   for key in layer_keys}
        # passes alternate untraced, traced: compare each pair, which ran close in time
        metrics["trace_overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    else:
        metrics = {key: statistics.median(p[key] for p in plain)
                   for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(rec["setup_s"] for rec in runner.setups)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "kernel": kernels[0],
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "source_sha256": src_digest,
        "nproc": os.cpu_count(),
        "passes": len(plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in plain],
        "pass_raw_cpu_s": [p["raw_cpu_s"] for p in plain],
        "pass_host_factor": [p["wall_factor"] for p in plain],
        "traced_passes": len(traced),
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_s": [rec["setup_s"] for rec in runner.setups],
        "raw_setup_s": [rec["raw_setup_s"] for rec in runner.setups],
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
