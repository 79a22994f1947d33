"""Run every workload over several seeds, summarise, and compare two result sets.

    python3 perfbench/suite.py run [--runs 10] [--seed 100] [--trace 0|1]
                                   [--workloads W ...] [--out results.jsonl]
    python3 perfbench/suite.py show results.jsonl
    python3 perfbench/suite.py compare base.jsonl new.jsonl

``run`` calls run.py once per (workload, seed), with the run length from
BENCHMARK.json, appends each run's meta and result to --out, and prints per
metric and workload: median, quartiles, spread = (Q3 - Q1) / median, the
bound, and failed_ratio = failed checks / checks attempted.
``compare`` refuses result sets whose kernel names differ; otherwise it
reports each end-to-end metric's median change against its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_all(args):
    records = []
    for workload in args.workloads or WORKLOADS:
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed + i), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {args.seed + i}: exit {proc.returncode}")
            rec = {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}
            records.append(rec)
            print(f"{workload} seed {args.seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in rec["result"]["metrics"].items()
                if k in BOUNDS), file=sys.stderr)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    show(records)


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["meta"]["workload"], []).append(rec)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def show(records):
    print(f"{'workload':18} {'metric':34} {'unit':6} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6} runs")
    for workload, recs in by_workload(records).items():
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        print(f"{workload:18} {'failed_ratio':34} {'ratio':6} {failed / attempted:11.4g}"
              f"   ({failed} of {attempted} checks, kernel "
              f"{sorted({r['meta']['kernel'] for r in recs})})")
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = BOUNDS.get(name, {}).get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:18} {name:34} {unit:6} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6} {len(values)}{flag}")


def compare(base, new):
    kernels = {r["meta"]["kernel"] for r in base + new}
    if len(kernels) != 1:
        raise SystemExit(f"refusing to compare runs of different kernels: {sorted(kernels)}")
    base_w, new_w = by_workload(base), by_workload(new)
    worse = 0
    for workload in base_w:
        if workload not in new_w:
            continue
        for name, spec in BOUNDS.items():
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in base_w[workload])
            n = statistics.median(r["result"]["metrics"][name]["value"] for r in new_w[workload])
            change = (n - b) / b if spec["better"] == "lower" else (b - n) / b
            verdict = "worse" if change > spec["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{workload:18} {name:12} base {b:10.5g} new {n:10.5g} "
                  f"worse by {change:+7.3f} (bound {spec['bound']}) {verdict}")
    return 1 if worse else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="*", choices=WORKLOADS)
    p.add_argument("--out")
    p = sub.add_parser("show")
    p.add_argument("results")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        run_all(args)
    elif args.cmd == "show":
        show(load(args.results))
    else:
        return compare(load(args.base), load(args.new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
