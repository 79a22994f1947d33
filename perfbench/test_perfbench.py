"""The benchmark's own test: every workload at n <= 5, clean and corrupted.

    python3 -m pytest perfbench/test_perfbench.py

A clean run must pass every check; a run with one boundary sign or one
output byte corrupted must report failed checks, so the gate is not vacuous.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, inject=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_passes_every_check(workload):
    meta, result = run(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["kernel"] and meta["seed"] == 7 and meta["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("inject", ("sign", "output"))
def test_corruption_is_caught(workload, inject):
    _, result = run(workload, inject=inject)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers(workload):
    _, result = run(workload, trace=1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "verify-n7-warm":
        assert m["cli.cache_hit_ratio"] == 1.0 and m["complexes.incidence_sign_calls"] == 0
    else:
        assert m["complexes.incidence_sign_calls"] > 0 and m["complexes.nnz"] > 0


def test_refuses_without_sources(tmp_path):
    """A directory with only BENCHMARK.json and perfbench/ must fail without a result."""
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(RUN.parent.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-n7-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
