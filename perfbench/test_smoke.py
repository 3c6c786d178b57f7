"""Smoke test of the benchmark runner at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced, checks that every metric named in
BENCHMARK.json is printed with its unit, that no job failed, and that the
exact counters repeat between two traced runs with the same seed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("linalg.factor.cells", "tucker.hooi.iters", "fullrank.selections_built", "axioms.checks")


def run(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split(" = ")[0]: line.split(" = ")[1] for line in lines if " = " in line}
    for name, unit in spec.items():
        assert printed[name].endswith(f" {unit}")
    assert printed["fail_ratio"].startswith("0 1 ")
    assert ("fit_error" in printed) == (workload in ("dense", "sweep"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_layers_and_repeat_counts(workload):
    first, _ = result_of(run(workload, 1))
    second, _ = result_of(run(workload, 1))
    assert first["correct"] and second["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
