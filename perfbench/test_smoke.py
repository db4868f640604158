"""Smoke test of the benchmark: every workload at a tiny size.

    python -m pytest perfbench/test_smoke.py -q

Checks that each run is correct, prints every metric BENCHMARK.json names
with its unit, that observed and computed counts repeat exactly between two
traced runs of one seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = {"count", "taps_computed", "bytes_computed", "bytes"}


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] != 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_counts_repeat(workload):
    first = result_of(run(workload, 1))
    second = result_of(run(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["cli.run.calls"]["value"] > 0


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
