"""Smoke tests of the benchmark itself: tiny inputs, one chain per workload.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Sum of span self times vs. the command's wall time around cli.main: the
# difference is the tracer's own cost outside the root span.
SELF_TIME_REL_TOL = 0.02
SELF_TIME_ABS_TOL_S = 0.005


@functools.cache
def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(run record, result line) of one smoke run; each pair runs once per session."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1"]
    proc = subprocess.run([*argv, "--trace", str(trace), "--smoke"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["record"], json.loads(lines[-1])


ALL_RUNS = pytest.mark.parametrize("workload,trace", [(w, t) for w in WORKLOADS for t in (0, 1)])


@ALL_RUNS
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    _, result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@ALL_RUNS
def test_no_operation_fails_on_the_seed_code(workload, trace):
    record, result = _run(workload, trace)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, record["failed_checks"]
    assert result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_sum_to_the_traced_command_time(workload):
    record, _ = _run(workload, 1)
    for total_self, wall in record["self_time_vs_wall_s"]:
        assert total_self <= wall
        assert wall - total_self <= SELF_TIME_REL_TOL * wall + SELF_TIME_ABS_TOL_S


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
