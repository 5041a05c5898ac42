"""Smoke tests of the benchmark at its smallest size, one per workload.

Run from the repository root (about three minutes on two cores)::

    python3 -m pytest perfbench -q

They run the real command line, so they also check the output
contract: the last line is one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics``; every catalogued metric is
present with its unit; no operation failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from metrics import END_TO_END, PER_LAYER

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sim-local", "sim-ring", "kernel-model", "serve")


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "error_rate" in proc.stdout
    return result


def _check(result: dict, catalogue: dict[str, str]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalogue


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(workload, trace=0)
    _check(result, END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _check(_result(workload, trace=1), PER_LAYER)


def test_counters_repeat_exactly():
    counts = [name for name, unit in PER_LAYER.items() if unit == "count"]
    first, second = (_result("kernel-model", trace=1, seed=5) for _ in range(2))
    assert [first["metrics"][n] for n in counts] == [second["metrics"][n] for n in counts]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "sim-local", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
