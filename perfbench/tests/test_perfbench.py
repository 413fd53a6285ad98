"""Self-test of the benchmark harness: every workload on a tiny suite.

Checks metric names, units and the result schema against BENCHMARK.json,
not speed. Run with `python -m pytest perfbench/tests`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(tmp_path, *args, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--count", "4", "--seconds", "1",
         "--workdir", str(tmp_path / "out"), *args],
        capture_output=True, text=True, timeout=300,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(metrics, declared, prefixes):
    expected = {p + m["name"]: m["unit"] for p in prefixes for m in declared}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for m in metrics.values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


@pytest.mark.parametrize("trace", [0, 1])
def test_all_workloads_report_every_declared_metric(tmp_path, trace):
    proc = run_bench(tmp_path, "--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [w["name"] for w in SPEC["workloads"]]
    check_metrics(result["metrics"], SPEC["per_layer" if trace else "end_to_end"], [f"{n}." for n in names])
    assert (tmp_path / "out" / "results" / f"all-seed73-trace{trace}.json").is_file()
    assert not (tmp_path / "out" / "work" / names[0]).exists()


def test_single_workload_uses_plain_metric_names(tmp_path):
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][-1]["name"], "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    check_metrics(last_json(proc)["metrics"], SPEC["end_to_end"], [""])
    assert "failed_frac" in proc.stdout and "environment:" in proc.stdout


def test_without_the_package_it_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], bench=bare / BENCH.name)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
