"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    # parent 0..100; children 10..40 and 30..60 on two threads overlap
    spans = [
        (1, "experiments.run_experiment", 0, 100, None, 1, None),
        (2, "experiments.run_trial", 10, 40, 1, 2, None),
        (3, "experiments.run_trial", 30, 60, 1, 3, None),
        (4, "design.min_norm_fit", 12, 20, 2, 2, None),
    ]
    assert layers.self_times(spans) == {1: 50, 2: 22, 3: 30, 4: 8}


def test_unrecorded_seed_compares_only_seed_independent_keys():
    recorded = {"0": {"k_star": 3, "pred": 1.0}, "1": {"k_star": 3, "pred": 2.0}}
    assert checks.compare({"k_star": 3, "pred": 9.0}, recorded, 7)[0] == []
    assert checks.compare({"k_star": 4, "pred": 9.0}, recorded, 7)[0] != []
    assert checks.compare({"k_star": 3, "pred": 1.0 + 1e-9}, recorded, 0)[0] == []
    assert checks.compare({"k_star": 3, "pred": 1.1}, recorded, 0)[0] != []


def test_smoke_run_checks_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    names = [name for name, _ in END_TO_END + layers.PER_LAYER]
    assert set(result["metrics"]) == {f"{w}/{n}" for w in WORKLOADS for n in names}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["scan-threaded/linalg.factorizations_per_trial"] == 1.0
    assert metrics["simulate-worst/linalg.factorizations_per_trial"] == 2.0
    assert metrics["diagnose-1m/diagnostics.calls"] == 3
    assert "golden values" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "diagnose-1m"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
