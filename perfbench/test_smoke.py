"""Smoke test of the benchmark on acceptance criterion 9's 0.11 s config.

Run from the root of the repository:

  python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "10", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics_match(metrics, declared):
    assert list(metrics) == [m["name"] for m in declared]
    for entry in declared:
        value = metrics[entry["name"]]
        assert value["unit"] == entry["unit"], entry["name"]
        assert isinstance(value["value"], (int, float)), entry["name"]


def test_benchmark_json_names_the_benchmark_workloads():
    from workloads import BENCHMARK_WORKLOADS

    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == BENCHMARK_WORKLOADS


def test_every_end_to_end_metric_is_emitted_with_its_unit():
    result = result_of(bench("--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics_match(result["metrics"], BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_per_layer_metric_is_emitted_and_self_times_sum_to_the_root():
    result = result_of(bench("--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 3
    metrics = result["metrics"]
    assert_metrics_match(metrics, BENCHMARK["per_layer"])
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    # cli.execute is the only root span of a replay.
    assert self_total == pytest.approx(metrics["cli.execute.total_s"]["value"], rel=1e-9)
    assert metrics["receiver.receive_user.calls"]["value"] == metrics["scenario.user_frames"]["value"]


def test_a_corrupted_output_counts_as_failed():
    env = dict(os.environ, PERFBENCH_CORRUPT_OUTPUT="1")
    result = result_of(bench("--seconds", "1", "--trace", "0", env=env))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_the_layer_functions_are_restored_after_tracing():
    sys.path.insert(0, str(ROOT / "src"))
    import nomalink.receiver
    import nomalink.scenario
    from spans import SpanRecorder

    original = nomalink.receiver.receive_user
    recorder = SpanRecorder(run_id="restore-test")
    recorder.install()
    try:
        assert nomalink.scenario.receive_user is not original
        assert nomalink.receiver.receive_user is nomalink.scenario.receive_user
    finally:
        assert recorder.restore()
    assert nomalink.scenario.receive_user is original
    assert nomalink.receive_user is original


def test_without_the_program_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
