"""Self-test of the benchmark on the repo's small_scenario inputs.

    python3 -m pytest perfbench -q

Runs all three workloads end to end through ``run.py --profile small``
(inputs are generated into ``.perfbench/`` on first use) and checks what
a consumer of the result line relies on: every metric named in
BENCHMARK.json is emitted with its unit, timings are medians scaled to
the calibration loop's reference speed, a wrong reference digest fails
the operation and the exit code, and worker memory is read from the
worker itself.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from common import ROOT, WORKLOADS, input_seed, load_pins, pin_key  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[int, dict, str]:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--profile", "small", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, json.loads(lines[-1]) if lines else {}, completed.stdout


def test_benchmark_json_names_the_workloads_and_layers():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(workload):
    code, result, stdout = bench("--workload", workload, "--seed", "2", "--seconds", "0")
    assert code == 0, stdout
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (1 if workload == "day-batch" else 7)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert ("worker_peak_rss_mb" in stdout) == (workload == "week-outofcore")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_per_layer_metric_is_emitted(workload):
    code, result, stdout = bench("--workload", workload, "--seed", "3", "--trace", "1")
    assert code == 0, stdout
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert metrics["trace.coverage"]["value"] >= 0.95
    stream = workload != "day-batch"
    assert (metrics["stream.store.put_s"]["value"] > 0) == stream
    assert (metrics["core.dispatch.jobs"]["value"] > 0) == (workload == "week-outofcore")
    assert (metrics["core.dispatch.worker_peak_rss_mb"]["value"] > 0) == (
        workload == "week-outofcore"
    )


def test_timings_are_medians_scaled_to_the_reference_speed():
    slow = 2 * run.REFERENCE_PIECE_S  # the machine ran at half the reference speed
    report = {
        "passes": [
            {"ops": [{"latency": 1.0}, {"latency": 3.0}]},
            {"ops": [{"latency": 2.0}, {"latency": 5.0}]},
            {"ops": [{"latency": 9.0}]},
        ],
        "calibration": [slow] * 5,
        "vmhwm_kb": 2048,
    }
    setups = [(0.4, slow), (0.6, run.REFERENCE_PIECE_S), (0.8, slow)]
    metrics, _, measured = run.end_to_end("week-stream", setups, report)
    # Day 0 took 1, 2 and 9 s (median 2), day 1 took 3 and 5 s (median 4).
    assert measured["wall_s"] == 6.0 and metrics["wall_s"] == 3.0
    assert metrics["day_p50_s"] == 1.5
    assert metrics["setup_s"] == pytest.approx(0.4)  # median of 0.2, 0.6 and 0.4
    assert metrics["peak_rss_mb"] == 2.0


def test_wrong_reference_digest_fails_the_operation(tmp_path, capsys):
    pins = load_pins()
    pins["outputs"][pin_key("small", "week", input_seed(4))][3] = "0" * 64
    args = argparse.Namespace(workload="week-stream", seed=4, seconds=0, trace=0, profile="small")
    assert run.run_workload(args, pins, tmp_path) == 1
    stdout = capsys.readouterr().out
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 7
    assert "op 3: output digest" in stdout


def test_worker_vmhwm_is_read_from_each_worker(tmp_path):
    inputs = run.ensure_inputs("small", "week", 0, load_pins(), False)
    outofcore = run.run_measure("week-outofcore", inputs, tmp_path / "ooc", 0, 1, False)
    # One worker per shard per day, each reporting its own pid and peak.
    assert len(outofcore["worker_pids"]) == 2 * 7
    assert outofcore["pid"] not in outofcore["worker_pids"]
    assert len(set(outofcore["worker_pids"])) == len(outofcore["worker_pids"])
    assert all(0 < kb < outofcore["vmhwm_kb"] for kb in outofcore["worker_rss_kb"])
    stream = run.run_measure("week-stream", inputs, tmp_path / "stream", 0, 1, False)
    assert stream["worker_rss_kb"] == []
