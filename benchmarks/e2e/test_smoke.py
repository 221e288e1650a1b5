"""Schema-only smoke test of the end-to-end benchmark.

Runs every workload at ``--smoke`` size in both trace modes and checks the
*shape* of the output — every metric present with its unit, nothing
failed, invariants green, layer self-times summing to the traced total.
No wall-clock thresholds: speed is what the benchmark is for, not this.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0, done.stdout
    return result["metrics"]


def assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [metric["name"] for metric in declared]
    for metric in declared:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(metrics[metric["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, trace=0)
    assert_declared(metrics, BENCHMARK["end_to_end"])
    assert all(reading["value"] > 0 for reading in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_sum_to_the_traced_total(workload):
    metrics = run(workload, trace=1)
    assert_declared(metrics, BENCHMARK["per_layer"])
    assert os.path.exists(os.path.join(HERE, "out", f"trace_{workload}.json"))
    self_us = sum(
        reading["value"]
        for name, reading in metrics.items()
        if name.endswith(("self_us_per_tx", "sign_us_per_tx", "verify_us_per_tx"))
    )
    traced_us = 1e6 / metrics["trace.tx_per_s"]["value"]
    assert metrics["other.self_us_per_tx"]["value"] >= 0
    assert abs(self_us - traced_us) <= 0.02 * traced_us
