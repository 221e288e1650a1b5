"""Sharding scaling benchmark: throughput vs shard count.

The single-cluster evaluation caps aggregate throughput at whatever one
BFT group can order; this benchmark measures how far consistent-hash
partitioning lifts that ceiling, and what the two enemies of linear
scaling cost:

* **uniform_scaling** — the asset-churn workload (uniform key mix,
  single-shard-dominant: 5% of transfers migrate cross-shard) at
  1/2/4/8 shards.  The acceptance gate asserts >= 2.5x aggregate
  committed-tx throughput at 4 shards vs 1.
* **skew** — the same workload under Zipfian hot-asset popularity: the
  shards owning the leading ranks absorb most traffic, so the hot-shard
  share rises and aggregate throughput falls toward the hot shard's
  ceiling.
* **cross_shard_sweep** — the 2PC tax: aggregate throughput at 4 shards
  as the fraction of asset-migrating (two-phase-committed) transfers
  grows.

Results go to ``BENCH_sharding.json`` at the repo root (committed, like
``BENCH_hotpath.json``, so the scaling trajectory is visible across
PRs).  ``--smoke`` (CI perf gate) runs a 2-shard configuration and only
checks it beats 1 shard.
"""

from __future__ import annotations

import json
import os
import sys

from repro.workloads import ShardedScenarioSpec, run_sharded_scenario

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_sharding.json")

#: Uniform, single-shard-dominant operating point of the scaling sweep.
UNIFORM_ASSETS = 72
UNIFORM_ROUNDS = 2
UNIFORM_CROSS_RATIO = 0.05

SHARD_SWEEP = (1, 2, 4, 8)
SKEW_POINT = 2.0
CROSS_SWEEP = (0.0, 0.15, 0.3)


def _run(n_shards: int, **kwargs) -> dict:
    spec = ShardedScenarioSpec(
        n_shards=n_shards,
        n_assets=kwargs.pop("n_assets", UNIFORM_ASSETS),
        transfer_rounds=kwargs.pop("transfer_rounds", UNIFORM_ROUNDS),
        cross_shard_ratio=kwargs.pop("cross_shard_ratio", UNIFORM_CROSS_RATIO),
        **kwargs,
    )
    result = run_sharded_scenario(spec)
    metrics = result.metrics
    # Tail latencies from the lifecycle records (exact nearest-rank over
    # every committed transaction, a cross-shard one at its facade latency).
    percentiles = metrics.percentiles_ms
    return {
        "shards": n_shards,
        "submitted": metrics.submitted,
        "committed": metrics.committed,
        "throughput_tps": round(metrics.throughput_tps, 2),
        "p50_ms": round(percentiles.get("p50_ms", 0.0), 3),
        "p99_ms": round(percentiles.get("p99_ms", 0.0), 3),
        "p999_ms": round(percentiles.get("p999_ms", 0.0), 3),
        "sim_time_s": round(result.detail["sim_time"], 3),
        "cross_submitted": int(result.detail["cross_submitted"]),
        "hot_shard_share": round(result.detail["hot_shard_share"], 3),
    }


def measure_uniform_scaling(shard_sweep=SHARD_SWEEP) -> list[dict]:
    rows = []
    baseline_tps: float | None = None
    for n_shards in shard_sweep:
        row = _run(n_shards)
        if baseline_tps is None:
            baseline_tps = row["throughput_tps"]
        row["speedup_vs_1_shard"] = round(row["throughput_tps"] / baseline_tps, 2)
        rows.append(row)
    return rows


def measure_skew(n_shards: int = 4) -> dict:
    uniform = _run(n_shards, n_assets=48, transfer_rounds=3, cross_shard_ratio=0.0)
    skewed = _run(
        n_shards,
        n_assets=48,
        transfer_rounds=3,
        cross_shard_ratio=0.0,
        zipf_skew=SKEW_POINT,
    )
    return {
        "shards": n_shards,
        "zipf_skew": SKEW_POINT,
        "uniform": uniform,
        "skewed": skewed,
        "hot_shard_share_delta": round(
            skewed["hot_shard_share"] - uniform["hot_shard_share"], 3
        ),
    }


def measure_cross_shard_sweep(n_shards: int = 4) -> list[dict]:
    rows = []
    for ratio in CROSS_SWEEP:
        row = _run(n_shards, n_assets=48, cross_shard_ratio=ratio)
        row["cross_shard_ratio"] = ratio
        rows.append(row)
    return rows


def _write(report: dict) -> None:
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _print(report: dict) -> None:
    lines = ["sharding scaling benchmark"]
    for row in report.get("uniform_scaling", []):
        lines.append(
            f"  {row['shards']} shard(s): {row['throughput_tps']} tps "
            f"({row['committed']}/{row['submitted']} committed, "
            f"{row['speedup_vs_1_shard']}x)"
        )
    skew = report.get("skew")
    if skew:
        lines.append(
            f"  skew {skew['zipf_skew']}: hot-shard share "
            f"{skew['uniform']['hot_shard_share']} -> {skew['skewed']['hot_shard_share']}, "
            f"tps {skew['uniform']['throughput_tps']} -> {skew['skewed']['throughput_tps']}"
        )
    for row in report.get("cross_shard_sweep", []):
        lines.append(
            f"  cross-ratio {row['cross_shard_ratio']}: {row['throughput_tps']} tps "
            f"({row['cross_submitted']} 2PC transfers)"
        )
    print("\n".join(lines))


def run_full() -> dict:
    report = {
        "workload": {
            "n_assets": UNIFORM_ASSETS,
            "transfer_rounds": UNIFORM_ROUNDS,
            "cross_shard_ratio": UNIFORM_CROSS_RATIO,
        },
        "uniform_scaling": measure_uniform_scaling(),
        "skew": measure_skew(),
        "cross_shard_sweep": measure_cross_shard_sweep(),
    }
    _write(report)
    _print(report)
    return report


def run_smoke() -> dict:
    """CI perf gate: 2 shards, small mix, must beat 1 shard."""
    report = {
        "workload": {"n_assets": 32, "transfer_rounds": 1, "cross_shard_ratio": 0.1},
        "uniform_scaling": [
            dict(_run(n, n_assets=32, transfer_rounds=1, cross_shard_ratio=0.1))
            for n in (1, 2)
        ],
    }
    base, two = report["uniform_scaling"]
    two["speedup_vs_1_shard"] = round(
        two["throughput_tps"] / base["throughput_tps"], 2
    )
    base["speedup_vs_1_shard"] = 1.0
    _write(report)
    _print(report)
    assert two["committed"] == two["submitted"], two
    assert two["speedup_vs_1_shard"] >= 1.3, two
    return report


def test_sharding_scaling():
    report = run_full()
    rows = {row["shards"]: row for row in report["uniform_scaling"]}
    # Nothing lost at any scale: every submitted transaction commits.
    for row in rows.values():
        assert row["committed"] == row["submitted"], row
    # Acceptance gate: >= 2.5x aggregate committed-tx throughput at 4
    # shards on the uniform single-shard-dominant mix.
    assert rows[4]["speedup_vs_1_shard"] >= 2.5, rows[4]
    assert rows[2]["speedup_vs_1_shard"] >= 1.5, rows[2]
    # Skew hurts: hot-shard traffic share strictly grows.
    assert report["skew"]["hot_shard_share_delta"] > 0, report["skew"]
    # The 2PC tax is real but bounded: the heaviest cross-shard mix still
    # clears the single-shard baseline.
    heaviest = report["cross_shard_sweep"][-1]
    assert heaviest["throughput_tps"] > rows[1]["throughput_tps"], heaviest


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        test_sharding_scaling()
