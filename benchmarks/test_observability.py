"""Observability overhead benchmark: what the telemetry layer costs.

Every hot surface carries a ``tel = self.telemetry; if tel is not None
and tel.enabled:`` guard, so instrumentation has three operating points:

* **baseline** — the attribute is ``None`` (no telemetry object at all):
  the pre-telemetry hot path plus one attribute load and branch;
* **disabled** — a constructed :class:`~repro.telemetry.Telemetry` with
  ``enabled=False``: the production off-switch, same guard verdict;
* **enabled** — telemetry on at the default 1/64 trace sampling rate:
  counters/gauges/histograms record on every operation, span events only
  for sampled transactions.

Two component microbenchmarks (mempool add+reap, WAL group commit) show
the per-operation guard and registry costs in isolation; the acceptance
gate runs on the **end-to-end commit pipeline** (submit -> receiver
validate -> consensus -> apply through a real 4-validator cluster),
where the ISSUE-7 bars live: <= 5% regression with default sampling,
<= 1% with telemetry disabled.

Under pytest (tier-1) the file gates only what repeats exactly: every
mode does the same work and reaches the same simulated outcome, a
disabled or absent telemetry object records nothing, and an enabled one
records one sample per operation.  The overhead percentages are printed,
not asserted — the pipeline run is ~45 ms, and the <= 1% bar was red in
74 of 160 quiet-host windows with a true cost of 0.3-0.9 ms.  Run as a
script (CI ``hotpath-smoke``) the file also asserts the two bars and
then writes ``BENCH_observability.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time

from repro.consensus.mempool import Mempool
from repro.consensus.types import TxEnvelope
from repro.core.builders import build_create
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.crypto.sigcache import SignatureCache, set_shared_cache
from repro.durability.commitlog import GroupCommitLog
from repro.durability.wal import SegmentedWal, SimDisk
from repro.sim.events import EventLoop
from repro.telemetry import DEFAULT_SAMPLE_RATE, Telemetry

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_observability.json"
)

MODES = ("baseline", "disabled", "enabled")
N_MEMPOOL_TXS = 12_000
N_WAL_RECORDS = 6_000
WAL_BATCH = 16
N_PIPELINE_TXS = 18
COMPONENT_TRIALS = 5
PIPELINE_TRIALS = 3


class _Clock:
    """Fixed clock for component benches (they never advance sim time)."""

    now = 0.0


def _telemetry(mode: str, clock=None) -> Telemetry | None:
    if mode == "baseline":
        return None
    return Telemetry(
        clock or _Clock(),
        sample_salt=7,
        sample_rate=DEFAULT_SAMPLE_RATE,
        enabled=(mode == "enabled"),
    )


def timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _overheads(times: dict[str, float]) -> dict[str, float]:
    base = times["baseline"]
    return {
        "disabled_overhead_pct": round(100.0 * (times["disabled"] / base - 1.0), 2),
        "enabled_overhead_pct": round(100.0 * (times["enabled"] / base - 1.0), 2),
    }


# -- component microbenchmarks -------------------------------------------------


def _recorded_samples(telemetry, histogram: str) -> int:
    """Samples an enabled telemetry object holds in ``histogram``; a
    disabled or absent one must hold no series at all."""
    if telemetry is None:
        return 0
    series = telemetry.registry.to_dict()
    if not telemetry.enabled:
        assert series == {}, series
        return 0
    return sum(entry["count"] for entry in series[histogram].values())


def _mempool_cycle(telemetry) -> dict:
    pool = Mempool(capacity=N_MEMPOOL_TXS + 10)
    pool.telemetry = telemetry
    pool.telemetry_label = "bench"
    for number in range(N_MEMPOOL_TXS):
        pool.add(
            TxEnvelope(tx_id=f"{number:032d}", payload={}, size_bytes=100, weight=1)
        )
    reaps = reaped = 0
    while batch := pool.reap(max_txs=32, max_weight=64):
        reaps += 1
        reaped += len(batch)
    return {"operations": reaped, "batches": reaps, "histogram": "mempool_reap_batch"}


def _commitlog_cycle(telemetry) -> dict:
    loop = EventLoop()
    log = GroupCommitLog(SegmentedWal(SimDisk(), segment_max_bytes=1 << 20), loop)
    log.telemetry = telemetry
    log.telemetry_label = "bench"
    for number in range(N_WAL_RECORDS):
        log.append({"k": "r", "n": number})
        if number % WAL_BATCH == WAL_BATCH - 1:
            loop.run_until_idle()
    loop.run_until_idle()
    return {
        "operations": log.stats["flushed_records"],
        "batches": log.stats["flushes"],
        "histogram": "wal_batch_records",
    }


def _measure_component(name: str, cycle, scale: int) -> dict:
    # Interleave modes and keep the minimum: on a shared CI box the floor
    # of several trials is the signal, the rest is scheduler noise.
    times = {mode: float("inf") for mode in MODES}
    for _ in range(COMPONENT_TRIALS):
        for mode in MODES:
            telemetry = _telemetry(mode)
            done: dict = {}
            times[mode] = min(times[mode], timed(lambda: done.update(cycle(telemetry))))
            # Same work in every mode; one sample per batch when enabled,
            # nothing recorded otherwise.
            assert done["operations"] == scale, (name, mode, done)
            assert _recorded_samples(telemetry, done["histogram"]) == (
                done["batches"] if mode == "enabled" else 0
            ), (name, mode, done)
    report = {"operations": scale}
    report.update(
        {f"{mode}_ms": round(times[mode] * 1000, 3) for mode in MODES}
    )
    report.update(_overheads(times))
    return report


# -- the gated end-to-end pipeline ---------------------------------------------


def _build_payloads() -> list[dict]:
    owner = keypair_from_string("bench-owner")
    return [
        build_create(owner, {"name": f"asset-{number}", "blob": "z" * 200})
        .sign([owner])
        .to_dict()
        for number in range(N_PIPELINE_TXS)
    ]


def _strip_telemetry(cluster: SmartchainCluster) -> None:
    """Null every component's telemetry attribute: the true no-telemetry
    baseline (guard loads still happen; nothing else does)."""
    cluster.telemetry = None
    for server in cluster.servers.values():
        server.telemetry = None
    for durability in cluster.node_durability.values():
        durability.log.telemetry = None
    for node_id in cluster.engine.validator_order:
        validator = cluster.engine.validator(node_id)
        validator.telemetry = None
        validator.mempool.telemetry = None


def _pipeline_run(mode: str, payloads: list[dict]) -> tuple:
    """Commit the payloads; returns the simulated outcome (chain heights
    and final sim time), which telemetry must not perturb."""
    cluster = SmartchainCluster(
        ClusterConfig(
            seed=31,
            telemetry_enabled=(mode == "enabled"),
            trace_sample_rate=DEFAULT_SAMPLE_RATE,
        )
    )
    telemetry = cluster.telemetry
    if mode == "baseline":
        _strip_telemetry(cluster)
    for payload in payloads:
        cluster.submit_payload(payload)
    cluster.run()
    committed = sum(
        1 for record in cluster.records.values() if record.committed_at is not None
    )
    assert committed == len(payloads), (mode, committed)
    series = telemetry.registry.to_dict()
    if mode == "enabled":
        assert series["tx_submitted"]["shard=main"]["value"] == len(payloads)
        latencies = series["tx_commit_latency_ms"]
        assert sum(entry["count"] for entry in latencies.values()) == len(payloads)
    else:
        assert series == {}, (mode, series)
    heights = tuple(
        len(cluster.engine.validator(node_id).chain)
        for node_id in cluster.engine.validator_order
    )
    return heights, cluster.loop.clock.now


def _measure_pipeline() -> dict:
    payloads = _build_payloads()
    times = {mode: float("inf") for mode in MODES}
    outcomes = set()
    for _ in range(PIPELINE_TRIALS):
        for mode in MODES:
            # Pin a fresh process-global signature cache per run so no
            # mode inherits the previous mode's verdicts.
            previous = set_shared_cache(SignatureCache())
            try:
                times[mode] = min(
                    times[mode],
                    timed(lambda: outcomes.add(_pipeline_run(mode, payloads))),
                )
            finally:
                set_shared_cache(previous)
    assert len(outcomes) == 1, f"telemetry changed the simulated outcome: {outcomes}"
    report = {
        "transactions": N_PIPELINE_TXS,
        "sample_rate": DEFAULT_SAMPLE_RATE,
    }
    report.update({f"{mode}_ms": round(times[mode] * 1000, 2) for mode in MODES})
    report.update(_overheads(times))
    return report


def run_report() -> dict:
    """Measure all three sections (their count gates run inside) and
    print the report; wall-clock figures are reported, not judged."""
    report = {
        "mempool": _measure_component("mempool", _mempool_cycle, N_MEMPOOL_TXS),
        "commitlog": _measure_component("commitlog", _commitlog_cycle, N_WAL_RECORDS),
        "commit_pipeline": _measure_pipeline(),
    }
    lines = ["observability overhead benchmark"]
    for section, numbers in report.items():
        lines.append(
            f"  {section}: " + ", ".join(f"{k}={v}" for k, v in numbers.items())
        )
    print("\n".join(lines))
    return report


def test_observability_overhead():
    run_report()


if __name__ == "__main__":
    report = run_report()
    # ISSUE-7 acceptance gates, on the end-to-end hot path: default
    # sampling costs <= 5%, the off-switch <= 1%.  (Min-of-N interleaved
    # trials; negative deltas mean the difference is below noise.)
    # Gates first: a red run leaves the tracked file alone.
    pipeline = report["commit_pipeline"]
    assert pipeline["enabled_overhead_pct"] <= 5.0, pipeline
    assert pipeline["disabled_overhead_pct"] <= 1.0, pipeline
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
