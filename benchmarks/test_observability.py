"""Observability overhead benchmark: what the telemetry layer costs.

Every instrumented component holds a :class:`~repro.telemetry.Telemetry`
and records through it unconditionally, so instrumentation has two
operating points:

* **off** — the shared inert instance (:data:`~repro.telemetry.INERT`),
  handed to the cluster through ``telemetry=``: every instrument call
  still happens and drops its value;
* **on** — the deployment's own telemetry at the default 1/64 trace
  sampling rate: counters/gauges/histograms record on every operation,
  span events only for sampled transactions.

Two component microbenchmarks (mempool add+reap, WAL group commit) show
the per-operation registry costs in isolation; the acceptance gate runs
on the **end-to-end commit pipeline** (submit -> receiver validate ->
consensus -> apply through a real 4-validator cluster): telemetry on
costs <= 5% over off.

Under pytest (tier-1) the file gates only what repeats exactly: both
modes do the same work and reach the same simulated outcome, the inert
instance records nothing, and an on instance records one sample per
operation.  The overhead percentage is printed, not asserted — the
pipeline run is ~45 ms.  Run as a script (CI ``hotpath-smoke``) the
file also asserts the <= 5% bar on the median of the per-pair on/off
ratios over 16 interleaved pairs, prints the off/off A/A median and
spread beside it, and then writes ``BENCH_observability.json`` at the
repo root.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
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
from repro.telemetry import DEFAULT_SAMPLE_RATE, INERT, Telemetry

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_observability.json"
)

MODES = ("off", "on")
N_MEMPOOL_TXS = 12_000
N_WAL_RECORDS = 6_000
WAL_BATCH = 16
N_PIPELINE_TXS = 18
COMPONENT_TRIALS = 5
PIPELINE_PAIRS = 16


class _Clock:
    """Fixed clock for component benches (they never advance sim time)."""

    now = 0.0


def _telemetry(mode: str) -> Telemetry:
    if mode == "off":
        return INERT
    return Telemetry(_Clock(), sample_salt=7, sample_rate=DEFAULT_SAMPLE_RATE)


def timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def _overheads(times: dict[str, float]) -> dict[str, float]:
    return {"on_overhead_pct": round(100.0 * (times["on"] / times["off"] - 1.0), 2)}


# -- component microbenchmarks -------------------------------------------------


def _recorded_samples(telemetry, histogram: str) -> int:
    """Samples ``telemetry`` holds in ``histogram``; the inert instance
    must hold no series at all."""
    series = telemetry.registry.to_dict()
    if telemetry is INERT:
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
            # Same work in both modes; one sample per batch when on,
            # nothing recorded when off.
            assert done["operations"] == scale, (name, mode, done)
            assert _recorded_samples(telemetry, done["histogram"]) == (
                done["batches"] if mode == "on" else 0
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


def _pipeline_run(mode: str, payloads: list[dict]) -> SmartchainCluster:
    """Commit the payloads: the timed work."""
    cluster = SmartchainCluster(
        ClusterConfig(seed=31, trace_sample_rate=DEFAULT_SAMPLE_RATE),
        telemetry=INERT if mode == "off" else None,
    )
    for payload in payloads:
        cluster.submit_payload(payload)
    cluster.run()
    return cluster


def _pipeline_outcome(mode: str, payloads: list[dict], cluster: SmartchainCluster) -> tuple:
    """Check a finished run (untimed); returns the simulated outcome
    (chain heights and final sim time), which telemetry must not perturb."""
    committed = sum(
        1 for record in cluster.records.values() if record.committed_at is not None
    )
    assert committed == len(payloads), (mode, committed)
    series = cluster.telemetry.registry.to_dict()
    if mode == "on":
        # One sample per operation: each transaction counts one submit
        # and one row in the views' per-block apply histogram.
        assert series["tx_submitted"]["shard=main"]["value"] == len(payloads)
        applied = series["view_apply_txs"]
        assert sum(entry["sum"] for entry in applied.values()) == len(payloads), applied
    else:
        assert series == {}, (mode, series)
    heights = tuple(
        len(cluster.engine.validator(node_id).chain)
        for node_id in cluster.engine.validator_order
    )
    return heights, cluster.loop.clock.now


def _measure_pipeline() -> dict:
    # Interleaved pairs, each with its own ratio.  A pair times four runs
    # in A-B-B-A order, so a drift in the host's speed across the pair
    # cancels: an on/off pair (off, on, on, off) and an off/off A/A pair
    # run the same way, which shows what the ratio reads when nothing
    # differs.  Medians, not minima: a ratio of two floors moves with
    # whichever mode caught the quieter window.
    payloads = _build_payloads()
    outcomes = set()

    def run(mode: str) -> float:
        # Pin a fresh process-global signature cache per run so no
        # mode inherits the previous mode's verdicts.
        previous = set_shared_cache(SignatureCache())
        gc.collect()  # no run pays for the garbage of the runs before it
        try:
            start = time.perf_counter()
            cluster = _pipeline_run(mode, payloads)
            elapsed = time.perf_counter() - start
        finally:
            set_shared_cache(previous)
        outcomes.add(_pipeline_outcome(mode, payloads, cluster))
        return elapsed

    def pair(inner: str) -> tuple[float, float]:
        first, middle, last = run("off"), run(inner) + run(inner), run("off")
        return middle / 2, (first + last) / 2

    for mode in MODES:
        run(mode)  # warm-up, untimed
    times = {mode: [] for mode in MODES}
    on_ratios, aa_ratios = [], []
    for _ in range(PIPELINE_PAIRS):
        on, off = pair("on")
        times["on"].append(on)
        times["off"].append(off)
        on_ratios.append(on / off)
        inner, outer = pair("off")
        aa_ratios.append(inner / outer)
    assert len(outcomes) == 1, f"telemetry changed the simulated outcome: {outcomes}"
    report = {
        "transactions": N_PIPELINE_TXS,
        "sample_rate": DEFAULT_SAMPLE_RATE,
        "pairs": PIPELINE_PAIRS,
    }
    report.update({f"{mode}_ms": round(statistics.median(times[mode]) * 1000, 2) for mode in MODES})
    report["on_overhead_pct"] = round(100.0 * (statistics.median(on_ratios) - 1.0), 2)
    report["aa_overhead_pct"] = round(100.0 * (statistics.median(aa_ratios) - 1.0), 2)
    report["aa_spread_pct"] = [round(100.0 * (ratio - 1.0), 2) for ratio in (min(aa_ratios), max(aa_ratios))]
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
    # The acceptance gate, on the end-to-end hot path: telemetry on at
    # default sampling costs <= 5% over off, as the median of the
    # per-pair on/off ratios (the A/A median and spread beside it show
    # what noise alone reads).
    # Gate first: a red run leaves the tracked file alone.
    pipeline = report["commit_pipeline"]
    assert pipeline["on_overhead_pct"] <= 5.0, pipeline
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
