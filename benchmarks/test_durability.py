"""Durability microbenchmark: group commit, recovery scaling, snapshots.

Four measurements of the persistence stack:

* **group commit vs naive flush** — the same record stream written
  through a real-file backend (real ``fsync``) two ways: one sync per
  record (the naive write-through) vs one sync per 32-record batch (the
  :class:`~repro.durability.commitlog.GroupCommitLog` discipline at the
  event-loop-tick cadence).  The gate is the ISSUE-5 floor: group
  commit >= 3x naive throughput.  Sync counts are reported alongside —
  the amortisation is structural (N/32 syncs), not a timing accident.
* **recovery time vs log length** — scan-to-torn-tail replay of
  journal-only logs of growing length on a :class:`SimDisk`; shows the
  linear replay cost snapshots exist to bound.
* **snapshot-amortised replay** — the same 8 000-record history
  recovered with and without checkpoints every 1 000 records.  The
  replayed-record ratio is deterministic (>= 4x fewer with snapshots);
  wall speedup is reported alongside.
* **checkpoint cost vs state size** — one steady-state checkpoint (a
  few inserts and updates since the last one) of a 1 k / 4 k / 16 k
  document state: a checkpoint splices the bytes kept per document, so
  the gate is on counts — it encodes exactly the documents updated
  since the last checkpoint, whatever the state size, and a checkpoint
  with nothing new encodes none.  Milliseconds are reported beside what
  the same state costs to deep-copy and encode whole (the checkpoint
  before the splice), whose bytes must be identical.

Run as a script (CI's hot-path smoke job does) the report goes to
``BENCH_durability.json`` at the repo root; a pytest run enforces the
same gates and leaves the tracked file alone.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import repro.common.encoding as encoding
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import checkpoint_state, diff_databases, recover
from repro.durability.wal import FileBackend, SegmentedWal, encode_frame
from repro.sim.events import EventLoop
from repro.storage.database import Database

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_durability.json")

N_RECORDS = 600
GROUP_BATCH = 32
RECOVERY_SWEEP = (1_000, 4_000, 16_000)
SNAPSHOT_HISTORY = 8_000
SNAPSHOT_INTERVAL = 1_000
CHECKPOINT_SWEEP = (1_000, 4_000, 16_000)
#: Work between two checkpoints of the scaling sweep.
CHECKPOINT_INSERTS = 32
CHECKPOINT_UPDATES = 8


def _record(index: int) -> dict:
    return {
        "k": "db",
        "op": "insert",
        "c": "transactions",
        "d": {"id": f"tx-{index:06d}", "operation": "TRANSFER", "amount": index},
    }


def measure_group_commit() -> dict:
    workdir = tempfile.mkdtemp(prefix="repro-durability-bench-")
    try:
        naive_dir = os.path.join(workdir, "naive")
        group_dir = os.path.join(workdir, "group")

        naive_backend = FileBackend(naive_dir)
        naive_wal = SegmentedWal(naive_backend, segment_max_bytes=1 << 22)
        start = time.perf_counter()
        for index in range(N_RECORDS):
            naive_wal.append(_record(index))
            naive_wal.sync()  # one fsync per record: the naive discipline
        naive_s = time.perf_counter() - start
        naive_syncs = naive_backend.stats["syncs"]
        naive_backend.close()

        group_backend = FileBackend(group_dir)
        group_wal = SegmentedWal(group_backend, segment_max_bytes=1 << 22)
        start = time.perf_counter()
        for index in range(N_RECORDS):
            group_wal.append(_record(index))
            if (index + 1) % GROUP_BATCH == 0:
                group_wal.sync()  # one fsync per tick's batch
        group_wal.sync()
        group_s = time.perf_counter() - start
        group_syncs = group_backend.stats["syncs"]
        group_backend.close()

        return {
            "records": N_RECORDS,
            "batch": GROUP_BATCH,
            "naive_ms": round(naive_s * 1000, 3),
            "group_ms": round(group_s * 1000, 3),
            "naive_syncs": naive_syncs,
            "group_syncs": group_syncs,
            "sync_amortisation": round(naive_syncs / max(group_syncs, 1), 2),
            "speedup": round(naive_s / group_s, 2),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _build_history(n_records: int, snapshot_interval: int | None) -> NodeDurability:
    """A journaled insert history on a SimDisk, optionally checkpointed."""
    loop = EventLoop()
    config = DurabilityConfig(
        snapshot_interval=snapshot_interval or (n_records * 2),
        segment_max_bytes=1 << 16,
    )
    durability = NodeDurability("bench", loop, config)
    database = Database("bench", wal=durability.log)
    if snapshot_interval is not None:
        durability.state_provider = lambda: checkpoint_state(database)
    transactions = database.create_collection("transactions")
    for index in range(n_records):
        transactions.insert_one(
            {"id": f"tx-{index:06d}", "operation": "TRANSFER", "amount": index}
        )
        if (index + 1) % GROUP_BATCH == 0:
            loop.run_until_idle()  # one tick per batch: the cluster cadence
    loop.run_until_idle()
    return durability


def measure_recovery_scaling() -> dict:
    sweep = {}
    for n_records in RECOVERY_SWEEP:
        durability = _build_history(n_records, snapshot_interval=None)
        start = time.perf_counter()
        recovered = recover(durability, lambda: Database("rebuilt"), repair=False)
        elapsed = time.perf_counter() - start
        assert recovered.replayed == n_records
        sweep[str(n_records)] = {
            "replayed": recovered.replayed,
            "recover_ms": round(elapsed * 1000, 3),
        }
    return sweep


def measure_snapshot_amortisation() -> dict:
    full = _build_history(SNAPSHOT_HISTORY, snapshot_interval=None)
    start = time.perf_counter()
    full_recovered = recover(full, lambda: Database("rebuilt"), repair=False)
    full_s = time.perf_counter() - start

    snapshotted = _build_history(SNAPSHOT_HISTORY, snapshot_interval=SNAPSHOT_INTERVAL)
    start = time.perf_counter()
    snap_recovered = recover(snapshotted, lambda: Database("rebuilt"), repair=False)
    snap_s = time.perf_counter() - start

    # Same end state either way — the checkpoint changes cost, not truth.
    assert diff_databases(full_recovered.database, snap_recovered.database) == []
    return {
        "history_records": SNAPSHOT_HISTORY,
        "snapshot_interval": SNAPSHOT_INTERVAL,
        "full_replayed": full_recovered.replayed,
        "snapshot_replayed": snap_recovered.replayed,
        "replay_ratio": round(
            full_recovered.replayed / max(snap_recovered.replayed, 1), 2
        ),
        "full_recover_ms": round(full_s * 1000, 3),
        "snapshot_recover_ms": round(snap_s * 1000, 3),
        "wall_speedup": round(full_s / snap_s, 2),
        "retired_segments": snapshotted.wal.stats["retired_segments"],
    }


def _counting_encodes(work) -> tuple[int, float]:
    """``(canonical encodes, seconds)`` of one call of ``work``."""
    original = encoding.canonical_serialize
    calls = 0

    def counting(value):
        nonlocal calls
        calls += 1
        return original(value)

    encoding.canonical_serialize = counting
    try:
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
    finally:
        encoding.canonical_serialize = original
    return calls, elapsed


def measure_checkpoint_scaling() -> dict:
    sweep = {}
    for n_documents in CHECKPOINT_SWEEP:
        loop = EventLoop()
        durability = NodeDurability(
            "bench", loop, DurabilityConfig(snapshot_interval=n_documents * 4)
        )
        database = Database("bench", wal=durability.log)
        durability.state_provider = lambda: checkpoint_state(database)
        transactions = database.create_collection("transactions")
        transactions.create_index("id", unique=True)

        def insert(index: int) -> None:
            transactions.insert_one(
                {
                    "id": f"tx-{index:06d}",
                    "operation": "TRANSFER",
                    "amount": index,
                    "memo": "m" * 600,  # ~0.7 KB, the e2e marketplace's mean
                }
            )

        for index in range(n_documents):
            insert(index)
        loop.run_until_idle()
        durability.checkpoint()
        # Steady state: a little work, then the measured checkpoint.
        for index in range(n_documents, n_documents + CHECKPOINT_INSERTS):
            insert(index)
        for index in range(CHECKPOINT_UPDATES):
            transactions.update_many(
                {"id": f"tx-{index:06d}"}, {"$set": {"amount": -index}}
            )
        loop.run_until_idle()
        encodes, spliced_s = _counting_encodes(durability.checkpoint)
        (snap_name,) = [n for n in durability.disk.list() if n.endswith(".snap")]
        snapshot = durability.disk.read(snap_name)
        # The same checkpoint the way it was built before the splice.
        start = time.perf_counter()
        whole = encode_frame(
            {
                "lsn": durability.wal.last_lsn,
                "state": {"collections": {"transactions": transactions.find({})}},
            }
        )
        whole_s = time.perf_counter() - start
        assert snapshot == whole, "spliced snapshot differs from the whole-state encoding"
        idle_encodes, _ = _counting_encodes(durability.state_provider)
        sweep[str(n_documents)] = {
            "documents": len(transactions),
            "snapshot_bytes": len(snapshot),
            "encodes": encodes,
            "encodes_with_nothing_new": idle_encodes,
            "checkpoint_ms": round(spliced_s * 1000, 3),
            "copy_and_encode_whole_ms": round(whole_s * 1000, 3),
            "speedup": round(whole_s / spliced_s, 2),
        }
    return sweep


def run_report() -> dict:
    report = {
        "group_commit": measure_group_commit(),
        "recovery_scaling": measure_recovery_scaling(),
        "snapshot_amortisation": measure_snapshot_amortisation(),
        "checkpoint_scaling": measure_checkpoint_scaling(),
    }

    lines = ["durability microbenchmark"]
    for section, numbers in report.items():
        lines.append(f"  {section}: {json.dumps(numbers)}")
    print("\n".join(lines))

    # Acceptance gates (ISSUE 5): group commit >= 3x a per-record flush,
    # with the structural sync amortisation to match; snapshots cut the
    # replayed suffix by >= 4x on an evenly checkpointed history.
    group = report["group_commit"]
    assert group["speedup"] >= 3.0, group
    assert group["sync_amortisation"] >= 8.0, group
    snap = report["snapshot_amortisation"]
    assert snap["replay_ratio"] >= 4.0, snap
    assert snap["snapshot_replayed"] <= SNAPSHOT_INTERVAL + GROUP_BATCH, snap
    # Replay cost grows with log length (the curve snapshots flatten) —
    # compare the sweep's endpoints with generous slack to stay unflaky.
    sweep = report["recovery_scaling"]
    assert sweep[str(RECOVERY_SWEEP[-1])]["recover_ms"] >= sweep[
        str(RECOVERY_SWEEP[0])
    ]["recover_ms"], sweep
    # A checkpoint encodes what changed since the last one and nothing
    # else, at every state size (counts; the times are reported only).
    for row in report["checkpoint_scaling"].values():
        assert row["encodes"] == CHECKPOINT_UPDATES, row
        assert row["encodes_with_nothing_new"] == 0, row
    return report


def test_durability():
    run_report()


if __name__ == "__main__":
    report = run_report()  # gates first: a red run leaves the tracked file alone
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
