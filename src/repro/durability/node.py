"""Per-node durability bundle: device + WAL + group commit + snapshots.

One :class:`NodeDurability` rides along with each durable agent — a
validator node's server or a shard's 2PC coordinator — and owns its
whole persistence stack:

* the :class:`~repro.durability.wal.SimDisk` (or any backend) the agent
  writes to and recovers from;
* the :class:`~repro.durability.wal.SegmentedWal` of journal frames;
* the :class:`~repro.durability.commitlog.GroupCommitLog` batching all
  of one tick's journal records under a single sync;
* the :class:`~repro.durability.snapshot.SnapshotManager` checkpointing
  state every ``snapshot_interval`` records so recovery replays a
  bounded suffix and old segments retire.

The snapshot cadence runs off the commit log's ``after_flush`` hook —
deterministic, loop-driven, and always at a flush boundary so the
checkpoint is consistent with the synced WAL prefix it claims to cover.

A checkpoint does not walk the state through Python: the owner's
``state_provider`` returns the state's canonical bytes (in pieces the
snapshot frame holds by reference), spliced from the per-document / per-block
bytes that were made when each journal record was built (see
:mod:`repro.durability.snapshot`), and the snapshot file is
byte-identical to encoding the dict state from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.durability.commitlog import GroupCommitLog
from repro.durability.snapshot import SnapshotManager
from repro.durability.wal import SegmentedWal, SimDisk, StorageBackend
from repro.sim.events import EventLoop


@dataclass
class DurabilityConfig:
    """Tunables of the per-node persistence stack."""

    #: WAL segment rotation threshold (bytes).
    segment_max_bytes: int = 65536
    #: Take a checkpoint every N journal records (segment retirement
    #: follows each checkpoint).
    snapshot_interval: int = 400
    #: Simulated seconds between a batch opening and its group flush.
    flush_interval: float = 0.0
    #: Ceiling on how long an acknowledged record may sit volatile.
    max_latency: float = 0.002


class NodeDurability:
    """The persistence stack of one durable agent.

    Args:
        name: stable identifier (names the WAL prefix for debugging).
        loop: the deployment event loop (all flush timing).
        config: stack tunables.
        disk: backend override (defaults to a fresh :class:`SimDisk`).
    """

    def __init__(
        self,
        name: str,
        loop: EventLoop,
        config: DurabilityConfig | None = None,
        disk: StorageBackend | None = None,
    ):
        self.name = name
        self.config = config or DurabilityConfig()
        self.disk = disk or SimDisk()
        self.wal = SegmentedWal(
            self.disk, segment_max_bytes=self.config.segment_max_bytes
        )
        self.log = GroupCommitLog(
            self.wal,
            loop,
            flush_interval=self.config.flush_interval,
            max_latency=self.config.max_latency,
        )
        self.log.after_flush = self._maybe_snapshot
        self.snapshots = SnapshotManager(self.disk)
        #: Provider of the full checkpoint state, canonically encoded, in
        #: byte pieces (set by the owner; see
        #: :func:`repro.durability.recovery.checkpoint_state`).
        self.state_provider: Callable[[], Sequence[bytes]] | None = None

    # -- journaling -----------------------------------------------------------

    def journal(self, record: dict[str, Any], body: bytes | None = None) -> None:
        """Append one record (and, if the caller has them, its canonical
        bytes) to the tick's group-commit batch."""
        self.log.append(record, body=body)

    def _maybe_snapshot(self) -> None:
        if self.state_provider is None:
            return
        if self.wal.appended_since_snapshot < self.config.snapshot_interval:
            return
        self.checkpoint()

    def checkpoint(self) -> int:
        """Take a snapshot now and retire covered WAL segments."""
        self.log.flush_now()
        cutoff = self.wal.last_lsn
        state = self.state_provider() if self.state_provider is not None else [b"{}"]
        self.snapshots.take(state, cutoff)
        self.wal.retire(cutoff)
        return cutoff

    # -- crash / recovery plumbing -------------------------------------------

    def power_fail(self, torn_bytes: int = 0) -> None:
        """Process death: queued records vanish, the device loses its
        unsynced tail (optionally keeping ``torn_bytes`` of it — the
        torn write recovery must detect and discard)."""
        self.log.drop_queue()
        if isinstance(self.disk, SimDisk):
            self.disk.power_fail(torn_bytes)

    def reopen(self, wal: SegmentedWal) -> None:
        """Adopt the repaired WAL after recovery (appends continue from
        the last surviving LSN; the group-commit queue starts empty)."""
        self.wal = wal
        self.log.wal = wal
        self.log.drop_queue()
