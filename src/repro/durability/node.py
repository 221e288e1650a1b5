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
  state every ``snapshot_interval`` committed blocks so recovery replays a
  bounded suffix and old segments retire.

The snapshot cadence runs off the commit log's ``after_flush`` hook —
deterministic, loop-driven, and always at a flush boundary so the
checkpoint is consistent with the synced WAL prefix it claims to cover.

A checkpoint does not walk the state through Python: the owner's
``state_provider(full)`` returns the canonical bytes of its whole state
(``full``) or of what changed since its last checkpoint (in pieces the
checkpoint frame holds by reference), spliced from the per-document /
per-block bytes made once when each was first stored or journaled (see
:mod:`repro.durability.snapshot`), and the file is byte-identical to
encoding that dict state from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.durability.commitlog import GroupCommitLog
from repro.durability.snapshot import SnapshotManager
from repro.durability.wal import SegmentedWal, SimDisk, StorageBackend
from repro.sim.events import EventLoop

#: Journal records that count as one block of the checkpoint cadence for
#: an owner that commits no blocks, a 2PC agent (about what a validator
#: journaled per block when its collections were journaled too).
RECORDS_PER_BLOCK = 12


@dataclass
class DurabilityConfig:
    """Tunables of the per-node persistence stack."""

    #: WAL segment rotation threshold (bytes).
    segment_max_bytes: int = 65536
    #: Take a checkpoint every N committed blocks (segment retirement
    #: follows each checkpoint).  An owner that commits no blocks (a 2PC
    #: agent) counts ``RECORDS_PER_BLOCK`` journal records as one.  34
    #: blocks is as often as the 400 journal records this counted when a
    #: validator journaled its collections too.
    snapshot_interval: int = 34
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
        #: ``state_provider(full)``: the checkpoint state — whole, or what
        #: changed since the last checkpoint — canonically encoded, in
        #: byte pieces (set by the owner; see
        #: :func:`repro.durability.recovery.checkpoint_state`).
        self.state_provider: Callable[[bool], Sequence[bytes]] | None = None
        #: Blocks journaled since the last checkpoint; None for an owner
        #: that journals none (its cadence counts records).
        self.blocks_since_checkpoint: int | None = None

    # -- journaling -----------------------------------------------------------

    def journal(
        self, record: dict[str, Any], body: bytes | None = None, block: bool = False
    ) -> None:
        """Append one record (and, if the caller has them, its canonical
        bytes) to the tick's group-commit batch; ``block`` marks a
        committed block's record, which the checkpoint cadence counts."""
        if block:
            self.blocks_since_checkpoint = (self.blocks_since_checkpoint or 0) + 1
        self.log.append(record, body=body)

    def _maybe_snapshot(self) -> None:
        if self.state_provider is None:
            return
        done = self.blocks_since_checkpoint
        if done is None:
            done = self.wal.appended_since_snapshot / RECORDS_PER_BLOCK
        if done >= self.config.snapshot_interval:
            self.checkpoint()

    def checkpoint(self) -> int:
        """Take a checkpoint now — a delta, or a base when one is due —
        and retire covered WAL segments."""
        self.log.flush_now()
        cutoff = self.wal.last_lsn
        snapshots = self.snapshots
        if not snapshots.covers(cutoff):
            full = snapshots.base_due()
            state = self.state_provider(full) if self.state_provider is not None else [b"{}"]
            snapshots.take(state, cutoff, base=full)
        if self.blocks_since_checkpoint is not None:
            self.blocks_since_checkpoint = 0
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
