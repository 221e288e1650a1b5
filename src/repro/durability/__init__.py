"""Durability layer: segmented WAL, group commit, snapshots, recovery.

Everything a node needs to survive process death: an append-only log of
checksummed frames over a pluggable storage device (a deterministic
:class:`~repro.durability.wal.SimDisk` in simulation, real files
outside), group-commit batching so a tick's records share one sync,
incremental checkpoints (a base plus deltas) bounding replay, and
scan-to-torn-tail recovery that rebuilds the applied chain, consensus
lock state and 2PC outbox/locks from disk alone — and a validator's
collections by re-delivering the blocks above its checkpoints: the chain
is their log.
"""

from repro.durability.commitlog import GroupCommitLog
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import (
    RecoveredState,
    apply_db_op,
    block_record,
    checkpoint_state,
    diff_databases,
    rebuild_block,
    recover,
)
from repro.durability.snapshot import SnapshotManager
from repro.durability.wal import (
    FileBackend,
    SegmentedWal,
    SimDisk,
    StorageBackend,
    decode_prefix,
    encode_frame,
    iter_frames,
    valid_prefix_length,
)

__all__ = [
    "DurabilityConfig",
    "FileBackend",
    "GroupCommitLog",
    "NodeDurability",
    "RecoveredState",
    "SegmentedWal",
    "SimDisk",
    "SnapshotManager",
    "StorageBackend",
    "apply_db_op",
    "block_record",
    "checkpoint_state",
    "decode_prefix",
    "diff_databases",
    "encode_frame",
    "iter_frames",
    "rebuild_block",
    "recover",
    "valid_prefix_length",
]
