"""Change feed: from the group-commit log into the view manager.

The WAL is already a total-order change feed — every committed block is
journaled as ``{"k": "block", "b": <block record>}`` before the commit
is acknowledged.  :class:`ChangeFeed` subscribes to a
:class:`~repro.durability.commitlog.GroupCommitLog`'s post-sync
listeners, so view updates are driven exclusively by records that are
*durable on disk*: a power failure can never leave the views ahead of
what recovery will rebuild.

A block record carries every envelope the block *contained*; the views
must apply only what it *delivered* (a spend rejected at DeliverTx took
no effect on any replica).  The delivered ids are in the same journal:
the ``blocks`` collection's insert record, written just ahead of the
block record, lists them — the feed remembers it and hands both on.

One feed serves one shard (one log); a deployment-level
:class:`~repro.views.manager.ViewManager` simply attaches one feed per
node per shard — the manager's height cursor collapses the n-way
duplication (every node journals the same block) into a single
application.

For attaching views to a deployment that already has history on disk,
:meth:`ChangeFeed.bootstrap` replays the journal's block records
(snapshot blocks + WAL suffix) through the same cursor, then the live
listener takes over — the classic catch-up-then-tail pattern.
"""

from __future__ import annotations

from typing import Any

from repro.durability.recovery import is_blocks_insert, scan_delivered_blocks
from repro.views.manager import ViewManager


class ChangeFeed:
    """Tails one durability journal into a :class:`ViewManager`."""

    def __init__(self, manager: ViewManager, shard: str, log=None):
        self.manager = manager
        self.shard = shard
        #: LSN of the newest record this feed has seen (feed cursor).
        self.last_lsn = 0
        self.stats = {"flushes": 0, "records": 0, "blocks": 0}
        #: height -> transaction ids of the ``blocks`` document journaled
        #: for it, until that height's block record arrives (the two may
        #: land in different flushes).
        self._delivered: dict[int, list[str]] = {}
        if log is not None:
            self.attach(log)

    def attach(self, log) -> None:
        """Subscribe to a group-commit log's durable-flush notifications.

        ``NodeDurability.reopen`` keeps the same log object across a
        restart-from-disk, so one ``attach`` survives the node's crashes.
        """
        log.listeners.append(self._on_flush)

    def _on_flush(self, entries: list[tuple[int, dict[str, Any]]]) -> None:
        self.stats["flushes"] += 1
        for lsn, record in entries:
            self.stats["records"] += 1
            self.last_lsn = lsn
            if record.get("k") == "block":
                self.stats["blocks"] += 1
                delivered = self._delivered.pop(record["b"]["h"], None)
                self.manager.apply_block_record(self.shard, record["b"], delivered)
            elif is_blocks_insert(record):
                self._delivered[record["d"]["height"]] = record["d"]["transaction_ids"]

    def bootstrap(self, durability, from_height: int = 0) -> int:
        """Replay block records already on disk; returns blocks applied.

        Reads the newest snapshot plus the WAL suffix read-only (the
        node's own recovery machinery is untouched) and pushes every
        block record above ``from_height`` through the same height
        cursor the live listener uses, so a record arriving both ways is
        applied once.
        """
        applied = 0
        for record, delivered in scan_delivered_blocks(durability, from_height=from_height):
            if self.manager.apply_block_record(self.shard, record, delivered):
                applied += 1
        return applied
