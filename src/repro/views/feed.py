"""Change feed: one shard's certified commits into the view manager.

``BftEngine.record_commit`` fires once per height, in height order, at
the height's first quorum-certified commit, with the envelopes DeliverTx
accepted.  A shard's cluster subscribes its one :class:`ChangeFeed`
ahead of its own commit handling, so the views apply a block before any
client learns it committed: they are exactly as final as a commit
acknowledgement, and no replica's chain is ever ahead of them.
"""

from __future__ import annotations

from repro.consensus.bft import CommitRecord
from repro.views.manager import ViewManager


class ChangeFeed:
    """Applies one shard's committed blocks to a :class:`ViewManager`."""

    def __init__(self, manager: ViewManager, shard: str):
        self.manager = manager
        self.shard = shard

    # Named for the WAL flushes it once tailed: benchmarks/e2e/spans.py binds it.
    def _on_flush(self, record: CommitRecord) -> None:
        """Commit listener: apply the block's delivered transactions."""
        self.manager.apply_block_record(
            self.shard,
            record.block.height,
            [(envelope.tx_id, envelope.payload) for envelope in record.delivered],
        )
