"""Commit-fed incremental materialized views.

Each shard's consensus engine reports every height once, in order, at
its first quorum-certified commit; :class:`~repro.views.feed.ChangeFeed`
applies the transactions that block delivered to a
:class:`~repro.views.manager.ViewManager`, one feed per shard and one
manager per deployment.  The manager maintains the marketplace's hot
read sets incrementally: open RFQs by capability, live bids per request,
unspent outputs by owner, the exact ``(transaction_id, output_index)``-
keyed spend graph that provenance walks, and operation-volume /
settlement counters.
"""

from repro.views.feed import ChangeFeed
from repro.views.manager import ViewManager

__all__ = ["ChangeFeed", "ViewManager"]
