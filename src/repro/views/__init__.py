"""WAL-fed incremental materialized views.

The durability WAL (PR 5) already totally orders every committed block —
:class:`~repro.views.feed.ChangeFeed` tails it (via the group-commit
log's post-``fsync`` listener hook, so the feed only ever sees durable
records) into a :class:`~repro.views.manager.ViewManager` that maintains
the marketplace's hot read sets incrementally: open RFQs by capability,
live bids per request, unspent outputs by owner, the exact
``(transaction_id, output_index)``-keyed spend graph that provenance
walks, and operation-volume/settlement counters.
"""

from repro.views.feed import ChangeFeed
from repro.views.manager import ViewManager

__all__ = ["ChangeFeed", "ViewManager"]
