"""ChangeFeed: views see exactly the durable journal, nothing more."""

from repro.common.encoding import canonical_bytes
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import scan_block_records
from repro.sim.events import EventLoop
from repro.views import ChangeFeed, ViewManager

from tests.views.test_manager import block, create, transfer


def make_stack(flush_interval=0.0):
    loop = EventLoop()
    durability = NodeDurability(
        "node-0", loop, DurabilityConfig(flush_interval=flush_interval)
    )
    views = ViewManager()
    feed = ChangeFeed(views, "main", durability.log)
    return loop, durability, views, feed


class TestPostSyncDelivery:
    def test_feed_applies_journaled_blocks_after_flush(self):
        loop, durability, views, feed = make_stack()
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        assert views.height("main") == 0  # nothing until the group flush
        loop.run_until_idle()
        assert views.height("main") == 1
        assert feed.stats == {"flushes": 1, "records": 1, "blocks": 1}
        assert feed.last_lsn == 1

    def test_non_block_records_pass_through_without_applying(self):
        loop, durability, views, feed = make_stack()
        durability.journal({"k": "db", "col": "metadata", "op": "set"})
        durability.journal({"k": "lock", "r": 2, "b": None})
        loop.run_until_idle()
        assert views.heights() == {}
        assert feed.stats["records"] == 2
        assert feed.stats["blocks"] == 0

    def test_power_fail_before_flush_never_reaches_the_views(self):
        """The listener fires post-sync: records lost to a crash were
        never observed, so the views can never run ahead of recovery."""
        loop, durability, views, feed = make_stack(flush_interval=5.0)
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        durability.power_fail()
        loop.run_until_idle()
        assert views.height("main") == 0
        assert feed.stats["flushes"] == 0
        assert list(durability.wal.scan()) == []


def blocks_document(height, *tx_ids):
    """The ``blocks`` collection's insert record a server journals just
    ahead of the block record: what the block *delivered*."""
    document = {"height": height, "block_id": f"block-{height}", "transaction_ids": list(tx_ids)}
    return {"k": "db", "op": "insert", "c": "blocks", "d": document}


def contested_block(height=2):
    """Block 2 contains two rival spends of c1; DeliverTx accepted t1."""
    winner = transfer("t1", [("c1", 0)], [("bob", 1)])
    loser = transfer("t2", [("c1", 0)], [("mallory", 1)])
    return blocks_document(height, "t1"), {"k": "block", "b": block(height, winner, loser)}


def assert_only_the_delivered_spend_applied(views):
    assert views.spender_of("c1", 0)["id"] == "t1"
    assert views.transaction("t2") is None
    assert views.outputs_for("mallory") == []
    assert views.stats["txs_applied"] == 2


class TestDeliveredNotContained:
    def test_live_feed_applies_only_what_the_block_delivered(self):
        loop, durability, views, feed = make_stack()
        durability.journal(blocks_document(1, "c1"))
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        for record in contested_block():
            durability.journal(record)
        loop.run_until_idle()
        assert_only_the_delivered_spend_applied(views)

    def test_document_and_record_may_land_in_different_flushes(self):
        loop, durability, views, feed = make_stack()
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        document, record = contested_block()
        durability.journal(document)
        loop.run_until_idle()
        durability.journal(record)
        loop.run_until_idle()
        assert feed.stats["flushes"] == 2
        assert_only_the_delivered_spend_applied(views)

    def test_bootstrap_reads_delivered_ids_from_snapshot_and_wal_suffix(self):
        loop, durability, views, feed = make_stack()
        contested = block(1, create("c1", "alice"), create("c0", "mallory"))
        durability.state_provider = lambda: [
            canonical_bytes(
                {"collections": {"blocks": [blocks_document(1, "c1")["d"]]}, "blocks": [contested]}
            )
        ]
        durability.journal({"k": "block", "b": contested})
        loop.run_until_idle()
        durability.checkpoint()  # block 1 and its document now live in the snapshot only
        for record in contested_block():
            durability.journal(record)
        loop.run_until_idle()
        late = ViewManager()
        assert ChangeFeed(late, "main").bootstrap(durability) == 2
        assert late.transaction("c0") is None
        assert_only_the_delivered_spend_applied(late)


class TestBootstrap:
    def test_bootstrap_replays_existing_journal(self):
        loop, durability, views, feed = make_stack()
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        durability.journal(
            {"k": "block", "b": block(2, transfer("t1", [("c1", 0)], [("bob", 1)]))}
        )
        loop.run_until_idle()
        late = ViewManager()
        late_feed = ChangeFeed(late, "main")
        assert late_feed.bootstrap(durability) == 2
        assert late.consistency_snapshot() == views.consistency_snapshot()

    def test_bootstrap_and_live_tail_dedupe_through_the_cursor(self):
        loop, durability, views, feed = make_stack()
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        loop.run_until_idle()
        # Attach a second consumer, then bootstrap it: height 1 arrives
        # only via bootstrap; height 2 arrives via the live listener.
        late = ViewManager()
        late_feed = ChangeFeed(late, "main", durability.log)
        assert late_feed.bootstrap(durability) == 1
        durability.journal({"k": "block", "b": block(2, create("c2", "bob"))})
        loop.run_until_idle()
        assert late.height("main") == 2
        assert late.stats["blocks_applied"] == 2
        assert late.consistency_snapshot() == views.consistency_snapshot()

    def test_scan_block_records_covers_snapshot_and_wal_suffix(self):
        loop, durability, views, feed = make_stack()
        durability.state_provider = lambda: [
            canonical_bytes({"blocks": [block(1, create("c1", "alice"))]})
        ]
        durability.journal({"k": "block", "b": block(1, create("c1", "alice"))})
        loop.run_until_idle()
        durability.checkpoint()  # block 1 now lives in the snapshot only
        durability.journal({"k": "block", "b": block(2, create("c2", "bob"))})
        loop.run_until_idle()
        heights = [record["h"] for record in scan_block_records(durability)]
        assert heights == [1, 2]
        assert [r["h"] for r in scan_block_records(durability, from_height=1)] == [2]
