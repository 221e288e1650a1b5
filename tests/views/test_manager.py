"""ViewManager: the height check and order-robust table semantics."""

import pytest

from repro.views import ViewManager


def block(height, *txs):
    """``apply_block_record``'s height and delivered ``(tx_id, payload)`` pairs."""
    return height, [(payload["id"], payload) for payload in txs]


def create(tx_id, owner, capabilities=("cap",), amount=1):
    return {
        "id": tx_id,
        "operation": "CREATE",
        "asset": {"data": {"capabilities": list(capabilities)}},
        "inputs": [{"owners_before": [owner]}],
        "outputs": [{"public_keys": [owner], "amount": amount}],
    }


def transfer(tx_id, spends, recipients):
    """spends: [(tx, index)]; recipients: [(owner, amount)]."""
    return {
        "id": tx_id,
        "operation": "TRANSFER",
        "inputs": [
            {"owners_before": ["spender"], "fulfills": {"transaction_id": t, "output_index": i}}
            for t, i in spends
        ],
        "outputs": [{"public_keys": [owner], "amount": amount} for owner, amount in recipients],
    }


def request(tx_id, requester, capabilities=("cap",)):
    return {
        "id": tx_id,
        "operation": "REQUEST",
        "asset": {"data": {"capabilities": list(capabilities)}},
        "inputs": [{"owners_before": [requester]}],
        "outputs": [{"public_keys": [requester], "amount": 1}],
    }


def accept(tx_id, request_id, win_bid_id="bid-x"):
    return {
        "id": tx_id,
        "operation": "ACCEPT_BID",
        "references": [request_id],
        "metadata": {"win_bid_id": win_bid_id},
        "inputs": [{"owners_before": ["requester"]}],
        "outputs": [],
    }


class TestHeightCheck:
    def test_a_height_that_skips_ahead_raises(self):
        views = ViewManager()
        views.apply_block_record("main", *block(1, create("c1", "alice")))
        with pytest.raises(ValueError, match="height 1 got block 3"):
            views.apply_block_record("main", *block(3, create("c3", "carol")))
        assert views.height("main") == 1
        assert views.transaction("c3") is None

    def test_a_repeated_height_raises(self):
        views = ViewManager()
        views.apply_block_record("main", *block(1, create("c1", "alice")))
        with pytest.raises(ValueError):
            views.apply_block_record("main", *block(1, create("c1", "alice")))
        assert views.stats["blocks_applied"] == 1
        assert views.stats["blocks_duplicate"] == 0

    def test_per_shard_heights_are_independent(self):
        views = ViewManager()
        views.apply_block_record("shard-0", *block(1, create("a", "alice")))
        views.apply_block_record("shard-1", *block(1, create("b", "bob")))
        views.apply_block_record("shard-1", *block(2, create("c", "carol")))
        assert (views.height("shard-0"), views.height("shard-1")) == (1, 2)


class TestOrderRobustTables:
    def test_spent_output_never_resurrects(self):
        """Cross-shard interleaving: the spender's block can apply before
        the creating block — the utxo must not reappear."""
        views = ViewManager()
        views.apply_block_record(
            "shard-1", *block(1, transfer("t1", [("c1", 0)], [("bob", 1)]))
        )
        views.apply_block_record("shard-0", *block(1, create("c1", "alice")))
        assert views.outputs_for("alice") == []
        refs = [(d["transaction_id"], d["output_index"]) for d in views.outputs_for("bob")]
        assert refs == [("t1", 0)]

    def test_request_accepted_on_another_shard_is_born_settled(self):
        views = ViewManager()
        views.apply_block_record("shard-1", *block(1, accept("a1", "r1")))
        views.apply_block_record("shard-0", *block(1, request("r1", "sally")))
        assert views.open_requests() == []
        assert views.open_requests(capability="cap") == []
        # Demand still counts the request; settlement is complete.
        assert views.capability_demand() == {"cap": 1}
        assert views.operation_count("ACCEPT_BID") == views.operation_count("REQUEST") == 1

    def test_snapshots_agree_across_apply_orders(self):
        blocks = {
            "shard-0": [
                block(1, create("c1", "alice"), request("r1", "sally")),
                block(2, transfer("t1", [("c1", 0)], [("bob", 1)])),
            ],
            "shard-1": [
                block(1, accept("a1", "r1")),
                block(2, create("c2", "carol", capabilities=("weld",))),
            ],
        }
        forward = ViewManager()
        for shard in ("shard-0", "shard-1"):
            for record in blocks[shard]:
                forward.apply_block_record(shard, *record)
        interleaved = ViewManager()
        interleaved.apply_block_record("shard-1", *blocks["shard-1"][0])
        interleaved.apply_block_record("shard-0", *blocks["shard-0"][0])
        interleaved.apply_block_record("shard-1", *blocks["shard-1"][1])
        interleaved.apply_block_record("shard-0", *blocks["shard-0"][1])
        assert forward.consistency_snapshot() == interleaved.consistency_snapshot()


class TestMarketplaceViews:
    def test_multi_output_transfer_indexes_every_output(self):
        views = ViewManager()
        views.apply_block_record("main", *block(1, create("c1", "alice", amount=3)))
        views.apply_block_record(
            "main",
            *block(2, transfer("t1", [("c1", 0)], [("bob", 2), ("alice", 1)])),
        )
        assert [(d["transaction_id"], d["output_index"], d["amount"])
                for d in views.outputs_for("bob")] == [("t1", 0, 2)]
        assert [(d["transaction_id"], d["output_index"], d["amount"])
                for d in views.outputs_for("alice")] == [("t1", 1, 1)]
        assert views.spender_of("c1", 0)["id"] == "t1"
        assert views.spender_of("c1", 1) is None

    def test_referencing_and_competition(self):
        bid = {
            "id": "b1",
            "operation": "BID",
            "references": ["r1"],
            "inputs": [{"owners_before": ["bob"]}],
            "outputs": [{"public_keys": ["bob"], "amount": 1}],
        }
        views = ViewManager()
        views.apply_block_record("main", *block(1, request("r1", "sally"), bid))
        assert [t["id"] for t in views.referencing("BID", "r1")] == ["b1"]
        assert views.referencing("ACCEPT_BID", "r1") == []
        assert views.bid_competition() == {"r1": 1}
        views.apply_block_record("main", *block(2, accept("a1", "r1", "b1")))
        assert [t["id"] for t in views.referencing("ACCEPT_BID", "r1")] == ["a1"]
        assert views.open_requests() == []
