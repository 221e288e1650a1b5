"""Nested transactions: ReturnQueue, recovery log, deterRtrnTxs, RETURN type."""

import pytest

from repro.common.errors import ValidationError
from repro.core.builders import build_accept_bid, build_bid, build_create, build_request
from repro.core.context import ValidationContext
from repro.core.nested import (
    NestedTransactionProcessor,
    RecoveryLog,
    ReturnJob,
    ReturnQueue,
    determine_return_txs,
)
from repro.core.validation import TransactionValidator
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage.database import make_smartchaindb_database

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
CAROL = keypair_from_string("carol")
SALLY = keypair_from_string("sally")


class TestReturnQueue:
    def job(self, name="j1"):
        return ReturnJob(accept_id="a" * 64, bid_id="b" * 64, payload={"id": name})

    def test_fifo(self):
        queue = ReturnQueue()
        queue.put(self.job("1"))
        queue.put(self.job("2"))
        assert queue.get().payload["id"] == "1"
        assert queue.get().payload["id"] == "2"
        assert queue.get() is None

    def test_requeue_counts_attempts(self):
        queue = ReturnQueue()
        job = self.job()
        queue.put(job)
        taken = queue.get()
        queue.requeue(taken)
        assert taken.attempts == 1
        assert queue.stats["retried"] == 1


class TestRecoveryLog:
    @pytest.fixture()
    def log(self):
        return RecoveryLog(make_smartchaindb_database())

    def test_pending_until_all_children_commit(self, log):
        log.log_accept("acc", "rfq", ["bid1", "bid2"])
        assert not log.is_fully_committed("acc")
        log.mark_child_committed("acc", "bid1", "ret1")
        assert not log.is_fully_committed("acc")
        log.mark_child_committed("acc", "bid2", "ret2")
        assert log.is_fully_committed("acc")

    def test_no_children_means_immediately_committed(self, log):
        """Definition 2 vacuously holds with an empty children set."""
        log.log_accept("acc", "rfq", [])
        assert log.is_fully_committed("acc")

    def test_log_is_idempotent(self, log):
        log.log_accept("acc", "rfq", ["bid1"])
        log.log_accept("acc", "rfq", ["bid1"])
        assert len(log.pending_jobs()) == 1

    def test_pending_jobs_lists_open_parents(self, log):
        log.log_accept("acc1", "rfq1", ["b1"])
        log.log_accept("acc2", "rfq2", [])
        pending = log.pending_jobs()
        assert [record["accept_id"] for record in pending] == ["acc1"]

    def test_mark_unknown_child_is_noop(self, log):
        log.log_accept("acc", "rfq", ["bid1"])
        log.mark_child_committed("acc", "ghost", "ret")
        assert not log.is_fully_committed("acc")


@pytest.fixture()
def settled_auction():
    """Committed assets, request, three bids and an accept payload."""
    database = make_smartchaindb_database()
    reserved = ReservedAccounts()
    ctx = ValidationContext(database, reserved)
    validator = TransactionValidator()

    def commit(transaction):
        database.collection("transactions").insert_one(transaction.to_dict())
        return transaction

    caps = ["3d-print"]
    bidders = [ALICE, BOB, CAROL]
    creates = [commit(build_create(kp, {"capabilities": caps}).sign([kp])) for kp in bidders]
    request = commit(build_request(SALLY, caps).sign([SALLY]))
    bids = [
        commit(
            build_bid(kp, request.tx_id, created.tx_id, [(created.tx_id, 0, 1)],
                      reserved.escrow.public_key).sign([kp])
        )
        for kp, created in zip(bidders, creates)
    ]
    accept = commit(build_accept_bid(SALLY, request.tx_id, bids[0]).sign([SALLY]))
    return database, reserved, ctx, validator, request, bids, accept


class TestDetermineReturnTxs:
    def test_returns_exclude_winner(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        locked = ctx.locked_bids(request.tx_id)
        returns = determine_return_txs(reserved.escrow, accept.to_dict(), locked)
        assert len(returns) == 2  # bids[1] and bids[2]
        returned_bids = {transaction.references[0] for transaction in returns}
        assert returned_bids == {bids[1].tx_id, bids[2].tx_id}

    def test_returns_are_valid_transactions(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        locked = ctx.locked_bids(request.tx_id)
        for transaction in determine_return_txs(reserved.escrow, accept.to_dict(), locked):
            validator.validate(ctx, transaction.to_dict())

    def test_returns_go_to_original_bidders(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        locked = ctx.locked_bids(request.tx_id)
        returns = determine_return_txs(reserved.escrow, accept.to_dict(), locked)
        recipients = {transaction.outputs[0].public_keys[0] for transaction in returns}
        assert recipients == {BOB.public_key, CAROL.public_key}

    def test_deterministic_across_nodes(self, settled_auction):
        """Every node must derive identical RETURNs (dedup relies on it)."""
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        locked = ctx.locked_bids(request.tx_id)
        first = determine_return_txs(reserved.escrow, accept.to_dict(), locked)
        second = determine_return_txs(reserved.escrow, accept.to_dict(), locked)
        assert [t.tx_id for t in first] == [t.tx_id for t in second]


class TestReturnTypeValidation:
    def test_return_to_wrong_recipient_rejected(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        locked = ctx.locked_bids(request.tx_id)
        transaction = determine_return_txs(reserved.escrow, accept.to_dict(), locked)[0]
        transaction.outputs[0].public_keys = [SALLY.public_key]
        transaction.outputs[0].condition = type(transaction.outputs[0].condition).for_owner(
            SALLY.public_key
        )
        transaction.inputs[0].fulfillment.signatures.clear()
        transaction.sign([reserved.escrow])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, transaction.to_dict())

    def test_return_requires_committed_accept(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        from repro.core.builders import build_return

        transaction = build_return(reserved.escrow, bids[1].to_dict(), "7" * 64)
        transaction.sign([reserved.escrow])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, transaction.to_dict())


class TestNestedProcessor:
    def test_on_accept_enqueues_losers(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        processor = NestedTransactionProcessor(reserved.escrow, database)
        jobs = processor.on_accept_committed(accept.to_dict(), ctx.locked_bids(request.tx_id))
        assert len(jobs) == 2
        assert len(processor.queue) == 2
        assert not processor.recovery.is_fully_committed(accept.tx_id)

    def test_return_commit_closes_recovery(self, settled_auction):
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        processor = NestedTransactionProcessor(reserved.escrow, database)
        jobs = processor.on_accept_committed(accept.to_dict(), ctx.locked_bids(request.tx_id))
        for job in jobs:
            processor.on_return_committed(job.payload)
        assert processor.recovery.is_fully_committed(accept.tx_id)

    def test_recover_reenqueues_pending(self, settled_auction):
        """Crash case 2: rebuild the queue from the durable log."""
        database, reserved, ctx, validator, request, bids, accept = settled_auction
        processor = NestedTransactionProcessor(reserved.escrow, database)
        jobs = processor.on_accept_committed(accept.to_dict(), ctx.locked_bids(request.tx_id))
        # Simulate crash: one child committed, queue lost.
        processor.on_return_committed(jobs[0].payload)
        processor.queue = ReturnQueue()
        reenqueued = processor.recover(ctx.locked_bids)
        assert reenqueued == 1
        remaining = processor.queue.get()
        assert remaining.bid_id == jobs[1].bid_id
