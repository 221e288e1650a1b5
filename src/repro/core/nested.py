"""Nested blockchain transactions: non-locking execution + recovery.

Section 4.2 of the paper.  A committed ACCEPT_BID parent must eventually
cause one TRANSFER-equivalent (its own output to the requester) and n-1
RETURNs of losing bids.  The *non-locking* approach commits the parent
first, then:

* at block commit, the ACCEPT_BID's receiver node alone determines the
  RETURN children (``deterRtrnTxs``) and enqueues them into its
  :class:`ReturnQueue` (Algorithm 3, Commit part);
* that enqueue starts the receiver's parallel workers, which drain the
  queue asynchronously, submitting each RETURN to a randomly selected
  validator and retrying on failure;
* a durable ``accept_tx_recovery`` collection logs the parent and every
  child's status, so a crashed receiver node re-enqueues pending RETURNs
  on recovery (crash case 2 of Section 4.2.1).

Definition 2's eventual-commit semantics: the parent is *fully* committed
only once all children are; :meth:`RecoveryLog.is_fully_committed`
exposes exactly that predicate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.builders import build_return
from repro.core.transaction import Transaction
from repro.crypto.keys import KeyPair
from repro.storage.database import Database

PENDING = "pending"
COMMITTED = "committed"


@dataclass
class ReturnJob:
    """One queued RETURN child."""

    accept_id: str
    bid_id: str
    payload: dict[str, Any]
    attempts: int = 0


class ReturnQueue:
    """FIFO task queue drained by asynchronous workers.

    The queue itself is durable in the paper's design ("all the RETURN
    transactions already persist in the queue for the execution"); we
    model durability by rebuilding it from the recovery log on restart
    (:meth:`RecoveryLog.pending_jobs`).
    """

    def __init__(self) -> None:
        self._jobs: deque[ReturnJob] = deque()
        self.stats = {"enqueued": 0, "completed": 0, "retried": 0}

    def __len__(self) -> int:
        return len(self._jobs)

    def put(self, job: ReturnJob) -> None:
        self._jobs.append(job)
        self.stats["enqueued"] += 1

    def get(self) -> ReturnJob | None:
        if not self._jobs:
            return None
        return self._jobs.popleft()

    def requeue(self, job: ReturnJob) -> None:
        job.attempts += 1
        self._jobs.append(job)
        self.stats["retried"] += 1

    def mark_done(self) -> None:
        self.stats["completed"] += 1


class RecoveryLog:
    """The ``accept_tx_recovery`` collection introduced by the paper.

    One document per ACCEPT_BID::

        {"accept_id": ..., "rfq_id": ..., "status": "pending"|"committed",
         "children": [{"bid_id": ..., "return_id": ..., "status": ...}]}
    """

    def __init__(self, database: Database):
        self._collection = database.create_collection("accept_tx_recovery")
        if "accept_id" not in self._collection.index_paths():
            self._collection.create_index("accept_id", unique=True)
            self._collection.create_index("status")

    def log_accept(self, accept_id: str, rfq_id: str, losing_bid_ids: list[str]) -> None:
        """``logAcceptBidTxUpdForRecovery``: record parent + planned children."""
        if self._collection.find_one({"accept_id": accept_id}) is not None:
            return
        self._collection.insert_one(
            {
                "accept_id": accept_id,
                "rfq_id": rfq_id,
                "status": PENDING if losing_bid_ids else COMMITTED,
                "children": [
                    {"bid_id": bid_id, "return_id": None, "status": PENDING}
                    for bid_id in losing_bid_ids
                ],
            }
        )

    def mark_child_committed(self, accept_id: str, bid_id: str, return_id: str) -> None:
        """Record a RETURN child's commit; closes the parent when all done."""
        record = self._collection.find_one({"accept_id": accept_id}, copy=False)
        if record is None:
            return
        children = [
            dict(child, status=COMMITTED, return_id=return_id)
            if child["bid_id"] == bid_id and child["status"] != COMMITTED else child
            for child in record["children"]
        ]
        if children == record["children"]:
            return
        status = COMMITTED if all(c["status"] == COMMITTED for c in children) else PENDING
        self._collection.update_many(
            {"accept_id": accept_id}, {"$set": {"status": status, "children": children}}
        )

    def is_fully_committed(self, accept_id: str) -> bool:
        """Definition 2: parent committed iff all children committed."""
        record = self._collection.find_one({"accept_id": accept_id}, copy=False)
        return bool(record) and record["status"] == COMMITTED

    def status(self, accept_id: str) -> dict[str, Any] | None:
        return self._collection.find_one({"accept_id": accept_id})

    def pending_jobs(self) -> list[dict[str, Any]]:
        """Recovery (crash case 2): parents with uncommitted children."""
        return self._collection.find({"status": PENDING})


def losing_bids(
    accept_payload: dict[str, Any], locked_bids: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """The locked bids an ACCEPT_BID did not pick: one RETURN child each."""
    metadata = accept_payload.get("metadata") or {}
    win_bid_id = metadata.get("win_bid_id") or accept_payload.get("asset", {}).get("id")
    return [bid for bid in locked_bids if bid["id"] != win_bid_id]


def determine_return_txs(
    escrow: KeyPair,
    accept_payload: dict[str, Any],
    locked_bids: list[dict[str, Any]],
) -> list[Transaction]:
    """``deterRtrnTxs``: build RETURNs for every non-winning locked bid.

    Args:
        escrow: the reserved account key pair (signs each RETURN).
        accept_payload: the committed ACCEPT_BID.
        locked_bids: escrow-held bids for the RFQ at commit time.

    Returns:
        Signed RETURN transactions, one per losing bid.
    """
    returns: list[Transaction] = []
    for bid in losing_bids(accept_payload, locked_bids):
        transaction = build_return(
            escrow=escrow,
            losing_bid_payload=bid,
            accept_id=accept_payload["id"],
        )
        transaction.sign([escrow])
        returns.append(transaction)
    return returns


class NestedTransactionProcessor:
    """One replica's side of the non-locking protocol.

    Wired into the server's block-commit hook: every replica persists
    each committed ACCEPT_BID's recovery record; its receiver alone
    (``is_receiver``) determines and enqueues the RETURN jobs, and
    ``wake`` starts that node's workers, which drain the queue.
    """

    def __init__(self, escrow: KeyPair, database: Database):
        self.escrow = escrow
        self.queue = ReturnQueue()
        self.recovery = RecoveryLog(database)
        #: accept id -> did this node receive that ACCEPT_BID?
        self.is_receiver: Callable[[str], bool] = lambda accept_id: True
        self.wake: Callable[[], None] = lambda: None

    def on_accept_committed(
        self, accept_payload: dict[str, Any], locked_bids: list[dict[str, Any]]
    ) -> list[ReturnJob]:
        """Algorithm 3 Commit part: log on every replica; build and
        enqueue RETURNs on the receiver."""
        losers = losing_bids(accept_payload, locked_bids)
        metadata = accept_payload.get("metadata") or {}
        rfq_id = metadata.get("rfq_id") or (accept_payload.get("references") or [""])[0]
        self.recovery.log_accept(accept_payload["id"], rfq_id, [bid["id"] for bid in losers])
        if not self.is_receiver(accept_payload["id"]):
            return []
        return self._enqueue(
            accept_payload["id"], determine_return_txs(self.escrow, accept_payload, losers)
        )

    def _enqueue(self, accept_id: str, returns: list[Transaction]) -> list[ReturnJob]:
        jobs = [ReturnJob(accept_id, tx.references[0], tx.to_dict()) for tx in returns]
        for job in jobs:
            self.queue.put(job)
        if jobs:
            self.wake()
        return jobs

    def on_return_committed(self, return_payload: dict[str, Any]) -> None:
        """Commit confirmation for a RETURN child (closes recovery entry)."""
        references = return_payload.get("references") or []
        if len(references) < 2:
            return
        bid_id, accept_id = references[0], references[1]
        self.recovery.mark_child_committed(accept_id, bid_id, return_payload["id"])
        self.queue.mark_done()

    def recover(self, locked_bids_lookup: Callable[[str], list[dict[str, Any]]]) -> int:
        """Crash case 2 ("while enqueueing RETURNs"): re-enqueue from the
        log the pending children of the accepts this node received.

        Args:
            locked_bids_lookup: rfq_id -> currently locked bids.

        Returns:
            Number of RETURN jobs re-enqueued.
        """
        reenqueued = 0
        for record in self.recovery.pending_jobs():
            if not self.is_receiver(record["accept_id"]):
                continue
            pending = {c["bid_id"] for c in record["children"] if c["status"] != COMMITTED}
            locked = [bid for bid in locked_bids_lookup(record["rfq_id"]) if bid["id"] in pending]
            returns = determine_return_txs(self.escrow, {"id": record["accept_id"]}, locked)
            reenqueued += len(self._enqueue(record["accept_id"], returns))
        return reenqueued
