"""Nested blockchain transactions: non-locking execution + recovery.

Section 4.2 of the paper.  A committed ACCEPT_BID parent must eventually
cause one TRANSFER-equivalent (its own output to the requester) and n-1
RETURNs of losing bids.  The *non-locking* approach commits the parent
first, then:

* at block commit, the receiver node determines the RETURN children
  (``deterRtrnTxs``) and enqueues them into a :class:`ReturnQueue`
  (Algorithm 3, Commit part);
* parallel workers drain the queue asynchronously, submitting each
  RETURN to a randomly selected validator and retrying on failure;
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
        record = self._collection.find_one({"accept_id": accept_id})
        if record is None:
            return
        changed = False
        for child in record["children"]:
            if child["bid_id"] == bid_id and child["status"] != COMMITTED:
                child["status"] = COMMITTED
                child["return_id"] = return_id
                changed = True
        if not changed:
            return
        if all(child["status"] == COMMITTED for child in record["children"]):
            record["status"] = COMMITTED
        self._collection.update_many({"accept_id": accept_id}, lambda _: record)

    def is_fully_committed(self, accept_id: str) -> bool:
        """Definition 2: parent committed iff all children committed."""
        record = self._collection.find_one({"accept_id": accept_id})
        return bool(record) and record["status"] == COMMITTED

    def status(self, accept_id: str) -> dict[str, Any] | None:
        return self._collection.find_one({"accept_id": accept_id})

    def pending_jobs(self) -> list[dict[str, Any]]:
        """Recovery (crash case 2): parents with uncommitted children."""
        return self._collection.find({"status": PENDING})


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
    metadata = accept_payload.get("metadata") or {}
    win_bid_id = metadata.get("win_bid_id") or accept_payload.get("asset", {}).get("id")
    returns: list[Transaction] = []
    for bid in locked_bids:
        if bid["id"] == win_bid_id:
            continue
        transaction = build_return(
            escrow=escrow,
            losing_bid_payload=bid,
            accept_id=accept_payload["id"],
        )
        transaction.sign([escrow])
        returns.append(transaction)
    return returns


class NestedTransactionProcessor:
    """Receiver-node side of the non-locking protocol.

    Wired into the server's block-commit hook: for every committed
    ACCEPT_BID it determines children, persists the recovery record and
    enqueues the RETURN jobs; the cluster's workers drain the queue,
    routing each RETURN to a randomly selected validator node.
    """

    def __init__(self, escrow: KeyPair, database: Database):
        self.escrow = escrow
        self.queue = ReturnQueue()
        self.recovery = RecoveryLog(database)

    def on_accept_committed(
        self, accept_payload: dict[str, Any], locked_bids: list[dict[str, Any]]
    ) -> list[ReturnJob]:
        """Algorithm 3 Commit part: log, build and enqueue RETURNs."""
        returns = determine_return_txs(self.escrow, accept_payload, locked_bids)
        metadata = accept_payload.get("metadata") or {}
        rfq_id = metadata.get("rfq_id") or (accept_payload.get("references") or [""])[0]
        self.recovery.log_accept(
            accept_payload["id"],
            rfq_id,
            [transaction.references[0] for transaction in returns],
        )
        jobs = []
        for transaction in returns:
            job = ReturnJob(
                accept_id=accept_payload["id"],
                bid_id=transaction.references[0],
                payload=transaction.to_dict(),
            )
            self.queue.put(job)
            jobs.append(job)
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
        """Crash case 2 ("while enqueueing RETURNs"): re-enqueue from the log.

        Args:
            locked_bids_lookup: rfq_id -> currently locked bids.

        Returns:
            Number of RETURN jobs re-enqueued.
        """
        reenqueued = 0
        for record in self.recovery.pending_jobs():
            accept_payload = {"id": record["accept_id"], "metadata": {"rfq_id": record["rfq_id"]},
                              "references": [record["rfq_id"]]}
            pending_bids = {
                child["bid_id"]
                for child in record["children"]
                if child["status"] != COMMITTED
            }
            locked = [
                bid for bid in locked_bids_lookup(record["rfq_id"]) if bid["id"] in pending_bids
            ]
            for transaction in determine_return_txs(self.escrow, accept_payload, locked):
                self.queue.put(
                    ReturnJob(
                        accept_id=record["accept_id"],
                        bid_id=transaction.references[0],
                        payload=transaction.to_dict(),
                    )
                )
                reenqueued += 1
        return reenqueued
