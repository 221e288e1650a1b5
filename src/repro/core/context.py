"""Ledger view used by semantic validation.

Wraps a node's document store behind the query helpers the paper's
algorithms call (``getTxFromDB``, ``getLockedBids``,
``getAcceptTxForRFQ``) plus UTXO bookkeeping, and tracks the
*currently staged* transactions of the block being validated so that
intra-block double spends are caught (the ``CurrentTxs`` parameter of
Algorithms 2-3).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.errors import DoubleSpendError, InputDoesNotExistError
from repro.core.transaction import CREATE, OutputRef, REQUEST
from repro.crypto.keys import ReservedAccounts
from repro.storage.database import Database

#: External double-spend oracle: returns the id of whatever holds/spends
#: the output, or None.  Installed by cross-shard machinery so that a
#: remote 2PC lock on a local UTXO is visible to local validation.
SpendGuard = Callable[[OutputRef], "str | None"]


class ValidationContext:
    """Read view over committed state + the in-flight block."""

    def __init__(self, database: Database, reserved: ReservedAccounts, now: float = 0.0):
        self._database = database
        self.reserved = reserved
        self.now = now
        #: Output refs spent by transactions staged in the current block.
        self._staged_spends: set[tuple[str, int]] = set()
        #: Payloads staged in the current block, by id.
        self._staged_txs: dict[str, dict[str, Any]] = {}
        #: Extra spend oracles consulted by :meth:`output_spender` —
        #: the lock hook the sharding coordinator installs.
        self.spend_guards: list[SpendGuard] = []
        #: Admission-only gatekeepers ``payload -> reason | None`` —
        #: the sharding layer uses one to refuse transactions spending
        #: foreign-homed outputs unless they arrive through their 2PC
        #: commit-point submission.  Never consulted by block delivery.
        self.ingress_gates: list[Any] = []
        #: Whether :meth:`output_spender` consults the guards.  Admission
        #: paths leave this True; block delivery turns it off, because
        #: the guards read the shard agent's *live* lock table — replicas
        #: deliver the same block at different simulated instants, and a
        #: lock released in between would make them disagree on the
        #: block's valid transactions (found by the byzantine chaos
        #: sweep, seed 7).  DeliverTx must be a pure function of
        #: committed + staged state.
        self.use_spend_guards = True

    # -- committed-state queries (Algorithm 2/3 helpers) -----------------------

    def get_tx(self, tx_id: str) -> dict[str, Any] | None:
        """``getTxFromDB``: committed transaction payload or None.

        Returns the frozen stored payload (zero-copy): validation reads
        prior transactions, it never mutates them.
        """
        staged = self._staged_txs.get(tx_id)
        if staged is not None:
            return staged
        return self._database.collection("transactions").find_one({"id": tx_id}, copy=False)

    def is_committed(self, tx_id: str) -> bool:
        """True if the transaction is committed (or staged in this block)."""
        return self.get_tx(tx_id) is not None

    def require_committed(self, tx_id: str, what: str) -> dict[str, Any]:
        """Fetch a committed transaction or raise (Algorithm 2 line 3-4).

        Raises:
            InputDoesNotExistError: if the transaction is unknown.
        """
        payload = self.get_tx(tx_id)
        if payload is None:
            raise InputDoesNotExistError(f"{what} transaction {tx_id[:8]}... is not committed")
        return payload

    def output_spender(self, ref: OutputRef) -> str | None:
        """Id of the committed transaction spending ``ref``, or None."""
        if (ref.transaction_id, ref.output_index) in self._staged_spends:
            return "<staged>"
        if self.use_spend_guards:
            for guard in self.spend_guards:
                holder = guard(ref)
                if holder is not None:
                    return holder
        spender = self._database.collection("transactions").find_one(
            {
                "inputs.fulfills.transaction_id": ref.transaction_id,
                "inputs": {
                    "$elemMatch": {
                        "fulfills.transaction_id": ref.transaction_id,
                        "fulfills.output_index": ref.output_index,
                    }
                },
            },
            copy=False,
        )
        return spender["id"] if spender else None

    def require_unspent(self, ref: OutputRef, by: str | None = None) -> None:
        """Raise if ``ref`` was already spent (double-spend protection).

        At block delivery (spend guards off) the transaction ``by`` is
        not its own double-spender: a replica that stored it earlier as a
        cross-shard reference copy must deliver it like every replica
        that did not, or the block's effect depends on import timing.
        Admission still refuses a transaction the store already holds.

        Raises:
            DoubleSpendError: naming the conflicting spender.
        """
        spender = self.output_spender(ref)
        if spender is not None and (self.use_spend_guards or spender != by):
            raise DoubleSpendError(
                f"output {ref.transaction_id[:8]}..:{ref.output_index} already spent by {spender[:8]}"
            )

    def bids_for_request(self, request_id: str, *, copy: bool = True) -> list[dict[str, Any]]:
        """All committed BIDs referencing ``request_id``.

        ``copy=False`` returns the frozen stored payloads for read-only
        consumers (validation, the nested-transaction processor).
        """
        return self._database.collection("transactions").find(
            {"operation": "BID", "references": request_id}, copy=copy
        )

    def locked_bids(self, request_id: str) -> list[dict[str, Any]]:
        """``getLockedBids``: bids whose escrow output is still unspent."""
        locked = []
        for bid in self.bids_for_request(request_id, copy=False):
            ref = OutputRef(bid["id"], 0)
            if self.output_spender(ref) is None:
                locked.append(bid)
        return locked

    def accept_for_request(self, request_id: str) -> dict[str, Any] | None:
        """``getAcceptTxForRFQ``: existing ACCEPT_BID for the RFQ, if any."""
        for tx_id, staged in self._staged_txs.items():
            if staged.get("operation") == "ACCEPT_BID" and request_id in staged.get("references", []):
                return staged
        return self._database.collection("transactions").find_one(
            {"operation": "ACCEPT_BID", "references": request_id}, copy=False
        )

    def accepted_request_ids(self) -> set[str]:
        """Every id an ACCEPT_BID — committed, or staged in this block —
        references: exactly the RFQs :meth:`accept_for_request` finds an
        accept for, from one query instead of one per RFQ."""
        accepted: set[str] = set()
        for staged in self._staged_txs.values():
            if staged.get("operation") == "ACCEPT_BID":
                accepted.update(staged.get("references", []))
        for accept in self._database.collection("transactions").find(
            {"operation": "ACCEPT_BID"}, copy=False
        ):
            accepted.update(accept.get("references") or [])
        return accepted

    def signer_of(self, payload: dict[str, Any]) -> str | None:
        """The first ``owners_before`` key of the first input — the
        account that authored the transaction (Algorithm 3 line 6)."""
        inputs = payload.get("inputs") or []
        if not inputs:
            return None
        owners = inputs[0].get("owners_before") or []
        return owners[0] if owners else None

    def asset_lineage_id(self, payload: dict[str, Any]) -> str | None:
        """The asset id a transaction operates on.

        Genesis operations (CREATE/REQUEST) *are* their asset; spending
        operations link to it via ``asset.id``.
        """
        asset = payload.get("asset") or {}
        if "id" in asset:
            return asset["id"]
        if payload.get("operation") in (CREATE, REQUEST):
            return payload.get("id")
        return None

    # -- staging ---------------------------------------------------------------

    def stage(self, payload: dict[str, Any]) -> None:
        """Record a validated transaction of the current block."""
        self._staged_txs[payload["id"]] = payload
        for item in payload.get("inputs", []):
            fulfills = item.get("fulfills")
            if fulfills:
                self._staged_spends.add(
                    (fulfills["transaction_id"], fulfills["output_index"])
                )

    def clear_staged(self) -> None:
        """Forget the current block's staged state (post-commit)."""
        self._staged_spends.clear()
        self._staged_txs.clear()
