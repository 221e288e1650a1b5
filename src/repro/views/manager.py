"""Incrementally maintained materialized views over committed blocks.

The :class:`ViewManager` consumes the durability journal's block
records (``{"k": "block", "b": {...}}`` payloads — the vocabulary of
:mod:`repro.durability.recovery`) and maintains every hot read set the
marketplace queries need, so analytics and wallet reads stop re-scanning
the transactions collection per call.

Design points:

- **Block-fed, height-deduplicated.**  Views apply *block* records only,
  keyed by per-shard chain height.  Every node of a shard journals the
  same block at the same height (chain consistency), and catch-up after
  a crash re-journals already-seen blocks — both collapse into one
  application per height.  Out-of-order arrivals (a lagging node's feed
  draining late) buffer until the gap closes.
- **Order-robust across shards.**  A deployment-level manager merges
  per-shard feeds whose interleaving is nondeterministic.  Every table
  is defined so the *final* state is independent of cross-shard apply
  order: a spent output never resurrects (the spender map is consulted
  on insert), and a REQUEST whose ACCEPT_BID applied first is born
  settled.
- **Internal references, copied at the serving edge.**  Like the
  zero-copy collection scans, the manager stores references to the
  journaled payloads; the server/replica layer deep-copies what it
  hands to callers.
"""

from __future__ import annotations

from typing import Any

from repro.core.asset import extract_capabilities

#: Operation names the volume counters report (mirrors the analytics
#: query's fixed vocabulary).
OPERATIONS = (
    "CREATE",
    "TRANSFER",
    "REQUEST",
    "BID",
    "ACCEPT_BID",
    "RETURN",
    "INTEREST",
    "PRE_REQUEST",
)


class ViewManager:
    """Materialized views over the committed transaction stream."""

    def __init__(self, telemetry=None, telemetry_label: str = "views"):
        self.telemetry = telemetry
        self.telemetry_label = telemetry_label
        #: tx_id -> committed payload (reference, not a copy).
        self._txs: dict[str, dict[str, Any]] = {}
        #: tx_id -> shard key that committed it (for per-shard serving).
        self._tx_shard: dict[str, str] = {}
        #: tx_id -> shard key a migration cutover re-homed it to.  Kept
        #: apart from ``_tx_shard`` (and from the consistency snapshot):
        #: a transaction's outputs can change owner shard long after its
        #: committing feed record was applied, and may even re-attribute
        #: *before* that record arrives — the override wins either way.
        self._shard_overrides: dict[str, str] = {}
        #: operation -> tx ids in application order.
        self._by_operation: dict[str, list[str]] = {}
        self._op_counts: dict[str, int] = {}
        #: (transaction_id, output_index) -> spending tx id.
        self._spender: dict[tuple[str, int], str] = {}
        #: (transaction_id, output_index) -> utxo document.
        self._utxos: dict[tuple[str, int], dict[str, Any]] = {}
        #: public key -> ordered set (insertion-ordered dict) of utxo refs.
        self._owner_index: dict[str, dict[tuple[str, int], None]] = {}
        #: ordered set of open (unaccepted) request ids.
        self._open_requests: dict[str, None] = {}
        #: capability -> ordered set of open request ids.
        self._requests_by_capability: dict[str, dict[str, None]] = {}
        #: capability -> total demand count across all requests ever.
        self._capability_demand: dict[str, int] = {}
        #: request id -> bid tx ids in application order.
        self._bids_by_request: dict[str, list[str]] = {}
        #: request id -> interest tx ids in application order.
        self._interest_by_request: dict[str, list[str]] = {}
        #: request id -> accepting tx id.
        self._accept_by_request: dict[str, str] = {}
        #: shard key -> highest contiguously applied height.
        self._heights: dict[str, int] = {}
        #: shard key -> {height: (block record, delivered ids)} waiting
        #: for a gap to close.
        self._pending: dict[str, dict[int, tuple]] = {}
        self.stats = {
            "blocks_applied": 0,
            "blocks_duplicate": 0,
            "blocks_buffered": 0,
            "txs_applied": 0,
        }

    # -- ingestion -------------------------------------------------------------

    def apply_block_record(
        self, shard: str, record: dict[str, Any], delivered: list[str] | None = None
    ) -> bool:
        """Apply one journal block record; returns True if it advanced.

        ``delivered`` lists the ids of the transactions the block
        *delivered* (the ``blocks`` collection's ``transaction_ids``):
        only those envelopes are applied — a record also carries the ones
        DeliverTx rejected, which changed no replica's state.  ``None``
        applies every envelope (a journal without such documents).

        Records at or below the shard's applied height are duplicates
        (multi-node feeds, catch-up re-journaling) and are dropped;
        records above ``height + 1`` buffer until the gap closes.
        """
        height = record["h"]
        applied = self._heights.get(shard, 0)
        if height <= applied:
            self.stats["blocks_duplicate"] += 1
            return False
        if height > applied + 1:
            self._pending.setdefault(shard, {})[height] = (record, delivered)
            self.stats["blocks_buffered"] += 1
            return False
        self._apply(shard, record, delivered)
        # Drain any buffered successors the gap was hiding.
        pending = self._pending.get(shard)
        while pending:
            successor = pending.pop(self._heights[shard] + 1, None)
            if successor is None:
                break
            self._apply(shard, *successor)
        return True

    def _apply(self, shard: str, record: dict[str, Any], delivered: list[str] | None) -> None:
        txs = record.get("txs") or []
        if delivered is not None:
            kept = set(delivered)
            txs = [entry for entry in txs if entry[0] in kept]
        for entry in txs:
            self._apply_tx(shard, entry[0], entry[1])
        self._heights[shard] = record["h"]
        self.stats["blocks_applied"] += 1
        self.stats["txs_applied"] += len(txs)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("view_blocks_applied", node=self.telemetry_label).inc()
            tel.histogram("view_apply_txs", node=self.telemetry_label).observe(
                float(len(txs))
            )

    def _apply_tx(self, shard: str, tx_id: str, payload: dict[str, Any]) -> None:
        if tx_id in self._txs:
            return
        self._txs[tx_id] = payload
        self._tx_shard[tx_id] = shard
        operation = payload.get("operation", "?")
        self._op_counts[operation] = self._op_counts.get(operation, 0) + 1
        self._by_operation.setdefault(operation, []).append(tx_id)

        for item in payload.get("inputs") or []:
            fulfills = item.get("fulfills") if isinstance(item, dict) else None
            if not isinstance(fulfills, dict):
                continue
            ref = (fulfills.get("transaction_id"), fulfills.get("output_index"))
            if ref[0] is None or ref[1] is None:
                continue
            self._spender[ref] = tx_id
            self._drop_utxo(ref)

        for index, output in enumerate(payload.get("outputs") or []):
            ref = (tx_id, index)
            # A cross-shard spender's block may have applied before its
            # input's creating block: never resurrect a spent output.
            if ref in self._spender:
                continue
            document = {
                "transaction_id": tx_id,
                "output_index": index,
                "public_keys": output.get("public_keys", []),
                "amount": output.get("amount"),
            }
            self._utxos[ref] = document
            for public_key in document["public_keys"]:
                self._owner_index.setdefault(public_key, {})[ref] = None

        if operation == "REQUEST":
            capabilities = extract_capabilities(payload.get("asset"))
            for capability in capabilities:
                self._capability_demand[capability] = (
                    self._capability_demand.get(capability, 0) + 1
                )
            # Born settled if the ACCEPT_BID's shard applied first.
            if tx_id not in self._accept_by_request:
                self._open_requests[tx_id] = None
                for capability in capabilities:
                    self._requests_by_capability.setdefault(capability, {})[tx_id] = None
        elif operation == "BID":
            for reference in payload.get("references") or []:
                self._bids_by_request.setdefault(reference, []).append(tx_id)
        elif operation == "INTEREST":
            for reference in payload.get("references") or []:
                self._interest_by_request.setdefault(reference, []).append(tx_id)
        elif operation == "ACCEPT_BID":
            for reference in payload.get("references") or []:
                self._accept_by_request[reference] = tx_id
                self._close_request(reference)

    def _drop_utxo(self, ref: tuple[str, int]) -> None:
        document = self._utxos.pop(ref, None)
        if document is None:
            return
        for public_key in document["public_keys"]:
            owned = self._owner_index.get(public_key)
            if owned is not None:
                owned.pop(ref, None)

    def _close_request(self, request_id: str) -> None:
        self._open_requests.pop(request_id, None)
        request = self._txs.get(request_id)
        if request is None:
            return
        for capability in extract_capabilities(request.get("asset")):
            index = self._requests_by_capability.get(capability)
            if index is not None:
                index.pop(request_id, None)

    # -- cursors ---------------------------------------------------------------

    def height(self, shard: str) -> int:
        """Highest contiguously applied block height for one shard."""
        return self._heights.get(shard, 0)

    def heights(self) -> dict[str, int]:
        return dict(self._heights)

    def total_height(self) -> int:
        return sum(self._heights.values())

    # -- marketplace views -----------------------------------------------------

    def open_requests(
        self, capability: str | None = None, shard: str | None = None
    ) -> list[dict[str, Any]]:
        """Open RFQ payloads, in commit order (references, not copies)."""
        if capability is None:
            ids = self._open_requests
        else:
            ids = self._requests_by_capability.get(capability, {})
        requests = (self._txs[request_id] for request_id in ids)
        if shard is None:
            return list(requests)
        return [r for r in requests if self._shard_of(r["id"]) == shard]

    def outputs_for(
        self, public_key: str, shard: str | None = None
    ) -> list[dict[str, Any]]:
        """Unspent output documents for an owner (references)."""
        refs = self._owner_index.get(public_key, {})
        if shard is None:
            return [self._utxos[ref] for ref in refs]
        return [
            self._utxos[ref]
            for ref in refs
            if self._shard_of(ref[0]) == shard
        ]

    def _shard_of(self, tx_id: str) -> str | None:
        """Serving shard of a transaction's outputs: migration override
        first, committing shard otherwise."""
        override = self._shard_overrides.get(tx_id)
        if override is not None:
            return override
        return self._tx_shard.get(tx_id)

    def note_migration(self, tx_ids: list[str], shard: str) -> None:
        """Re-attribute moved transactions to their new owner shard.

        Called at every migration cutover (and by its idempotent repair
        passes): the per-shard serving feeds re-bootstrap so reads for
        the moved range resolve against the new owner immediately, even
        for feed records still in flight.  The override map is not part
        of the consistency snapshot — ``mv_consistency`` compares the
        committed stream's deterministic state, and ownership moves are
        a routing overlay on top of it.
        """
        for tx_id in tx_ids:
            self._shard_overrides[tx_id] = shard

    def transaction(self, tx_id: str) -> dict[str, Any] | None:
        return self._txs.get(tx_id)

    def transactions_by_operation(self, operation: str) -> list[dict[str, Any]]:
        return [self._txs[tx_id] for tx_id in self._by_operation.get(operation, [])]

    def operation_count(self, operation: str) -> int:
        return self._op_counts.get(operation, 0)

    def referencing(self, operation: str, reference: str) -> list[dict[str, Any]]:
        """Transactions of one operation referencing a request id."""
        if operation == "BID":
            ids = self._bids_by_request.get(reference, [])
        elif operation == "INTEREST":
            ids = self._interest_by_request.get(reference, [])
        elif operation == "ACCEPT_BID":
            accept = self._accept_by_request.get(reference)
            ids = [accept] if accept is not None else []
        else:
            return [
                self._txs[tx_id]
                for tx_id in self._by_operation.get(operation, [])
                if reference in (self._txs[tx_id].get("references") or [])
            ]
        return [self._txs[tx_id] for tx_id in ids]

    def spender_of(self, tx_id: str, output_index: int) -> dict[str, Any] | None:
        """The committed transaction spending one exact output ref."""
        spender = self._spender.get((tx_id, output_index))
        return self._txs.get(spender) if spender is not None else None

    def bid_competition(self) -> dict[str, int]:
        return {
            request_id: len(bids)
            for request_id, bids in self._bids_by_request.items()
            if bids
        }

    def capability_demand(self) -> dict[str, int]:
        return dict(self._capability_demand)

    def operation_volume(self) -> dict[str, int]:
        return {
            operation: self._op_counts[operation]
            for operation in OPERATIONS
            if self._op_counts.get(operation)
        }

    def settlement_rate(self) -> float:
        requests = self._op_counts.get("REQUEST", 0)
        if requests == 0:
            return 0.0
        return self._op_counts.get("ACCEPT_BID", 0) / requests

    # -- consistency -----------------------------------------------------------

    def consistency_snapshot(self) -> dict[str, Any]:
        """Canonical, apply-order-independent digest of every view.

        Two managers fed the same blocks — in any per-shard-contiguous
        interleaving — produce equal snapshots.  The chaos harness's
        ``mv_consistency`` invariant compares the live manager against a
        from-scratch rebuild through this.
        """
        return {
            "heights": dict(sorted(self._heights.items())),
            "op_counts": dict(sorted(self._op_counts.items())),
            "tx_ids": sorted(self._txs),
            "spenders": sorted(
                (ref[0], ref[1], spender) for ref, spender in self._spender.items()
            ),
            "utxos": sorted(
                (ref[0], ref[1], tuple(doc["public_keys"]), doc["amount"])
                for ref, doc in self._utxos.items()
            ),
            "open_requests": sorted(self._open_requests),
            "requests_by_capability": {
                capability: sorted(ids)
                for capability, ids in sorted(self._requests_by_capability.items())
                if ids
            },
            "capability_demand": dict(sorted(self._capability_demand.items())),
            "bids_by_request": {
                request_id: sorted(ids)
                for request_id, ids in sorted(self._bids_by_request.items())
                if ids
            },
            "accept_by_request": dict(sorted(self._accept_by_request.items())),
        }
