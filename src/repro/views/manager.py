"""Incrementally maintained materialized views over committed blocks.

The :class:`ViewManager` applies each shard's committed blocks, as the
``(tx_id, payload)`` pairs DeliverTx accepted, and maintains every hot
read set the marketplace queries need, so analytics and wallet reads
stop re-scanning the transactions collection per call.

Design points:

- **Commit-fed, once per height.**  Each shard's
  :class:`~repro.views.feed.ChangeFeed` hands over every height once,
  in height order, at its first quorum-certified commit.  A height that
  is not the shard's applied height + 1 means a broken feed: it raises
  instead of being buffered or dropped.
- **Order-robust across shards.**  A deployment-level manager merges
  per-shard feeds whose interleaving is nondeterministic.  Every table
  is defined so the *final* state is independent of cross-shard apply
  order: a spent output never resurrects (the spender map is consulted
  on insert), and a REQUEST whose ACCEPT_BID applied first is born
  settled.
- **Internal references, copied at the serving edge.**  Like the
  zero-copy collection scans, the manager stores references to the
  committed payloads; the server/replica layer copies what it hands to
  callers (:meth:`ViewManager.owned_outputs_for` for wallet reads).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.asset import extract_capabilities
from repro.core.entries import SHARD_IMPORT, is_entry, refs_of


class FlipMemo:
    """Kept ownership-loop findings for one ``max_hops``: the manager
    marks assets dirty as blocks apply, and
    :func:`repro.analytics.fraud.rapid_flips` re-walks them."""

    __slots__ = ("dirty", "kept", "ordered")

    def __init__(self, dirty: Iterable[str]):
        #: CREATE ids to re-walk, as an ordered set.
        self.dirty: dict[str, None] = dict.fromkeys(dirty)
        #: CREATE id -> its finding.
        self.kept: dict[str, Any] = {}
        #: ``kept``'s values in CREATE order.
        self.ordered: list[Any] = []


class ViewManager:
    """Materialized views over the committed transaction stream."""

    def __init__(self, telemetry=None, telemetry_label: str = "views"):
        self.telemetry = telemetry
        self.telemetry_label = telemetry_label
        #: tx_id -> committed payload (reference, not a copy).
        self._txs: dict[str, dict[str, Any]] = {}
        #: tx_id -> shard key that committed it (for per-shard serving).
        self._tx_shard: dict[str, str] = {}
        #: tx_id -> shard key whose ``SHARD_IMPORT`` last took its
        #: outputs.  Kept apart from ``_tx_shard`` (and from the
        #: consistency snapshot): a transaction's outputs can change owner
        #: shard long after its committing feed record was applied, and
        #: may even re-attribute *before* that record arrives — the
        #: override wins either way.
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
        #: shard key -> highest applied height.
        self._heights: dict[str, int] = {}
        #: max_hops -> :class:`FlipMemo`, kept here because analyzers are
        #: rebuilt per refresh.  Derived state, so not part of the
        #: consistency snapshot.
        self._flip_memos: dict[int, FlipMemo] = {}
        self.stats = {
            "blocks_applied": 0,
            #: Always 0 (each height arrives once); the e2e harness reports it.
            "blocks_duplicate": 0,
            "txs_applied": 0,
            "custody_walks": 0,
        }

    # -- ingestion -------------------------------------------------------------

    # Named for the journal records it once took: benchmarks/e2e/spans.py binds it.
    def apply_block_record(
        self, shard: str, height: int, txs: list[tuple[str, dict[str, Any]]]
    ) -> None:
        """Apply the ``(tx_id, payload)`` pairs block ``height`` of
        ``shard`` delivered (never the ones DeliverTx refused).

        Raises ValueError unless ``height`` is the shard's applied height
        + 1: the commit feed delivers each height once and in order.
        """
        applied = self._heights.get(shard, 0)
        if height != applied + 1:
            raise ValueError(f"views of {shard} at height {applied} got block {height}")
        for tx_id, payload in txs:
            self._apply_tx(shard, tx_id, payload)
        self._heights[shard] = height
        self.stats["blocks_applied"] += 1
        self.stats["txs_applied"] += len(txs)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("view_blocks_applied", node=self.telemetry_label).inc()
            tel.histogram("view_apply_txs", node=self.telemetry_label).observe(float(len(txs)))

    def _apply_tx(self, shard: str, tx_id: str, payload: dict[str, Any]) -> None:
        if tx_id in self._txs or is_entry(payload):
            # Cross-shard system entries move outputs between shards'
            # ledgers; the deployment-wide views already saw the spend
            # (or, for a migration, the outputs) where it committed, and
            # an import only re-attributes the outputs it takes.
            if payload.get("operation") == SHARD_IMPORT:
                for moved, _index in refs_of(payload["export"]):
                    self._shard_overrides[moved] = shard
            return
        self._txs[tx_id] = payload
        self._tx_shard[tx_id] = shard
        operation = payload.get("operation", "?")
        self._op_counts[operation] = self._op_counts.get(operation, 0) + 1
        self._by_operation.setdefault(operation, []).append(tx_id)
        if self._flip_memos and operation in ("CREATE", "TRANSFER"):
            asset = self._custody_root(tx_id)
            for memo in self._flip_memos.values():
                memo.dirty[asset] = None

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
        """Highest applied block height for one shard."""
        return self._heights.get(shard, 0)

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
        # Every ref is served by ``shard`` when its blocks are the only
        # ones applied and no migration re-homed anything: nothing to drop.
        if shard is None or (
            not self._shard_overrides and len(self._heights) == 1 and shard in self._heights
        ):
            return [self._utxos[ref] for ref in refs]
        return [
            self._utxos[ref]
            for ref in refs
            if self._shard_of(ref[0]) == shard
        ]

    def owned_outputs_for(
        self, public_key: str, shard: str | None = None
    ) -> list[dict[str, Any]]:
        """:meth:`outputs_for` as documents the caller owns: a shallow copy
        of each (``_apply_tx`` makes every view UTXO with exactly four
        fields, three of them scalars) with a fresh ``public_keys`` list."""
        owned = []
        for document in self.outputs_for(public_key, shard):
            copy = document.copy()
            copy["public_keys"] = list(copy["public_keys"])
            owned.append(copy)
        return owned

    def _shard_of(self, tx_id: str) -> str | None:
        """Serving shard of a transaction's outputs: migration override
        first, committing shard otherwise."""
        override = self._shard_overrides.get(tx_id)
        if override is not None:
            return override
        return self._tx_shard.get(tx_id)

    def transaction(self, tx_id: str) -> dict[str, Any] | None:
        return self._txs.get(tx_id)

    def flip_memo(self, max_hops: int) -> FlipMemo:
        """The kept ``rapid_flips`` findings for ``max_hops``; a new memo
        starts with every applied CREATE dirty."""
        memo = self._flip_memos.get(max_hops)
        if memo is None:
            memo = self._flip_memos[max_hops] = FlipMemo(
                self._by_operation.get("CREATE", ())
            )
        return memo

    def _custody_root(self, tx_id: str) -> str:
        """The CREATE whose custody walk an applied CREATE or TRANSFER
        can change.

        The lineage rule lets a TRANSFER declare as ``asset.id`` either
        its asset or the transaction whose output it spends, so follow
        applied TRANSFERs' declared ids down to the CREATE.  A link not
        applied yet is returned as it is: no walk reaches past it before
        it applies, and its own apply marks the root then.
        """
        asset = tx_id
        payload = self._txs.get(asset)
        while payload is not None and payload.get("operation") == "TRANSFER":
            asset = (payload.get("asset") or {}).get("id")
            payload = self._txs.get(asset)
        return asset

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
