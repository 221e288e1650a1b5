"""The SmartchainDB server: the replicated application behind consensus.

Each validator node runs one :class:`SmartchainServer` — the Python
"Server" of the paper's architecture (Fig. 4) — owning:

* the node-local document store (MongoDB stand-in) with the SmartchainDB
  collection layout;
* the two-phase transaction validator (schema + per-type semantics);
* the nested-transaction processor (ReturnQueue + recovery log);
* a calibrated cost model translating real validation work into
  simulated seconds.

It implements the consensus layer's :class:`~repro.consensus.abci.Application`
protocol: ``check_tx`` (mempool admission), ``deliver_tx`` (the third
validation set, stateful), ``commit_block`` (persist + trigger children).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.encoding import FrozenMemo, collector_paused, deep_copy_json
from repro.common.errors import DuplicateKeyError, ValidationError
from repro.consensus.types import Block, TxEnvelope
from repro.core.context import REDIRECT_MARKER, ValidationContext, spent_error
from repro.core.entries import (
    SHARD_EXPORT,
    SHARD_IMPORT,
    attached_payload,
    imported_utxos,
    is_entry,
    refs_of,
    verify_entry,
)
from repro.core.nested import NestedTransactionProcessor
from repro.core.parallel import ConflictScheduler, block_schedule
from repro.core.transaction import ACCEPT_BID, RETURN, OutputRef
from repro.core.validation import TransactionValidator
from repro.crypto.keys import ReservedAccounts
from repro.sim.clock import SimClock
from repro.storage.database import Database, make_smartchaindb_database
from repro.telemetry import INERT

#: Parallel conflict-free validation lanes per node; the declarative
#: access sets make the partition exact, so lanes change block-validation
#: time, never verdicts.
VALIDATION_LANES = 4


@dataclass
class ServerCostModel:
    """Simulated compute costs of the SmartchainDB server (seconds).

    Calibrated against the paper's Experiment 1 operating point
    (BID latency ~0.1 s, throughput ~43 tps on 4 nodes).  The decisive
    *structural* property is that per-transaction cost is a constant plus
    a negligible per-byte term — indexed lookups and built-in caching
    keep semantic validation independent of payload size, which is why
    SCDB's curves stay flat as transactions grow (Section 5.2.1).
    """

    schema_check: float = 0.0006
    signature_verify: float = 0.0012
    semantic_base: dict[str, float] = field(
        default_factory=lambda: {
            "CREATE": 0.004,
            "TRANSFER": 0.005,
            "REQUEST": 0.0045,
            "BID": 0.0065,
            "ACCEPT_BID": 0.009,
            "RETURN": 0.005,
            # Cross-shard system entries read no ledger state beyond the
            # outputs they name.  Carried evidence (an entry's, or a
            # spend's attachments) is charged by its bytes only, not by
            # its certificates' precommit checks (benchmarks/EXPERIMENTS.md
            # § Replay determinism has what charging them would cost).
            "SHARD_CONSUME": 0.002,
            "SHARD_EXPORT": 0.002,
            "SHARD_IMPORT": 0.002,
        }
    )
    #: Hashing/serialisation: seconds per payload byte (tiny, flat-ish).
    per_byte: float = 2.0e-8
    #: Per-block storage commit: base + per-byte disk write.  A replicated
    #: MongoDB block write (transactions + assets + utxos + recovery
    #: bookkeeping) costs tens of milliseconds; pipelining hides it from
    #: the critical path, which is exactly what the pipelining ablation
    #: measures.
    commit_base: float = 0.02
    commit_per_byte: float = 5.0e-9

    def validation_cost(self, operation: str, size_bytes: int) -> float:
        base = self.semantic_base.get(operation, 0.005) if isinstance(operation, str) else 0.005
        return self.schema_check + self.signature_verify + base + size_bytes * self.per_byte

    def block_commit_cost(self, size_bytes: int) -> float:
        return self.commit_base + size_bytes * self.commit_per_byte



#: Frozen payload -> the rows its commit stores, and block -> its
#: ``blocks`` row: built once per process and shared by reference by
#: every replica's collections, which then encode each once.
_ROWS = FrozenMemo(4096)


def commit_rows(payload: dict[str, Any]) -> tuple[dict, dict | None, list[dict]]:
    """``(stored form, asset row or None, UTXO rows)`` of a committed
    payload: an entry is stored without its evidence (it did its work at
    delivery and is outside the entry's id; the block record keeps it for
    replay), an import's outputs come from its own payloads."""
    rows = _ROWS.get(payload)
    if rows is None:
        stored = payload
        if is_entry(payload):
            stored = {k: v for k, v in payload.items() if k != "evidence"}
        asset = payload.get("asset") or {}
        asset_row = {"id": payload["id"], "data": asset.get("data")} if "data" in asset else None
        utxo_rows = imported_utxos(payload) if payload.get("operation") == SHARD_IMPORT else []
        for index, output in enumerate(payload.get("outputs", [])):
            utxo_rows.append(
                {
                    "transaction_id": payload["id"],
                    "output_index": index,
                    "public_keys": output.get("public_keys", []),
                    "amount": output.get("amount"),
                }
            )
        rows = _ROWS.put(payload, (stored, asset_row, utxo_rows))
    return rows


class SmartchainServer:
    """One node's application state machine."""

    def __init__(
        self,
        node_id: str,
        reserved: ReservedAccounts,
        clock: SimClock | None = None,
        cost_model: ServerCostModel | None = None,
        durability: Any = None,
    ):
        self.node_id = node_id
        self.reserved = reserved
        self.clock = clock or SimClock()
        self.costs = cost_model or ServerCostModel()
        #: Optional :class:`~repro.durability.node.NodeDurability`: when
        #: set, the database keeps the bytes its checkpoints splice and
        #: the node can be rebuilt purely from its disk (its chain is the
        #: log of its collections).
        self.durability = durability
        #: Conflict-lane scheduler for block validation.
        self.scheduler = ConflictScheduler(lanes=VALIDATION_LANES)
        self.database: Database = make_smartchaindb_database(name=f"smartchaindb-{node_id}")
        if durability is not None:
            self.database.make_durable()
        self.validator = TransactionValidator()
        self.context = ValidationContext(self.database, reserved)
        self.nested = NestedTransactionProcessor(reserved.escrow, self.database)
        #: The shard this node serves, every shard's validator keys and
        #: the system entries' authors' keys (set by a sharded
        #: deployment): what cross-shard evidence and entry signatures are
        #: checked against (:mod:`repro.core.entries`).
        self.shard_id = ""
        self.shard_keys: dict[str, dict[str, str]] = {}
        self.entry_authors: dict[str, str] = {}
        #: Admission-only oracles a sharded deployment installs (DeliverTx
        #: never reads them): who holds an output off the chain, and
        #: ``payload -> refusal reason | None`` gates.
        self.spend_guard: Callable[[OutputRef], str | None] | None = None
        self.ingress_gates: list[Callable[[dict[str, Any]], str | None]] = []
        #: The deployment's :class:`~repro.telemetry.Telemetry` (set by
        #: the cluster; a bare server records into the inert one).
        self.telemetry = INERT
        self.telemetry_label = node_id
        #: The deployment's :class:`~repro.views.ViewManager` + the shard
        #: key this node's blocks apply under (set by every cluster; None
        #: on a bare server).  Reads serve from them instead of scanning
        #: collections: they apply each block at its first commit, so no
        #: node's chain is ahead of them.
        self.views = None
        self.views_shard = ""
        #: Which side served each read: the one read counter (the harness
        #: and the tests read it; reads add no telemetry series).
        self.read_stats = {"view_served": 0, "scan_fallback": 0}
        self.stats = {
            "checked": 0,
            "delivered": 0,
            "rejected": 0,
            "committed": 0,
            "accepts_processed": 0,
            "returns_confirmed": 0,
        }

    # -- receiver-node validation (Fig. 4, "Validate Tx") ----------------------

    def adopt_database(self, database: Database) -> None:
        """Serve ``database`` (a restart's rebuilt store) with a fresh
        validation context and nested-transaction processor."""
        self.database = database
        self.context = ValidationContext(database, self.reserved)
        self.nested = NestedTransactionProcessor(self.reserved.escrow, database)

    def receiver_validate(self, payload: dict[str, Any], attachments=()) -> None:
        """Full semantic validation at the randomly chosen receiver node,
        then the spend guard.

        Raises:
            ValidationError / SchemaValidationError on rejection — the
            Driver surfaces these through its callback.
        """
        self.context.now = self.clock.now
        staged = self._stage_attachments(attachments)
        try:
            self.validator.validate(self.context, payload)
        finally:
            self.context.unstage(staged)
        guarded = self._guarded_spender(payload)
        if guarded is not None:
            ref, holder = guarded
            raise spent_error(ref, holder)
        tracer = self.telemetry.tracer
        if tracer.sampled(payload.get("id", "")):
            # Receiver-side semantic validation includes the Ed25519
            # check — the "signature verify" stage of the lifecycle.
            tracer.event(payload["id"], "signature_verified", node=self.telemetry_label)

    # -- Application protocol ----------------------------------------------------

    def check_tx(self, envelope: TxEnvelope) -> bool:
        """CheckTx: stateless re-validation before mempool admission —
        plus the spend guard and the ingress gates.  Admission (not
        delivery) is where remote locks must bite: an envelope gossiped
        or injected directly into a node's mempool never passed the
        facade's receiver validation, and once it is pooled nothing
        before delivery would notice its inputs are locked by a
        cross-shard spend.  Per-node and advisory, so the time-varying
        lock table is safe to consult here."""
        self.stats["checked"] += 1
        return self.refusal(envelope) is None

    def refusal(self, envelope: TxEnvelope) -> str | None:
        """Why :meth:`check_tx` refuses ``envelope`` now, or None: what a
        client hears when a validator drops it from its pool (a
        ``redirect`` reason is the driver's to retry elsewhere)."""
        payload = envelope.payload
        if not isinstance(payload, dict):  # a peer's proposal may carry anything
            return "not a transaction"
        try:
            if is_entry(payload):
                # A system entry spends what the locks and fences guard,
                # by its author's decision: its signature and evidence,
                # not the guards or the client gates, decide.
                self._verify_entry(payload)
                return None
            for attachment in envelope.attachments:
                attached_payload(attachment, self.shard_keys, self.validator.check_tx)
        except ValidationError as error:
            return str(error)
        if not self.validator.check_tx(payload):
            return "fails its schema, id or signature check"
        guarded = self._guarded_spender(payload)
        if guarded is not None:
            return str(spent_error(*guarded))
        reasons = (gate(payload) for gate in self.ingress_gates)
        return next((reason for reason in reasons if reason is not None), None)

    def _guarded_spender(self, payload: dict[str, Any]) -> tuple[OutputRef, str] | None:
        """The first input the spend guard holds, or that an export on this
        chain moved away (only sharded deployments install a guard or take
        exports), with its holder."""
        guard = self.spend_guard
        if guard is None:
            return None
        for item in payload.get("inputs", []):
            fulfills = item.get("fulfills")
            if not fulfills:
                continue
            ref = OutputRef(fulfills["transaction_id"], fulfills["output_index"])
            holder = guard(ref)
            if holder is None:
                spender = self.context.output_spender(ref)
                if spender is not None and spender.startswith(REDIRECT_MARKER):
                    holder = spender
            if holder is not None:
                return ref, holder
        return None

    def check_block(self, envelopes: list[TxEnvelope]) -> list[bool]:
        """:meth:`check_tx` over a block's envelopes, in block order."""
        return [self.check_tx(envelope) for envelope in envelopes]

    def deliver_tx(self, envelope: TxEnvelope) -> bool:
        """DeliverTx: the final stateful validation before mutating state.

        Reads the validation context alone — committed + staged state —
        so every replica reaches the same verdict for the same block.
        """
        self.context.now = self.clock.now
        payload = envelope.payload
        staged: list[str] = []
        try:
            if is_entry(payload):
                self._validate_entry(payload)
                if payload["operation"] == SHARD_IMPORT:
                    staged = self.context.stage_references(payload["payloads"])
            elif self.context.get_tx(payload["id"]) is not None:
                # Stored already, as a reference copy: this ledger holds
                # it but its outputs live where it committed.
                raise ValidationError(f"{envelope.tx_id[:8]} is already on this ledger")
            else:
                staged = self._stage_attachments(envelope.attachments)
                self.validator.validate_semantics(self.context, payload)
        except ValidationError:
            self.context.unstage(staged)
            self.stats["rejected"] += 1
            return False
        # Frozen at the submit boundary: staged, stored and journaled by
        # reference from here on.
        self.context.stage(payload)
        self.stats["delivered"] += 1
        if envelope.trace_flags & 1:
            self.telemetry.tracer.event(envelope.tx_id, "delivered", node=self.telemetry_label)
        return True

    def _stage_attachments(self, attachments) -> list[str]:
        """Verify a cross-shard spend's attachments and stage their
        payloads for its validation; returns the staged ids.

        Raises:
            ValidationError: if any attachment's evidence fails.
        """
        if not attachments:
            return []
        check = self.validator.check_tx
        return self.context.stage_references(
            [attached_payload(item, self.shard_keys, check) for item in attachments]
        )

    def _verify_entry(self, entry: dict[str, Any]) -> None:
        verify_entry(
            entry, self.shard_keys, self.entry_authors, self.validator.check_tx, self.shard_id
        )

    def _validate_entry(self, entry: dict[str, Any]) -> None:
        """DeliverTx of a system entry: its signature and evidence, then
        the one ledger rule — an export names only outputs this chain
        holds unspent."""
        self._verify_entry(entry)
        if entry["operation"] == SHARD_EXPORT:
            for tx_id, index in refs_of(entry):
                self.context.require_committed(tx_id, "exported")
                self.context.require_unspent(OutputRef(tx_id, index))

    def commit_block(self, block: Block, delivered: list[TxEnvelope]) -> None:
        """Persist the block and its transactions; trigger nested children.
        The rows built here from frozen payloads are stored by reference."""
        transactions = self.database.collection("transactions")
        assets = self.database.collection("assets")
        utxos = self.database.collection("utxos")
        blocks = self.database.collection("blocks")

        ids = [envelope.tx_id for envelope in delivered]
        block_row = _ROWS.get(block)
        if block_row is None or block_row["transaction_ids"] != ids:
            block_row = _ROWS.put(
                block,
                {
                    "height": block.height,
                    "block_id": block.block_id,
                    "proposer": block.proposer,
                    "transaction_ids": ids,
                },
            )
        blocks.insert_one(block_row, copy=False)
        accepted_payloads: list[dict[str, Any]] = []
        fresh_utxos: list[dict[str, Any]] = []
        spent_in_block: set[tuple[str, int]] = set()
        def store(payload: dict[str, Any]) -> None:
            try:
                transactions.insert_one(payload, copy=False)
            except DuplicateKeyError:
                # Already here as a cross-shard reference copy: delivery
                # adds the local effects below, the stored payload is the
                # same.
                pass

        for envelope in delivered:
            payload = envelope.payload
            for attachment in envelope.attachments:
                store(attachment["payload"])
            stored, asset_row, utxo_rows = commit_rows(payload)
            store(stored)
            if payload.get("operation") == SHARD_IMPORT:
                for carried in payload["payloads"]:
                    store(carried)
            fresh_utxos.extend(utxo_rows)
            if asset_row is not None:
                assets.insert_one(asset_row, copy=False)
            # UTXO maintenance: consume pre-existing spent refs now, and
            # group-commit the block's fresh outputs in one batched write
            # below — minus any output a later transaction in this same
            # block already spends (intra-block chains must not resurrect).
            for item in payload.get("inputs", []):
                fulfills = item.get("fulfills")
                if fulfills:
                    ref = (fulfills["transaction_id"], fulfills["output_index"])
                    spent_in_block.add(ref)
                    utxos.delete_many(
                        {"transaction_id": ref[0], "output_index": ref[1]}
                    )
            if payload.get("operation") == ACCEPT_BID:
                accepted_payloads.append(payload)
            elif payload.get("operation") == RETURN:
                self.nested.on_return_committed(payload)
                self.stats["returns_confirmed"] += 1
            self.stats["committed"] += 1

        utxos.insert_many(
            [
                document
                for document in fresh_utxos
                if (document["transaction_id"], document["output_index"])
                not in spent_in_block
            ],
            copy=False,
        )
        self.context.clear_staged()

        # Non-locking nested processing (Algorithm 3, Commit part): every
        # replica logs the committed parent; its receiver builds the children.
        for payload in accepted_payloads:
            metadata = payload.get("metadata") or {}
            rfq_id = metadata.get("rfq_id") or (payload.get("references") or [None])[0]
            if rfq_id is None:
                continue
            locked = self.context.locked_bids(rfq_id)
            self.nested.on_accept_committed(payload, locked)
            self.stats["accepts_processed"] += 1

    # -- cost model --------------------------------------------------------------

    def execution_cost(self, envelope: TxEnvelope) -> float:
        payload = envelope.payload if isinstance(envelope.payload, dict) else {}
        operation = payload.get("operation", "TRANSFER")
        return self.costs.validation_cost(operation, envelope.size_bytes)

    def block_validation_cost(self, envelopes: list[TxEnvelope]) -> float:
        """Simulated seconds to validate one block's transactions.

        The declarative access sets partition the block into conflict
        groups before execution (Section 6's "higher level of
        abstraction"), so independent transactions validate in parallel
        lanes and the block charge is ``max(lane sums)``, not the serial
        sum — the paper's modelled speedup made real on the commit path.
        The proposer and its checkers share one schedule per block.  A
        block with a payload that is not a mapping (which CheckTx refuses)
        declares no access sets and is charged serially.
        """
        if len(envelopes) <= 1 or not all(isinstance(e.payload, dict) for e in envelopes):
            return sum(self.execution_cost(envelope) for envelope in envelopes)
        schedule = block_schedule(self.scheduler, self.costs, envelopes, self.execution_cost)
        return schedule.parallel_cost

    def commit_cost(self, block: Block) -> float:
        return self.costs.block_commit_cost(block.size_bytes)

    # -- queries (the "reliable queryability" the storage model enables) -----------

    def get_transaction(self, tx_id: str) -> dict[str, Any] | None:
        return self.database.collection("transactions").find_one({"id": tx_id})

    def open_requests(
        self, capability: str | None = None, source: str = "auto"
    ) -> list[dict[str, Any]]:
        """Open RFQs, optionally filtered by requested capability —
        the query the paper's Section 2.1 laments smart contracts cannot
        answer ("finding open service requests for 3-D printing").

        ``source`` selects the read path: ``"auto"`` and ``"views"``
        serve from the commit-fed materialized views when they are
        attached, ``"scan"`` scans the collections (the reference path of
        the golden parity tests).
        """
        if source != "scan" and self.views is not None:
            self.read_stats["view_served"] += 1
            with collector_paused():
                return [
                    deep_copy_json(request)
                    for request in self.views.open_requests(capability, shard=self.views_shard)
                ]
        self.read_stats["scan_fallback"] += 1
        # Scan zero-copy; only the surviving open requests are copied for
        # the caller, instead of every committed REQUEST.
        requests = self.database.collection("transactions").find(
            {"operation": "REQUEST"}, copy=False
        )
        if not requests:
            return []
        accepted = self.context.accepted_request_ids()
        open_requests = []
        with collector_paused():
            for request in requests:
                if request["id"] in accepted:
                    continue
                if capability is not None:
                    data = (request.get("asset") or {}).get("data") or {}
                    if capability not in (data.get("capabilities") or []):
                        continue
                open_requests.append(deep_copy_json(request))
        return open_requests

    def outputs_for(
        self, public_key: str, source: str = "auto"
    ) -> list[dict[str, Any]]:
        """Unspent outputs held by an account (wallet view).

        Same ``source`` contract as :meth:`open_requests`.
        """
        if source != "scan" and self.views is not None:
            self.read_stats["view_served"] += 1
            return self.views.owned_outputs_for(public_key, shard=self.views_shard)
        self.read_stats["scan_fallback"] += 1
        return self.database.collection("utxos").find({"public_keys": public_key})
