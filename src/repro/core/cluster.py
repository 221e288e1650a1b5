"""The SmartchainDB cluster: servers + Tendermint + network, assembled.

This is the top-level object examples and benchmarks interact with: it
owns the simulated event loop, the validator network, one
:class:`~repro.core.server.SmartchainServer` per node, the
:class:`~repro.core.driver.Driver`, nested-transaction workers and the
latency/throughput records the evaluation section measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.encoding import canonical_bytes, deep_copy_json, frozen_bytes
from repro.common.errors import SchemaValidationError, ValidationError
from repro.consensus.abci import deliver_block, envelope_for
from repro.consensus.bft import BftConfig, BftEngine, CommitRecord
from repro.consensus.types import Block, TxEnvelope
from repro.consensus.tendermint import make_tendermint_cluster, tendermint_config
from repro.core.driver import Driver, DriverCallback
from repro.core.entries import SHARD_IMPORT
from repro.core.server import ServerCostModel, SmartchainServer
from repro.core.transaction import ACCEPT_BID
from repro.crypto.keys import ReservedAccounts
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import RecoveredState, checkpoint_state, recover
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import SeededRng
from repro.storage.database import make_smartchaindb_database
from repro.telemetry import DEFAULT_SAMPLE_RATE, TRACE_SAMPLED, Telemetry
from repro.views import ChangeFeed, ViewManager


@dataclass
class TxRecord:
    """Lifecycle record for one submitted transaction."""

    tx_id: str
    operation: str
    size_bytes: int
    submitted_at: float
    committed_at: float | None = None
    rejected: str | None = None

    @property
    def latency(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


@dataclass
class ClusterConfig:
    """Everything tunable about a SmartchainDB deployment."""

    n_validators: int = 4
    seed: int = 2024
    consensus: BftConfig = field(default_factory=lambda: tendermint_config(max_block_txs=8))
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cost_model: ServerCostModel = field(default_factory=ServerCostModel)
    #: Register the INTEREST / PRE_REQUEST extension types on every node.
    enable_extensions: bool = False
    #: Delay before nested-transaction workers pick up queued RETURNs.
    worker_poll_interval: float = 0.002
    #: Parallel RETURN workers per receiver node.  An ACCEPT_BID's
    #: receiver alone determines its RETURN children, and its enqueue
    #: starts this many workers on that node.
    worker_parallelism: int = 4
    #: Per-node durability stack (WAL + group commit + checkpoints).  None
    #: keeps the abstract always-durable storage model; set to a
    #: :class:`~repro.durability.node.DurabilityConfig` to journal every
    #: block and enable :meth:`SmartchainCluster.restart_node_from_disk`.
    #: Reads serve from the commit-fed views (:mod:`repro.views`) either way.
    durability: DurabilityConfig | None = None
    #: Fraction of transactions whose lifecycle timeline is traced.
    #: Metrics (histograms/counters/gauges) are never sampled.
    trace_sample_rate: float = DEFAULT_SAMPLE_RATE


class SmartchainCluster:
    """A full SmartchainDB deployment on a simulated network.

    Args:
        config: deployment parameters.
        loop: optional shared event loop — a sharded deployment composes
            several clusters on one loop so their simulated time advances
            together and cross-shard protocols interleave with consensus.
        telemetry: optional shared :class:`~repro.telemetry.Telemetry` —
            a sharded deployment hands every shard one instance so
            cross-shard traces stitch in one tracer; pass
            :data:`~repro.telemetry.INERT` to record nothing.
        scope: label prefix for this cluster's metric series ("shard-0")
            so node ids stay unique across shards in one registry.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        loop: EventLoop | None = None,
        telemetry: Telemetry | None = None,
        scope: str = "",
        views=None,
    ):
        self.config = config or ClusterConfig()
        self.loop = loop or EventLoop()
        self.rng = SeededRng(self.config.seed)
        self.scope = scope
        if telemetry is not None:
            self.telemetry = telemetry
        else:
            self.telemetry = Telemetry(
                self.loop.clock,
                # Salt from a named seeded stream: sampling verdicts replay
                # byte-identically and consume no other stream's draws.
                sample_salt=self.rng.stream("telemetry").getrandbits(64),
                sample_rate=self.config.trace_sample_rate,
            )
        self.network = Network(self.loop, self.rng, self.config.network)
        self.reserved = ReservedAccounts()
        self.servers: dict[str, SmartchainServer] = {}
        #: Per-node persistence stacks (empty when durability is off).
        self.node_durability: dict[str, NodeDurability] = {}

        def factory(node_id: str) -> SmartchainServer:
            durability = None
            if self.config.durability is not None:
                durability = NodeDurability(
                    node_id, self.loop, self.config.durability
                )
                self.node_durability[node_id] = durability
            server = SmartchainServer(
                node_id,
                self.reserved,
                clock=self.loop.clock,
                cost_model=self.config.cost_model,
                durability=durability,
            )
            if self.config.enable_extensions:
                from repro.core.extensions import register_marketplace_extensions

                register_marketplace_extensions(server.validator)
            server.telemetry = self.telemetry
            server.telemetry_label = self.node_label(node_id)
            server.shard_id = self.view_shard_key
            if durability is not None:
                durability.log.telemetry = self.telemetry
                durability.log.telemetry_label = self.node_label(node_id)
            self.servers[node_id] = server
            return server

        self.engine: BftEngine = make_tendermint_cluster(
            self.loop,
            self.network,
            factory,
            n_validators=self.config.n_validators,
            config=self.config.consensus,
        )
        self.failures = FailureInjector(self.loop, self.network)
        for node_id in self.engine.validator_order:
            validator = self.engine.validator(node_id)
            validator.telemetry = self.telemetry
            validator.telemetry_label = self.node_label(node_id)
            validator.mempool.telemetry = self.telemetry
            validator.mempool.telemetry_label = self.node_label(node_id)
            self.failures.register_callbacks(
                node_id,
                on_crash=lambda nid=node_id: self._on_node_crash(nid),
                on_recover=lambda nid=node_id: self.resync_node(nid),
            )
            self._wire_nested(node_id)
            durability = self.node_durability.get(node_id)
            if durability is not None:
                validator.persistence = durability
                durability.state_provider = (
                    lambda full, nid=node_id: self._node_checkpoint_state(nid, full)
                )

        #: Deployment-level :class:`~repro.views.ViewManager` (shared by
        #: a sharded facade, owned by a standalone cluster), fed once per
        #: height by this shard's commits.
        self.views = views if views is not None else ViewManager(
            telemetry=self.telemetry, telemetry_label=self.view_shard_key
        )
        # Ahead of _on_block_commit: the views apply a block before any
        # commit callback fires.
        self.engine.commit_listeners.append(
            ChangeFeed(self.views, self.view_shard_key)._on_flush
        )
        for server in self.servers.values():
            server.views = self.views
            server.views_shard = self.view_shard_key

        self.driver = Driver(self)
        self.records: dict[str, TxRecord] = {}
        #: tx id -> height of the block that delivered it, and the ids a
        #: block carried but DeliverTx refused (what :meth:`landed` and
        #: :meth:`commit_evidence` read).  One int per committed tx, like
        #: ``records``: any committed payload may later be a foreign input.
        self._heights: dict[str, int] = {}
        self._refused: set[str] = set()
        #: Ids a crash took with the only live pool holding them: unless a
        #: proposal already in flight carries one, no client hears of it
        #: (the ``all_settled`` invariant exempts them).
        self.crash_lost: set[str] = set()
        self._callbacks: dict[str, DriverCallback] = {}
        #: accept_id -> receiver node responsible for its RETURN children.
        self._accept_receivers: dict[str, str] = {}
        self.engine.commit_listeners.append(self._on_block_commit)
        self.engine.drop_listeners.append(self._on_pool_drop)

    def node_label(self, node_id: str) -> str:
        """Registry label for one node, unique across a sharded deployment."""
        return f"{self.scope}/{node_id}" if self.scope else node_id

    @property
    def view_shard_key(self) -> str:
        """Key this cluster's blocks apply under in a view manager."""
        return self.scope or "main"

    # -- submission path -----------------------------------------------------------

    def submit_payload(
        self,
        payload: dict[str, Any],
        callback: DriverCallback | None = None,
        receiver: str | None = None,
        shard_hint: str | None = None,
        _retry: bool = False,
        attachments: tuple = (),
    ):
        """Route a payload to a (random) receiver node — Fig. 4 lifecycle.

        The receiver performs full semantic validation (charged to the
        simulated clock), then gossips the transaction into mempools.

        ``shard_hint`` exists for driver compatibility with sharded
        deployments; a single cluster is its own (only) shard and ignores
        the hint.  ``attachments`` ride in the envelope (a cross-shard
        spend's certified foreign inputs, see :mod:`repro.core.entries`).
        """
        from repro.core.driver import SubmitResult  # local import to avoid cycle

        tx_id = payload.get("id", "")
        operation = payload.get("operation", "?")
        existing = self.records.get(tx_id)
        if existing is not None and existing.rejected is None and not _retry:
            # Already in flight or committed (e.g. a RETURN child that
            # recovery re-enqueued): keep the original record.
            return SubmitResult(tx_id, operation, accepted=True)
        if not _retry:
            # The driver-to-cluster trust boundary: one deep copy here
            # means no caller-held reference can mutate the payload the
            # pipeline (and its identity-keyed admission memo) verifies,
            # stores and journals by reference from here on — the single
            # copy the zero-copy discipline keeps.
            payload = deep_copy_json(payload)
        # The one canonical encoding of the payload, frozen from here on:
        # sizes it here, then is what every durable replica journals.
        size_bytes = len(frozen_bytes(payload))
        wire_bytes = size_bytes + (
            len(canonical_bytes(list(attachments))) if attachments else 0
        )
        now = self.loop.clock.now
        record = TxRecord(tx_id, operation, size_bytes, submitted_at=now)
        self.records[tx_id] = record
        if callback is not None:
            self._callbacks[tx_id] = callback
        trace_flags = 0
        tel = self.telemetry
        tel.counter("tx_submitted", shard=self.scope or "main").inc()
        if tel.tracer.begin(tx_id, "submit", operation=operation, size=size_bytes):
            trace_flags = TRACE_SAMPLED

        receiver_id = receiver or self.rng.choice("receiver", self.engine.validator_order)
        if self.network.is_crashed(receiver_id):
            alive = [n for n in self.engine.validator_order if not self.network.is_crashed(n)]
            if not alive:
                record.rejected = "no live validators"
                return SubmitResult(tx_id, operation, accepted=False, error=record.rejected)
            receiver_id = alive[0]
        server = self.servers[receiver_id]
        if operation == ACCEPT_BID:
            self._accept_receivers[tx_id] = receiver_id

        cost = server.costs.validation_cost(operation, size_bytes)

        def receiver_step() -> None:
            if self.network.is_crashed(receiver_id):
                # Crash during initial validation: the driver re-triggers
                # after a timeout (Section 4.2.1 case 1).
                self.loop.schedule_in(
                    1.0,
                    lambda: self.submit_payload(
                        payload,
                        self._callbacks.get(tx_id),
                        _retry=True,
                        attachments=attachments,
                    ),
                )
                return
            try:
                server.receiver_validate(payload, attachments)
            except (SchemaValidationError, ValidationError) as error:
                # SchemaValidationError is a sibling of ValidationError in
                # the hierarchy; a structurally broken payload must reject
                # through the driver callback, not crash the event loop.
                record.rejected = str(error)
                if trace_flags & TRACE_SAMPLED:
                    self.telemetry.tracer.event(
                        tx_id,
                        "rejected",
                        node=self.node_label(receiver_id),
                        reason=str(error)[:80],
                    )
                self._fire_callback(tx_id, "rejected", str(error))
                return
            if trace_flags & TRACE_SAMPLED:
                self.telemetry.tracer.event(
                    tx_id, "receiver_validated", node=self.node_label(receiver_id)
                )
            envelope = envelope_for(
                payload,
                tx_id,
                wire_bytes,
                now=self.loop.clock.now,
                trace_flags=trace_flags,
                attachments=attachments,
            )
            self.engine.validator(receiver_id).submit_transaction(envelope)

        self.loop.schedule_in(cost, receiver_step)
        return SubmitResult(tx_id, operation, accepted=True)

    def submit_entry(self, entry: dict[str, Any], callback: DriverCallback | None = None) -> bool:
        """Submit a cross-shard system entry (built by a shard agent or
        the reshard controller) to this shard's chain.

        The author is deployment machinery, not a client: the entry skips
        the receiver's semantic validation (DeliverTx judges it on every
        replica) and enters the first live node's mempool through CheckTx,
        keeping no lifecycle record — it never counts as a committed
        transaction — and drawing no random receiver.  ``callback`` fires
        ("committed", entry) once a block delivers it, ("rejected", ...)
        if one carries it and DeliverTx refuses it.  Returns False when
        every node is down; the author re-drives the entry later.
        """
        for node_id in self.engine.validator_order:
            if self.network.is_crashed(node_id):
                continue
            if callback is not None:
                self._callbacks[entry["id"]] = callback
            envelope = envelope_for(
                entry, entry["id"], len(canonical_bytes(entry)), now=self.loop.clock.now
            )
            self.engine.validator(node_id).submit_transaction(envelope)
            return True
        return False

    def landed(self, tx_id: str) -> bool | None:
        """True once a block of this shard delivered ``tx_id``, False once
        one carried it and DeliverTx refused it (every replica judges
        alike, and a chain never delivers an id it already carried), None
        before."""
        if tx_id in self._heights:
            return True
        return False if tx_id in self._refused else None

    def pooled(self, tx_id: str) -> bool:
        """Is ``tx_id`` waiting in a live node's mempool?"""
        return any(
            tx_id in self.engine.validator(node_id).mempool
            for node_id in self.engine.validator_order
            if not self.network.is_crashed(node_id)
        )

    def commit_evidence(self, tx_id: str) -> dict[str, Any] | None:
        """``tx_id``'s payload as this shard stores it (by reference: the
        object validation already vouched for), with the header and
        commit certificate of the block that committed it — or, for a
        payload an import brought here, of the block that committed the
        import (named as the carrier).  None while no live node holds
        both."""
        carrier = None
        height = self._heights.get(tx_id)
        if height is None:
            imports = self.any_server().database.collection("transactions").find(
                {"operation": SHARD_IMPORT}, copy=False
            )
            carrier = next(
                (i for i in imports if tx_id in {p["id"] for p in i["payloads"]}), None
            )
            if carrier is None:
                return None
            height = self._heights[carrier["id"]]
        for node_id in self.engine.validator_order:
            validator = self.engine.validator(node_id)
            if self.network.is_crashed(node_id) or len(validator.chain) < height:
                continue
            cert = validator.commit_certs.get(height)
            transactions = self.servers[node_id].database.collection("transactions")
            payload = transactions.find_one({"id": tx_id}, copy=False)
            if cert is not None and payload is not None:
                header = validator.chain[height - 1].header
                evidence = {"shard": self.view_shard_key, "header": header, "cert": cert}
                evidence["payload"] = payload
                return evidence if carrier is None else dict(evidence, carrier=carrier)
        return None

    # -- commit handling --------------------------------------------------------------

    def _on_block_commit(self, record: CommitRecord) -> None:
        tracer = self.telemetry.tracer
        # A block can carry a transaction DeliverTx refuses (a certificate
        # proves inclusion, not acceptance): that one is rejected, not
        # committed — its callback must not tell a 2PC coordinator
        # otherwise.
        delivered = {envelope.tx_id for envelope in record.delivered}
        for envelope in record.block.transactions:
            tx_record = self.records.get(envelope.tx_id)
            if envelope.tx_id not in delivered:
                self._refused.add(envelope.tx_id)
                if tx_record is None or tx_record.committed_at is None:
                    if tx_record is not None:
                        tx_record.rejected = "refused at delivery"
                    self._fire_callback(envelope.tx_id, "rejected", "refused at delivery")
                continue
            self._heights.setdefault(envelope.tx_id, record.block.height)
            if tx_record is not None and tx_record.committed_at is None:
                tx_record.committed_at = record.committed_at
            if envelope.trace_flags & TRACE_SAMPLED:
                tracer.event(
                    envelope.tx_id,
                    "applied",
                    node=self.node_label(record.node_id),
                    height=record.block.height,
                )
            self._fire_callback(envelope.tx_id, "committed", envelope.payload)

    def _on_node_crash(self, node_id: str) -> None:
        """The crash empties the node's pool: note what no live peer pools."""
        validator = self.engine.validator(node_id)
        self.crash_lost.update(
            envelope.tx_id
            for envelope in validator.mempool.pending_envelopes()
            if not self.pooled(envelope.tx_id)
        )
        validator.on_crash()

    def _on_pool_drop(self, node_id: str, dropped: list[TxEnvelope]) -> None:
        """A validator's block check dropped what its CheckTx now refuses.
        Once no live pool holds one and no block carried it, its client
        hears that refusal: nothing else would ever answer it.  While a
        peer still pools it, that peer's own check or a commit decides."""
        server = self.servers[node_id]
        for envelope in dropped:
            tx_id = envelope.tx_id
            if self.pooled(tx_id) or self.landed(tx_id) is not None:
                continue
            reason = server.refusal(envelope)
            record = self.records.get(tx_id)
            if record is not None and record.committed_at is None:
                record.rejected = reason
            self._fire_callback(tx_id, "rejected", reason)

    def _fire_callback(self, tx_id: str, status: str, detail: Any) -> None:
        callback = self._callbacks.pop(tx_id, None)
        if callback is not None:
            callback(status, detail)

    # -- nested transaction workers -----------------------------------------------------

    def _wire_nested(self, node_id: str) -> None:
        """``node_id`` determines the RETURNs of the accepts it received
        (unknown ones: the first validator's) and wakes its own workers."""
        nested = self.servers[node_id].nested
        nested.is_receiver = lambda accept_id: node_id == self._accept_receivers.get(
            accept_id, self.engine.validator_order[0]
        )
        nested.wake = lambda: self._start_return_workers(node_id)

    def _start_return_workers(self, node_id: str) -> None:
        for _ in range(self.config.worker_parallelism):
            self.loop.schedule_in(self.config.worker_poll_interval, lambda: self._drain_one_return(node_id))

    def _drain_one_return(self, node_id: str) -> None:
        if self.network.is_crashed(node_id):
            return
        server = self.servers[node_id]
        job = server.nested.queue.get()
        if job is None:
            return
        # "RETURNs are sent to a randomly selected validator node" (4.2.1).
        target = self.rng.choice("return-target", self.engine.validator_order)
        self.submit_payload(job.payload, receiver=target)
        # Keep draining until the queue is empty.
        self.loop.schedule_in(self.config.worker_poll_interval, lambda: self._drain_one_return(node_id))

    def resync_node(self, node_id: str) -> None:
        """Bring one node back in step with the cluster: catch up missed
        blocks from a live peer and re-enqueue pending RETURNs from the
        durable log.  The crash-recovery path runs this, and it is safe
        on a node that never crashed — a healed partition leaves the
        minority side lagging exactly like a short outage does, so the
        chaos harness calls it after every heal."""
        self.engine.validator(node_id).on_recover()
        server = self.servers[node_id]
        server.nested.recover(server.context.locked_bids)

    # -- durability: checkpoints + restart-from-disk ---------------------------------

    def _node_checkpoint_state(self, node_id: str, full: bool) -> list[bytes]:
        """One node's checkpoint state, canonically encoded."""
        return checkpoint_state(
            self.servers[node_id].database,
            full,
            **self.engine.validator(node_id).checkpoint_members(full),
        )

    def replay_server(self, database=None) -> SmartchainServer:
        """A volatile server knowing only what every node of this shard
        knows, serving ``database`` if given; it determines no RETURNs
        (replaying a chain rebuilds state, it re-triggers nothing)."""
        template = self.servers[self.engine.validator_order[0]]
        replay = SmartchainServer(f"replay-{self.view_shard_key}", self.reserved)
        replay.shard_id, replay.shard_keys = template.shard_id, template.shard_keys
        replay.entry_authors = template.entry_authors
        if self.config.enable_extensions:
            from repro.core.extensions import register_marketplace_extensions

            register_marketplace_extensions(replay.validator)
        if database is not None:
            replay.adopt_database(database)
        replay.nested.is_receiver = lambda accept_id: False
        return replay

    def recover_node(self, node_id: str, repair: bool = True) -> tuple[RecoveredState, list[Block]]:
        """``node_id``'s state rebuilt from its disk (``repair`` as in
        :func:`~repro.durability.recovery.recover`), every block above its
        checkpoints re-delivered at its delivery time; returns it with
        the chain's blocks."""
        recovered = recover(
            self.node_durability[node_id],
            lambda: make_smartchaindb_database(name=f"smartchaindb-{node_id}"),
            repair=repair,
        )
        replay = self.replay_server(recovered.database)
        blocks = recovered.blocks()
        done = recovered.checkpointed
        committed = {envelope.tx_id for block in blocks[:done] for envelope in block.transactions}
        for block, delivered_at in zip(blocks[done:], recovered.times):
            replay.clock.advance_to(delivered_at)
            deliver_block(replay, block, committed)
        return recovered, blocks

    def restart_node_from_disk(self, node_id: str, torn_bytes: int = 0) -> None:
        """Kill a node, discard its memory, restore it purely from disk.

        This is the real crash-restart the abstract model only mimed:
        the in-memory database, validation context, nested-transaction
        processor and consensus chain are all rebuilt from the node's
        :class:`~repro.durability.wal.SimDisk` (:meth:`recover_node`),
        after the device loses its unsynced tail —
        optionally keeping ``torn_bytes`` of it as a torn write.  The
        node then rejoins through the normal recovery path (catch-up
        from peers, RETURN re-enqueue).

        Raises:
            ValidationError: if the cluster was built without durability.
        """
        durability = self.node_durability.get(node_id)
        if durability is None:
            raise ValidationError(
                f"{node_id} has no durability stack; set ClusterConfig.durability"
            )
        if not self.network.is_crashed(node_id):
            self.failures.crash_now(node_id)
        durability.power_fail(torn_bytes)
        recovered, blocks = self.recover_node(node_id)
        self.servers[node_id].adopt_database(recovered.database)
        self._wire_nested(node_id)
        locked_round, locked_block = recovered.locked()
        self.engine.validator(node_id).restore_durable(
            blocks, locked_round, locked_block, recovered.certs, recovered.checkpointed
        )
        self.failures.recover_now(node_id)

    # -- convenience -----------------------------------------------------------------

    def run(self, duration: float | None = None, max_events: int = 5_000_000) -> None:
        """Advance the simulation (until idle or for ``duration`` seconds)."""
        if duration is None:
            self.loop.run_until_idle(max_events=max_events)
        else:
            self.loop.run(until=self.loop.clock.now + duration, max_events=max_events)

    def submit_and_settle(self, transaction, max_events: int = 5_000_000) -> TxRecord:
        """Submit one transaction and run the loop until it settles."""
        payload = transaction.to_dict() if hasattr(transaction, "to_dict") else transaction
        self.submit_payload(payload)
        self.loop.run_until_idle(max_events=max_events)
        return self.records[payload["id"]]

    def any_server(self) -> SmartchainServer:
        """A live server for queries (first non-crashed node)."""
        for node_id in self.engine.validator_order:
            if not self.network.is_crashed(node_id):
                return self.servers[node_id]
        raise ValidationError("all nodes are down")

    # -- cross-shard hooks (used by repro.sharding) --------------------------------

    def set_spend_guard(self, guard) -> None:
        """Install the admission spend oracle (a shard agent's locks and
        migration fence) on every node."""
        for server in self.servers.values():
            server.spend_guard = guard

    def add_ingress_gate(self, gate) -> None:
        """Install an admission gatekeeper ``payload -> reason | None`` on
        every node (the sharded facade's foreign-input gate)."""
        for server in self.servers.values():
            server.ingress_gates.append(gate)

    def inflight_spender(self, ref) -> str | None:
        """Id of an admitted-but-uncommitted transaction spending ``ref``,
        or None.  Scans every validator's mempool (proposals assemble via
        non-destructive ``peek``, so in-flight block contents are still
        pooled).  The 2PC participant refuses to lock an output a local
        rival is already racing for — block delivery no longer consults
        the lock table, so a lock granted over a pooled rival could be
        broken by that rival's commit."""
        for node_id in self.engine.validator_order:
            for envelope in self.engine.validator(node_id).mempool.pending_envelopes():
                for item in envelope.payload.get("inputs", []):
                    fulfills = item.get("fulfills")
                    if (
                        fulfills
                        and fulfills["transaction_id"] == ref.transaction_id
                        and fulfills["output_index"] == ref.output_index
                    ):
                        return envelope.tx_id
        return None
