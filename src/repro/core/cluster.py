"""The SmartchainDB cluster: servers + Tendermint + network, assembled.

This is the top-level object examples and benchmarks interact with: it
owns the simulated event loop, the validator network, one
:class:`~repro.core.server.SmartchainServer` per node, the
:class:`~repro.core.driver.Driver`, nested-transaction workers and the
latency/throughput records the evaluation section measures.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.common.errors import SchemaValidationError, ValidationError
from repro.consensus.abci import envelope_for
from repro.consensus.bft import BftConfig, BftEngine, CommitRecord
from repro.consensus.tendermint import make_tendermint_cluster, tendermint_config
from repro.core.context import ValidationContext
from repro.core.driver import Driver, DriverCallback
from repro.core.nested import NestedTransactionProcessor
from repro.core.server import ServerCostModel, SmartchainServer
from repro.core.transaction import ACCEPT_BID
from repro.core.validation import shared_memo
from repro.crypto.keys import ReservedAccounts
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import checkpoint_state, recover
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.sim.network import Network, NetworkConfig
from repro.sim.rng import SeededRng
from repro.storage.database import make_smartchaindb_database
from repro.telemetry import DEFAULT_SAMPLE_RATE, TRACE_SAMPLED, Telemetry


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
    indexed_storage: bool = True
    #: Parallel conflict-free validation lanes per node (1 = serial); the
    #: declarative access sets make the partition exact, so lanes change
    #: block-validation time, never verdicts.
    validation_lanes: int = 4
    #: Register the INTEREST / PRE_REQUEST extension types on every node.
    enable_extensions: bool = False
    #: Delay before nested-transaction workers pick up queued RETURNs.
    worker_poll_interval: float = 0.002
    #: Parallel RETURN workers per receiver node.
    worker_parallelism: int = 4
    #: Per-node durability stack (WAL + group commit + snapshots).  None
    #: keeps the abstract always-durable storage model; set to a
    #: :class:`~repro.durability.node.DurabilityConfig` to journal every
    #: mutation and enable :meth:`SmartchainCluster.restart_node_from_disk`.
    durability: DurabilityConfig | None = None
    #: Master telemetry switch: False keeps the registry/tracer/flight
    #: recorder constructed but dormant (one attribute read per hot site).
    telemetry_enabled: bool = True
    #: WAL-fed materialized views (:mod:`repro.views`).  None = auto:
    #: enabled whenever durability is on (the feed tails the WAL, so a
    #: volatile deployment has nothing to tail).  False disables even on
    #: durable deployments.
    views: bool | None = None
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
            cross-shard traces stitch and histograms merge in one place.
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
                enabled=self.config.telemetry_enabled,
            )
        #: Predicate deciding whether a commit observes into the latency
        #: histograms (the sharded facade filters out its own internal
        #: home-shard submissions of cross-shard transactions, whose
        #: end-to-end latency the facade records instead).
        self.latency_filter = None
        #: Callables fired with the node id at the end of every
        #: :meth:`resync_node` — the sharded facade hangs migration
        #: scrubbing here, so a node restored from a pre-cutover disk
        #: image gets its moved/received keys re-applied from the forced
        #: migration journal before traffic reaches it.
        self.resync_hooks: list = []
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
                indexed_storage=self.config.indexed_storage,
                # One shared named stream: batch-verify coefficients are
                # the only randomness crypto consumes, and routing it
                # through the cluster seed keeps replays byte-identical.
                rng=self.rng.stream("crypto-batch"),
                validation_lanes=self.config.validation_lanes,
                durability=durability,
            )
            if self.config.enable_extensions:
                from repro.core.extensions import register_marketplace_extensions

                register_marketplace_extensions(server.validator)
            server.telemetry = self.telemetry
            server.telemetry_label = self.node_label(node_id)
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
                on_crash=validator.on_crash,
                on_recover=lambda nid=node_id: self.resync_node(nid),
            )
            durability = self.node_durability.get(node_id)
            if durability is not None:
                validator.persistence = durability
                durability.state_provider = (
                    lambda nid=node_id: self._node_checkpoint_state(nid)
                )

        #: Deployment-level :class:`~repro.views.ViewManager` (shared by
        #: a sharded facade, owned by a standalone durable cluster, None
        #: when disabled or volatile) and the live feeds tailing each
        #: node's group-commit log into it.
        self.views = views
        self.view_feeds: list = []
        views_enabled = (
            self.config.views if self.config.views is not None else True
        ) and self.config.durability is not None
        if views_enabled:
            from repro.views import ChangeFeed, ViewManager

            if self.views is None:
                self.views = ViewManager(
                    telemetry=self.telemetry, telemetry_label=self.view_shard_key
                )
            for node_id, durability in self.node_durability.items():
                # One feed per node: every replica journals every block,
                # and the manager's per-shard height cursor collapses the
                # n-way duplication.  reopen() keeps the log object across
                # restart-from-disk, so these subscriptions are permanent.
                self.view_feeds.append(
                    ChangeFeed(self.views, self.view_shard_key, durability.log)
                )
            for node_id, server in self.servers.items():
                server.views = self.views
                server.views_shard = self.view_shard_key
                server.chain_height_provider = (
                    lambda nid=node_id: len(self.engine.validator(nid).chain)
                )

        self.driver = Driver(self)
        self.records: dict[str, TxRecord] = {}
        #: Outputs consumed by cross-shard commits (see consume_outputs):
        #: kept so a node applying the *creating* block late — it was
        #: crashed or partitioned when the 2PC decision landed — does not
        #: resurrect an already-spent UTXO.  Found by the chaos harness.
        #: Bounded FIFO window (like the mempool's dedup memory): a
        #: laggard only needs the entry until it next catches up, which
        #: is far sooner than the window takes to cycle.
        self._foreign_spent: "OrderedDict[tuple[str, int], None]" = OrderedDict()
        self._foreign_spent_capacity = 100_000
        for server in self.servers.values():
            server.commit_hooks.append(
                lambda payload, srv=server: self._scrub_foreign_spent(srv, payload)
            )
        self._callbacks: dict[str, DriverCallback] = {}
        #: accept_id -> receiver node responsible for its RETURN children.
        self._accept_receivers: dict[str, str] = {}
        self.engine.commit_listeners.append(self._on_block_commit)

    def node_label(self, node_id: str) -> str:
        """Registry label for one node, unique across a sharded deployment."""
        return f"{self.scope}/{node_id}" if self.scope else node_id

    @property
    def view_shard_key(self) -> str:
        """Key this cluster's blocks apply under in a view manager."""
        return self.scope or "main"

    def read_replica(self, label: str = "replica"):
        """A follower read surface over the materialized views.

        Raises:
            RuntimeError: when views are disabled (volatile deployment).
        """
        if self.views is None:
            raise RuntimeError("materialized views are disabled on this cluster")
        from repro.views import ReadReplica

        return ReadReplica(self.views, label=label)

    # -- submission path -----------------------------------------------------------

    def submit_payload(
        self,
        payload: dict[str, Any],
        callback: DriverCallback | None = None,
        receiver: str | None = None,
        shard_hint: str | None = None,
        _retry: bool = False,
    ):
        """Route a payload to a (random) receiver node — Fig. 4 lifecycle.

        The receiver performs full semantic validation (charged to the
        simulated clock), then gossips the transaction into mempools.

        ``shard_hint`` exists for driver compatibility with sharded
        deployments; a single cluster is its own (only) shard and ignores
        the hint.
        """
        from repro.core.driver import SubmitResult  # local import to avoid cycle

        tx_id = payload.get("id", "")
        operation = payload.get("operation", "?")
        existing = self.records.get(tx_id)
        if existing is not None and existing.rejected is None and not _retry:
            # Already in flight or committed (e.g. the same RETURN child
            # determined by several nodes): keep the original record.
            return SubmitResult(tx_id, operation, accepted=True)
        if not _retry:
            # The driver-to-cluster trust boundary: one deep copy here
            # means no caller-held reference can mutate the payload the
            # pipeline (and its identity-keyed admission memo) verifies,
            # stores and journals by reference from here on — the single
            # copy the zero-copy discipline keeps.
            payload = deep_copy_json(payload)
        # The one canonical encoding of the payload: sizes it here, then
        # (once admitted) is what every durable replica journals.
        encoded = canonical_bytes(payload)
        size_bytes = len(encoded)
        now = self.loop.clock.now
        record = TxRecord(tx_id, operation, size_bytes, submitted_at=now)
        self.records[tx_id] = record
        if callback is not None:
            self._callbacks[tx_id] = callback
        trace_flags = 0
        tel = self.telemetry
        if tel is not None and tel.enabled:
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
                        payload, self._callbacks.get(tx_id), _retry=True
                    ),
                )
                return
            try:
                server.receiver_validate(payload)
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
            if self.node_durability:
                shared_memo().keep_encoded(payload, encoded)
            if trace_flags & TRACE_SAMPLED:
                self.telemetry.tracer.event(
                    tx_id, "receiver_validated", node=self.node_label(receiver_id)
                )
            envelope = envelope_for(
                payload,
                tx_id,
                size_bytes,
                now=self.loop.clock.now,
                trace_flags=trace_flags,
            )
            self.engine.validator(receiver_id).submit_transaction(envelope)

        self.loop.schedule_in(cost, receiver_step)
        return SubmitResult(tx_id, operation, accepted=True)

    # -- commit handling --------------------------------------------------------------

    def _on_block_commit(self, record: CommitRecord) -> None:
        tel = self.telemetry
        observing = tel is not None and tel.enabled
        for envelope in record.block.transactions:
            tx_record = self.records.get(envelope.tx_id)
            if tx_record is not None and tx_record.committed_at is None:
                tx_record.committed_at = record.committed_at
                if observing and (
                    self.latency_filter is None or self.latency_filter(envelope.tx_id)
                ):
                    tel.observe_ms(
                        "tx_commit_latency_ms",
                        record.committed_at - tx_record.submitted_at,
                        shard=self.scope or "main",
                        operation=tx_record.operation,
                    )
            if observing and envelope.trace_flags & TRACE_SAMPLED:
                tel.tracer.event(
                    envelope.tx_id,
                    "applied",
                    node=self.node_label(record.node_id),
                    height=record.block.height,
                )
            self._fire_callback(envelope.tx_id, "committed", envelope.payload)
            if envelope.payload.get("operation") == ACCEPT_BID:
                self._schedule_return_workers(envelope.tx_id)

    def _fire_callback(self, tx_id: str, status: str, detail: Any) -> None:
        callback = self._callbacks.pop(tx_id, None)
        if callback is not None:
            callback(status, detail)

    # -- nested transaction workers -----------------------------------------------------

    def _schedule_return_workers(self, accept_id: str) -> None:
        receiver_id = self._accept_receivers.get(accept_id)
        if receiver_id is None:
            receiver_id = self.engine.validator_order[0]
        if self.network.is_crashed(receiver_id):
            # Crash while enqueueing: recovery (case 2) re-enqueues later.
            return
        for _ in range(self.config.worker_parallelism):
            self.loop.schedule_in(
                self.config.worker_poll_interval,
                lambda nid=receiver_id: self._drain_one_return(nid),
            )

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
        reenqueued = server.nested.recover(server.context.locked_bids)
        if reenqueued:
            for _ in range(self.config.worker_parallelism):
                self.loop.schedule_in(
                    self.config.worker_poll_interval,
                    lambda: self._drain_one_return(node_id),
                )
        for hook in self.resync_hooks:
            hook(node_id)

    # -- durability: checkpoints + restart-from-disk ---------------------------------

    def _node_checkpoint_state(self, node_id: str) -> list[bytes]:
        """Full snapshot state of one node, canonically encoded:
        collections + chain + lock + certificates."""
        return checkpoint_state(
            self.servers[node_id].database,
            **self.engine.validator(node_id).consensus_snapshot(),
        )

    def restart_node_from_disk(self, node_id: str, torn_bytes: int = 0) -> None:
        """Kill a node, discard its memory, restore it purely from disk.

        This is the real crash-restart the abstract model only mimed:
        the in-memory database, validation context, nested-transaction
        processor and consensus chain are all rebuilt from the node's
        :class:`~repro.durability.wal.SimDisk` (snapshot + WAL suffix,
        scan-to-torn-tail), after the device loses its unsynced tail —
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
        recovered = recover(
            durability,
            lambda: make_smartchaindb_database(
                name=f"smartchaindb-{node_id}",
                indexed=self.config.indexed_storage,
            ),
        )
        recovered.database.attach_wal(durability.log)
        server = self.servers[node_id]
        # Spend guards (the 2PC lock oracle) are deployment wiring, not
        # node state: they must survive the context rebuild or remote
        # locks would stop being visible to local validation.
        guards = list(server.context.spend_guards)
        gates = list(server.context.ingress_gates)
        server.database = recovered.database
        server.context = ValidationContext(server.database, self.reserved)
        server.context.spend_guards.extend(guards)
        server.context.ingress_gates.extend(gates)
        server.nested = NestedTransactionProcessor(self.reserved.escrow, server.database)
        locked_round, locked_block = recovered.locked()
        self.engine.validator(node_id).restore_durable(
            recovered.blocks(), locked_round, locked_block, certs=recovered.certs
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

    def committed_records(self) -> list[TxRecord]:
        return [record for record in self.records.values() if record.committed_at is not None]

    # -- telemetry ------------------------------------------------------------------

    def snapshot_metrics(self) -> dict:
        """Harvest every component's counters into the telemetry registry
        (gauges, since the sources are cumulative dicts) and return the
        canonical snapshot.  Live histograms (latencies, batch sizes) are
        recorded at their sites; this collects the stats surfaces that
        predate the registry."""
        tel = self.telemetry
        if tel is None:
            return {}
        registry = tel.registry
        for node_id, server in self.servers.items():
            label = self.node_label(node_id)
            for key, value in server.stats.items():
                registry.gauge(f"server_{key}", node=label).set(value)
            validator = self.engine.validator(node_id)
            for key, value in validator.check_stats.items():
                registry.gauge(f"checktx_{key}", node=label).set(value)
            for key, value in validator.mempool.stats.items():
                registry.gauge(f"mempool_{key}", node=label).set(value)
            registry.gauge("mempool_depth", node=label).set(len(validator.mempool))
            registry.gauge("mempool_seen", node=label).set(validator.mempool.seen_size())
            server.database.publish_metrics(registry, node=label)
        for node_id, durability in self.node_durability.items():
            label = self.node_label(node_id)
            for key, value in durability.log.stats.items():
                registry.gauge(f"wal_{key}", node=label).set(value)
            registry.gauge("wal_pending", node=label).set(durability.log.pending)
        if self.views is not None:
            shard = self.view_shard_key
            view_height = self.views.height(shard)
            chain_height = max(
                (
                    len(self.engine.validator(node_id).chain)
                    for node_id in self.engine.validator_order
                ),
                default=0,
            )
            registry.gauge("view_height", shard=shard).set(view_height)
            registry.gauge("view_lag_blocks", shard=shard).set(
                max(0, chain_height - view_height)
            )
            for key, value in self.views.stats.items():
                registry.gauge(f"view_{key}", shard=shard).set(value)
        from repro.crypto.sigcache import shared_cache

        cache = shared_cache()
        if cache is not None:
            cache.publish(registry)
        return registry.to_dict()

    def latency_percentiles(self) -> dict[str, float]:
        """Commit-latency tails (ms) read from the registry's merged
        ``tx_commit_latency_ms`` histograms — the single percentile
        source benchmarks and reports share."""
        if self.telemetry is None:
            return {"count": 0}
        return self.telemetry.latency_percentiles()

    # -- cross-shard hooks (used by repro.sharding) --------------------------------

    def add_spend_guard(self, guard) -> None:
        """Install an external spend oracle on every node's validation
        context.  The sharding coordinator uses this to make a remote
        2PC lock on a local UTXO visible to local double-spend checks."""
        for server in self.servers.values():
            server.context.spend_guards.append(guard)

    def add_ingress_gate(self, gate) -> None:
        """Install an admission gatekeeper ``payload -> reason | None``
        on every node.  The sharded deployment uses one to keep
        transactions spending foreign-homed outputs out of this shard's
        mempools unless they arrive via their own 2PC commit-point
        submission — a directly injected copy would otherwise commit
        intra-shard while the coordinator aborts, leaving the remote
        input unconsumed (a cross-shard double-spend door found by the
        adversarial double-submit client)."""
        for server in self.servers.values():
            server.context.ingress_gates.append(gate)

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

    def import_reference_payloads(self, payloads: list[dict[str, Any]]) -> int:
        """Replicate foreign transaction payloads into every node's store.

        Cross-shard data shipping: before a transaction that spends
        outputs held on another shard can validate here, the prior
        transactions it references must be readable locally.  Imports are
        idempotent (the unique ``id`` index is checked first) and count as
        reference copies — they create no local UTXOs.
        """
        imported = 0
        for server in self.servers.values():
            transactions = server.database.collection("transactions")
            for payload in payloads:
                if transactions.find_one({"id": payload["id"]}, copy=False) is None:
                    transactions.insert_one(payload)
                    imported += 1
        return imported

    def consume_outputs(self, refs: list[tuple[str, int]]) -> None:
        """Drop UTXO documents for outputs spent by a cross-shard commit.

        The authoritative double-spend barrier is the coordinator's lock
        tombstone; this keeps every node's wallet view (``utxos``) in
        step with it.  Consumed refs are remembered so nodes that apply
        the creating block *after* the decision (crash/partition lag)
        scrub the output on arrival instead of resurrecting it.
        """
        for transaction_id, output_index in refs:
            self._foreign_spent[(transaction_id, output_index)] = None
            self._foreign_spent.move_to_end((transaction_id, output_index))
        while len(self._foreign_spent) > self._foreign_spent_capacity:
            self._foreign_spent.popitem(last=False)
        for server in self.servers.values():
            utxos = server.database.collection("utxos")
            for transaction_id, output_index in refs:
                utxos.delete_many(
                    {"transaction_id": transaction_id, "output_index": output_index}
                )

    def _scrub_foreign_spent(self, server: SmartchainServer, payload: dict[str, Any]) -> None:
        """Post-commit hook: drop outputs a cross-shard commit already
        spent before this node got around to applying their creator."""
        if not self._foreign_spent:
            return
        tx_id = payload.get("id")
        for index in range(len(payload.get("outputs", []))):
            if (tx_id, index) in self._foreign_spent:
                server.database.collection("utxos").delete_many(
                    {"transaction_id": tx_id, "output_index": index}
                )
