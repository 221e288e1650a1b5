"""The sharded deployment: N BFT groups behind one driver-compatible facade.

A :class:`ShardedCluster` owns one shared event loop, a consistent-hash
ring over shard ids, one :class:`~repro.core.cluster.SmartchainCluster`
per shard (each with its own validator network, storage and mempool) and
one 2PC agent per shard.  It exposes the same surface the single-cluster
deployment gives the Driver — ``submit_payload`` / ``run`` / ``records``
— so examples, scenario runners and benchmarks drive either transparently.

Single-shard transactions (the overwhelming majority under asset-local
routing) go straight into their home shard's BFT group and cost exactly
what they cost on one cluster.  Cross-shard transactions detour through
:class:`~repro.sharding.coordinator.TwoPhaseCoordinator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.encoding import canonical_bytes, collector_paused, deep_copy_json
from repro.common.errors import ValidationError
from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster, TxRecord
from repro.core.driver import Driver, DriverCallback, SubmitResult
from repro.core.entries import CONTROLLER, is_entry
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.metrics.collector import RunMetrics, collect_metrics
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.migration import MigrationPolicy, ReshardController
from repro.sharding.ring import ConsistentHashRing
from repro.sharding.router import RoutingDecision, ShardRouter
from repro.sim.events import EventLoop
from repro.sim.rng import SeededRng
from repro.telemetry import DEFAULT_SAMPLE_RATE, Telemetry
from repro.views import ViewManager

#: Retry cadence when a cross-shard submit meets a crashed coordinator.
SUBMIT_RETRY_DELAY = 1.0
SUBMIT_MAX_RETRIES = 20


@dataclass
class ShardedClusterConfig:
    """Everything tunable about a sharded deployment."""

    n_shards: int = 2
    #: Validators per shard (each shard is an independent BFT group).
    n_validators: int = 4
    seed: int = 2024
    virtual_nodes: int = 64
    max_block_txs: int = 8
    #: Durability stack for every validator node *and* every 2PC agent
    #: (None keeps the abstract always-durable model).
    durability: DurabilityConfig | None = None
    #: Fraction of transactions traced by the one deployment-wide
    #: telemetry instance every shard shares.
    trace_sample_rate: float = DEFAULT_SAMPLE_RATE
    #: Watch ``hot_shard_share`` and auto-split hot shards.
    auto_split: bool = False
    #: Auto-split policy (defaults when ``auto_split`` without one).
    migration_policy: MigrationPolicy | None = None


class ShardedCluster:
    """N independent SmartchainDB BFT groups + routing + 2PC, one facade."""

    def __init__(self, config: ShardedClusterConfig | None = None):
        self.config = config or ShardedClusterConfig()
        if self.config.n_shards < 1:
            raise ValueError("a sharded cluster needs at least one shard")
        self.loop = EventLoop()
        self.shard_ids = [f"shard-{index}" for index in range(self.config.n_shards)]
        self.ring = ConsistentHashRing(self.shard_ids, self.config.virtual_nodes)
        self.router = ShardRouter(self.ring)
        #: Shared across every shard: one registry, one tracer (cross-shard
        #: timelines stitch on the globally-stable tx_id), one flight
        #: recorder.  The sampling salt comes from the deployment seed's
        #: own stream, so same-seed replays sample identical transactions.
        self.telemetry = Telemetry(
            self.loop.clock,
            sample_salt=SeededRng(self.config.seed).stream("telemetry").getrandbits(64),
            sample_rate=self.config.trace_sample_rate,
        )
        #: Deployment-global materialized views: every shard's feed
        #: applies into this one manager (keyed by shard scope), so facade
        #: reads merge the whole deployment while per-shard serving
        #: filters on the transaction's home shard.
        self.views = ViewManager(telemetry=self.telemetry, telemetry_label="deployment")
        #: Facade-level lifecycle records for cross-shard transactions
        #: (their submit time predates the home-shard submit by the whole
        #: prepare phase, which is exactly the latency worth measuring).
        self.cross_records: dict[str, TxRecord] = {}
        self._cross_callbacks: dict[str, DriverCallback] = {}
        #: shard id -> its validators' public keys, shared by every node:
        #: what cross-shard evidence is verified against; and the system
        #: entries' authors' keys (each shard's agent, the controller).
        self.shard_keys: dict[str, dict[str, str]] = {}
        self.entry_authors: dict[str, str] = {}
        #: Elastic resharding controller; it reads the shards only once
        #: a migration runs, so it is built first.
        self.migrator = ReshardController(
            self,
            policy=(
                (self.config.migration_policy or MigrationPolicy())
                if self.config.auto_split
                else self.config.migration_policy
            ),
            telemetry=self.telemetry,
        )
        self.entry_authors[CONTROLLER] = self.migrator.keypair.public_key
        self.shards: dict[str, SmartchainCluster] = {}
        self.agents: dict[str, TwoPhaseCoordinator] = {}
        for index, shard_id in enumerate(self.shard_ids):
            self._build_shard(shard_id, index)
        for shard_id in self.shard_ids:
            self._build_agent(shard_id)
        self._next_shard_index = len(self.shard_ids)
        # All shards derive the same reserved (escrow) accounts.
        self.reserved = self.shards[self.shard_ids[0]].reserved
        self.driver = Driver(self)

    def _build_shard(self, shard_id: str, index: int) -> None:
        shard_config = ClusterConfig(
            n_validators=self.config.n_validators,
            # Decorrelate per-shard stochastic choices (receiver picks,
            # network jitter) without losing determinism.
            seed=self.config.seed + 7919 * index,
            consensus=tendermint_config(max_block_txs=self.config.max_block_txs),
            durability=self.config.durability,
        )
        cluster = SmartchainCluster(
            shard_config,
            loop=self.loop,
            telemetry=self.telemetry,
            scope=shard_id,
            views=self.views,
        )
        self.shards[shard_id] = cluster
        cluster.engine.commit_listeners.append(
            lambda record, sid=shard_id: self._on_shard_commit(sid, record)
        )
        cluster.add_ingress_gate(
            lambda payload, sid=shard_id: self._foreign_input_gate(sid, payload)
        )
        self.shard_keys[shard_id] = cluster.engine.public_keys
        for server in cluster.servers.values():
            server.shard_keys = self.shard_keys
            server.entry_authors = self.entry_authors

    def _build_agent(self, shard_id: str) -> None:
        agent = TwoPhaseCoordinator(
            shard_id,
            self.shards[shard_id],
            self.loop,
            self.agent_for,
            self._cross_outcome,
            durability=(
                NodeDurability(f"agent-{shard_id}", self.loop, self.config.durability)
                if self.config.durability is not None
                else None
            ),
        )
        agent.telemetry = self.telemetry
        agent.migration_fence = lambda ref: self.migrator.fence(shard_id, ref)
        self.agents[shard_id] = agent
        self.entry_authors[shard_id] = agent.keypair.public_key

    # -- topology ---------------------------------------------------------------

    def add_shard(self) -> str:
        """Grow the deployment by one shard, live.

        The new BFT group, its 2PC agent and the migration fence are all
        wired before the ring learns the member (epoch bump), so no key
        ever routes to a shard that is not yet able to serve it.  Only
        *unseen* genesis keys land on the new shard at first — existing
        placement is pinned by the router's memory until a migration
        moves it.
        """
        index = self._next_shard_index
        self._next_shard_index += 1
        shard_id = f"shard-{index}"
        self.shard_ids.append(shard_id)
        self._build_shard(shard_id, index)
        self._build_agent(shard_id)
        self.ring.add_shard(shard_id)
        self.telemetry.counter("shards_added").inc()
        self.telemetry.flight.record(self.loop.clock.now, "reshard", f"add_shard:{shard_id}")
        return shard_id

    def reshard(
        self, source: str, target: str | None = None, plan_txs: list[str] | None = None
    ) -> str:
        """Start a live migration off ``source`` — onto ``target``, or
        onto a freshly grown shard (a split) when ``target`` is None.
        Returns the migration id (see :class:`ReshardController`)."""
        if target is None:
            target = self.add_shard()
        return self.migrator.start_migration(source, target, plan_txs=plan_txs)

    def agent_for(self, shard_id: str) -> TwoPhaseCoordinator:
        return self.agents[shard_id]

    # -- submission --------------------------------------------------------------

    def submit_payload(
        self,
        payload: dict[str, Any],
        callback: DriverCallback | None = None,
        receiver: str | None = None,
        shard_hint: str | None = None,
    ) -> SubmitResult:
        """Route a payload to its home shard (2PC when inputs are remote).

        The facade's ingress gate: cross-shard system entries
        (``SHARD_*``) are written by the shard agents and the reshard
        controller only — a client's is refused outright.
        """
        if is_entry(payload):
            reason = f"{payload['operation']} is a system operation clients cannot submit"
            if callback is not None:
                callback("rejected", reason)
            return SubmitResult(
                payload.get("id", ""), payload["operation"], accepted=False, error=reason
            )
        decision = self.router.route(payload, shard_hint)
        self.router.record_home(decision.tx_id, decision.home)
        if not decision.cross_shard:
            return self.shards[decision.home].submit_payload(
                payload, callback, receiver=receiver
            )
        tx_id = payload.get("id", "")
        operation = payload.get("operation", "?")
        existing = self.cross_records.get(tx_id)
        if existing is not None and existing.rejected is None:
            return SubmitResult(tx_id, operation, accepted=True)
        payload = deep_copy_json(payload)
        record = TxRecord(
            tx_id,
            operation,
            len(canonical_bytes(payload)),
            submitted_at=self.loop.clock.now,
        )
        self.cross_records[tx_id] = record
        if callback is not None:
            self._cross_callbacks[tx_id] = callback
        tel = self.telemetry
        tel.counter("tx_submitted", shard="facade").inc()
        tel.counter("tx_cross_shard", shard="facade").inc()
        tel.tracer.begin(
            tx_id,
            "submit",
            node="facade",
            operation=operation,
            home=decision.home,
            cross=True,
        )
        self._begin_cross(payload, decision, attempt=0)
        return SubmitResult(tx_id, operation, accepted=True)

    def _foreign_input_gate(self, shard_id: str, payload: dict[str, Any]) -> str | None:
        """Admission gate: spends of foreign-homed outputs enter a shard
        chain only through their 2PC commit-point submission.

        A cross-shard payload injected straight into a home-shard mempool
        (gossip from an adversarial client, or a double-submit replay)
        could validate against reference copies an earlier spend's
        attachments left and commit intra-shard — while the coordinator's
        2PC round aborts and the remote shard never consumes the input.
        Admission is per-node and advisory, so consulting the live outbox
        here is safe — block delivery never calls it."""
        verdict: str | None = None
        for item in payload.get("inputs") or []:
            fulfills = item.get("fulfills")
            if not fulfills:
                continue
            if self.router.home_of_tx(fulfills["transaction_id"]) == shard_id:
                continue
            if verdict is None:
                doc = self.agents[shard_id].outbox_record(payload.get("id", ""))
                if doc is None:
                    verdict = "absent"
                elif doc["state"] == "commit_pending" or doc["outcome"] == "committed":
                    verdict = "ok"
                else:
                    verdict = doc["state"]
            if verdict != "ok":
                return (
                    f"foreign input {fulfills['transaction_id'][:8]}:"
                    f"{fulfills['output_index']} outside 2PC "
                    f"(outbox={verdict})"
                )
        return None

    def _begin_cross(
        self, payload: dict[str, Any], decision: RoutingDecision, attempt: int
    ) -> None:
        agent = self.agents[decision.home]
        if agent.crashed:
            # Mirrors the single-cluster crashed-receiver retry loop, but
            # bounded so an abandoned coordinator cannot spin the loop.
            if attempt >= SUBMIT_MAX_RETRIES:
                record = self.cross_records[decision.tx_id]
                record.rejected = f"coordinator for {decision.home} unavailable"
                self._fire_cross(decision.tx_id, "rejected", record.rejected)
                return
            self.loop.schedule_in(
                SUBMIT_RETRY_DELAY,
                lambda: self._begin_cross(payload, decision, attempt + 1),
            )
            return
        agent.begin(payload, decision)

    def _cross_outcome(self, tx_id: str, outcome: str, detail: Any) -> None:
        record = self.cross_records.get(tx_id)
        if record is None:
            return
        if outcome == "committed":
            if record.committed_at is None:
                record.committed_at = self.loop.clock.now
            self._fire_cross(tx_id, "committed", detail)
        else:
            record.rejected = str(detail)
            self._fire_cross(tx_id, "rejected", detail)

    def _fire_cross(self, tx_id: str, status: str, detail: Any) -> None:
        callback = self._cross_callbacks.pop(tx_id, None)
        if callback is not None:
            callback(status, detail)

    def _on_shard_commit(self, shard_id: str, record) -> None:
        # Placement memory: spends of these outputs route to this shard.
        for envelope in record.block.transactions:
            self.router.record_home(envelope.tx_id, shard_id)
        migrator = self.migrator
        if migrator.policy is not None:
            for envelope in record.block.transactions:
                migrator.observe_commit(shard_id, envelope.payload)

    # -- driver-facade conveniences ----------------------------------------------

    @property
    def records(self) -> dict[str, TxRecord]:
        """Aggregate lifecycle records (one full merge per access — for
        bulk consumers like metrics; per-transaction lookups should use
        :meth:`record_for`).

        Cross-shard transactions appear once, with their facade record
        (true submit time) shadowing the home shard's later-submitted one.
        """
        merged: dict[str, TxRecord] = {}
        for cluster in self.shards.values():
            merged.update(cluster.records)
        merged.update(self.cross_records)
        return merged

    def record_for(self, tx_id: str) -> TxRecord | None:
        """One transaction's lifecycle record, without merging anything."""
        record = self.cross_records.get(tx_id)
        if record is not None:
            return record
        for cluster in self.shards.values():
            record = cluster.records.get(tx_id)
            if record is not None:
                return record
        return None

    def run(self, duration: float | None = None, max_events: int = 5_000_000) -> None:
        """Advance every shard (they share one loop) until idle/deadline."""
        if duration is None:
            self.loop.run_until_idle(max_events=max_events)
        else:
            self.loop.run(until=self.loop.clock.now + duration, max_events=max_events)

    def submit_and_settle(self, transaction, max_events: int = 5_000_000) -> TxRecord:
        payload = transaction.to_dict() if hasattr(transaction, "to_dict") else transaction
        self.submit_payload(payload)
        self.loop.run_until_idle(max_events=max_events)
        return self.record_for(payload["id"])

    def any_server(self):
        """A live server from any shard (queries that span the keyspace
        still need per-shard fan-out; this is for schema-level reads)."""
        for cluster in self.shards.values():
            try:
                return cluster.any_server()
            except ValidationError:
                continue
        raise ValidationError("all nodes of every shard are down")

    # -- deployment-wide reads (materialized views) ------------------------------

    def open_requests(self, capability: str | None = None) -> list[dict[str, Any]]:
        """Open RFQs across *all* shards, from the merged views."""
        with collector_paused():
            return [deep_copy_json(r) for r in self.views.open_requests(capability)]

    def outputs_for(self, public_key: str) -> list[dict[str, Any]]:
        """One account's unspent outputs across all shards (wallet view)."""
        return self.views.owned_outputs_for(public_key)

    # -- metrics ------------------------------------------------------------------

    def aggregate_metrics(self) -> RunMetrics:
        """Deployment-wide metrics over the merged record set (each
        cross-shard transaction once, at its facade latency)."""
        return collect_metrics("SHARDED", self.records.values())
