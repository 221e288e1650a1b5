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

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.common.errors import ValidationError
from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster, TxRecord
from repro.core.driver import Driver, DriverCallback, SubmitResult
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.metrics.collector import RunMetrics, collect_metrics
from repro.sharding.coordinator import COORDINATOR_NODE, TwoPhaseCoordinator
from repro.sharding.migration import MigrationPolicy, ReshardController
from repro.sharding.ring import ConsistentHashRing
from repro.sharding.router import RoutingDecision, ShardRouter
from repro.sim.events import EventLoop
from repro.sim.rng import SeededRng
from repro.telemetry import DEFAULT_SAMPLE_RATE, Telemetry

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
    #: One deployment-wide telemetry instance (registry + tracer + flight
    #: recorder) is shared by every shard so cross-shard traces stitch.
    telemetry_enabled: bool = True
    trace_sample_rate: float = DEFAULT_SAMPLE_RATE
    #: WAL-fed materialized views, deployment-global: one
    #: :class:`~repro.views.ViewManager` merges every shard's change feed
    #: behind the facade.  None = auto (on whenever durability is on).
    views: bool | None = None
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
            enabled=self.config.telemetry_enabled,
        )
        #: Deployment-global materialized views: every shard's feeds
        #: apply into this one manager (keyed by shard scope), so facade
        #: reads merge the whole deployment while per-shard serving
        #: filters on the transaction's home shard.
        views_enabled = (
            self.config.views if self.config.views is not None else True
        ) and self.config.durability is not None
        self.views = None
        if views_enabled:
            from repro.views import ViewManager

            self.views = ViewManager(
                telemetry=self.telemetry, telemetry_label="deployment"
            )
        self._views_enabled = views_enabled
        #: Facade-level lifecycle records for cross-shard transactions
        #: (their submit time predates the home-shard submit by the whole
        #: prepare phase, which is exactly the latency worth measuring).
        self.cross_records: dict[str, TxRecord] = {}
        self._cross_callbacks: dict[str, DriverCallback] = {}
        #: Elastic resharding controller; built after the initial shards
        #: so it can see them, consulted by commit/resync plumbing via
        #: getattr until then.
        self.migrator: ReshardController | None = None
        self.shards: dict[str, SmartchainCluster] = {}
        self.agents: dict[str, TwoPhaseCoordinator] = {}
        for index, shard_id in enumerate(self.shard_ids):
            self._build_shard(shard_id, index)
        for shard_id in self.shard_ids:
            self._build_agent(shard_id)
        self._next_shard_index = len(self.shard_ids)
        self.migrator = ReshardController(
            self,
            policy=(
                (self.config.migration_policy or MigrationPolicy())
                if self.config.auto_split
                else self.config.migration_policy
            ),
            durability=(
                NodeDurability("reshard-controller", self.loop, self.config.durability)
                if self.config.durability is not None
                else None
            ),
            telemetry=self.telemetry,
        )
        for shard_id, agent in self.agents.items():
            self.migrator.attach_agent(shard_id, agent)
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
            views=self._views_enabled,
        )
        cluster = SmartchainCluster(
            shard_config,
            loop=self.loop,
            telemetry=self.telemetry,
            scope=shard_id,
            views=self.views,
        )
        # A cross-shard transaction's home commit is not its end-to-end
        # latency (the prepare phase predates the home submit); the
        # facade records those in _cross_outcome instead.
        cluster.latency_filter = lambda tx_id: tx_id not in self.cross_records
        self.shards[shard_id] = cluster
        cluster.engine.commit_listeners.append(
            lambda record, sid=shard_id: self._on_shard_commit(sid, record)
        )
        cluster.add_ingress_gate(
            lambda payload, sid=shard_id: self._foreign_input_gate(sid, payload)
        )
        # A node restored from a pre-cutover disk image must have its
        # moved keys scrubbed back into migrated shape before traffic
        # reaches it.
        cluster.resync_hooks.append(
            lambda node_id, sid=shard_id: self._scrub_after_resync(sid)
        )

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
        self.agents[shard_id] = agent
        if self.migrator is not None:
            self.migrator.attach_agent(shard_id, agent)
        # A replica that commits a block late (post-heal catch-up, crash
        # replay) must not re-mint outputs a shard migration has since
        # shipped elsewhere: cutover deletes from every *current* source
        # database, but a lagging node applies the minting block only
        # after that deletion ran.  The registry row is the tombstone.
        for server in self.shards[shard_id].servers.values():
            server.utxo_suppressors.append(
                lambda tx_id, index, sid=shard_id: self._migrated_out(
                    sid, tx_id, index
                )
            )

    def _migrated_out(self, shard_id: str, tx_id: str, index: int) -> bool:
        """True when ``shard_id``'s migration registry says the ref's
        latest hop moved it *off* this shard (latest row wins, so a
        round-trip that came back home does not suppress)."""
        agent = self.agents.get(shard_id)
        if agent is None:
            return False
        latest_seq = -1
        latest_direction = ""
        for row in agent.durable.collection("shard_migrations").find(
            {"transaction_id": tx_id, "output_index": index}, copy=False
        ):
            sequence = int(row["migration_id"].rsplit("-", 1)[1])
            if sequence > latest_seq:
                latest_seq = sequence
                latest_direction = row["direction"]
        return latest_direction == "out"

    def _scrub_after_resync(self, shard_id: str) -> None:
        if self.migrator is not None:
            self.migrator.scrub_shard(shard_id)

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
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("shards_added").inc()
            tel.flight.record(self.loop.clock.now, "reshard", f"add_shard:{shard_id}")
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

    def shard(self, shard: str | int) -> SmartchainCluster:
        """A shard's BFT cluster, by id or index."""
        if isinstance(shard, int):
            shard = self.shard_ids[shard]
        return self.shards[shard]

    def agent_for(self, shard_id: str) -> TwoPhaseCoordinator:
        return self.agents[shard_id]

    def crash_coordinator(self, shard: str | int) -> None:
        """Kill a shard's 2PC agent (its BFT nodes keep running)."""
        self.shard(shard).failures.crash_now(COORDINATOR_NODE)

    def recover_coordinator(self, shard: str | int) -> None:
        self.shard(shard).failures.recover_now(COORDINATOR_NODE)

    def restart_node_from_disk(
        self, shard: str | int, node_id: str, torn_bytes: int = 0
    ) -> None:
        """Crash-restart one validator node purely from its SimDisk."""
        self.shard(shard).restart_node_from_disk(node_id, torn_bytes=torn_bytes)

    def restart_coordinator_from_disk(
        self, shard: str | int, torn_bytes: int = 0
    ) -> None:
        """Crash-restart one shard's 2PC agent purely from its SimDisk."""
        if isinstance(shard, int):
            shard = self.shard_ids[shard]
        self.agents[shard].restart_from_disk(torn_bytes=torn_bytes)

    # -- submission --------------------------------------------------------------

    def submit_payload(
        self,
        payload: dict[str, Any],
        callback: DriverCallback | None = None,
        receiver: str | None = None,
        shard_hint: str | None = None,
    ) -> SubmitResult:
        """Route a payload to its home shard (2PC when inputs are remote)."""
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
        if tel is not None and tel.enabled:
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
        would validate against locally imported reference payloads and
        commit intra-shard — while the coordinator's 2PC round aborts and
        the remote shard never consumes the input.  Worse, if the rogue
        copy commits *first*, the coordinator's own home submission is
        deduplicated and its settle callback never fires, parking the
        round in ``commit_pending`` with the remote locks held forever.
        The gate closes both doors: admission is per-node and advisory,
        so consulting the live outbox here is safe — block delivery
        never calls it."""
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
                tel = self.telemetry
                if tel is not None and tel.enabled:
                    # End-to-end cross-shard latency: facade submit (before
                    # the prepare phase) to final 2PC outcome.
                    tel.observe_ms(
                        "tx_commit_latency_ms",
                        record.committed_at - record.submitted_at,
                        shard="facade",
                        operation=record.operation,
                    )
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
        if migrator is not None and migrator.policy is not None:
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

    def committed_records(self) -> list[TxRecord]:
        return [
            record for record in self.records.values() if record.committed_at is not None
        ]

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
        if self.views is None:
            raise ValidationError("materialized views are disabled on this deployment")
        return [deep_copy_json(r) for r in self.views.open_requests(capability)]

    def outputs_for(self, public_key: str) -> list[dict[str, Any]]:
        """One account's unspent outputs across all shards (wallet view)."""
        if self.views is None:
            raise ValidationError("materialized views are disabled on this deployment")
        return self.views.owned_outputs_for(public_key)

    # -- metrics ------------------------------------------------------------------

    def per_shard_metrics(self) -> dict[str, RunMetrics]:
        """Independent RunMetrics per shard (home-shard view)."""
        metrics = {
            shard_id: collect_metrics(shard_id, cluster.records.values())
            for shard_id, cluster in self.shards.items()
        }
        if self.telemetry.enabled:
            for shard_id, shard_metrics in metrics.items():
                shard_metrics.percentiles_ms = self.telemetry.latency_percentiles(
                    shard=shard_id
                )
        return metrics

    def aggregate_metrics(self) -> RunMetrics:
        """Deployment-wide metrics over the merged record set."""
        metrics = collect_metrics("SHARDED", self.records.values())
        if self.telemetry.enabled:
            # Merging every labelled series is double-count-safe: the
            # latency_filter keeps cross-shard home commits out of the
            # per-shard histograms, so facade + per-shard partitions the
            # committed set.
            metrics.percentiles_ms = self.telemetry.latency_percentiles()
        return metrics

    def latency_percentiles(self, **match_labels: str) -> dict[str, float]:
        """Commit-latency percentile summary from the shared registry."""
        return self.telemetry.latency_percentiles(**match_labels)

    def placement_stats(self) -> dict[str, Any]:
        """Routing + 2PC counters for benchmarks and the CLI."""
        per_shard = {
            shard_id: {
                "committed": sum(
                    1
                    for record in cluster.records.values()
                    if record.committed_at is not None
                ),
                "locks_granted": self.agents[shard_id].stats["locks_granted"],
                "coordinated": self.agents[shard_id].stats["coordinated"],
            }
            for shard_id, cluster in self.shards.items()
        }
        return {"router": dict(self.router.stats), "shards": per_shard}
