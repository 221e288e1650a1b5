"""Telemetry wired through real deployments: lifecycle traces, metric
snapshots, commit-latency tails from the lifecycle records, and
byte-identical same-seed replays."""

from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.crypto.sigcache import SignatureCache, set_shared_cache
from repro.metrics.collector import collect_metrics
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.telemetry import INERT


def _single(**kwargs) -> SmartchainCluster:
    kwargs.setdefault("trace_sample_rate", 1.0)
    return SmartchainCluster(ClusterConfig(seed=11, **kwargs))


def _commit_one(cluster):
    owner = keypair_from_string("owner")
    create = cluster.driver.prepare_create(owner, {"capabilities": ["x"]})
    record = cluster.submit_and_settle(create)
    return create, record


class TestSingleClusterTraces:
    def test_lifecycle_span_timeline(self):
        cluster = _single()
        create, record = _commit_one(cluster)
        assert record.committed_at is not None
        names = [event["name"] for event in cluster.telemetry.tracer.timeline(create.tx_id)]
        # The tentpole lifecycle: submit -> verify -> admit -> propose ->
        # deliver -> apply, in causal (event-loop) order.
        for stage in (
            "submit",
            "signature_verified",
            "receiver_validated",
            "mempool_admit",
            "consensus_propose",
            "delivered",
            "applied",
        ):
            assert stage in names, f"missing {stage} in {names}"
        assert names.index("submit") < names.index("mempool_admit") < names.index("applied")

    def test_commit_latency_tails_match_records(self):
        cluster = _single()
        create, record = _commit_one(cluster)
        summary = collect_metrics("SCDB", cluster.records.values()).percentiles_ms
        assert summary["count"] == 1
        expected_ms = (record.committed_at - record.submitted_at) * 1000.0
        assert summary["p50_ms"] == summary["p999_ms"] == expected_ms

    def test_wal_group_commit_event_when_durable(self):
        from repro.durability.node import DurabilityConfig

        cluster = _single(durability=DurabilityConfig())
        create, record = _commit_one(cluster)
        assert record.committed_at is not None
        names = [event["name"] for event in cluster.telemetry.tracer.timeline(create.tx_id)]
        assert "wal_group_commit" in names

    def test_metric_families_recorded_at_their_sites(self):
        cluster = _single()
        _commit_one(cluster)
        snapshot = cluster.telemetry.registry.to_dict()
        for family in (
            "tx_submitted",
            "consensus_block_txs",
            "consensus_height_ms",
        ):
            assert family in snapshot, f"missing {family}"

    def test_inert_telemetry_records_nothing(self):
        """A deployment handed the inert instance reaches the same chain
        heights at the same sim time, and every telemetry read is empty."""
        outcomes = []
        for telemetry in (None, INERT):
            previous = set_shared_cache(SignatureCache())
            try:
                cluster = SmartchainCluster(
                    ClusterConfig(seed=11, trace_sample_rate=1.0), telemetry=telemetry
                )
                _, record = _commit_one(cluster)
            finally:
                set_shared_cache(previous)
            assert record.committed_at is not None
            heights = [
                len(cluster.engine.validator(node_id).chain)
                for node_id in cluster.engine.validator_order
            ]
            outcomes.append((heights, cluster.loop.clock.now))
        assert outcomes[0] == outcomes[1]
        assert cluster.telemetry is INERT
        assert INERT.registry.to_dict() == {}
        assert list(INERT.registry.instruments()) == []
        assert INERT.tracer.trace_ids() == []
        assert INERT.flight.dump() == [] and INERT.flight.recorded == 0

    def test_sampling_rate_zero_skips_traces_but_not_metrics(self):
        cluster = _single(trace_sample_rate=0.0)
        create, record = _commit_one(cluster)
        assert record.committed_at is not None
        assert cluster.telemetry.tracer.trace_ids() == []
        snapshot = cluster.telemetry.registry.to_dict()
        assert snapshot["tx_submitted"]["shard=main"]["value"] == 1


def _sharded(seed: int = 7) -> ShardedCluster:
    return ShardedCluster(
        ShardedClusterConfig(n_shards=2, seed=seed, trace_sample_rate=1.0)
    )


def _committed(cluster) -> int:
    return sum(record.committed_at is not None for record in cluster.records.values())


def _cross_transfer(cluster):
    """Mint an asset, then migrate it to the other shard (forces 2PC)."""
    owner = keypair_from_string("owner")
    recipient = keypair_from_string("recipient")
    create = cluster.driver.prepare_create(owner, {"capabilities": ["x"]})
    cluster.submit_payload(create.to_dict())
    cluster.run()
    origin = cluster.router.home_of_tx(create.tx_id)
    target = next(shard for shard in cluster.shard_ids if shard != origin)
    transfer = cluster.driver.prepare_transfer(
        owner,
        [(create.tx_id, 0, 1)],
        create.tx_id,
        [(recipient.public_key, 1)],
        metadata={SHARD_KEY_METADATA: cluster.ring.key_landing_on(target, prefix="mig")},
    )
    record = cluster.submit_and_settle(transfer)
    return create, transfer, record, origin, target


class TestShardedClusterTraces:
    def test_cross_shard_trace_stitches_both_shards(self):
        cluster = _sharded()
        _, transfer, record, origin, target = _cross_transfer(cluster)
        assert record.committed_at is not None
        timeline = cluster.telemetry.tracer.timeline(transfer.tx_id)
        names = [event["name"] for event in timeline]
        nodes = {event.get("node", "") for event in timeline}
        assert names[0] == "submit"
        for stage in ("2pc_begin", "2pc_prepared", "2pc_commit_pending",
                      "2pc_decided:committed", "2pc_done", "applied"):
            assert stage in names, f"missing {stage} in {names}"
        # Events from the facade, the home shard's agent AND the remote
        # participant appear on one timeline.
        assert "facade" in nodes
        assert origin in nodes and target in nodes
        assert any(node.startswith(f"{target}/") for node in nodes)

    def test_no_latency_double_count(self):
        """A cross-shard transfer enters the tails once, at its facade
        latency; its home shard's later-submitted record is shadowed."""
        cluster = _sharded()
        create, transfer, record, _, target = _cross_transfer(cluster)
        assert record.committed_at is not None
        home = cluster.shards[target].records[transfer.tx_id]
        assert home.committed_at is not None and home.latency < record.latency
        minted = cluster.record_for(create.tx_id)
        summary = cluster.aggregate_metrics().percentiles_ms
        assert summary["count"] == _committed(cluster) == 2
        assert {summary["p50_ms"], summary["max_ms"]} == {
            minted.latency * 1000.0,
            record.latency * 1000.0,
        }

    def test_per_shard_and_aggregate_percentiles(self):
        cluster = _sharded()
        _cross_transfer(cluster)
        for shard_id, shard in cluster.shards.items():
            per_shard = collect_metrics(shard_id, shard.records.values())
            assert isinstance(per_shard.percentiles_ms, dict)
        aggregate = cluster.aggregate_metrics()
        assert aggregate.percentiles_ms["count"] == _committed(cluster)

    def test_registry_includes_2pc_families(self):
        cluster = _sharded()
        _cross_transfer(cluster)
        snapshot = cluster.telemetry.registry.to_dict()
        for family in ("2pc_prepare_ms", "2pc_total_ms", "2pc_fanout", "tx_cross_shard"):
            assert family in snapshot, f"missing {family}"

    def test_flight_recorder_sees_2pc_phases(self):
        cluster = _sharded()
        _, transfer, _, _, _ = _cross_transfer(cluster)
        kinds = [event["kind"] for event in cluster.telemetry.flight.events_for(transfer.tx_id)]
        for phase in ("begin", "commit_pending", "decided:committed", "done"):
            assert phase in kinds, f"missing {phase} in {kinds}"


class TestReplayDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        """The acceptance bar: two same-seed runs export identical
        registry snapshots, identical trace timelines, identical flight dumps.
        The process-global signature cache is swapped fresh per run — it
        is deliberately shared across clusters in one process, which is
        cross-run state, not nondeterminism."""
        outputs = []
        for _ in range(2):
            previous = set_shared_cache(SignatureCache())
            try:
                cluster = _sharded(seed=23)
                _, transfer, _, _, _ = _cross_transfer(cluster)
                outputs.append(
                    (
                        cluster.telemetry.registry.to_dict(),
                        cluster.telemetry.tracer.timeline(transfer.tx_id),
                        cluster.telemetry.flight.dump(),
                    )
                )
            finally:
                set_shared_cache(previous)
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]

    def test_default_sampling_is_seed_stable(self):
        """At the default 1/64 rate the sampled set is a pure function of
        the seed — two constructions agree on every verdict."""
        first = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=5))
        second = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=5))
        assert first.telemetry.tracer.salt == second.telemetry.tracer.salt
        third = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=6))
        assert first.telemetry.tracer.salt != third.telemetry.tracer.salt
