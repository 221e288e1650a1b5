"""The FaultPlane: one chaos surface over both deployment shapes."""

import pytest

from repro.core.cluster import ClusterConfig, SmartchainCluster, TxRecord
from repro.crypto.keys import keypair_from_string
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.simtest.invariants import all_settled
from repro.simtest.plane import SINGLE_SHARD, FaultPlane


@pytest.fixture()
def sharded_plane() -> FaultPlane:
    return FaultPlane(ShardedCluster(ShardedClusterConfig(n_shards=2, seed=5)))


@pytest.fixture()
def single_plane() -> FaultPlane:
    return FaultPlane(SmartchainCluster(ClusterConfig(seed=5)))


class TestTopology:
    def test_sharded_exposes_shards_and_agents(self, sharded_plane):
        assert sharded_plane.sharded
        assert sharded_plane.shard_ids == ["shard-0", "shard-1"]
        assert set(sharded_plane.agents) == {"shard-0", "shard-1"}
        assert len(sharded_plane.nodes("shard-0")) == 4

    def test_single_is_one_pseudo_shard(self, single_plane):
        assert not single_plane.sharded
        assert single_plane.shard_ids == [SINGLE_SHARD]
        assert single_plane.agents == {}
        with pytest.raises(ValueError):
            single_plane.crash_coordinator(SINGLE_SHARD)


class TestNodeFaults:
    def test_crash_and_recover_round_trip(self, sharded_plane):
        node = sharded_plane.nodes("shard-1")[0]
        sharded_plane.crash_node("shard-1", node)
        assert sharded_plane.crashed_nodes("shard-1") == [node]
        sharded_plane.recover_node("shard-1", node)
        assert sharded_plane.crashed_nodes("shard-1") == []

    def test_coordinator_crash_flag(self, sharded_plane):
        sharded_plane.crash_coordinator("shard-0")
        assert sharded_plane.coordinator_crashed("shard-0")
        assert not sharded_plane.coordinator_crashed("shard-1")
        sharded_plane.recover_coordinator("shard-0")
        assert not sharded_plane.coordinator_crashed("shard-0")


class TestPartitionAndHeal:
    def test_partitioned_minority_lags_then_heals(self, single_plane):
        plane = single_plane
        cluster = plane.cluster
        owner = keypair_from_string("plane-owner")
        plane.partition_minority(SINGLE_SHARD)
        nodes = plane.nodes(SINGLE_SHARD)
        isolated, receiver = nodes[-1], nodes[0]
        for index in range(3):
            tx = cluster.driver.prepare_create(owner, {"capabilities": [f"c{index}"]})
            # Submit into the majority side: a tx stranded in the isolated
            # minority's mempool would spin round timeouts until the heal.
            cluster.submit_payload(tx.to_dict(), receiver=receiver)
        cluster.run()
        behind = cluster.servers[isolated].database.collection("blocks").count({})
        ahead = max(
            server.database.collection("blocks").count({})
            for server in cluster.servers.values()
        )
        assert behind < ahead  # the minority missed commits
        plane.heal(SINGLE_SHARD)
        cluster.run()
        caught_up = cluster.servers[isolated].database.collection("blocks").count({})
        assert caught_up == ahead  # heal triggers the catch-up resync

    def test_time_jump_advances_the_clock(self, single_plane):
        before = single_plane.now
        single_plane.time_jump(2.5)
        assert single_plane.now == pytest.approx(before + 2.5)

    def test_chaos_delay_installs_and_clears(self, sharded_plane):
        network = sharded_plane.shard_cluster("shard-0").network
        sharded_plane.set_chaos_delay("shard-0", 0.02)
        assert network.chaos_extra_delay == 0.02
        sharded_plane.set_chaos_delay("shard-0", 0.0)
        assert network.chaos_extra_delay == 0.0


class TestQuiesce:
    def test_quiesce_repairs_everything(self, sharded_plane):
        plane = sharded_plane
        node = plane.nodes("shard-0")[1]
        plane.crash_node("shard-0", node)
        plane.crash_coordinator("shard-1")
        plane.partition_minority("shard-1")
        plane.set_chaos_delay("shard-0", 0.03)
        plane.quiesce()
        assert plane.crashed_nodes("shard-0") == []
        assert not plane.coordinator_crashed("shard-1")
        assert plane.shard_cluster("shard-0").network.chaos_extra_delay == 0.0
        for agent in plane.agents.values():
            assert agent.active_locks() == []

    def test_phase_listener_reaches_every_agent(self, sharded_plane):
        seen = []
        sharded_plane.register_phase_listener(
            lambda shard, phase, tx: seen.append((shard, phase))
        )
        for agent in sharded_plane.agents.values():
            agent._notify("probe", "tx-0")
        assert seen == [("shard-0", "probe"), ("shard-1", "probe")]


def pooled_at(plane: FaultPlane, receiver: str | None = None) -> str:
    """Submit a CREATE and run until a pool holds it; returns its id."""
    cluster = plane.cluster
    payload = cluster.driver.prepare_create(keypair_from_string("settle"), {"n": 1}).to_dict()
    cluster.submit_payload(payload, receiver=receiver)
    engine = cluster.engine
    while not any(payload["id"] in engine.validator(n).mempool for n in engine.validator_order):
        assert cluster.loop.step()
    return payload["id"]


class TestAllSettled:
    def test_a_transaction_every_pool_dropped_is_rejected_not_lost(self, single_plane):
        cluster = single_plane.cluster
        tx_id = pooled_at(single_plane)
        cluster.add_ingress_gate(lambda _payload: "redirect:migrating:m-0001")
        assert single_plane.quiesce()
        assert cluster.records[tx_id].rejected == "redirect:migrating:m-0001"
        assert all_settled(single_plane) == []

    def test_one_a_crash_lost_with_its_only_pool_is_re_triggered(self, single_plane):
        cluster = single_plane.cluster
        single_plane.partition_minority(SINGLE_SHARD)
        receiver = single_plane.nodes(SINGLE_SHARD)[-1]
        tx_id = pooled_at(single_plane, receiver)
        heard = []
        cluster._callbacks[tx_id] = lambda status, detail: heard.append(status)
        single_plane.crash_node(SINGLE_SHARD, receiver)
        assert not cluster.pooled(tx_id)
        assert single_plane.quiesce()
        record = cluster.records[tx_id]
        assert record.committed_at is not None and record.rejected is None
        assert cluster.landed(tx_id) is True
        assert heard == ["committed"]
        assert all_settled(single_plane) == []

    def test_a_re_trigger_leaves_a_committed_record_alone(self, single_plane):
        cluster = single_plane.cluster
        receiver = single_plane.nodes(SINGLE_SHARD)[-1]
        tx_id = pooled_at(single_plane, receiver)
        (envelope,) = cluster.engine.validator(receiver).mempool.pending_envelopes()
        assert single_plane.quiesce()
        record = cluster.records[tx_id]
        assert record.committed_at is not None
        cluster._retrigger_later(tx_id, envelope.payload, envelope.attachments)
        assert single_plane.quiesce()
        assert cluster.records[tx_id] is record and not cluster.pooled(tx_id)

    def test_a_submission_without_an_outcome_is_a_violation(self, single_plane):
        tx_id = pooled_at(single_plane)
        assert all_settled(single_plane) == [f"{SINGLE_SHARD}: tx {tx_id[:8]} has no outcome"]

    def test_so_is_a_cross_shard_record_without_one(self, sharded_plane):
        record = TxRecord("c" * 64, "TRANSFER", 1, submitted_at=0.0)
        sharded_plane.cluster.cross_records[record.tx_id] = record
        assert all_settled(sharded_plane) == ["cross-shard: tx cccccccc has no outcome"]
