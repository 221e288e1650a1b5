"""Restart-from-disk: nodes and 2PC agents rebuilt purely from SimDisk."""

import pytest

from repro.common.errors import ValidationError
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.durability.recovery import diff_databases, recover
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA


def durable_cluster(**kwargs):
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            durability=DurabilityConfig(snapshot_interval=6),
            **kwargs,
        )
    )


def run_traffic(cluster, n_creates=10, n_transfers=5):
    driver = cluster.driver
    alice = keypair_from_string("alice")
    bob = keypair_from_string("bob")
    creates = []
    for i in range(n_creates):
        create = driver.prepare_create(alice, {"capabilities": ["x"], "rank": i})
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    cluster.run()
    for create in creates[:n_transfers]:
        transfer = driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)]
        )
        cluster.submit_payload(transfer.to_dict())
    cluster.run()
    return creates


class TestNodeRestart:
    def test_restart_rebuilds_database_and_chain_from_disk(self):
        cluster = durable_cluster()
        run_traffic(cluster)
        node = cluster.engine.validator_order[0]
        server = cluster.servers[node]
        counts_before = {
            name: server.database.collection(name).count({})
            for name in server.database.collection_names()
        }
        chain_before = [
            (b.height, b.block_id) for b in cluster.engine.validator(node).chain
        ]
        old_database = server.database
        cluster.restart_node_from_disk(node, torn_bytes=17)
        cluster.run()
        server = cluster.servers[node]
        assert server.database is not old_database  # memory was discarded
        counts_after = {
            name: server.database.collection(name).count({})
            for name in server.database.collection_names()
        }
        assert counts_after == counts_before
        assert [
            (b.height, b.block_id) for b in cluster.engine.validator(node).chain
        ] == chain_before

    def test_restarted_node_keeps_committing_with_the_cluster(self):
        cluster = durable_cluster()
        creates = run_traffic(cluster)
        node = cluster.engine.validator_order[1]
        cluster.restart_node_from_disk(node)
        # Traffic after the restart must land on the restarted node too.
        driver = cluster.driver
        alice = keypair_from_string("alice")
        bob = keypair_from_string("bob")
        transfer = driver.prepare_transfer(
            alice, [(creates[-1].tx_id, 0, 1)], creates[-1].tx_id,
            [(bob.public_key, 1)],
        )
        record = cluster.submit_and_settle(transfer)
        assert record.committed_at is not None
        restarted_blocks = cluster.servers[node].database.collection("blocks")
        reference_blocks = cluster.servers[
            cluster.engine.validator_order[0]
        ].database.collection("blocks")
        assert restarted_blocks.count({}) == reference_blocks.count({})

    def test_post_restart_journal_extends_the_log(self):
        cluster = durable_cluster()
        run_traffic(cluster)
        node = cluster.engine.validator_order[0]
        cluster.restart_node_from_disk(node)
        run_traffic(cluster, n_creates=4, n_transfers=2)
        recovered, _ = cluster.recover_node(node, repair=False)
        assert diff_databases(cluster.servers[node].database, recovered.database) == []

    def test_restart_without_durability_raises(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4))
        with pytest.raises(ValidationError):
            cluster.restart_node_from_disk(cluster.engine.validator_order[0])


class TestLockForcedDurability:
    def test_lock_adoption_is_durable_before_any_vote_leaves(self):
        """Regression: with a lazy flush interval, the precommit a lock
        licenses must never outrun the lock's durability — the journal
        record is force-flushed at adoption, so a crash-restart in the
        flush window cannot forget the lock while the vote survives."""
        from repro.consensus.types import PREVOTE, Block, TxEnvelope, Vote

        cluster = SmartchainCluster(
            ClusterConfig(
                n_validators=4,
                durability=DurabilityConfig(flush_interval=0.002, max_latency=0.002),
            )
        )
        node = cluster.engine.validator_order[0]
        validator = cluster.engine.validator(node)
        envelope = TxEnvelope("tx-lock", {"id": "tx-lock"}, 64, 1)
        block = Block.build(1, 0, node, [envelope], validator.state.last_block_id)
        validator.state.proposals[(1, 0)] = {block.block_id: block}
        for voter in cluster.engine.validator_order[:3]:
            validator._handle_vote(Vote(PREVOTE, 1, 0, block.block_id, voter), voter)
        assert validator.state.locked_value is not None
        # WITHOUT running the loop (the lazy flush never fired), the lock
        # must already be durable on the device.
        durability = cluster.node_durability[node]
        records = [rec for _, rec in durability.wal.scan() if rec.get("k") == "lock"]
        assert records and records[-1]["b"]["id"] == block.block_id

    def test_prevotes_past_the_quorum_do_not_journal_the_lock_again(self):
        """Regression: the fourth prevote reaches the polka rule
        like the third and used to re-adopt the identical lock — a second
        ``lock`` frame carrying the whole block, a second forced sync and
        a doubled ``consensus_lock_adoptions``, at every height."""
        from repro.consensus.types import PREVOTE, Block, TxEnvelope, Vote

        cluster = SmartchainCluster(
            ClusterConfig(
                n_validators=4,
                durability=DurabilityConfig(flush_interval=0.002, max_latency=0.002),
            )
        )
        order = cluster.engine.validator_order
        node = order[0]
        validator = cluster.engine.validator(node)
        durability = cluster.node_durability[node]
        adoptions = cluster.telemetry.counter("consensus_lock_adoptions", node=node)

        def lock_frames():
            return [
                (rec["b"]["h"], rec["r"], rec["b"]["id"])
                for _, rec in durability.wal.scan()
                if rec.get("k") == "lock"
            ]

        envelope = TxEnvelope("tx-lock", {"id": "tx-lock"}, 64, 1)
        block = Block.build(1, 0, node, [envelope], validator.state.last_block_id)
        validator.state.proposals[(1, 0)] = {block.block_id: block}
        for voter in order[:3]:
            validator._handle_vote(Vote(PREVOTE, 1, 0, block.block_id, voter), voter)
        assert lock_frames() == [(1, 0, block.block_id)]
        syncs = durability.log.stats["flushes"]
        validator._handle_vote(Vote(PREVOTE, 1, 0, block.block_id, order[3]), order[3])
        assert lock_frames() == [(1, 0, block.block_id)]
        assert durability.log.stats["flushes"] == syncs
        assert adoptions.value == 1
        assert ("precommit", 0) in validator.state.acted
        # A polka for the same block in a later round *moves* the lock:
        # that is a new (height, round) and is journaled — once.
        again = Block.build(1, 1, order[2], [envelope], validator.state.last_block_id)
        assert again.block_id == block.block_id
        validator.state.proposals[(1, 1)] = {again.block_id: again}
        for voter in order:
            validator._handle_vote(Vote(PREVOTE, 1, 1, again.block_id, voter), voter)
        assert lock_frames() == [(1, 0, block.block_id), (1, 1, block.block_id)]
        assert adoptions.value == 2
        assert validator.state.locked_round == 1

    def test_a_run_leaves_one_lock_frame_per_height_and_round_locked(self):
        """Decode every validator's WAL after real traffic: one ``lock``
        frame per (height, round) the validator adopted, as many as its
        adoption counter says, and every committed height locked by a
        quorum of validators."""
        cluster = SmartchainCluster(
            ClusterConfig(
                n_validators=4,
                seed=3,
                # No checkpoint: retiring segments would hide early frames.
                durability=DurabilityConfig(snapshot_interval=10**9),
            )
        )
        run_traffic(cluster, n_creates=24, n_transfers=12)
        heights = [block.height for block in cluster.engine.validator(cluster.engine.validator_order[0]).chain]
        assert len(heights) >= 4
        lockers = {height: 0 for height in heights}
        for node in cluster.engine.validator_order:
            frames = [
                (rec["b"]["h"], rec["r"])
                for _, rec in cluster.node_durability[node].wal.scan()
                if rec.get("k") == "lock"
            ]
            assert frames == sorted(set(frames)), node
            assert len(frames) == cluster.telemetry.counter("consensus_lock_adoptions", node=node).value
            for height, _ in frames:
                lockers[height] += 1
        assert all(count >= 3 for count in lockers.values()), lockers


class TestShardedRestart:
    def test_participant_agent_restart_between_prepare_and_decision(self):
        cluster = ShardedCluster(
            ShardedClusterConfig(
                n_shards=2, seed=11, durability=DurabilityConfig(snapshot_interval=6)
            )
        )
        driver = cluster.driver
        alice = keypair_from_string("alice")
        bob = keypair_from_string("bob")
        create = driver.prepare_create(alice, {"capabilities": ["x"]})
        cluster.submit_and_settle(create)
        home = cluster.router.home_of_tx(create.tx_id)
        target = next(s for s in cluster.shard_ids if s != home)

        restarted = []

        def on_phase(shard_id, phase, tx_id):
            if phase == "prepared" and not restarted:
                restarted.append(shard_id)
                cluster.loop.schedule_in(
                    0.0,
                    lambda: cluster.agents[shard_id].restart_from_disk(torn_bytes=9),
                )

        for agent in cluster.agents.values():
            agent.phase_listeners.append(on_phase)

        transfer = driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)],
            metadata={
                SHARD_KEY_METADATA: cluster.ring.key_landing_on(target, prefix="mig")
            },
        )
        record = cluster.submit_and_settle(transfer)
        assert restarted, "the 2PC prepare phase never fired"
        # Atomicity holds across the restart: a single outcome, no lock
        # left prepared, and the prepared lock itself survived the disk
        # round-trip (the forced write before the YES vote).
        assert record.committed_at is not None or record.rejected is not None
        for agent in cluster.agents.values():
            assert agent.active_locks() == []
            assert agent.unfinished() == []
        agent = cluster.agents[restarted[0]]
        recovered = recover(
            agent.durability,
            lambda: agent._make_durable_database(journaled=False),
            repair=False,
        )
        assert diff_databases(agent.durable, recovered.database) == []

    def test_node_restart_in_sharded_deployment(self):
        cluster = ShardedCluster(
            ShardedClusterConfig(
                n_shards=2, seed=5, durability=DurabilityConfig(snapshot_interval=6)
            )
        )
        driver = cluster.driver
        alice = keypair_from_string("alice")
        create = driver.prepare_create(alice, {"capabilities": ["x"]})
        cluster.submit_and_settle(create)
        home = cluster.router.home_of_tx(create.tx_id)
        shard = cluster.shards[home]
        node = shard.engine.validator_order[0]
        shard.restart_node_from_disk(node, torn_bytes=5)
        cluster.run()
        reference = shard.servers[shard.engine.validator_order[1]]
        restarted = shard.servers[node]
        assert restarted.database.collection("blocks").count(
            {}
        ) == reference.database.collection("blocks").count({})
