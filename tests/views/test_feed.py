"""ChangeFeed: one commit-fed feed per shard.

The views apply each height once per shard, at its first certified
commit, and only the transactions that block delivered: no node's chain
is ever ahead of them, so every ``source="auto"`` read is view-served.
"""

import pytest

from repro.consensus.bft import CommitRecord
from repro.consensus.types import Block
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.views import ChangeFeed, ViewManager

from tests.sharding.test_chain_entries import refused_spend

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")


def durable_cluster(seed=23, snapshot_interval=60, flush_interval=0.0):
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=seed,
            durability=DurabilityConfig(
                snapshot_interval=snapshot_interval, flush_interval=flush_interval
            ),
        )
    )


def durable_deployment(seed=2024):
    return ShardedCluster(
        ShardedClusterConfig(n_shards=2, n_validators=4, seed=seed, durability=DurabilityConfig())
    )


def longest_chain(cluster) -> int:
    return max(len(cluster.engine.validator(n).chain) for n in cluster.engine.validator_order)


def submit_creates(cluster, count, capability="x"):
    creates = []
    for rank in range(count):
        create = cluster.driver.prepare_create(ALICE, {"capabilities": [capability], "rank": rank})
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    return creates


class TestOncePerHeight:
    # The group-commit window no longer matters: the views read commits,
    # not flushes.
    @pytest.mark.parametrize("flush_interval", [0.0, 0.002])
    def test_each_height_applies_once_on_a_durable_cluster(self, flush_interval):
        cluster = durable_cluster(flush_interval=flush_interval)
        creates = submit_creates(cluster, 12)
        cluster.run()
        for create in creates[:4]:
            cluster.submit_payload(
                cluster.driver.prepare_transfer(
                    ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
                ).to_dict()
            )
        cluster.run()
        views = cluster.views
        assert longest_chain(cluster) >= 3
        assert views.stats["blocks_applied"] == longest_chain(cluster)
        assert views.height(cluster.view_shard_key) == longest_chain(cluster)
        assert views.stats["blocks_duplicate"] == 0
        assert views.stats["txs_applied"] == 16

    def test_each_height_applies_once_per_shard_of_a_deployment(self):
        deployment = durable_deployment()
        submit_creates(deployment, 12)
        deployment.run()
        views = deployment.views
        chains = {shard_id: longest_chain(shard) for shard_id, shard in deployment.shards.items()}
        assert all(chains.values())
        assert {shard_id: views.height(shard_id) for shard_id in chains} == chains
        assert views.stats["blocks_applied"] == sum(chains.values())
        assert views.stats["blocks_duplicate"] == 0

    def test_commit_records_come_once_per_height_in_height_order(self):
        cluster = durable_cluster()
        submit_creates(cluster, 20)
        cluster.run()
        commits = cluster.engine.commits
        assert [record.block.height for record in commits] == list(
            range(1, longest_chain(cluster) + 1)
        )
        for record in commits:
            delivered = [envelope.tx_id for envelope in record.delivered]
            for server in cluster.servers.values():
                document = server.database.collection("blocks").find_one(
                    {"height": record.block.height}
                )
                assert document["transaction_ids"] == delivered

    def test_a_feed_handed_a_skipped_height_raises(self):
        views = ViewManager()
        feed = ChangeFeed(views, "main")
        block = Block.build(2, 0, "scdb-0", [], "x" * 64)
        with pytest.raises(ValueError):
            feed._on_flush(
                CommitRecord(block=block, committed_at=0.0, node_id="scdb-0", delivered=[])
            )
        assert views.height("main") == 0


class TestAsFinalAsTheAcknowledgement:
    @pytest.mark.parametrize("build", [durable_cluster, durable_deployment])
    def test_the_views_hold_a_request_when_its_commit_callback_fires(self, build):
        deployment = build()
        request = deployment.driver.prepare_request(BOB, ["weld"])
        seen = []

        def on_settled(status, detail):
            seen.append((status, [r["id"] for r in deployment.views.open_requests("weld")]))

        deployment.submit_payload(request.to_dict(), callback=on_settled)
        deployment.run()
        assert seen == [("committed", [request.tx_id])]


class TestDeliveredOnly:
    def test_a_spend_its_block_carried_but_deliver_tx_refused_never_reaches_the_views(self):
        deployment = durable_deployment(seed=7)
        owner, create, _origin, home, evidence = refused_spend(deployment)
        deployment.run()
        views = deployment.views
        spend = evidence["payload"]
        local = spend["inputs"][1]["fulfills"]
        assert views.height(home) >= evidence["header"]["height"]
        assert views.transaction(spend["id"]) is None
        rival = views.spender_of(local["transaction_id"], local["output_index"])
        assert rival is not None and rival["id"] != spend["id"]
        assert views.spender_of(create.tx_id, 0) is None
        owned = views.outputs_for(owner.public_key)
        assert (create.tx_id, 0) in {(doc["transaction_id"], doc["output_index"]) for doc in owned}


def torn_restart_cluster():
    # No checkpoint: one right after the unsynced flush would save the block.
    cluster = durable_cluster(seed=29, snapshot_interval=10**9)
    return cluster, cluster


def torn_restart_deployment():
    deployment = ShardedCluster(
        ShardedClusterConfig(
            n_shards=2, seed=29, durability=DurabilityConfig(snapshot_interval=10**9)
        )
    )
    return deployment, deployment.shards["shard-0"]


class TestTornRestart:
    @pytest.mark.parametrize("build", [torn_restart_cluster, torn_restart_deployment])
    def test_no_node_is_ahead_of_the_views_through_a_torn_restart(self, build):
        """A node loses its newest block to a power failure mid-flush (the
        frames reached the device, the sync did not), restarts from disk
        keeping a torn prefix, and catches up.  After every event every
        node's chain is at or below the views, and reads stay view-served."""
        deployment, cluster = build()
        shard = cluster.view_shard_key
        views = deployment.views
        order = cluster.engine.validator_order
        victim = order[1]
        durability = cluster.node_durability[victim]
        creates = submit_creates(deployment, 24, capability="weld")
        deployment.submit_payload(deployment.driver.prepare_request(BOB, ["weld"]).to_dict())
        torn_at = None
        chains = [0] * len(order)
        reads = 0
        while deployment.loop.step():
            lengths = [len(cluster.engine.validator(n).chain) for n in order]
            assert max(lengths) <= views.height(shard)
            victim_committed = lengths[1] > chains[1]
            if lengths != chains:
                chains = lengths
                for node_id in order:
                    if not cluster.network.is_crashed(node_id):
                        server = cluster.servers[node_id]
                        server.open_requests("weld")
                        server.outputs_for(ALICE.public_key)
                        reads += 2
            if torn_at is None and victim_committed and lengths[1] >= 3:
                assert durability.log.pending
                torn_at = lengths[1]
                durability.wal.sync = lambda: None  # the power fails before the sync
                durability.log.flush_now()
                cluster.restart_node_from_disk(victim, torn_bytes=11)
                assert len(cluster.engine.validator(victim).chain) < torn_at
        assert torn_at is not None
        assert len(cluster.engine.validator(victim).chain) == longest_chain(cluster)
        assert views.height(shard) == longest_chain(cluster)
        assert views.stats["txs_applied"] == len(creates) + 1
        assert views.stats["blocks_duplicate"] == 0
        assert reads > 0
        for server in cluster.servers.values():
            assert server.read_stats["scan_fallback"] == 0
        assert sum(server.read_stats["view_served"] for server in cluster.servers.values()) == reads
