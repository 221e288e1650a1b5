"""Read path integration: server views, freshness fallback, the facade."""

import pytest

from repro.common.encoding import deep_copy_json
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.views import ViewManager

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")


def durable_cluster(**kwargs):
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=23,
            durability=DurabilityConfig(snapshot_interval=60),
            **kwargs,
        )
    )


def marketplace_history(cluster):
    driver = cluster.driver
    creates = []
    for rank in range(4):
        create = driver.prepare_create(
            ALICE, {"capabilities": ["3d-print"], "rank": rank}
        )
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    cluster.run()
    request = driver.prepare_request(SALLY, ["3d-print"])
    cluster.submit_payload(request.to_dict())
    cluster.run()
    transfer = driver.prepare_transfer(
        ALICE, [(creates[0].tx_id, 0, 1)], creates[0].tx_id, [(BOB.public_key, 1)]
    )
    cluster.submit_payload(transfer.to_dict())
    cluster.run()
    return creates, request, transfer


class TestViewWiring:
    def test_views_auto_enable_with_durability_only(self):
        assert durable_cluster().views is not None
        assert SmartchainCluster(ClusterConfig(n_validators=4)).views is None
        assert durable_cluster(views=False).views is None

    def test_view_served_reads_equal_scans(self):
        cluster = durable_cluster()
        _, request, transfer = marketplace_history(cluster)
        server = cluster.any_server()
        assert server.views_current()
        assert [r["id"] for r in server.open_requests(source="views")] == [
            r["id"] for r in server.open_requests(source="scan")
        ] == [request.tx_id]
        key = lambda doc: (doc["transaction_id"], doc["output_index"])
        assert sorted(map(key, server.outputs_for(BOB.public_key, source="views"))) == \
            sorted(map(key, server.outputs_for(BOB.public_key, source="scan")))

    def test_view_reads_are_copies_not_aliases(self):
        cluster = durable_cluster()
        _, request, _ = marketplace_history(cluster)
        server = cluster.any_server()
        served = server.open_requests(source="views")
        served[0]["operation"] = "MUTATED"
        assert server.open_requests(source="views")[0]["operation"] == "REQUEST"

    def test_wallet_reads_equal_deep_copies_and_own_their_lists(self):
        cluster = durable_cluster()
        marketplace_history(cluster)
        server = cluster.any_server()
        documents = server.views.outputs_for(ALICE.public_key, shard=server.views_shard)
        served = server.outputs_for(ALICE.public_key, source="views")
        assert served and served == deep_copy_json(documents)
        served[0]["public_keys"].append(BOB.public_key)
        served[0]["amount"] = 99
        assert server.outputs_for(ALICE.public_key, source="views") == deep_copy_json(documents)
        assert documents[0]["public_keys"] == [ALICE.public_key]

    def test_stale_views_fall_back_to_scans(self):
        cluster = durable_cluster()
        marketplace_history(cluster)
        server = cluster.any_server()
        # Simulate the commit-to-flush window: views behind the chain.
        server.views._heights[server.views_shard] -= 1
        assert not server.views_current()
        before = server.read_stats.get("scan_fallback", 0)
        assert server.open_requests() == server.open_requests(source="scan")
        assert server.read_stats["scan_fallback"] > before

    def test_read_counters_track_the_serving_side(self):
        cluster = durable_cluster()
        marketplace_history(cluster)
        server = cluster.any_server()
        server.open_requests()
        assert server.read_stats.get("view_served", 0) >= 1
        server.open_requests(source="scan")
        assert server.read_stats.get("scan_fallback", 0) >= 1

    def test_views_survive_restart_from_disk(self):
        cluster = durable_cluster()
        creates, request, _ = marketplace_history(cluster)
        node = cluster.engine.validator_order[0]
        cluster.restart_node_from_disk(node)
        transfer = cluster.driver.prepare_transfer(
            ALICE, [(creates[1].tx_id, 0, 1)], creates[1].tx_id,
            [(BOB.public_key, 1)],
        )
        cluster.submit_and_settle(transfer)
        server = cluster.servers[node]
        key = lambda doc: (doc["transaction_id"], doc["output_index"])
        assert sorted(map(key, server.outputs_for(BOB.public_key, source="views"))) == \
            sorted(map(key, server.outputs_for(BOB.public_key, source="scan")))


class TestShardedFacade:
    def test_facade_reads_merge_all_shards(self):
        deployment = ShardedCluster(
            ShardedClusterConfig(
                n_shards=2,
                n_validators=4,
                durability=DurabilityConfig(snapshot_interval=60),
            )
        )
        driver = deployment.driver
        creates = []
        for rank in range(6):
            create = driver.prepare_create(ALICE, {"capabilities": ["weld"], "rank": rank})
            deployment.submit_payload(create.to_dict())
            creates.append(create)
        deployment.run()
        request = driver.prepare_request(SALLY, ["weld"])
        deployment.submit_payload(request.to_dict())
        deployment.run()

        assert [r["id"] for r in deployment.open_requests("weld")] == [request.tx_id]
        scan_refs = sorted(
            (doc["transaction_id"], doc["output_index"])
            for shard in deployment.shards.values()
            for doc in shard.any_server().outputs_for(ALICE.public_key, source="scan")
        )
        facade_refs = sorted(
            (doc["transaction_id"], doc["output_index"])
            for doc in deployment.outputs_for(ALICE.public_key)
        )
        assert facade_refs == scan_refs
        served = deployment.outputs_for(ALICE.public_key)
        assert served == deep_copy_json(deployment.views.outputs_for(ALICE.public_key))
        served[0]["public_keys"].clear()
        assert deployment.outputs_for(ALICE.public_key)[0]["public_keys"] == [ALICE.public_key]
        # One deployment-global manager, fed per shard.
        assert set(deployment.views.heights()) == set(deployment.shard_ids)
