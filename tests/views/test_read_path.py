"""Read path integration: server views, the scan reference path, the facade."""

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


def durable_cluster():
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=23,
            durability=DurabilityConfig(snapshot_interval=6),
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
    def test_every_deployment_has_views_and_scan_still_scans(self):
        deployments = [
            durable_cluster(),
            SmartchainCluster(ClusterConfig(n_validators=4)),
            ShardedCluster(ShardedClusterConfig(n_shards=2)),
        ]
        for deployment in deployments:
            assert isinstance(deployment.views, ViewManager)
            shards = getattr(deployment, "shards", {"": deployment}).values()
            for server in (s for shard in shards for s in shard.servers.values()):
                assert server.views is deployment.views
                server.open_requests(source="scan")
                server.outputs_for(ALICE.public_key, source="scan")
                assert server.read_stats == {"view_served": 0, "scan_fallback": 2}

    def test_view_served_reads_equal_scans(self):
        cluster = durable_cluster()
        _, request, transfer = marketplace_history(cluster)
        server = cluster.any_server()
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

    def test_a_lagging_node_serves_auto_reads_from_the_views(self):
        """No freshness check: the views hold every commit of the shard,
        so a node that fell behind still answers from them."""
        cluster = durable_cluster()
        marketplace_history(cluster)
        lagging = cluster.engine.validator_order[3]
        cluster.failures.crash_now(lagging)
        request = cluster.driver.prepare_request(BOB, ["3d-print"])
        assert cluster.submit_and_settle(request).committed_at is not None
        server = cluster.servers[lagging]
        assert request.tx_id in {r["id"] for r in server.open_requests("3d-print")}
        scanned = server.open_requests("3d-print", source="scan")
        assert request.tx_id not in {r["id"] for r in scanned}
        assert server.read_stats == {"view_served": 1, "scan_fallback": 1}

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
                durability=DurabilityConfig(snapshot_interval=6),
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
        assert all(deployment.views.height(shard_id) > 0 for shard_id in deployment.shard_ids)


def wallet(documents):
    return sorted(documents, key=lambda doc: (doc["transaction_id"], doc["output_index"]))


def by_id(documents):
    return sorted(documents, key=lambda doc: doc["id"])


def scramble(value):
    """Mutate every dict and list nested in ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scramble(item)
        value["scrambled"] = True
    elif isinstance(value, list):
        for item in value:
            scramble(item)
        value.append("scrambled")


class TestVolatileDeployments:
    """Deployments without durability read from the same commit-fed views;
    the scan is the reference they must equal."""

    def test_one_shard_auto_reads_equal_scans(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=29))
        _, request, _ = marketplace_history(cluster)
        for server in cluster.servers.values():
            for capability in (None, "3d-print", "weld"):
                assert by_id(server.open_requests(capability)) == by_id(
                    server.open_requests(capability, source="scan")
                )
            assert [r["id"] for r in server.open_requests()] == [request.tx_id]
            for account in (ALICE, BOB, SALLY):
                assert wallet(server.outputs_for(account.public_key)) == wallet(
                    server.outputs_for(account.public_key, source="scan")
                )
            assert server.read_stats == {"view_served": 7, "scan_fallback": 6}

    def test_two_shard_facade_and_server_reads_equal_scans(self):
        deployment = ShardedCluster(ShardedClusterConfig(n_shards=2, n_validators=4, seed=31))
        _, request, _ = marketplace_history(deployment)
        servers = [shard.any_server() for shard in deployment.shards.values()]
        scanned = [r for server in servers for r in server.open_requests(source="scan")]
        assert by_id(deployment.open_requests()) == by_id(scanned)
        assert [r["id"] for r in deployment.open_requests("3d-print")] == [request.tx_id]
        for account in (ALICE, BOB, SALLY):
            key = account.public_key
            scanned = [d for server in servers for d in server.outputs_for(key, source="scan")]
            assert wallet(deployment.outputs_for(key)) == wallet(scanned)
            for server in servers:
                assert wallet(server.outputs_for(key)) == wallet(
                    server.outputs_for(key, source="scan")
                )
        assert all(deployment.views.height(shard_id) > 0 for shard_id in deployment.shard_ids)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_mutating_a_read_leaves_the_views_alone(self, sharded):
        if sharded:
            deployment = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=37))
        else:
            deployment = SmartchainCluster(ClusterConfig(n_validators=4, seed=37))
        marketplace_history(deployment)
        server = (
            next(iter(deployment.shards.values())) if sharded else deployment
        ).any_server()

        def reads():
            served = [server.open_requests()]
            served += [server.outputs_for(k.public_key) for k in (ALICE, BOB, SALLY)]
            if sharded:
                served.append(deployment.open_requests())
                served += [deployment.outputs_for(k.public_key) for k in (ALICE, BOB, SALLY)]
            return served

        served, snapshot = reads(), deployment.views.consistency_snapshot()
        expected = deep_copy_json(served)
        assert any(served)
        # A wallet answer is a shallow copy: its public_keys list is the
        # one field a caller could reach the view's document through.
        owned = next(document for answer in served[1:4] for document in answer)
        owned["public_keys"].clear()
        scramble(served)
        assert reads() == expected
        assert deployment.views.consistency_snapshot() == snapshot
