"""Caller-owned read answers are built with the cyclic collector paused.

Every answer a caller owns (durable and volatile ``find``, the wallet and
open-RFQ reads from the views and from the scan, and through the sharded
facade) is built inside :class:`~repro.common.encoding.collector_paused`.
Each path must still hand back a copy: scrambling an answer changes
neither the stored or view documents nor the next answer.  Each kernel
(orjson and the stdlib) builds the durable answers.
"""

import gc

import pytest

from repro.common import encoding
from repro.common.encoding import collector_paused, deep_copy_json
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.simtest.invariants import mv_consistency
from repro.simtest.plane import FaultPlane
from repro.storage.collection import Collection
from repro.views import ViewManager

from tests.views.test_custody_memo import block, create
from tests.views.test_read_path import scramble, wallet

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")


@pytest.fixture(params=["orjson", "stdlib"])
def kernel(request, monkeypatch):
    if request.param == "stdlib":
        monkeypatch.setattr(encoding, "_orjson", None)
    elif encoding._orjson is None:
        pytest.skip("orjson is not importable")


@pytest.fixture()
def collector_enabled():
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


def assert_owned(read, stored):
    """``read()`` answers a copy: scrambling it changes neither
    ``stored()`` (the documents the store or views hold) nor the next
    answer."""
    answer, before = read(), deep_copy_json(stored())
    assert answer
    expected = deep_copy_json(answer)
    scramble(answer)
    assert read() == expected
    assert stored() == before


def documents(n):
    return [
        {"id": f"t{i}", "outputs": [{"public_keys": ["k"], "amount": i}], "asset": {"n": i}}
        for i in range(n)
    ]


def filled(durable, n=1000):
    collection = Collection("t")
    collection.durable = durable
    collection.insert_many(documents(n))
    return collection


class TestCollectorPaused:
    @pytest.mark.parametrize(
        "enabled, raises", [(True, False), (False, False), (True, True)],
        ids=["enabled", "disabled", "raised"],
    )
    def test_the_collector_state_comes_back(self, collector_enabled, enabled, raises):
        if not enabled:
            gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
                with collector_paused():
                    pass
                assert not gc.isenabled()
                if raises:
                    raise KeyError("build failed")
        except KeyError:
            assert raises
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("durable", [True, False], ids=["durable", "volatile"])
    def test_a_large_find_runs_no_collection(self, kernel, collector_enabled, durable):
        collection = filled(durable)
        generations = []
        counting = [True]

        def count(phase, info):
            if counting and phase == "start":
                generations.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            answer = collection.find({})
            counting.clear()
        finally:
            gc.callbacks.remove(count)
        assert len(answer) == 1000
        assert generations == []
        assert gc.isenabled()


class TestFindAnswers:
    @pytest.mark.parametrize("durable", [True, False], ids=["durable", "volatile"])
    def test_find_answers_are_owned(self, kernel, durable):
        collection = filled(durable, n=20)
        query = {"outputs.public_keys": "k"}
        assert_owned(lambda: collection.find(query), lambda: collection.find(query, copy=False))


class TestWalletBranches:
    """Every branch of ``ViewManager.outputs_for`` serves owned copies
    through ``owned_outputs_for``."""

    def views(self, *shards):
        views = ViewManager()
        for name in shards:
            views.apply_block_record(
                name, *block(1, create(f"{name}1", "alice"), create(f"{name}2", "alice", "bob"))
            )
        return views

    @pytest.mark.parametrize(
        "shards, shard", [(("a",), "a"), (("a", "b"), "a"), (("a", "b"), None)],
        ids=["one-shard", "filtered", "merged"],
    )
    def test_wallet_answers_are_owned(self, shards, shard):
        views = self.views(*shards)
        assert_owned(
            lambda: views.owned_outputs_for("alice", shard),
            lambda: views.outputs_for("alice", shard),
        )

    def test_a_migration_override_serves_owned_answers(self):
        views = self.views("a")
        export = {"inputs": [{"fulfills": {"transaction_id": "a2", "output_index": 0}}]}
        views.apply_block_record(
            "b", *block(1, {"id": "i1", "operation": "SHARD_IMPORT", "export": export})
        )
        for shard, held in (("a", ["a1"]), ("b", ["a2"])):
            served = views.owned_outputs_for("alice", shard)
            assert [document["transaction_id"] for document in served] == held
            assert_owned(
                lambda: views.owned_outputs_for("alice", shard),
                lambda: views.outputs_for("alice", shard),
            )


@pytest.fixture(scope="module")
def deployment():
    """Two durable shards: a REQUEST, transfers, and a merge that re-homes
    shard-0's outputs on shard-1 (so the views hold migration overrides)."""
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=2, seed=17, durability=DurabilityConfig(snapshot_interval=6)
        )
    )
    driver = cluster.driver
    creates = []
    for rank in range(8):
        created = driver.prepare_create(ALICE, {"capabilities": ["weld"], "rank": rank})
        cluster.submit_payload(created.to_dict())
        creates.append(created)
    cluster.run()
    request = driver.prepare_request(SALLY, ["weld"])
    cluster.submit_payload(request.to_dict())
    for created in creates[:3]:
        transfer = driver.prepare_transfer(
            ALICE, [(created.tx_id, 0, 1)], created.tx_id, [(BOB.public_key, 1)]
        )
        cluster.submit_payload(transfer.to_dict())
    cluster.run()
    migration = cluster.reshard("shard-0", target="shard-1")
    cluster.run()
    assert cluster.migrator.migrations[migration].moved
    assert cluster.views._shard_overrides
    return cluster


class TestDeploymentAnswers:
    def test_server_answers_are_owned_on_views_and_scan(self, kernel, deployment):
        views, checked = deployment.views, 0
        for shard_id, shard in deployment.shards.items():
            server = shard.any_server()
            utxos = server.database.collection("utxos")
            transactions = server.database.collection("transactions")
            stored = {
                "views": (
                    lambda key: views.outputs_for(key, shard_id),
                    lambda: views.open_requests(shard=shard_id),
                ),
                "scan": (
                    lambda key: utxos.find({"public_keys": key}, copy=False),
                    lambda: transactions.find({"operation": "REQUEST"}, copy=False),
                ),
            }
            for source, (stored_outputs, stored_requests) in stored.items():
                for key in (ALICE.public_key, BOB.public_key):
                    if server.outputs_for(key, source=source):
                        checked += 1
                        assert_owned(
                            lambda: server.outputs_for(key, source=source),
                            lambda: stored_outputs(key),
                        )
                if server.open_requests(source=source):
                    checked += 1
                    assert_owned(lambda: server.open_requests(source=source), stored_requests)
        # The merge left every output and the REQUEST on shard-1.
        assert checked == 6

    def test_facade_answers_are_owned(self, kernel, deployment):
        views = deployment.views
        assert_owned(deployment.open_requests, views.open_requests)
        for key in (ALICE.public_key, BOB.public_key):
            assert_owned(lambda: deployment.outputs_for(key), lambda: views.outputs_for(key))

    def test_wallets_from_views_equal_scans_and_the_views_are_consistent(self, deployment):
        held = 0
        for shard in deployment.shards.values():
            server = shard.any_server()
            for key in (ALICE.public_key, BOB.public_key, SALLY.public_key):
                served = wallet(server.outputs_for(key, source="views"))
                assert served == wallet(server.outputs_for(key, source="scan"))
                held += len(served)
        assert held == 8 + 1  # eight assets, and the REQUEST's output
        assert mv_consistency(FaultPlane(deployment)) == []
