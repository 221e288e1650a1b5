"""Caller-owned copies decoded from a durable collection's kept bytes.

``find(copy=True)`` on a durable collection builds its answer with one
``json.loads`` over the kept canonical bytes.  It must hand back exactly
what a deep copy of the stored documents is — same values, same types —
on a live replica and on one restarted from disk, and the copy must not
alias the store or the kept bytes.
"""

import pytest

from repro.common.encoding import deep_copy_json
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.storage.collection import Collection

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")

#: Asset data exercising what a JSON round trip could drift on.
AWKWARD = {
    "capabilities": ["3d-print"],
    "name": "fräse 漢字 🚀 \"quoted\" \\ back",
    "big": 2**80,
    "negative": -(2**70),
    "ratio": 0.1,
    "tiny": 5e-324,
    "huge": -1.5e300,
    "whole_float": 2.0,
    "flag": True,
    "nothing": None,
    "empty_list": [],
    "empty_object": {},
    "nested": [{"x": []}, [[]], {"": {}}],
}


def assert_exact(copy, reference, path="$"):
    """Equal values with identical types, all the way down."""
    assert type(copy) is type(reference), f"{path}: {type(copy)} != {type(reference)}"
    if isinstance(reference, dict):
        assert sorted(copy) == sorted(reference), path
        for key in reference:
            assert_exact(copy[key], reference[key], f"{path}.{key}")
    elif isinstance(reference, list):
        assert len(copy) == len(reference), path
        for index, (left, right) in enumerate(zip(copy, reference)):
            assert_exact(left, right, f"{path}[{index}]")
    else:
        assert copy == reference, path


def journaled_collections(cluster):
    for server in cluster.servers.values():
        database = server.database
        for name in database.collection_names():
            collection = database.collection(name)
            assert collection.durable, name
            yield collection


def assert_copies_match_the_store(cluster):
    checked = set()
    for collection in journaled_collections(cluster):
        queries = [{}]
        if collection.name == "transactions":
            queries.append({"operation": "CREATE"})
        for query in queries:
            stored = collection.find(query, copy=False)
            if not stored:
                continue
            checked.add(collection.name)
            for copy, document in zip(collection.find(query), stored, strict=True):
                assert_exact(copy, deep_copy_json(document))
            assert_exact(
                collection.find(query, limit=2), [deep_copy_json(d) for d in stored[:2]]
            )
            assert_exact(collection.find_one(query), deep_copy_json(stored[0]))
    assert {"transactions", "utxos", "blocks"} <= checked, checked


@pytest.fixture(scope="module")
def cluster():
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=4, seed=23, durability=DurabilityConfig(snapshot_interval=1)
        )
    )
    driver = cluster.driver
    create = driver.prepare_create(ALICE, AWKWARD, metadata={"note": "naïve", "n": 2**65})
    cluster.submit_and_settle(create)
    transfer = driver.prepare_transfer(
        ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)],
        metadata={"price": 12.5, "tags": []},
    )
    cluster.submit_and_settle(transfer)
    cluster.submit_and_settle(driver.prepare_create(BOB, {"capabilities": [], "n": 0}))
    return cluster


class TestParity:
    def test_live_replicas(self, cluster):
        assert_copies_match_the_store(cluster)

    def test_after_a_restart_from_disk(self, cluster):
        cluster.restart_node_from_disk(cluster.engine.validator_order[0])
        assert_copies_match_the_store(cluster)

    def test_awkward_values_survive(self, cluster):
        transactions = cluster.any_server().database.collection("transactions")
        (found,) = [
            d for d in transactions.find({"operation": "CREATE"})
            if d["asset"]["data"].get("name") == AWKWARD["name"]
        ]
        assert_exact(found["asset"]["data"], AWKWARD)


class TestCallerOwnsTheCopy:
    @pytest.fixture()
    def journaled(self):
        collection = Collection("c")
        collection.create_index("n")
        collection.durable = True
        for n in range(3):
            collection.insert_one({"n": n, "inner": {"list": [n], "text": "ü"}})
        return collection

    def test_mutating_a_result_changes_nothing_else(self, journaled):
        before = journaled.find({})
        kept = dict(journaled._fragments)
        stored = deep_copy_json(journaled.find({}, copy=False))
        for result in (journaled.find({}), [journaled.find_one({"n": 1})]):
            for document in result:
                document["inner"]["list"].append("x")
                document["inner"]["text"] = "changed"
                document["added"] = True
        assert journaled.find({}, copy=False) == stored
        assert journaled._fragments == kept
        assert journaled.find({}) == before

    def test_limit_and_find_one(self, journaled):
        assert [d["n"] for d in journaled.find({}, limit=2)] == [0, 1]
        assert journaled.find_one({"n": 2}) == {"n": 2, "inner": {"list": [2], "text": "ü"}}
        assert journaled.find_one({"n": 9}) is None

    def test_keys_come_back_in_canonical_order(self, journaled):
        journaled.insert_one({"zeta": 1, "alpha": {"b": 1, "a": 2}, "n": 7})
        found = journaled.find_one({"n": 7})
        assert list(found) == ["alpha", "n", "zeta"]
        assert list(found["alpha"]) == ["a", "b"]

    def test_a_document_without_kept_bytes_is_encoded_and_kept(self, journaled):
        journaled.update_many({"n": 1}, {"$set": {"inner.text": "neu"}})
        assert len(journaled._fragments) == 2
        assert journaled.find_one({"n": 1})["inner"]["text"] == "neu"
        assert len(journaled._fragments) == 3
