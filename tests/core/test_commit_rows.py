"""``commit_block`` stores the rows it builds by reference.

The ``utxos``, ``assets`` and ``blocks`` rows are built from the block and
its frozen payloads and stored without a copy on every replica; a UTXO row
shares its ``public_keys`` list with the payload's output.  What a reader
gets from ``find()`` is its own copy: mutating it changes neither the
payload nor any replica's stored row.
"""

import pytest

from repro.common.encoding import deep_copy_json
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")

ROWS = ("utxos", "assets", "blocks")


def committed_cluster(durable: bool) -> tuple[SmartchainCluster, str]:
    config = ClusterConfig(n_validators=4, seed=29)
    if durable:
        config.durability = DurabilityConfig(snapshot_interval=6)
    cluster = SmartchainCluster(config)
    create = cluster.driver.prepare_create(ALICE, {"tags": ["a", "b"], "spec": {"mm": 3}})
    cluster.submit_payload(create.to_dict())
    cluster.run()
    transfer = cluster.driver.prepare_transfer(
        ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
    )
    cluster.submit_payload(transfer.to_dict())
    cluster.run()
    assert cluster.any_server().get_transaction(transfer.tx_id) is not None
    return cluster, transfer.tx_id


def stored(cluster) -> dict:
    """Every replica's stored rows and payloads, as a snapshot."""
    return {
        node: {
            name: deep_copy_json(server.database.collection(name).find({}, copy=False))
            for name in (*ROWS, "transactions")
        }
        for node, server in cluster.servers.items()
    }


@pytest.mark.parametrize("durable", [False, True], ids=["volatile", "durable"])
def test_mutating_a_found_row_changes_no_stored_row(durable):
    cluster, transfer_id = committed_cluster(durable)
    before = stored(cluster)
    reader = cluster.any_server().database
    utxo = reader.collection("utxos").find_one({"transaction_id": transfer_id})
    utxo["public_keys"].append("mallory")
    utxo["amount"] = 10**6
    asset = reader.collection("assets").find({})[0]
    asset["data"]["tags"].append("c")
    asset["data"]["spec"]["mm"] = 0
    block = reader.collection("blocks").find({})[-1]
    block["transaction_ids"].append("f" * 64)
    block["height"] = -1
    assert stored(cluster) == before


def test_rows_share_the_frozen_payload_lists():
    cluster, transfer_id = committed_cluster(durable=False)
    for server in cluster.servers.values():
        database = server.database
        payload = database.collection("transactions").find_one({"id": transfer_id}, copy=False)
        row = database.collection("utxos").find_one({"transaction_id": transfer_id}, copy=False)
        assert row["public_keys"] is payload["outputs"][0]["public_keys"]
        [asset] = database.collection("assets").find({}, copy=False)
        create = database.collection("transactions").find_one({"id": asset["id"]}, copy=False)
        assert asset["data"] is create["asset"]["data"]
