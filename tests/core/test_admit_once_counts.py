"""Admit once, counted: per committed record, how often a 4-validator
cluster walks the schema, parses, copies and encodes a transaction.

Deterministic counts, no clocks.  The figures at the parent commit were
5 schema walks, 8 parses, 4 server-side ``to_dict`` rebuilds and 5 whole
copies per record, and on a durable cluster one canonical encoding per
replica per frame.
"""

from collections import Counter
from contextlib import contextmanager

import pytest

from repro.common import encoding
from repro.common.encoding import canonical_bytes
from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.transaction import Transaction
from repro.core.validation import AdmissionMemo, set_shared_memo, shared_memo
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.schema.registry import SchemaRegistry

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")

#: Modules that bound ``deep_copy_json`` by ``from ... import`` and sit on
#: the write path between ``submit_payload`` and the committed state.
COPYING_MODULES = (
    "repro.core.cluster",
    "repro.core.server",
    "repro.core.transaction",
    "repro.storage.collection",
    "repro.storage.compiler",
)


@pytest.fixture(autouse=True)
def fresh_memo():
    previous = set_shared_memo(AdmissionMemo())
    yield
    set_shared_memo(previous)


def _is_whole_payload(value) -> bool:
    return isinstance(value, dict) and {"id", "operation", "inputs", "outputs"} <= value.keys()


@contextmanager
def counting(monkeypatch):
    """Per-transaction-id counts of the four per-record costs."""
    import importlib

    counts = {name: Counter() for name in ("schema", "parse", "rebuild", "copy", "encode")}

    schema_walk = SchemaRegistry.validate_transaction
    parse = Transaction.from_dict.__func__
    rebuild = Transaction.to_dict
    deep_copy = encoding.deep_copy_json
    serialize = encoding.canonical_serialize

    def counted_schema(self, payload):
        counts["schema"][payload.get("id")] += 1
        return schema_walk(self, payload)

    def counted_parse(cls, payload):
        counts["parse"][payload.get("id")] += 1
        return parse(cls, payload)

    def counted_rebuild(self):
        if self.sealed:  # the shared server-side parse, not a client's draft
            counts["rebuild"][self.tx_id] += 1
        return rebuild(self)

    def counted_copy(value):
        if _is_whole_payload(value):
            counts["copy"][value["id"]] += 1
        return deep_copy(value)

    def counted_serialize(value):
        if _is_whole_payload(value):
            counts["encode"][value["id"]] += 1
        return serialize(value)

    with monkeypatch.context() as patch:
        patch.setattr(SchemaRegistry, "validate_transaction", counted_schema)
        patch.setattr(Transaction, "from_dict", classmethod(counted_parse))
        patch.setattr(Transaction, "to_dict", counted_rebuild)
        patch.setattr(encoding, "canonical_serialize", counted_serialize)
        for name in COPYING_MODULES:
            patch.setattr(importlib.import_module(name), "deep_copy_json", counted_copy)
        yield counts


def commit_fixed_mix(cluster) -> list[str]:
    """CREATE x4, REQUEST, TRANSFER, BID x2, ACCEPT_BID and the RETURN
    child it triggers; returns the committed ids."""
    driver = cluster.driver
    creates = [
        driver.prepare_create(owner, {"capabilities": ["cap"], "blob": "x" * 600, "n": index})
        for index, owner in enumerate((ALICE, BOB, ALICE, BOB))
    ]
    request = driver.prepare_request(SALLY, ["cap"])
    for transaction in (*creates, request):
        cluster.submit_payload(transaction.to_dict())
    cluster.run()
    bids = [
        driver.prepare_bid(owner, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
        for owner, create in zip((ALICE, BOB), creates)
    ]
    transfer = driver.prepare_transfer(
        ALICE, [(creates[2].tx_id, 0, 1)], creates[2].tx_id, [(SALLY.public_key, 1)]
    )
    for transaction in (*bids, transfer):
        cluster.submit_payload(transaction.to_dict())
    cluster.run()
    cluster.submit_payload(driver.prepare_accept_bid(SALLY, request.tx_id, bids[0]).to_dict())
    cluster.run()
    records = cluster.committed_records()
    assert [record.rejected for record in cluster.records.values()] == [None] * 10
    assert sorted(Counter(record.operation for record in records).items()) == [
        ("ACCEPT_BID", 1), ("BID", 2), ("CREATE", 4), ("REQUEST", 1), ("RETURN", 1), ("TRANSFER", 1),
    ]
    for server in cluster.servers.values():
        assert len(server.database.collection("transactions")) == 10
    return [record.tx_id for record in records]


def cluster_of_four(durability=None) -> SmartchainCluster:
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=23,
            consensus=tendermint_config(max_block_txs=8, propose_timeout=0.5),
            durability=durability,
        )
    )


def assert_once_per_record(counts, committed):
    once = {tx_id: 1 for tx_id in committed}
    assert dict(counts["schema"]) == once
    assert dict(counts["parse"]) == once
    assert dict(counts["rebuild"]) == {}
    # The submit boundary's copy and encoding, and no other.
    assert dict(counts["copy"]) == once
    assert dict(counts["encode"]) == once


def test_volatile_cluster_admits_each_record_once(monkeypatch):
    cluster = cluster_of_four()
    with counting(monkeypatch) as counts:
        committed = commit_fixed_mix(cluster)
    assert_once_per_record(counts, committed)
    # Every replica holds the one frozen payload the memo vouches for.
    for tx_id in committed:
        documents = [
            server.database.collection("transactions").find_one({"id": tx_id}, copy=False)
            for server in cluster.servers.values()
        ]
        assert all(document is documents[0] for document in documents)
        assert shared_memo().lookup(documents[0]) is not None


def test_durable_cluster_encodes_each_payload_once_per_process(monkeypatch):
    cluster = cluster_of_four(DurabilityConfig(snapshot_interval=2))
    with counting(monkeypatch) as counts:
        committed = commit_fixed_mix(cluster)
        for durability in cluster.node_durability.values():
            durability.checkpoint()
    assert_once_per_record(counts, committed)
    for tx_id in committed:
        fragments = []
        for server in cluster.servers.values():
            transactions = server.database.collection("transactions")
            ((doc_id, document),) = transactions._match_ids({"id": tx_id})
            fragments.append(transactions._fragments[doc_id])
        payload_bytes = shared_memo().lookup(document).encoded
        assert payload_bytes == canonical_bytes(document)
        # One bytes object: the submit boundary's, in every replica's
        # journal record and checkpoint ...
        assert all(fragment is payload_bytes for fragment in fragments)
        # ... and inside every replica's block record.
        for node_id in cluster.engine.validator_order:
            validator = cluster.engine.validator(node_id)
            assert any(payload_bytes in body for _, body in validator._block_bytes.values())
