"""The ledger's point queries compile nothing, and answer as before.

``ValidationContext.output_spender`` reads the transactions the
``inputs.fulfills.transaction_id`` index files under an output's id and
keeps those whose inputs name the outpoint itself.  Its answers must be
those of the ``$elemMatch`` query it replaced, evaluated by the
interpreter, on stored inputs no honest transaction carries, and a
non-string id or non-int index must still ask that query.
"""

import copy
import inspect
import textwrap

import pytest

from repro.common.errors import QueryError
from repro.consensus.types import TxEnvelope
from repro.core import context as context_module
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.context import REDIRECT_MARKER, ValidationContext
from repro.core.entries import SHARD_EXPORT
from repro.core.transaction import OutputRef
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage import compiler
from repro.storage.database import make_smartchaindb_database
from repro.storage.documents import matches

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")


def spend(tx_id, output_index):
    return {"fulfills": {"transaction_id": tx_id, "output_index": output_index}}


#: Spenders no validator would store, each filed under some ``tN``.
ODD_SPENDERS = [
    {"id": "genesis", "operation": "CREATE", "inputs": [{"fulfills": None}]},
    {"id": "then-junk", "operation": "TRANSFER", "inputs": [spend("t1", 5), "junk"]},
    {"id": "index-true", "operation": "TRANSFER", "inputs": [spend("t2", True)]},
    {"id": "index-float", "operation": "TRANSFER", "inputs": [spend("t2", 1.0)]},
    {"id": "index-none", "operation": "TRANSFER", "inputs": [spend("t2", None)]},
    {"id": "both-outputs", "operation": "TRANSFER", "inputs": [spend("t3", 0), spend("t3", 1)]},
    {"id": "split-pair", "operation": "TRANSFER", "inputs": [spend("t4", 9), spend("t9", 0)]},
    {"id": "fulfills-list", "operation": "TRANSFER", "inputs": [{"fulfills": [spend("t5", 0)["fulfills"]]}]},
    {"id": "id-in-array", "operation": "TRANSFER", "inputs": [spend(["t7"], 0)]},
    {"id": "inputs-object", "operation": "TRANSFER", "inputs": spend("t8", 0)},
    {"id": "id-int", "operation": "TRANSFER", "inputs": [spend(1, 0)]},
    {"id": "id-true", "operation": "TRANSFER", "inputs": [spend(True, 0)]},
    {"id": "second-t3", "operation": "TRANSFER", "inputs": [spend("t3", 1)]},
]

IDS = ["t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "absent", 1, True, 1.0]
INDEXES = [0, 1, 5, 9, True, 1.0, None]


def elem_match(tx_id, output_index):
    """The query ``output_spender`` asked before it read the bucket."""
    return {
        "inputs.fulfills.transaction_id": tx_id,
        "inputs": {
            "$elemMatch": {
                "fulfills.transaction_id": tx_id,
                "fulfills.output_index": output_index,
            }
        },
    }


def reference_spender(database, ref):
    """``output_spender`` as it was: the ``$elemMatch`` query, here run by
    the interpreter over the whole ledger in chain order."""
    query = elem_match(ref.transaction_id, ref.output_index)
    stored = database.collection("transactions")._documents.values()
    spenders = [payload for payload in stored if matches(payload, query)]
    if not spenders:
        return None
    spender = spenders[-1]
    if spender.get("operation") != SHARD_EXPORT:
        return spender["id"]
    live = database.collection("utxos").find_one(
        {"transaction_id": ref.transaction_id, "output_index": ref.output_index}
    )
    return None if live is not None else f"{REDIRECT_MARKER}:moved:{spender['target']}"


def outcome(thunk):
    try:
        return ("ok", thunk())
    except QueryError as error:
        return ("error", str(error))


def ledger():
    database = make_smartchaindb_database("odd")
    database.collection("transactions").insert_many(ODD_SPENDERS)
    return database, ValidationContext(database, ReservedAccounts())


def assert_spenders_as_before(database, context):
    for tx_id in IDS:
        for output_index in INDEXES:
            ref = OutputRef(tx_id, output_index)
            assert outcome(lambda: context.output_spender(ref)) == outcome(
                lambda: reference_spender(database, ref)
            ), ref


class TestOutputSpender:
    def test_odd_stored_inputs_answer_as_the_elemmatch_query(self):
        database, context = ledger()
        assert_spenders_as_before(database, context)
        # The corpus is not vacuous: it finds, misses and raises.
        assert context.output_spender(OutputRef("t3", 1)) == "second-t3"
        assert context.output_spender(OutputRef("t3", 0)) == "both-outputs"
        assert context.output_spender(OutputRef("t4", 0)) is None
        assert context.output_spender(OutputRef("t2", 1)) == "index-float"
        assert context.output_spender(OutputRef("t2", True)) == "index-true"
        assert context.output_spender(OutputRef("t5", 0)) == "fulfills-list"
        assert context.output_spender(OutputRef(True, 0)) == "id-true"
        assert context.output_spender(OutputRef("t1", 5)) == "then-junk"
        with pytest.raises(QueryError):
            context.output_spender(OutputRef("t1", 0))

    def test_an_export_then_an_import_then_a_respend(self):
        database, context = ledger()
        transactions = database.collection("transactions")
        utxos = database.collection("utxos")
        utxos.insert_one({"transaction_id": "t6", "output_index": 0})
        transactions.insert_one(
            {"id": "export", "operation": SHARD_EXPORT, "target": "s1", "inputs": [spend("t6", 0)]}
        )
        utxos.delete_many({"transaction_id": "t6", "output_index": 0})
        assert_spenders_as_before(database, context)
        assert context.output_spender(OutputRef("t6", 0)) == f"{REDIRECT_MARKER}:moved:s1"
        utxos.insert_one({"transaction_id": "t6", "output_index": 0})  # imported back
        assert_spenders_as_before(database, context)
        assert context.output_spender(OutputRef("t6", 0)) is None
        transactions.insert_one({"id": "respend", "operation": "TRANSFER", "inputs": [spend("t6", 0)]})
        utxos.delete_many({"transaction_id": "t6", "output_index": 0})
        assert_spenders_as_before(database, context)
        assert context.output_spender(OutputRef("t6", 0)) == "respend"

    def test_a_string_outpoint_compiles_nothing(self):
        database, context = ledger()
        compiler.clear_cache()
        for tx_id in ("t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "absent"):
            for output_index in (0, 1, 5, 9):
                context.output_spender(OutputRef(tx_id, output_index))
        assert compiler.cache_info()["misses"] == 0


class TestOnlyStringsTakeTheFastPath:
    def test_non_string_ids_and_non_int_indexes_ask_the_elemmatch_query(self):
        """The bucket read requires ``type(id) is str`` and ``type(index)
        is int``; ``True`` and ``1.0`` share buckets with ``1`` but not its
        query equality, so anything else asks the old query."""
        database, context = ledger()
        compiler.clear_cache()
        for ref in (OutputRef(True, 0), OutputRef(1.0, 0), OutputRef("t2", True), OutputRef("t2", 1.0)):
            assert outcome(lambda: context.output_spender(ref)) == outcome(
                lambda: reference_spender(database, ref)
            ), ref
        assert compiler.cache_info()["misses"] == 4

    def test_dropping_the_guard_is_caught(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(ValidationContext.output_spender))
        guard = "type(tx_id) is str and type(index) is int"
        assert source.count(guard) == 1
        namespace = dict(vars(context_module))
        exec(source.replace(guard, "True"), namespace)
        monkeypatch.setattr(ValidationContext, "output_spender", namespace["output_spender"])
        with pytest.raises(AssertionError):
            self.test_non_string_ids_and_non_int_indexes_ask_the_elemmatch_query()


# -- a cluster's ledger ------------------------------------------------------------


def settle(cluster, *transactions):
    for transaction in transactions:
        cluster.submit_payload(transaction.to_dict())
    cluster.run()


@pytest.fixture()
def cluster():
    return SmartchainCluster(ClusterConfig(n_validators=4, seed=7))


def test_a_fault_free_cluster_compiles_no_query(cluster):
    """CREATEs, TRANSFERs and a REQUEST -> BID -> ACCEPT_BID (with its
    RETURN) commit on four validators without one compiled query: every
    point read, spend check and UTXO retirement is answered from the
    index buckets."""
    driver = cluster.driver
    compiler.clear_cache()
    creates = [
        driver.prepare_create(owner, {"name": f"a{n}", "capabilities": ["cnc"]})
        for n, owner in enumerate((ALICE, BOB, ALICE))
    ]
    settle(cluster, *creates)
    transfer = driver.prepare_transfer(
        ALICE, [(creates[2].tx_id, 0, 1)], creates[2].tx_id, [(BOB.public_key, 1)]
    )
    settle(cluster, transfer)
    onward = driver.prepare_transfer(
        BOB, [(transfer.tx_id, 0, 1)], creates[2].tx_id, [(SALLY.public_key, 1)]
    )
    request = driver.prepare_request(SALLY, ["cnc"])
    settle(cluster, onward, request)
    bids = [
        driver.prepare_bid(owner, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
        for owner, create in ((ALICE, creates[0]), (BOB, creates[1]))
    ]
    settle(cluster, *bids)
    settle(cluster, driver.prepare_accept_bid(SALLY, request.tx_id, bids[0]))
    server = cluster.any_server()
    committed = server.database.collection("transactions").count({})
    assert committed == 3 + 2 + 1 + 2 + 1 + 1  # the losing bid's RETURN
    for other in cluster.servers.values():
        assert other.database.collection("transactions").count({}) == committed
    assert server.context.output_spender(OutputRef(creates[2].tx_id, 0)) == transfer.tx_id
    assert compiler.cache_info()["misses"] == 0


MALFORMED = [5, [1], {"a": 1}]


@pytest.mark.parametrize("bad", MALFORMED, ids=repr)
@pytest.mark.parametrize("field", ["id", "fulfills.transaction_id"])
def test_malformed_peer_payloads_keep_their_verdicts(cluster, field, bad):
    """A proposal carrying a payload whose ``id`` or spent id is no string
    is refused by every validator's CheckTx (so it draws nil prevotes), as
    before, and nothing raises on the way."""
    create = cluster.driver.prepare_create(ALICE, {"name": "w"})
    settle(cluster, create)
    transfer = cluster.driver.prepare_transfer(
        ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
    )
    payload = copy.deepcopy(transfer.to_dict())
    if field == "id":
        payload["id"] = bad
    else:
        payload["inputs"][0]["fulfills"]["transaction_id"] = bad
    envelope = TxEnvelope(tx_id=transfer.tx_id, payload=payload, size_bytes=512)
    for node_id, server in cluster.servers.items():
        assert server.refusal(envelope) == "fails its schema, id or signature check"
        assert cluster.engine.validator(node_id)._check_batch([envelope]) == [False]
    assert cluster.any_server().context.output_spender(OutputRef(create.tx_id, 0)) is None
