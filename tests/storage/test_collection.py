"""Collections: CRUD, indexes, planner integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_bytes
from repro.common.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage.collection import Collection


@pytest.fixture()
def txs() -> Collection:
    collection = Collection("transactions")
    collection.create_index("id", unique=True)
    collection.create_index("operation")
    collection.create_index("outputs.public_keys")
    return collection


def doc(tx_id: str, operation: str = "CREATE", keys=("K1",)) -> dict:
    return {
        "id": tx_id,
        "operation": operation,
        "outputs": [{"public_keys": list(keys), "amount": 1}],
    }


class TestCrud:
    def test_insert_and_find(self, txs):
        txs.insert_one(doc("t1"))
        assert txs.find_one({"id": "t1"})["operation"] == "CREATE"

    def test_returned_documents_are_copies(self, txs):
        txs.insert_one(doc("t1"))
        found = txs.find_one({"id": "t1"})
        found["operation"] = "HACKED"
        assert txs.find_one({"id": "t1"})["operation"] == "CREATE"

    def test_inserted_document_not_aliased(self, txs):
        original = doc("t1")
        txs.insert_one(original)
        original["operation"] = "MUTATED"
        assert txs.find_one({"id": "t1"})["operation"] == "CREATE"

    def test_unique_index_violation(self, txs):
        txs.insert_one(doc("t1"))
        with pytest.raises(DuplicateKeyError):
            txs.insert_one(doc("t1"))
        assert len(txs) == 1

    def test_failed_insert_rolls_back_indexes(self, txs):
        txs.insert_one(doc("t1", keys=("K1",)))
        with pytest.raises(DuplicateKeyError):
            txs.insert_one(doc("t1", keys=("K2",)))
        # K2 must not have leaked into the pubkey index.
        assert txs.find({"outputs.public_keys": "K2"}) == []

    def test_delete_many(self, txs):
        txs.insert_many([doc("t1"), doc("t2", "BID"), doc("t3", "BID")])
        assert txs.delete_many({"operation": "BID"}) == 2
        assert len(txs) == 1

    def test_update_set(self, txs):
        txs.insert_one(doc("t1"))
        assert txs.update_many({"id": "t1"}, {"$set": {"status": "committed"}}) == 1
        assert txs.find_one({"id": "t1"})["status"] == "committed"

    def test_update_reindexes(self, txs):
        txs.insert_one(doc("t1", operation="CREATE"))
        txs.update_many({"id": "t1"}, {"$set": {"operation": "TRANSFER"}})
        assert txs.find({"operation": "CREATE"}) == []
        assert txs.find_one({"operation": "TRANSFER"})["id"] == "t1"

    def test_update_inc_and_push(self, txs):
        txs.insert_one({"id": "c1", "counter": 1, "log": []})
        txs.update_many({"id": "c1"}, {"$inc": {"counter": 2}})
        txs.update_many({"id": "c1"}, {"$push": {"log": "event"}})
        updated = txs.find_one({"id": "c1"})
        assert updated["counter"] == 3
        assert updated["log"] == ["event"]

    def test_update_callable(self, txs):
        txs.insert_one(doc("t1"))
        txs.update_many({"id": "t1"}, lambda d: {**d, "extra": True})
        assert txs.find_one({"id": "t1"})["extra"] is True

    def test_update_unknown_operator(self, txs):
        txs.insert_one(doc("t1"))
        with pytest.raises(QueryError):
            txs.update_many({"id": "t1"}, {"$rename": {"a": "b"}})

    def test_count(self, txs):
        txs.insert_many([doc("t1"), doc("t2", "BID"), doc("t3", "BID")])
        assert txs.count() == 3
        assert txs.count({"operation": "BID"}) == 2

    def test_find_limit(self, txs):
        txs.insert_many([doc(f"t{i}") for i in range(5)])
        assert len(txs.find({}, limit=2)) == 2


class TestPlanner:
    def test_indexed_query_uses_index(self, txs):
        for index in range(20):
            txs.insert_one(doc(f"t{index}"))
        plan = txs.explain({"id": "t7"})
        assert plan.kind == "index"
        assert plan.index_path == "id"
        assert plan.candidates == 1

    def test_unindexed_query_scans(self, txs):
        txs.insert_one(doc("t1"))
        plan = txs.explain({"metadata.deadline": {"$lt": 100}})
        assert plan.kind == "scan"

    def test_most_selective_index_chosen(self, txs):
        for index in range(10):
            txs.insert_one(doc(f"t{index}", operation="BID"))
        plan = txs.explain({"operation": "BID", "id": "t3"})
        assert plan.index_path == "id"

    def test_missing_key_short_circuits(self, txs):
        txs.insert_one(doc("t1"))
        plan = txs.explain({"id": "missing"})
        assert plan.kind == "index"
        assert plan.candidates == 0

    def test_examined_docs_tracked(self, txs):
        for index in range(50):
            txs.insert_one(doc(f"t{index}"))
        before = txs.stats["documents_examined"]
        txs.find({"id": "t9"})
        assert txs.stats["documents_examined"] == before + 1  # index probe

    def test_multikey_index(self, txs):
        txs.insert_one(doc("t1", keys=("A", "B")))
        assert txs.find({"outputs.public_keys": "A"})[0]["id"] == "t1"
        assert txs.find({"outputs.public_keys": "B"})[0]["id"] == "t1"


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["CREATE", "BID", "REQUEST"]), st.integers(0, 30)),
        max_size=30,
    ),
    st.sampled_from(["CREATE", "BID", "REQUEST"]),
)
def test_indexed_and_scan_results_agree_property(entries, wanted):
    """An indexed collection returns exactly what a naive filter returns."""
    indexed = Collection("indexed")
    indexed.create_index("operation")
    plain = []
    for number, (operation, value) in enumerate(entries):
        document = {"id": f"d{number}", "operation": operation, "value": value}
        indexed.insert_one(document)
        plain.append(document)
    via_index = sorted(d["id"] for d in indexed.find({"operation": wanted}))
    naive = sorted(d["id"] for d in plain if d["operation"] == wanted)
    assert via_index == naive


class TestChangeSet:
    """A durable collection's change set: what its writes changed since
    the last take, by internal id."""

    @pytest.fixture()
    def durable(self, txs):
        txs.durable = True
        return txs

    def test_an_insert_and_a_delete_in_one_take_leave_nothing(self, durable):
        durable.insert_one(doc("t1"))
        durable.delete_many({"id": "t1"})
        assert durable.take_changes() == ([], [])

    def test_a_replace_shows_as_changed(self, durable):
        first, second = durable.insert_many([doc("t1"), doc("t2")])
        assert durable.take_changes() == ([first, second], [])
        durable.update_many({"id": "t2"}, {"$set": {"operation": "BID"}})
        durable.update_many({"id": "t1"}, lambda found: {**found, "seen": True})
        assert durable.take_changes() == ([first, second], [])
        assert durable.document(first)["seen"] is True
        assert durable.document(second)["operation"] == "BID"
        assert durable.take_changes() == ([], [])

    def test_gone_lists_only_ids_the_last_take_knew(self, durable):
        first, second = durable.insert_many([doc("t1"), doc("t2")])
        durable.take_changes()
        durable.insert_one(doc("t3"))
        durable.update_many({"id": "t1"}, {"$set": {"operation": "BID"}})
        assert durable.delete_many({}) == 3
        assert durable.take_changes() == ([], [first, second])

    def test_a_callable_update_on_a_journaled_collection_raises(self, durable):
        journal = []
        durable.journal = lambda op, document=None: journal.append(op)
        doc_id = durable.insert_one(doc("t1"))
        with pytest.raises(StorageError):
            durable.update_many({"id": "t1"}, lambda found: {**found, "seen": True})
        assert [op["op"] for op in journal] == ["insert"]
        assert "seen" not in durable.find_one({"id": "t1"})
        assert durable.take_changes() == ([doc_id], [])


class TestKeptBytes:
    """A journaled collection keeps each live document's canonical bytes."""

    @pytest.fixture()
    def journaled(self, txs):
        self.journal = []
        txs.journal = lambda op, document=None: self.journal.append((op, document))
        txs.durable = True
        return txs

    def test_insert_hands_the_journal_the_documents_bytes(self, journaled):
        doc_id = journaled.insert_one(doc("t1", keys=("é",)))
        (op, fragment), = self.journal
        assert op["op"] == "insert"
        assert fragment == canonical_bytes(op["d"]) == journaled._fragments[doc_id]

    def test_rejected_insert_keeps_nothing(self, journaled):
        journaled.insert_one(doc("t1"))
        with pytest.raises(DuplicateKeyError):
            journaled.insert_one(doc("t1"))
        assert len(journaled._fragments) == 1

    def test_update_and_delete_drop_them(self, journaled):
        journaled.insert_many([doc("t1"), doc("t2", "BID"), doc("t3", "BID")])
        journaled.update_many({"id": "t1"}, {"$set": {"operation": "BID"}})
        journaled.update_many({"id": "t2"}, {"$inc": {"seen": 1}})
        journaled.delete_many({"id": "t3"})
        assert len(journaled) == 2 and journaled._fragments == {}

    def test_volatile_collection_keeps_none(self, txs):
        txs.insert_many([doc("t1"), doc("t2")])
        txs.update_many({"id": "t1"}, {"$set": {"operation": "BID"}})
        assert txs._fragments == {}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "set", "call", "delete"]), st.integers(0, 12)),
            max_size=40,
        )
    )
    def test_dump_equals_whole_encoding_and_bytes_track_live_documents(self, steps):
        collection = Collection("c")
        collection.create_index("n")
        collection.durable = True
        for serial, (step, n) in enumerate(steps):
            if step == "insert":
                collection.insert_one({"n": n, "zeta": serial / 3.0, "alpha": {"ü": []}})
            elif step == "set":
                collection.update_many({"n": n}, {"$set": {"alpha.set": serial}})
            elif step == "call":
                collection.update_many({"n": n}, lambda found: {**found, "called": serial})
            else:
                collection.delete_many({"n": n})
            assert set(collection._fragments) <= set(collection._documents)
        assert b"".join(collection.encoded_documents()) == canonical_bytes(collection.find({}))
        assert set(collection._fragments) == set(collection._documents)
