"""``Collection._match_ids`` plans before it compiles.

The read path probes the hash indexes straight from the query and only
then decides whether anything needs compiling: an empty bucket answers
at once, a lone string equality yields its bucket, everything else (a
scan, a bucket the other clauses still filter) runs a compiled predicate.

Whatever the route, the answer (ids *and* order) and the four read
counters must be what the reference interpreter says over the candidates
the index layout dictates (:func:`expected_outcome`), and the ids what an
interpreter scan of the whole collection says.
"""

import inspect
import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.storage import collection as collection_module
from repro.storage import query as query_module
from repro.storage.collection import Collection
from repro.storage.compiler import cache_info, clear_cache, compile_query
from repro.storage.documents import extract_equality_paths, matches, resolve_path
from repro.storage.indexes import _index_keys
from repro.storage.query import QueryPlanner

from test_compiler import DOCUMENTS, PATHS, QUERIES
from test_compiler import documents as generated_documents
from test_compiler import paths as generated_paths
from test_compiler import queries as generated_queries

READ_STATS = ("queries", "index_probes", "full_scans", "documents_examined")

BUCKET_SIZES = {"empty": 0, "one": 1, "two": 2, "few": 5, "many": 25}


# -- the reference: the interpreter over what the index layout dictates ------------


def consume(ids, limit):
    """Drain a match generator the way ``find(limit=...)`` does."""
    taken = []
    try:
        for doc_id in ids:
            taken.append(doc_id)
            if limit is not None and len(taken) >= limit:
                break
    except QueryError as exc:
        return ("error", str(exc), taken)
    return ("ok", taken)


def expected_outcome(collection, query, limit=None):
    """Ids and read counters from first principles: the smallest bucket
    among the indexed top-level equalities (a scan when none is indexed),
    walked in id order, each document judged by ``matches`` and counted
    when it is reached."""
    documents = collection._documents
    buckets = {
        path: collection._hash_indexes[path].lookup(key)
        for path, key in extract_equality_paths(query).items()
        if path in collection._hash_indexes
    }
    plan = collection.explain(query)
    if buckets:
        # ``explain`` only breaks the tie between equally small buckets.
        assert plan.kind == "index" and plan.candidates == min(map(len, buckets.values()))
        candidates = sorted(buckets[plan.index_path])
    else:
        assert plan.kind == "scan"
        candidates = list(documents)
    counts = dict.fromkeys(READ_STATS, 0)
    counts["queries"] = 1
    counts["index_probes" if buckets else "full_scans"] = 1

    def walk():
        for doc_id in candidates:
            counts["documents_examined"] += 1
            if matches(documents[doc_id], query):
                yield doc_id

    return consume(walk(), limit), counts


def actual_outcome(collection, query, limit=None):
    before = dict(collection.stats)
    outcome = consume((doc_id for doc_id, _ in collection._match_ids(query)), limit)
    return outcome, {name: collection.stats[name] - before[name] for name in READ_STATS}


def interpreter_scan(collection, query):
    return consume(
        (doc_id for doc_id, document in collection._documents.items() if matches(document, query)),
        None,
    )


def assert_reads_as_expected(collection, query):
    for limit in (None, 1):
        assert actual_outcome(collection, query, limit) == expected_outcome(
            collection, query, limit
        ), (query, limit)
    outcome, _ = actual_outcome(collection, query)
    scanned = interpreter_scan(collection, query)
    if outcome[0] == scanned[0] == "ok":
        assert outcome == scanned, query
    # The public readers are thin wrappers over the same generator.
    if outcome[0] == "ok":
        assert [collection._documents[i] for i in outcome[1]] == collection.find(query, copy=False)
        assert collection.count(query) == (len(outcome[1]) if query else len(collection))


# -- the corpus: test_compiler's queries x index layouts x bucket sizes ------------


def keyed_under(document, path, key) -> bool:
    """True if a hash index on ``path`` files ``document`` under ``key``
    (hash membership, so ``True`` / ``1`` / ``1.0`` share a bucket)."""
    return key in _index_keys(resolve_path(document, path))


def build(path, key, size, *, index_paths=(), unique=False, seed=11):
    """The corpus, arranged so ``size`` documents sit under ``(path, key)``.

    Documents the corpus files there are dropped and ``size`` of them put
    back (numbered, so repeats differ), shuffled among the others so the
    bucket's ids are neither contiguous nor in insertion order of the set.
    """
    inside = [d for d in DOCUMENTS if keyed_under(d, path, key)]
    assert inside, f"no corpus document is keyed {key!r} under {path!r}"
    documents = [d for d in DOCUMENTS if not keyed_under(d, path, key)]
    if unique:
        seen, kept = set(), []
        for document in documents:
            keys = _index_keys(resolve_path(document, path))
            if not keys & seen:
                seen |= keys
                kept.append(document)
        documents = kept
    documents += [{**inside[n % len(inside)], "serial": n} for n in range(size)]
    random.Random(seed).shuffle(documents)
    collection = Collection("corpus")
    for index_path in index_paths:
        collection.create_index(index_path, unique=unique and index_path == path)
    collection.insert_many(documents)
    if path in index_paths:
        assert len(collection._hash_indexes[path].lookup(key)) == size
    return collection


def corpus_cases():
    for query in QUERIES:
        equalities = extract_equality_paths(query)
        yield pytest.param(query, None, None, 0, False, id=f"{query}-no-index")
        for path in (p for p in query if not p.startswith("$") and p not in equalities):
            # An index the query cannot use: still a scan.
            yield pytest.param(query, None, path, 0, False, id=f"{query}-unusable-{path}")
        for path in equalities:
            for name, size in BUCKET_SIZES.items():
                yield pytest.param(query, path, path, size, False, id=f"{query}-{path}-{name}")
                if size <= 1:
                    yield pytest.param(
                        query, path, path, size, True, id=f"{query}-{path}-unique-{name}"
                    )
        if len(equalities) > 1:
            first = next(iter(equalities))
            for name, size in BUCKET_SIZES.items():
                yield pytest.param(query, first, "*", size, False, id=f"{query}-all-{name}")


@pytest.mark.parametrize("query, bucket_path, indexed, size, unique", corpus_cases())
def test_corpus_parity(query, bucket_path, indexed, size, unique):
    equalities = extract_equality_paths(query)
    if bucket_path is None:
        collection = Collection("corpus")
        if indexed is not None:
            collection.create_index(indexed)
        collection.insert_many(DOCUMENTS)
        assert collection.explain(query).kind == "scan"
    else:
        index_paths = tuple(equalities) if indexed == "*" else (indexed,)
        collection = build(
            bucket_path, equalities[bucket_path], size, index_paths=index_paths, unique=unique
        )
        assert collection.explain(query).kind == "index"
    assert_reads_as_expected(collection, query)


def test_the_corpus_reaches_every_route():
    """Guard the matrix itself: each route of ``_match_ids`` has cases."""
    routes = set()
    for case in corpus_cases():
        query, bucket_path, indexed, size, unique = case.values
        if bucket_path is None:
            routes.add("scan")
        elif size == 0:
            routes.add("empty")
        elif type(extract_equality_paths(query)[bucket_path]) is not str:
            routes.add("whole predicate")
        elif len(query) == 1:
            routes.add("bucket is the answer")
        else:
            routes.add("residual")
    assert routes == {"scan", "empty", "whole predicate", "bucket is the answer", "residual"}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generated_parity(data):
    """Generated documents and queries, with one clause pinned to a key
    some stored document is filed under (a free draw almost never probes
    a non-empty bucket) and the documents repeated to fill the bucket."""
    stored = data.draw(st.lists(generated_documents, min_size=1, max_size=8))
    stored = stored * data.draw(st.integers(1, 5))
    query = data.draw(generated_queries)
    filed = sorted(
        {
            (path, key)
            for path in PATHS
            for d in stored
            for key in _index_keys(resolve_path(d, path))
        },
        key=repr,
    )
    path = data.draw(generated_paths)
    if filed and data.draw(st.integers(0, 3)):
        path, key = data.draw(st.sampled_from(filed))
        query = {**query, path: key}
    collection = Collection("generated")
    for index_path in [path] + data.draw(st.lists(generated_paths, max_size=2)):
        collection.create_index(index_path)
    collection.insert_many(stored)
    assert_reads_as_expected(collection, query)


# -- key hazards ------------------------------------------------------------------------


def spend_check(tx_id, output_index):
    return {
        "inputs.fulfills.transaction_id": tx_id,
        "inputs": {
            "$elemMatch": {
                "fulfills.transaction_id": tx_id,
                "fulfills.output_index": output_index,
            }
        },
    }


class TestKeyHazards:
    def collection(self, documents, *paths):
        collection = Collection("hazards")
        for path in paths:
            collection.create_index(path)
        collection.insert_many(documents)
        return collection

    @pytest.mark.parametrize("key", [True, 1, 1.0, False, 0, None, "1"])
    @pytest.mark.parametrize("copies", [1, 5])
    def test_hash_equal_keys_are_told_apart(self, key, copies):
        """``True == 1 == 1.0`` share a bucket; the lone-equality shortcut
        must not hand that bucket out for any of them."""
        values = [True, 1, 1.0, False, 0, 0.0, None, "1", [1, True], [None]]
        collection = self.collection([{"a": v, "n": n} for n in range(copies) for v in values], "a")
        for query in ({"a": key}, {"a": {"$eq": key}}):
            found = collection.find(query, copy=False)
            expected = [d for d in collection.find({}, copy=False) if matches(d, query)]
            # By identity: ``{"a": True} == {"a": 1}`` to Python.
            assert [id(d) for d in found] == [id(d) for d in expected] and found, query
            assert_reads_as_expected(collection, query)

    def test_string_keys_need_no_per_document_check(self):
        collection = self.collection([{"a": "x"}, {"a": ["x", "y"]}, {"a": "y"}, {"b": "x"}], "a")
        for query in ({"a": "x"}, {"a": {"$eq": "x"}}):
            assert collection.find(query, copy=False) == [{"a": "x"}, {"a": ["x", "y"]}]
            assert_reads_as_expected(collection, query)

    def test_multikey_path_probes_every_array_element(self):
        """``inputs.fulfills.transaction_id`` files one spender under the
        id of every transaction it spends from; the spend check must then
        tell the outputs apart."""
        spender = {
            "id": "s",
            "inputs": [
                {"fulfills": {"transaction_id": "t1", "output_index": 0}},
                {"fulfills": {"transaction_id": "t2", "output_index": 1}},
            ],
        }
        collection = self.collection(
            [spender, {"id": "genesis", "inputs": [{"fulfills": None}]}],
            "id",
            "inputs.fulfills.transaction_id",
        )

        spent = {("t1", 0), ("t2", 1)}
        for tx_id in ("t1", "t2", "t3"):
            assert collection.count({"inputs.fulfills.transaction_id": tx_id}) == (tx_id != "t3")
            for output_index in (0, 1):
                query = spend_check(tx_id, output_index)
                found = collection.find_one(query, copy=False)
                assert found == (spender if (tx_id, output_index) in spent else None)
                assert_reads_as_expected(collection, query)

    def test_array_and_object_operands_are_not_probed(self):
        """An unhashable ``$eq`` operand used to reach ``dict.get`` of the
        index and raise ``TypeError``; it is no index equality at all."""
        collection = self.collection([{"a": [1, 2, 3]}, {"a": {"b": 1}}, {"a": 1}], "a")
        assert collection.find({"a": {"$eq": [1, 2, 3]}}) == [{"a": [1, 2, 3]}]
        assert collection.find({"a": {"$eq": {"b": 1}}}) == [{"a": {"b": 1}}]
        assert collection.find({"a": [1, 2, 3]}) == [{"a": [1, 2, 3]}]
        assert collection.explain({"a": {"$eq": [1, 2, 3]}}).kind == "scan"

    def test_most_selective_index_wins_and_the_rest_still_filter(self):
        documents = [{"op": "BID", "ref": f"r{n % 3}", "n": n} for n in range(30)]
        collection = self.collection(documents, "op", "ref")
        collection.insert_one({"op": "ASK", "ref": "r9", "n": 99})
        for query in (
            {"op": "BID", "ref": "r1"},
            {"op": "ASK", "ref": "r1"},
            {"op": "ASK", "ref": "r9"},
            {"op": "ASK", "ref": "r9", "n": {"$lt": 5}},
            {"op": "BID", "ref": "missing"},
        ):
            assert_reads_as_expected(collection, query)
        assert collection.find({"op": "ASK", "ref": "r9"}, copy=False)[0]["n"] == 99
        assert collection.find({"op": "ASK", "ref": "r1"}) == []


# -- writers iterate a live bucket ------------------------------------------------


def _owned_collection(size: int) -> Collection:
    """``size`` documents owned by alice (one index bucket) and one by bob."""
    collection = Collection("utxos")
    collection.create_index("owner")
    collection.create_index("tx", unique=True)
    collection.insert_many(
        [{"tx": f"t{n}", "owner": "alice", "amount": n} for n in range(size)]
        + [{"tx": "other", "owner": "bob", "amount": 7}]
    )
    return collection


class TestWritersOverALiveBucket:
    """``update_many`` re-indexes each document while the match generator
    is still running, so the candidates must be fixed before the first
    mutation."""

    @pytest.fixture(params=[1, 2, 3, 12])
    def owned(self, request):
        return _owned_collection(request.param), request.param

    def test_update_moving_documents_out_of_the_probed_bucket(self, owned):
        collection, size = owned
        moved = collection.update_many(
            {"owner": "alice", "amount": {"$gte": 0}}, {"$set": {"owner": "carol"}}
        )
        assert moved == size
        assert collection.count({"owner": "alice"}) == 0
        assert collection.count({"owner": "carol"}) == size
        assert [d["amount"] for d in collection.find({"owner": "carol"})] == list(range(size))

    def test_update_moving_documents_into_the_probed_bucket(self, owned):
        collection, size = owned
        assert collection.update_many({"owner": "bob", "amount": 7}, {"$set": {"owner": "alice"}}) == 1
        assert collection.count({"owner": "alice"}) == size + 1
        # A callable update sees each original match exactly once.
        seen = []
        collection.update_many(
            {"owner": "alice", "amount": {"$lt": 7}},
            lambda d: seen.append(d["tx"]) or {**d, "owner": "alice", "amount": d["amount"] + 100},
        )
        assert seen == [f"t{n}" for n in range(min(size, 7))]

    def test_delete_by_lone_equality_and_by_two_fields(self, owned):
        collection, size = owned
        assert collection.delete_many({"owner": "alice", "amount": 0}) == 1
        assert collection.delete_many({"owner": "alice"}) == size - 1
        assert collection.delete_many({"owner": "alice"}) == 0
        assert collection.find({}) == [{"tx": "other", "owner": "bob", "amount": 7}]
        assert collection._hash_indexes["owner"].lookup("alice") == ()

    @pytest.mark.parametrize(
        "query", [{"owner": "alice"}, {"owner": "alice", "amount": {"$gte": 0}}]
    )
    @pytest.mark.parametrize("start", [2, 3, 6])
    def test_update_over_a_set_that_shrank_to_one_id(self, query, start):
        """A bucket that once held two ids is a 1-tuple again once it
        shrinks to one — the shape of a key that never had a second id —
        and reads and writes over it answer as over such a key;
        re-indexing the lone document empties and re-creates it under the
        running generator."""
        collection = Collection("utxos")
        collection.create_index("owner")
        collection.insert_many([{"owner": "alice", "amount": n} for n in range(start)])
        assert collection.delete_many({"owner": "alice", "amount": {"$gte": 1}}) == start - 1
        bucket = collection._hash_indexes["owner"].lookup("alice")
        assert type(bucket) is tuple and len(bucket) == 1
        never_shared = Collection("utxos")
        never_shared.create_index("owner")
        never_shared.insert_one({"owner": "alice", "amount": 0})
        for probe in (query, {"owner": "alice", "amount": 0}, {"owner": "alice", "amount": 1}):
            assert collection.find(probe) == never_shared.find(probe), probe
            assert collection.count(probe) == never_shared.count(probe), probe
        assert collection.update_many(query, {"$set": {"n": 1}}) == 1
        assert collection.update_many(query, {"$set": {"owner": "carol"}}) == 1
        assert collection.find({}) == [{"owner": "carol", "amount": 0, "n": 1}]


# -- malformed queries --------------------------------------------------------------


MALFORMED = [
    {"$in": 3},
    {"$all": 1},
    {"$elemMatch": 5},
    {"$not": [1]},
    {"$type": "widget"},
    {"$bogus": 1},
]


class TestMalformedQueries:
    """A query that gets compiled is rejected eagerly, as before; one whose
    probe comes back empty is never read past its equalities."""

    @pytest.fixture()
    def collection(self):
        collection = Collection("txs")
        collection.create_index("id", unique=True)
        collection.create_index("owner")
        collection.insert_many([{"id": f"t{n}", "owner": f"o{n % 2}", "n": n} for n in range(16)])
        return collection

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_an_empty_probe_answers_before_anything_is_validated(self, collection, bad):
        assert collection.find({"id": "absent", "n": bad}) == []
        assert collection.find_one({"owner": "nobody", "n": bad}) is None
        assert collection.count({"id": "absent", "$bogus": [1]}) == 0

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_a_candidate_raises_the_same_error(self, collection, bad):
        for query in (
            {"id": "t1", "n": bad},
            {"owner": "o1", "n": bad},
            {"n": bad},
            # Eagerly: no candidate gets as far as the bad clause.
            {"id": "t1", "n": 999, "m": bad},
        ):
            with pytest.raises(QueryError) as compiled:
                compile_query(query)
            with pytest.raises(QueryError) as raised:
                collection.find(query)
            assert str(raised.value) == str(compiled.value)
        assert collection.stats["documents_examined"] == 0

    def test_top_level_operators(self, collection):
        for query in ({"id": "t1", "$bogus": [1]}, {"id": "t1", "$and": "no"}, {"$or": "no"}):
            with pytest.raises(QueryError):
                collection.find(query)

    def test_a_scan_rejects_eagerly_even_with_nothing_to_scan(self):
        empty = Collection("empty")
        for query in ({"n": {"$bogus": 1}}, {"$or": "no"}, {"a": 1, "n": {"$in": 3}}):
            with pytest.raises(QueryError):
                empty.find(query)

    def test_non_mapping_queries_are_rejected_on_every_route(self, collection):
        for target in (collection, Collection("empty")):
            with pytest.raises(QueryError, match="mapping"):
                target.find(["id", "t1"])
            with pytest.raises(QueryError, match="mapping"):
                target.count("id")


# -- the count gate: what the probe answers never reaches the compiler -------------


@pytest.fixture()
def ledger():
    """A chain of 50 transfers, each spending output 0 of the one before
    and leaving two outputs of its own."""
    transactions = Collection("transactions")
    transactions.create_index("id", unique=True)
    transactions.create_index("inputs.fulfills.transaction_id")
    utxos = Collection("utxos")
    utxos.create_index("transaction_id")
    for n in range(50):
        transactions.insert_one(
            {
                "id": f"tx{n}",
                "inputs": [{"fulfills": {"transaction_id": f"tx{n - 1}", "output_index": 0}}],
            }
        )
        for output_index in (0, 1):
            utxos.insert_one({"transaction_id": f"tx{n}", "output_index": output_index})
    clear_cache()
    compile_query({"operation": "BID"})  # a resident no point query may evict
    return transactions, utxos


def test_queries_the_probe_answers_leave_the_compile_cache_alone(ledger):
    transactions, utxos = ledger
    before = cache_info()
    found = 0
    for n in range(1000):
        found += transactions.find_one({"id": f"fresh{n}"}, copy=False) is not None
        found += transactions.find_one({"id": f"tx{n % 50}"}, copy=False) is not None
        # Not yet present: the two-field utxo query and the spend check
        # of a transaction none of whose outputs is spent.
        found += utxos.find_one({"transaction_id": f"fresh{n}", "output_index": 0}, copy=False) is not None
        found += transactions.find_one(spend_check(f"fresh{n}", 0), copy=False) is not None
        found += transactions.find_one(spend_check("tx49", n % 2), copy=False) is not None
    assert found == 1000
    assert cache_info() == before


def test_a_filtered_bucket_compiles_once_per_distinct_query(ledger):
    """With a candidate to check the query is compiled — once: the LRU
    serves every repeat (another validator's copy of the same check)."""
    transactions, utxos = ledger
    before = cache_info()
    for n in range(1000):
        assert utxos.find_one({"transaction_id": f"tx{n % 50}", "output_index": 1}, copy=False)
        # Output 0 of tx0..tx48 is spent, so its sibling's check has a candidate.
        assert transactions.find_one(spend_check(f"tx{n % 49}", 1), copy=False) is None
    after = cache_info()
    assert after["misses"] - before["misses"] == after["size"] - before["size"] == 50 + 49
    assert after["hits"] - before["hits"] == 2000 - 99


def test_scans_compile_once():
    collection = Collection("txs")
    collection.insert_many([{"operation": "BID", "n": n} for n in range(5)])
    clear_cache()
    for _ in range(3):
        assert collection.count({"n": {"$gte": 1}}) == 4
    info = cache_info()
    assert (info["misses"], info["hits"], info["size"]) == (1, 2, 1)


# -- planted mutations: the checks above must notice -------------------------------


def plant(monkeypatch, owner, name, old, new, module):
    """Swap ``owner.name`` for a copy of itself with ``old`` -> ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer contains {old!r}"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


class TestPlantedMutations:
    def test_dropping_the_string_guard_of_the_lone_equality_shortcut_is_caught(self, monkeypatch):
        plant(
            monkeypatch,
            Collection,
            "_match_ids",
            "        if type(key) is not str:\n",
            "        if False:\n",
            collection_module,
        )
        TestKeyHazards().test_string_keys_need_no_per_document_check()
        with pytest.raises(AssertionError):
            TestKeyHazards().test_hash_equal_keys_are_told_apart(1, 1)

    def test_reading_an_unindexed_path_as_an_empty_bucket_is_caught(self, monkeypatch):
        plant(
            monkeypatch,
            QueryPlanner,
            "probe",
            "        if index is None:\n            continue\n        ids = index.lookup(key)\n",
            "        ids = index.lookup(key) if index is not None else ()\n",
            query_module,
        )
        with pytest.raises(AssertionError):
            test_corpus_parity({"a": 1}, None, None, 0, False)

    def test_walking_a_live_set_bucket_is_caught(self, monkeypatch):
        plant(
            monkeypatch,
            Collection,
            "_match_ids",
            "        if type(candidates) is set:\n",
            "        if False:\n",
            collection_module,
        )
        test_corpus_parity({"a": 1}, "a", "a", 5, False)  # reads stay right
        with pytest.raises(RuntimeError, match="changed size"):
            TestWritersOverALiveBucket().test_update_moving_documents_out_of_the_probed_bucket(
                (_owned_collection(2), 2)
            )
