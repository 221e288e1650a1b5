"""Compiled-predicate parity: ``compile_query(q)(doc) == matches(doc, q)``.

The interpreter in :mod:`repro.storage.documents` is the semantics
oracle; the compiler must agree with it on every (query, document) pair.
The corpus below combines a hand-written operator matrix with a
hypothesis-generated sweep over documents and queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.storage.collection import Collection
from repro.storage.compiler import cache_info, clear_cache, compile_query
from repro.storage.documents import matches
from repro.storage.indexes import SortedIndex

# -- hand-written operator matrix ---------------------------------------------

DOCUMENTS = [
    {},
    {"a": 1},
    {"a": 0},
    {"a": True},
    {"a": False},
    {"a": None},
    {"a": "x"},
    {"a": 2.5},
    {"a": [1, 2, 3]},
    {"a": ["x", "y"]},
    {"a": [True, 1]},
    {"a": []},
    {"a": {"b": 1}},
    {"a": {"b": [1, 2]}},
    {"a": [{"b": 1}, {"b": 2}]},
    {"a": [{"b": "x"}, {"c": 3}]},
    {"a": [[1, 2], [3]]},
    {"b": 5},
    {"a": 1, "b": 5},
    {"a": "abcdef"},
    {"operation": "BID", "references": ["r1", "r2"]},
    {"outputs": [{"public_keys": ["K1", "K2"], "amount": 3}]},
    {"inputs": [{"fulfills": {"transaction_id": "t1", "output_index": 0}}]},
]

QUERIES = [
    {},
    {"a": 1},
    {"a": True},
    {"a": None},
    {"a": "x"},
    {"a": [1, 2, 3]},
    {"a": {"$eq": 1}},
    {"a": {"$eq": [1, 2, 3]}},
    {"a": {"$ne": 1}},
    {"a": {"$ne": True}},
    {"a": {"$gt": 1}},
    {"a": {"$gt": 0.5}},
    {"a": {"$gte": 1}},
    {"a": {"$lt": 2}},
    {"a": {"$lte": 2}},
    {"a": {"$gt": "a"}},
    {"a": {"$gt": True}},
    {"a": {"$gt": 1, "$lt": 3}},
    {"a": {"$in": [1, "x"]}},
    {"a": {"$in": []}},
    {"a": {"$in": [True]}},
    {"a": {"$nin": [1, "x"]}},
    {"a": {"$exists": True}},
    {"a": {"$exists": False}},
    {"a": {"$size": 2}},
    {"a": {"$size": 0}},
    {"a": {"$all": [1, 2]}},
    {"a": {"$all": []}},
    {"a": {"$type": "string"}},
    {"a": {"$type": "int"}},
    {"a": {"$type": "bool"}},
    {"a": {"$type": "array"}},
    {"a": {"$type": "null"}},
    {"a": {"$regex": "^ab"}},
    {"a": {"$regex": "x"}},
    {"a": {"$not": {"$eq": 1}}},
    {"a": {"$not": {"$gt": 0}}},
    {"a": {"$elemMatch": {"b": 1}}},
    {"a": {"$elemMatch": {"$gt": 2}}},
    {"a": {"$elemMatch": {}}},
    {"a.b": 1},
    {"a.b": {"$in": [1, 2]}},
    {"a.0": 1},
    {"a.0.b": 1},
    {"a.b.c": {"$exists": False}},
    {"$and": [{"a": 1}, {"b": 5}]},
    {"$and": [{}]},
    {"$or": [{"a": 1}, {"a": "x"}]},
    {"$or": [{"a": {"$gt": 10}}, {"b": {"$exists": True}}]},
    {"$nor": [{"a": 1}, {"b": 5}]},
    {"$and": [{"$or": [{"a": 1}, {"a": 2}]}, {"b": {"$exists": False}}]},
    {"operation": "BID", "references": "r1"},
    {"outputs.public_keys": "K2"},
    {"outputs.amount": {"$gte": 3}},
    {"inputs.fulfills.transaction_id": "t1"},
]


def _outcome(thunk):
    """Result or raised QueryError message — both must agree."""
    try:
        return ("ok", thunk())
    except QueryError as exc:
        return ("error", str(exc))


@pytest.mark.parametrize("query", QUERIES)
def test_operator_matrix_parity(query):
    predicate = compile_query(query)
    for document in DOCUMENTS:
        compiled = _outcome(lambda: predicate(document))
        interpreted = _outcome(lambda: matches(document, query))
        assert compiled == interpreted, (query, document)


@pytest.mark.parametrize(
    "query",
    [
        {"a": {"$in": 3}},
        {"a": {"$nin": "x"}},
        {"a": {"$all": 1}},
        {"a": {"$elemMatch": 5}},
        {"a": {"$not": [1]}},
        {"a": {"$type": "widget"}},
        {"a": {"$bogus": 1}},
        {"$bogus": [1]},
        {"$and": "not-a-list"},
        {"$or": "not-a-list"},
        {"$nor": "not-a-list"},
    ],
)
def test_malformed_queries_raise_query_error(query):
    """The compiler surfaces the interpreter's QueryErrors (eagerly)."""
    with pytest.raises(QueryError):
        compile_query(query)
    with pytest.raises(QueryError):
        matches({"a": 1}, query)


def test_non_mapping_query_rejected():
    with pytest.raises(QueryError):
        compile_query(["not", "a", "mapping"])


# -- generated corpus ---------------------------------------------------------

scalars = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["x", "y", "abc", ""]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), children, max_size=3),
    ),
    max_leaves=8,
)

documents = st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), values, max_size=4)

PATHS = ["a", "b", "a.b", "a.c", "a.0", "a.b.c", "b.1", "d"]

paths = st.sampled_from(PATHS)

operator_docs = st.one_of(
    st.fixed_dictionaries({"$eq": scalars}),
    st.fixed_dictionaries({"$ne": scalars}),
    st.fixed_dictionaries({"$gt": st.one_of(st.integers(-5, 5), st.sampled_from(["m", "x"]))}),
    st.fixed_dictionaries({"$gte": st.integers(-5, 5)}),
    st.fixed_dictionaries({"$lt": st.integers(-5, 5)}),
    st.fixed_dictionaries({"$lte": st.integers(-5, 5)}),
    st.fixed_dictionaries({"$in": st.lists(scalars, max_size=3)}),
    st.fixed_dictionaries({"$nin": st.lists(scalars, max_size=3)}),
    st.fixed_dictionaries({"$exists": st.booleans()}),
    st.fixed_dictionaries({"$size": st.integers(0, 3)}),
    st.fixed_dictionaries({"$all": st.lists(scalars, max_size=2)}),
    st.fixed_dictionaries(
        {"$type": st.sampled_from(["string", "int", "bool", "object", "array", "null"])}
    ),
    st.fixed_dictionaries({"$not": st.fixed_dictionaries({"$eq": scalars})}),
    st.fixed_dictionaries(
        {"$elemMatch": st.dictionaries(st.sampled_from(["a", "b"]), scalars, max_size=2)}
    ),
    st.fixed_dictionaries({"$gt": st.integers(-5, 5), "$lt": st.integers(-5, 5)}),
)

conditions = st.one_of(scalars, st.lists(scalars, max_size=3), operator_docs)

flat_queries = st.dictionaries(paths, conditions, max_size=3)

queries = st.one_of(
    flat_queries,
    st.fixed_dictionaries({"$and": st.lists(flat_queries, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"$or": st.lists(flat_queries, min_size=1, max_size=3)}),
    st.fixed_dictionaries({"$nor": st.lists(flat_queries, min_size=1, max_size=3)}),
)


@settings(max_examples=300, deadline=None)
@given(documents, queries)
def test_compiled_matches_interpreter_property(document, query):
    # Outcome comparison: generated $elemMatch operands can hit the
    # oracle's lazy per-element QueryErrors, which the compiler must
    # reproduce, not avoid.
    predicate = compile_query(query)
    compiled = _outcome(lambda: predicate(document))
    interpreted = _outcome(lambda: matches(document, query))
    assert compiled == interpreted


# -- cache behaviour ----------------------------------------------------------

def test_cache_reuses_compiled_predicates():
    clear_cache()
    first = compile_query({"operation": "BID"})
    second = compile_query({"operation": "BID"})
    assert first is second
    info = cache_info()
    assert info["hits"] >= 1 and info["misses"] >= 1


def test_cache_keyed_on_canonical_form():
    clear_cache()
    first = compile_query({"a": 1, "b": 2})
    second = compile_query({"b": 2, "a": 1})
    assert first is second


def test_flat_key_keeps_bool_int_float_and_str_operands_apart():
    """``True == 1 == 1.0`` and they hash alike; their predicates differ
    (the canonical JSON key told them apart, the flat key must too)."""
    clear_cache()
    documents = [{"a": True}, {"a": 1}, {"a": 1.0}, {"a": "1"}, {"a": None}]
    queries = [{"a": True}, {"a": 1}, {"a": 1.0}, {"a": "1"}, {"a": None}]
    predicates = [compile_query(query) for query in queries]
    assert len({id(predicate) for predicate in predicates}) == len(queries)
    for query, predicate in zip(queries, predicates):
        assert compile_query(dict(query)) is predicate
        for document in documents:
            assert predicate(document) == matches(document, query), (query, document)


def test_flat_key_ignores_clause_order_but_not_paths():
    clear_cache()
    first = compile_query({"transaction_id": "t", "output_index": 0})
    assert compile_query({"output_index": 0, "transaction_id": "t"}) is first
    assert compile_query({"output_index": 0, "transaction_id": "u"}) is not first
    assert compile_query({"output_index": 0}) is not first


def test_nested_queries_fall_back_to_the_canonical_key():
    clear_cache()
    query = {
        "inputs.fulfills.transaction_id": "t",
        "inputs": {"$elemMatch": {"fulfills.transaction_id": "t", "fulfills.output_index": 0}},
    }
    first = compile_query(query)
    reordered = {
        "inputs": {"$elemMatch": {"fulfills.output_index": 0, "fulfills.transaction_id": "t"}},
        "inputs.fulfills.transaction_id": "t",
    }
    assert compile_query(reordered) is first
    other = compile_query(
        {**query, "inputs": {"$elemMatch": {"fulfills.transaction_id": "t", "fulfills.output_index": 1}}}
    )
    assert other is not first
    document = {"inputs": [{"fulfills": {"transaction_id": "t", "output_index": 0}}]}
    assert first(document) and not other(document)
    # A flat query and a nested one can never share a key.
    assert compile_query({"inputs": "t"}) is not first


def test_cached_predicate_immune_to_caller_mutation():
    """Mutating a query dict after use must not poison the cache entry."""
    clear_cache()
    collection = Collection("t")
    collection.insert_many([{"id": "1", "a": {"x": 1}}, {"id": "2", "a": {"x": 2}}])
    query = {"a": {"x": 1}}
    assert [d["id"] for d in collection.find(query)] == ["1"]
    query["a"]["x"] = 2  # caller reuses their dict for something else
    assert [d["id"] for d in collection.find({"a": {"x": 1}})] == ["1"]
    assert [d["id"] for d in collection.find({"a": {"x": 2}})] == ["2"]


def test_predicate_exposes_equalities():
    predicate = compile_query({"operation": "BID", "amount": {"$gt": 3}})
    assert predicate.equalities == {"operation": "BID"}


def test_collection_stats_semantics_unchanged():
    """index_probes / full_scans / documents_examined keep their meaning."""
    collection = Collection("txs")
    collection.create_index("id")
    for index in range(50):
        collection.insert_one({"id": f"t{index}", "value": index})
    before = dict(collection.stats)
    collection.find({"id": "t7"})
    assert collection.stats["index_probes"] == before["index_probes"] + 1
    assert collection.stats["documents_examined"] == before["documents_examined"] + 1
    collection.find({"value": {"$gt": 40}})
    assert collection.stats["full_scans"] == before["full_scans"] + 1
    assert collection.stats["documents_examined"] == before["documents_examined"] + 51


# -- blocked SortedIndex ------------------------------------------------------

class TestBlockedSortedIndex:
    def build(self, heights, load=2):
        index = SortedIndex("height")
        index.LOAD = load  # tiny blocks force splits in-test
        for doc_id, height in enumerate(heights):
            index.add(doc_id, {"height": height})
        return index

    def test_splits_preserve_range_order(self):
        heights = [9, 1, 7, 3, 5, 2, 8, 4, 6, 0, 10, 11, 12, 2, 5]
        index = self.build(heights)
        assert len(index._key_blocks) > 1  # splits actually happened
        full = list(index.range())
        assert [heights[i] for i in full] == sorted(heights)

    def test_duplicate_keys_keep_insertion_order(self):
        heights = [5, 5, 5, 5, 5, 5, 5, 5, 5]
        index = self.build(heights)
        assert list(index.range(5, 5)) == list(range(9))

    def test_duplicate_key_removal_removes_one_entry(self):
        index = self.build([1, 2, 2, 2, 3, 2])
        index.remove(2, {"height": 2})
        assert list(index.range(2, 2)) == [1, 3, 5]
        index.remove(5, {"height": 2})
        assert list(index.range(2, 2)) == [1, 3]

    def test_removal_across_blocks(self):
        heights = [2] * 12
        index = self.build(heights)
        assert len(index._key_blocks) > 1
        for doc_id in range(12):
            index.remove(doc_id, {"height": 2})
        assert len(index) == 0
        assert list(index.range()) == []

    def test_remove_absent_key_is_noop(self):
        index = self.build([1, 2, 3])
        index.remove(99, {"height": 7})
        index.remove(0, {"height": 2})  # present key, wrong doc id
        assert len(index) == 3

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 30), max_size=60),
        st.integers(0, 30),
        st.integers(0, 30),
        st.booleans(),
        st.booleans(),
    )
    def test_range_matches_naive_filter_property(self, heights, low, high, inc_low, inc_high):
        low, high = min(low, high), max(low, high)
        index = self.build(heights, load=3)
        via_index = sorted(index.range(low, high, include_low=inc_low, include_high=inc_high))
        naive = sorted(
            i
            for i, h in enumerate(heights)
            if (h >= low if inc_low else h > low) and (h <= high if inc_high else h < high)
        )
        assert via_index == naive

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10), st.booleans()), max_size=40))
    def test_interleaved_add_remove_property(self, operations):
        index = SortedIndex("height")
        index.LOAD = 2
        shadow: list[tuple[int, int]] = []  # (height, doc_id), insertion order
        for doc_id, (height, is_remove) in enumerate(operations):
            if is_remove and shadow:
                victim_height, victim_id = shadow.pop(0)
                index.remove(victim_id, {"height": victim_height})
            else:
                index.add(doc_id, {"height": height})
                shadow.append((height, doc_id))
        assert len(index) == len(shadow)
        expected = [doc_id for _, doc_id in sorted(shadow, key=lambda pair: pair[0])]
        full = list(index.range())
        assert sorted(full) == sorted(doc_id for _, doc_id in shadow)
        assert [h for h, _ in sorted(shadow, key=lambda p: p[0])] == [
            dict((d, h) for h, d in shadow)[doc_id] for doc_id in full
        ]
