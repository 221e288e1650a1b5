"""Point queries answered from the index buckets, checked differentially.

After the probe, a query whose remaining clauses are all scalar
equalities (a ``str``, ``int`` or ``float`` operand on a plain path) is
checked per candidate with the compiler's equality rule and compiles
nothing; any other residual compiles as before.  Whatever the route, the
answer must be what ``compile_query`` and the interpreter
(``documents.matches``) say, on values where Python equality and query
equality part: ``True == 1 == 1.0``, arrays that match through an
element, nested arrays, missing paths and ``None``.
"""

import pytest

from repro.storage import collection as collection_module
from repro.storage import compiler as compiler_module
from repro.storage.collection import Collection
from repro.storage.compiler import cache_info, clear_cache, compile_query
from repro.storage.documents import matches

from test_probe_first import plant

#: Values whose equalities disagree between Python and the query language.
ODD_VALUES = [
    True, False, 1, 1.0, 0, 0.0, 2.5, "1", "x", None, 2**70,
    [1], [True], [[1]], [1.0, "x"], {"v": 1}, [],
]

#: Stored under one indexed key, so every query below probes one bucket
#: holding all of them and the other clauses do the filtering.
DOCUMENTS = (
    [{"k": "bucket", "v": value} for value in ODD_VALUES]
    + [{"k": "bucket", "n": {"v": value}} for value in ODD_VALUES]
    + [{"k": "bucket", "n": [{"v": value}, {"w": 1}]} for value in ODD_VALUES]
    + [{"k": "bucket"}, {"k": "bucket", "n": None}, {"k": "bucket", "n": [[{"v": 1}]]}]
    + [{"k": "other", "v": 1}, {"v": 1}]
)

OPERANDS = [1, 1.0, 0, 0.0, 2.5, "1", "x", 2**70, -1, True, False, None]

PATHS = ["v", "n.v", "v.0", "n.0.v", "missing", "n.missing.v"]

#: Residuals of scalar equalities alone: checked without compiling.
FLAT = [
    {"k": "bucket", path: operand}
    for path in PATHS
    for operand in OPERANDS
    if type(operand) in (str, int, float)
] + [{"k": "bucket", "v": 1, "n.v": "x"}, {"k": "bucket", "v": "1", "missing": 1.0}]

#: Residuals holding a bool, None or an operator: compiled as before.
COMPILED = [
    {"k": "bucket", path: operand}
    for path in PATHS
    for operand in (True, False, None, {"$eq": 1}, {"$in": [1, "x"]})
] + [{"k": "bucket", "v": 1, "n.v": None}]


def collection_of(documents=DOCUMENTS) -> Collection:
    collection = Collection("odd")
    collection.create_index("k")
    collection.insert_many(documents)
    return collection


def expected_ids(collection: Collection, query) -> list[int]:
    """The interpreter's answer over the whole collection, in id order,
    after checking that the compiler agrees on every document."""
    predicate = compile_query(query)
    answer = []
    for doc_id, document in collection._documents.items():
        assert predicate(document) == matches(document, query), (query, document)
        if matches(document, query):
            answer.append(doc_id)
    return answer


def assert_answers_as_the_interpreter(query):
    reference = collection_of()
    ids = expected_ids(reference, query)
    documents = [reference._documents[doc_id] for doc_id in ids]
    collection = collection_of()
    found = collection.find(query, copy=False)
    # By identity: ``{"v": True} == {"v": 1}`` to Python.
    assert [id(d) for d in found] == [id(collection._documents[i]) for i in ids], query
    assert collection.find(query) == documents, query
    assert collection.find_one(query) == (documents[0] if documents else None), query
    assert collection.count(query) == len(ids), query
    assert collection.update_many(query, {"$set": {"hit": 1}}) == len(ids), query
    assert [i for i, d in collection._documents.items() if "hit" in d] == ids, query
    collection = collection_of()
    assert collection.delete_many(query) == len(ids), query
    assert not set(ids) & set(collection._documents), query
    assert len(collection) == len(DOCUMENTS) - len(ids), query


class TestDifferential:
    @pytest.mark.parametrize("query", FLAT, ids=repr)
    def test_a_flat_residual_answers_as_the_interpreter(self, query):
        assert_answers_as_the_interpreter(query)

    @pytest.mark.parametrize("query", COMPILED, ids=repr)
    def test_other_residuals_answer_as_the_interpreter(self, query):
        assert_answers_as_the_interpreter(query)

    def test_the_corpus_tells_the_odd_values_apart(self):
        """Guard the corpus: each operand class finds what Python's ``==``
        would over-find, so a lost bool guard or a lost fan-out shows."""
        collection = collection_of()
        assert {repr(d["v"]) for d in collection.find({"k": "bucket", "v": 1})} == {
            "1", "1.0", "[1]", "[1.0, 'x']"
        }
        assert {repr(d["v"]) for d in collection.find({"k": "bucket", "v": True})} == {
            "True", "[True]"
        }
        assert collection.count({"k": "bucket", "n.v": 1}) == 8


class TestWhatCompiles:
    def test_a_flat_residual_compiles_nothing(self):
        collection = collection_of()
        clear_cache()
        for query in FLAT:
            collection.find(query, copy=False)
            collection.count(query)
        assert cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_bool_none_and_operator_residuals_compile(self):
        collection = collection_of()
        for query in COMPILED:
            clear_cache()
            collection.find(query, copy=False)
            assert cache_info()["misses"] == 1, query

    def test_a_whole_answer_reads_the_bucket_and_counts_as_the_walk_did(self):
        collection = collection_of()
        before = dict(collection.stats)
        assert collection.find({"k": "bucket"}, limit=2, copy=False) == DOCUMENTS[:2]
        assert len(collection.find({"k": "bucket"}, copy=False)) == len(DOCUMENTS) - 2
        after = collection.stats
        assert after["queries"] - before["queries"] == 2
        assert after["index_probes"] - before["index_probes"] == 2
        assert after["documents_examined"] - before["documents_examined"] == len(DOCUMENTS)

    def test_resolvers_are_kept_once_per_path(self):
        collection = collection_of()
        for query in FLAT:
            collection.count(query)
        assert sorted(collection._resolvers) == sorted(PATHS)
        kept = dict(collection._resolvers)
        for query in FLAT:
            collection.count(query)
        assert all(collection._resolvers[path] is kept[path] for path in kept)


class TestPlantedMutations:
    def test_dropping_the_bool_guard_is_caught(self, monkeypatch):
        # The residual reads the compiler's rule through the collection
        # module; compiled predicates keep the original.
        plant(
            monkeypatch,
            collection_module,
            "scalar_equal",
            "        if not isinstance(value, bool) and value == condition:\n",
            "        if value == condition:\n",
            compiler_module,
        )
        with pytest.raises(AssertionError):
            TestDifferential().test_a_flat_residual_answers_as_the_interpreter(
                {"k": "bucket", "v": 1}
            )

    def test_checking_a_bool_operand_uncompiled_is_caught(self, monkeypatch):
        monkeypatch.setattr(collection_module, "_SCALARS", (str, int, float, bool))
        with pytest.raises(AssertionError):
            TestDifferential().test_other_residuals_answer_as_the_interpreter(
                {"k": "bucket", "v": True}
            )
