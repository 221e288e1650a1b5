"""Hash and sorted indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DuplicateKeyError
from repro.storage.indexes import HashIndex, SortedIndex


class TestHashIndex:
    def test_add_lookup_remove(self):
        index = HashIndex("id")
        index.add(1, {"id": "a"})
        index.add(2, {"id": "b"})
        assert set(index.lookup("a")) == {1}
        index.remove(1, {"id": "a"})
        assert set(index.lookup("a")) == set()

    def test_multiple_docs_same_key(self):
        index = HashIndex("operation")
        index.add(1, {"operation": "BID"})
        index.add(2, {"operation": "BID"})
        assert set(index.lookup("BID")) == {1, 2}

    def test_array_values_indexed_individually(self):
        index = HashIndex("outputs.public_keys")
        index.add(1, {"outputs": [{"public_keys": ["A", "B"]}]})
        assert set(index.lookup("A")) == {1}
        assert set(index.lookup("B")) == {1}

    def test_unique_violation(self):
        index = HashIndex("id", unique=True)
        index.add(1, {"id": "a"})
        with pytest.raises(DuplicateKeyError):
            index.add(2, {"id": "a"})

    def test_unique_re_add_same_doc_ok(self):
        index = HashIndex("id", unique=True)
        index.add(1, {"id": "a"})
        index.add(1, {"id": "a"})
        assert set(index.lookup("a")) == {1}

    def test_missing_path_indexes_nothing(self):
        index = HashIndex("id")
        index.add(1, {"other": 1})
        assert len(index) == 0

    def test_contains_key(self):
        index = HashIndex("id")
        index.add(1, {"id": "a"})
        assert index.contains_key("a")
        assert not index.contains_key("z")

    def test_a_key_holding_one_document_never_allocates_a_set(self):
        """Most buckets hold one id for life; a set costs four times a 1-tuple."""
        index = HashIndex("id", unique=True)
        refs = HashIndex("inputs.fulfills.transaction_id")
        for doc_id in range(500):
            document = {"id": f"tx-{doc_id}", "inputs": [{"fulfills": {"transaction_id": f"tx-{doc_id - 1}"}}]}
            index.add(doc_id, document)
            index.add(doc_id, document)  # re-adding the same id changes nothing
            refs.add(doc_id, document)
        for probed in (index, refs):
            assert len(probed) == 500
            assert not any(isinstance(bucket, set) for bucket in probed._buckets.values())
            assert all(len(bucket) == 1 for bucket in probed._buckets.values())
        assert index.lookup("tx-7") == (7,) and refs.lookup("tx-7") == (8,)
        assert index.lookup("tx-500") == () and len(index.lookup("tx-500")) == 0

    def test_second_id_promotes_the_bucket_and_removal_drops_the_key(self):
        index = HashIndex("operation")
        index.add(1, {"operation": "BID"})
        assert index.lookup("BID") == (1,)
        index.add(2, {"operation": "BID"})
        index.add(3, {"operation": "BID"})
        assert index.lookup("BID") == {1, 2, 3} and len(index) == 3
        index.remove(9, {"operation": "BID"})  # not in the bucket: nothing happens
        index.remove(1, {"operation": "BID"})
        index.remove(2, {"operation": "BID"})
        assert set(index.lookup("BID")) == {3} and index.contains_key("BID")
        index.remove(3, {"operation": "BID"})
        assert not index.contains_key("BID") and len(index) == 0
        index.add(4, {"operation": "BID"})  # remove, then re-add
        assert index.lookup("BID") == (4,)
        index.remove(5, {"operation": "BID"})  # another document's id keeps the key
        assert index.lookup("BID") == (4,)
        index.remove(4, {"operation": "BID"})
        assert index._buckets == {}

    def test_unique_index_over_tuple_buckets(self):
        index = HashIndex("id", unique=True)
        index.add(1, {"id": "a"})
        with pytest.raises(DuplicateKeyError):
            index.add(2, {"id": "a"})
        assert index.lookup("a") == (1,)
        index.remove(1, {"id": "a"})
        index.add(2, {"id": "a"})  # the value is free again
        assert index.lookup("a") == (2,)

    def test_array_valued_documents_share_and_leave_buckets(self):
        index = HashIndex("outputs.public_keys")
        index.add(1, {"outputs": [{"public_keys": ["A", "B"]}, {"public_keys": ["A"]}]})
        index.add(2, {"outputs": [{"public_keys": ["B", "C"]}]})
        assert index.lookup("A") == (1,) and index.lookup("B") == {1, 2} and index.lookup("C") == (2,)
        assert len(index) == 4
        index.remove(1, {"outputs": [{"public_keys": ["A", "B"]}, {"public_keys": ["A"]}]})
        assert not index.contains_key("A") and set(index.lookup("B")) == {2} and len(index) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 5), st.lists(st.integers(0, 3), max_size=3)),
            max_size=40,
        )
    )
    def test_buckets_equal_a_dict_of_sets_model(self, operations):
        index = HashIndex("keys")
        model: dict[int, set[int]] = {}
        for adding, doc_id, keys in operations:
            document = {"keys": keys}
            if adding:
                index.add(doc_id, document)
                for key in keys:
                    model.setdefault(key, set()).add(doc_id)
            else:
                index.remove(doc_id, document)
                for key in keys:
                    model.get(key, set()).discard(doc_id)
            model = {key: ids for key, ids in model.items() if ids}
            assert {key: set(bucket) for key, bucket in index._buckets.items()} == model
            assert len(index) == sum(len(ids) for ids in model.values())
            for key in range(4):
                assert set(index.lookup(key)) == model.get(key, set())
                assert index.contains_key(key) == (key in model)


class TestSortedIndex:
    def build(self, heights):
        index = SortedIndex("height")
        for doc_id, height in enumerate(heights):
            index.add(doc_id, {"height": height})
        return index

    def test_range_inclusive(self):
        index = self.build([5, 1, 3, 9, 7])
        assert list(index.range(3, 7)) == [2, 0, 4]  # heights 3,5,7 in order

    def test_range_exclusive_bounds(self):
        index = self.build([1, 2, 3, 4])
        assert list(index.range(1, 4, include_low=False, include_high=False)) == [1, 2]

    def test_open_ranges(self):
        index = self.build([2, 4, 6])
        assert list(index.range(low=4)) == [1, 2]
        assert list(index.range(high=4)) == [0, 1]
        assert list(index.range()) == [0, 1, 2]

    def test_remove(self):
        index = self.build([1, 2, 2, 3])
        index.remove(1, {"height": 2})
        assert list(index.range(2, 2)) == [2]

    def test_non_comparable_values_skipped(self):
        index = SortedIndex("height")
        index.add(1, {"height": True})   # bools excluded
        index.add(2, {"height": None})
        assert len(index) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=25),
           st.integers(0, 50), st.integers(0, 50))
    def test_range_matches_naive_filter_property(self, heights, low, high):
        low, high = min(low, high), max(low, high)
        index = self.build(heights)
        via_index = sorted(index.range(low, high))
        naive = sorted(i for i, h in enumerate(heights) if low <= h <= high)
        assert via_index == naive
