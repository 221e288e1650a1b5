"""Canonical serialisation and base58 encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.encoding import (
    base58_decode,
    base58_encode,
    canonical_bytes,
    canonical_serialize,
    deep_copy_json,
    hex_decode,
    hex_encode,
    object_pieces,
    splice_array,
    splice_object,
)
from repro.common.errors import EncodingError


class TestCanonicalSerialize:
    def test_sorts_keys(self):
        assert canonical_serialize({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_no_whitespace(self):
        text = canonical_serialize({"a": [1, 2], "b": {"c": 3}})
        assert " " not in text

    def test_key_order_does_not_change_output(self):
        left = canonical_serialize({"x": 1, "y": {"b": 2, "a": 3}})
        right = canonical_serialize({"y": {"a": 3, "b": 2}, "x": 1})
        assert left == right

    def test_unicode_preserved(self):
        assert canonical_serialize({"k": "naïve"}) == '{"k":"naïve"}'

    def test_non_serialisable_raises(self):
        with pytest.raises(EncodingError):
            canonical_serialize({"k": object()})

    def test_canonical_bytes_utf8(self):
        assert canonical_bytes({"k": "é"}) == '{"k":"é"}'.encode("utf-8")


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)


class TestSplice:
    """Splicing already-encoded members == encoding the whole value."""

    @given(st.dictionaries(st.text(), json_values, max_size=6))
    def test_object_equals_whole_encoding(self, value):
        members = {key: canonical_bytes(item) for key, item in value.items()}
        assert splice_object(members) == canonical_bytes(value)

    @given(st.lists(json_values, max_size=6))
    def test_array_equals_whole_encoding(self, value):
        assert splice_array(canonical_bytes(item) for item in value) == canonical_bytes(value)

    def test_keys_are_sorted_and_escaped(self):
        members = {"b": b"1", 'a"\n': b"[]", "é": b"null"}
        assert splice_object(members) == canonical_bytes({"b": 1, 'a"\n': [], "é": None})

    def test_empty(self):
        assert splice_object({}) == b"{}"
        assert splice_array([]) == b"[]"

    @given(st.dictionaries(st.text(), st.dictionaries(st.text(), json_values, max_size=3), max_size=4))
    def test_nested_objects_are_spliced_in_place(self, value):
        members = {
            outer: {key: canonical_bytes(item) for key, item in inner.items()}
            for outer, inner in value.items()
        }
        assert splice_object(members) == canonical_bytes(value)

    def test_pieces_hold_the_members_by_reference(self):
        big = canonical_bytes(["x" * 1000])
        pieces = object_pieces({"a": {"b": big}})
        assert any(piece is big for piece in pieces)
        assert b"".join(pieces) == b'{"a":{"b":' + big + b"}}"


class TestBase58:
    def test_roundtrip_simple(self):
        assert base58_decode(base58_encode(b"hello")) == b"hello"

    def test_leading_zeros_preserved(self):
        data = b"\x00\x00\x01\x02"
        encoded = base58_encode(data)
        assert encoded.startswith("11")
        assert base58_decode(encoded) == data

    def test_empty(self):
        assert base58_encode(b"") == ""
        assert base58_decode("") == b""

    def test_known_vector(self):
        # "hello world" per the Bitcoin alphabet.
        assert base58_encode(b"hello world") == "StV1DL6CwTryKyV"

    def test_invalid_character_raises(self):
        with pytest.raises(EncodingError):
            base58_decode("0OIl")  # excluded alphabet characters

    @given(st.binary(max_size=128))
    def test_roundtrip_property(self, data):
        assert base58_decode(base58_encode(data)) == data


class TestHex:
    def test_roundtrip(self):
        assert hex_decode(hex_encode(b"\xde\xad")) == b"\xde\xad"

    def test_0x_prefix_accepted(self):
        assert hex_decode("0xdead") == b"\xde\xad"

    def test_bad_hex_raises(self):
        with pytest.raises(EncodingError):
            hex_decode("zz")

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, data):
        assert hex_decode(hex_encode(data)) == data


class TestDeepCopyJson:
    def test_nested_structures_are_independent(self):
        original = {"a": [1, {"b": 2}]}
        copy = deep_copy_json(original)
        copy["a"][1]["b"] = 99
        assert original["a"][1]["b"] == 2

    def test_scalars_pass_through(self):
        assert deep_copy_json(5) == 5
        assert deep_copy_json(None) is None

    def test_matches_the_recursive_reference(self):
        """The inlined leaf test must copy exactly what recursing into
        every leaf did."""

        def reference(value):
            if isinstance(value, dict):
                return {key: reference(item) for key, item in value.items()}
            if isinstance(value, list):
                return [reference(item) for item in value]
            return value

        class Tagged(dict):
            pass

        class Batch(list):
            pass

        marker = (1, 2)  # not JSON: passed through by reference, as before
        original = {
            "scalars": [0, 1, True, False, None, 1.5, "", "é"],
            "empties": {"d": {}, "l": [], "ll": [[]], "ld": [{}], "dl": {"x": []}},
            "sub": Tagged(a=Batch([1, Tagged(b=2)]), b=Batch()),
            "deep": [[[{"k": [{"z": None}]}]]],
            "foreign": marker,
        }
        copy = deep_copy_json(original)
        assert copy == reference(original) == original
        assert type(copy["sub"]) is dict and type(copy["sub"]["a"]) is list
        assert type(copy["sub"]["a"][1]) is dict
        assert copy["foreign"] is marker
        assert copy["scalars"][2] is True and copy["scalars"][1] == 1
        assert type(copy["scalars"][1]) is int

    def test_shared_subtrees_become_independent_copies(self):
        shared = {"n": [1]}
        original = {"a": shared, "b": shared, "c": [shared, shared]}
        copy = deep_copy_json(original)
        assert copy["a"] is not copy["b"] and copy["c"][0] is not copy["c"][1]
        copy["a"]["n"].append(2)
        assert copy["b"] == {"n": [1]} and shared == {"n": [1]}
        for container in (copy, copy["a"], copy["a"]["n"], copy["c"], copy["c"][0]):
            assert container is not original and container is not shared
