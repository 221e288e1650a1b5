"""Crypto-conditions: single-owner and threshold (multisig) fulfillment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SchemaValidationError, ThresholdNotMetError
from repro.crypto.conditions import (
    ED25519_TYPE,
    THRESHOLD_TYPE,
    Condition,
    Fulfillment,
    multisignature_string,
)
from repro.crypto.keys import generate_keypair

KEYS = [generate_keypair(bytes([i]) * 32) for i in range(1, 6)]


class TestCondition:
    def test_single_owner_type(self):
        condition = Condition.for_owner(KEYS[0].public_key)
        assert condition.type_name == ED25519_TYPE

    def test_group_type(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:3]], threshold=2)
        assert condition.type_name == THRESHOLD_TYPE

    def test_empty_keys_rejected(self):
        with pytest.raises(SchemaValidationError):
            Condition(public_keys=(), threshold=1)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(SchemaValidationError):
            Condition(public_keys=(KEYS[0].public_key,), threshold=2)
        with pytest.raises(SchemaValidationError):
            Condition(public_keys=(KEYS[0].public_key,), threshold=0)

    def test_threshold_is_bounded_by_the_distinct_keys(self):
        a, b = KEYS[0].public_key, KEYS[1].public_key
        for keys, threshold in (((a, a), 2), ((a, a, b), 3), ((a, b, a, b), 3)):
            with pytest.raises(SchemaValidationError) as raised:
                Condition(public_keys=keys, threshold=threshold)
            assert raised.value.path == "condition.threshold"
            with pytest.raises(SchemaValidationError):
                Condition.from_dict({"public_keys": list(keys), "threshold": threshold})
        assert Condition(public_keys=(a, a), threshold=1).threshold == 1
        assert Condition(public_keys=(a, a, b), threshold=2).threshold == 2

    def test_dict_roundtrip(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:3]], threshold=2)
        rebuilt = Condition.from_dict(condition.to_dict())
        assert set(rebuilt.public_keys) == set(condition.public_keys)
        assert rebuilt.threshold == 2

    def test_from_dict_malformed(self):
        with pytest.raises(SchemaValidationError):
            Condition.from_dict({"threshold": 1})


class TestFulfillment:
    MESSAGE = b"spend output 0"

    def test_single_signature_satisfies(self):
        condition = Condition.for_owner(KEYS[0].public_key)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        assert fulfillment.satisfies(condition, self.MESSAGE)

    def test_wrong_message_fails(self):
        condition = Condition.for_owner(KEYS[0].public_key)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        assert not fulfillment.satisfies(condition, b"other message")

    def test_threshold_met_exactly(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:3]], threshold=2)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        fulfillment.add_signature(KEYS[2], self.MESSAGE)
        assert fulfillment.satisfies(condition, self.MESSAGE)

    def test_threshold_not_met(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:3]], threshold=3)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        fulfillment.add_signature(KEYS[1], self.MESSAGE)
        assert not fulfillment.satisfies(condition, self.MESSAGE)
        with pytest.raises(ThresholdNotMetError):
            fulfillment.require(condition, self.MESSAGE)

    def test_non_condition_signatures_ignored(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:2]], threshold=2)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        fulfillment.add_signature(KEYS[3], self.MESSAGE)  # outsider
        fulfillment.add_signature(KEYS[4], self.MESSAGE)  # outsider
        assert not fulfillment.satisfies(condition, self.MESSAGE)

    def test_invalid_signature_does_not_count(self):
        condition = Condition.for_group([k.public_key for k in KEYS[:2]], threshold=2)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        fulfillment.signatures[KEYS[1].public_key] = fulfillment.signatures[KEYS[0].public_key]
        assert not fulfillment.satisfies(condition, self.MESSAGE)

    def test_a_key_the_condition_lists_twice_signs_once(self):
        """One signer used to satisfy 2-of-(A, A, B): the count walked the
        key list, so A's signature was verified — and counted — twice."""
        a, b = KEYS[0].public_key, KEYS[1].public_key
        condition = Condition(public_keys=(a, a, b), threshold=2)
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        assert not fulfillment.satisfies(condition, self.MESSAGE)
        assert fulfillment.signature_items(condition, self.MESSAGE) == [
            (a, self.MESSAGE, fulfillment.signatures[a])
        ]
        with pytest.raises(ThresholdNotMetError):
            fulfillment.require(condition, self.MESSAGE)
        fulfillment.add_signature(KEYS[1], self.MESSAGE)
        assert fulfillment.satisfies(condition, self.MESSAGE)

    def test_a_repeated_key_at_threshold_one_keeps_verifying(self):
        condition = Condition(public_keys=(KEYS[0].public_key,) * 2, threshold=1)
        fulfillment = Fulfillment()
        assert not fulfillment.satisfies(condition, self.MESSAGE)
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        assert fulfillment.satisfies(condition, self.MESSAGE)

    def test_dict_roundtrip(self):
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        rebuilt = Fulfillment.from_dict(fulfillment.to_dict())
        condition = Condition.for_owner(KEYS[0].public_key)
        assert rebuilt.satisfies(condition, self.MESSAGE)

    def test_from_dict_malformed(self):
        with pytest.raises(SchemaValidationError):
            Fulfillment.from_dict({"signatures": "nope"})

    def test_multisignature_string_format(self):
        fulfillment = Fulfillment()
        fulfillment.add_signature(KEYS[0], self.MESSAGE)
        text = multisignature_string(fulfillment)
        assert text.startswith("ms[") and text.endswith("]")

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=5))
    def test_threshold_property(self, threshold, signer_count):
        """satisfies() iff at least `threshold` distinct valid signers."""
        threshold = min(threshold, len(KEYS))
        condition = Condition.for_group([k.public_key for k in KEYS], threshold=threshold)
        fulfillment = Fulfillment()
        for keypair in KEYS[:signer_count]:
            fulfillment.add_signature(keypair, self.MESSAGE)
        assert fulfillment.satisfies(condition, self.MESSAGE) == (signer_count >= threshold)
