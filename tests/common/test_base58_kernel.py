"""The chunked base58 kernel writes and reads what the digit-at-a-time
loops of ``base58_reference`` do, byte for byte and error for error."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from base58_reference import base58_decode as reference_decode
from base58_reference import base58_encode as reference_encode
from repro.common.encoding import BASE58_ALPHABET, base58_decode, base58_encode
from repro.common.errors import EncodingError


def random_strings(count: int, seed: int = 58):
    """0-64 random bytes behind 0-3 zero bytes."""
    rng = random.Random(seed)
    for _ in range(count):
        body = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64)))
        yield b"\x00" * rng.randint(0, 3) + body


def test_random_strings_round_trip_as_the_reference_does():
    for data in random_strings(3000):
        text = reference_encode(data)
        assert base58_encode(data) == text, data
        assert base58_decode(text) == reference_decode(text) == data, text


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\x00",
        b"\x00" * 5,
        b"\x01",
        b"\x00\x00\x01",
        b"\xff" * 64,
        b"\x00" + b"\xff" * 32,
        (58**10).to_bytes(8, "big"),
        (58**10 - 1).to_bytes(8, "big"),
        (58**20).to_bytes(15, "big"),
    ],
)
def test_limb_and_zero_edges(data):
    text = reference_encode(data)
    assert base58_encode(data) == text
    assert base58_decode(text) == reference_decode(text) == data


@given(st.binary(max_size=80))
def test_any_bytes(data):
    assert base58_encode(data) == reference_encode(data)
    assert base58_decode(reference_encode(data)) == data


@given(st.text(alphabet=BASE58_ALPHABET, max_size=100))
def test_any_digit_string_decodes_as_the_reference_does(text):
    # Not every digit string is some encoding (a non-canonical one has
    # leading "1"s the value does not account for): the bytes still agree.
    assert base58_decode(text) == reference_decode(text)


@pytest.mark.parametrize("text", ["0", "O", "I", "l", "abc0", "11l", "+", "é", "3mJr7AoUX\n"])
def test_invalid_characters_raise_what_the_reference_raises(text):
    with pytest.raises(EncodingError) as reference:
        reference_decode(text)
    with pytest.raises(EncodingError) as kernel:
        base58_decode(text)
    assert str(kernel.value) == str(reference.value)
