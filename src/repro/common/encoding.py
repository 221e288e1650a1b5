"""Canonical serialisation and address encodings.

BigchainDB computes transaction ids as the SHA3-256 of the *canonically
serialised* transaction body (sorted keys, no whitespace, UTF-8), and
renders keys and signatures in base58.  Both are reimplemented here from
scratch so the library has no dependencies beyond the standard library.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.common.errors import EncodingError

#: Bitcoin-style base58 alphabet (no 0, O, I, l).
BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

_BASE58_INDEX = {char: index for index, char in enumerate(BASE58_ALPHABET)}


def canonical_serialize(value: Any) -> str:
    """Serialise ``value`` into the canonical JSON form used for hashing.

    Keys are sorted, separators carry no whitespace, and non-ASCII text is
    preserved as UTF-8 (``ensure_ascii=False``) so the same logical document
    always produces the same byte string.

    Raises:
        EncodingError: if ``value`` contains non-JSON-serialisable objects.
    """
    try:
        return json.dumps(
            value,
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )
    except (TypeError, ValueError) as exc:
        raise EncodingError(f"value is not canonically serialisable: {exc}") from exc


def canonical_bytes(value: Any) -> bytes:
    """UTF-8 bytes of :func:`canonical_serialize`."""
    return canonical_serialize(value).encode("utf-8")


def object_pieces(
    members: dict[str, Any], pieces: list[bytes] | None = None
) -> list[bytes]:
    """Byte pieces that concatenate to the canonical encoding of an object
    whose member values are already encoded.

    A value is the canonical bytes of that member, or a nested ``dict`` of
    such values.  Joined, the pieces equal ``canonical_bytes`` of the
    object byte for byte: canonical JSON has no context-dependent
    whitespace or escaping, so a value's encoding is the same wherever it
    is nested and only the key order has to be redone.  The values are in
    the list by reference — a multi-megabyte member is not copied until
    the caller joins, once, into its final buffer.
    """
    if pieces is None:
        pieces = []
    pieces.append(b"{")
    for key in sorted(members):
        pieces.append(json.dumps(key, ensure_ascii=False).encode("utf-8"))
        pieces.append(b":")
        value = members[key]
        if isinstance(value, dict):
            object_pieces(value, pieces)
        else:
            pieces.append(value)
        pieces.append(b",")
    if members:
        pieces.pop()
    pieces.append(b"}")
    return pieces


def splice_object(members: dict[str, Any]) -> bytes:
    """Canonical bytes of an object whose member values are already
    encoded (see :func:`object_pieces`)."""
    return b"".join(object_pieces(members))


def splice_array(items: Iterable[bytes]) -> bytes:
    """Canonical bytes of an array of already-encoded items."""
    return b"[%s]" % b",".join(items)


def base58_encode(data: bytes) -> str:
    """Encode ``data`` using the Bitcoin base58 alphabet.

    Leading zero bytes are preserved as leading ``1`` characters, matching
    the reference encoding used for keys and signatures.
    """
    leading_zeros = 0
    for byte in data:
        if byte == 0:
            leading_zeros += 1
        else:
            break

    number = int.from_bytes(data, "big")
    digits: list[str] = []
    while number > 0:
        number, remainder = divmod(number, 58)
        digits.append(BASE58_ALPHABET[remainder])
    return "1" * leading_zeros + "".join(reversed(digits))


def base58_decode(text: str) -> bytes:
    """Decode a base58 string back to bytes.

    Raises:
        EncodingError: if ``text`` contains characters outside the alphabet.
    """
    leading_ones = 0
    for char in text:
        if char == "1":
            leading_ones += 1
        else:
            break

    number = 0
    for char in text:
        try:
            number = number * 58 + _BASE58_INDEX[char]
        except KeyError:
            raise EncodingError(f"invalid base58 character: {char!r}") from None

    if number == 0:
        body = b""
    else:
        body = number.to_bytes((number.bit_length() + 7) // 8, "big")
    return b"\x00" * leading_ones + body


#: The JSON leaf types.  ``deep_copy_json`` tests them inline — saving a
#: recursive call per leaf, which is most of a document.
SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def deep_copy_json(value: Any) -> Any:
    """Copy a JSON-like structure (dict/list/scalars) without shared state.

    Used when handing transaction payloads across trust boundaries (driver
    to server, server to storage) so that later mutation by the caller
    cannot corrupt validated state.
    """
    if isinstance(value, dict):
        return {
            key: item if type(item) in SCALAR_TYPES else deep_copy_json(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [
            item if type(item) in SCALAR_TYPES else deep_copy_json(item)
            for item in value
        ]
    return value
