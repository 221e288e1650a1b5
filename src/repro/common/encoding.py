"""Canonical serialisation and address encodings.

BigchainDB computes transaction ids as the SHA3-256 of the *canonically
serialised* transaction body (sorted keys, no whitespace, UTF-8), and
renders keys and signatures in base58.  Both are reimplemented here from
scratch on the standard library.

``orjson``, when it is importable, is an optional accelerator under one
rule: it may only produce bytes the stdlib encoder would produce, so it
never decides an id or a signature the stdlib would decide otherwise.
The guard is :func:`is_plain`: orjson encodes a value only if the value
is *plain* — dicts with ``str`` keys, lists, tuples, ``str``, ``bool``,
``None`` and exact ``int`` in [-2**63, 2**64) — and everything else
(floats, which orjson formats differently; NaN and infinities, which it
writes as ``null``; ``date``, ``UUID`` and ``Enum``, which it accepts and
json rejects; subclasses; ints it cannot hold) goes through ``json.dumps``
as before, so the bytes and the ``EncodingError``s are the stdlib's.
The guard is a Python walk, so a value the caller vouches is frozen is
walked once per process (:func:`frozen_bytes`).  Decoding follows the same
rule: :func:`decode_plain` is for bytes known to encode plain values
only, because orjson reads integers of 2**64 or more as floats.
"""

from __future__ import annotations

import gc
import json
from collections import OrderedDict
from typing import Any, Iterable

from repro.common.errors import EncodingError

try:
    import orjson as _orjson
except ImportError:  # the stdlib is the exact fallback
    _orjson = None

#: Bitcoin-style base58 alphabet (no 0, O, I, l).
BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

_BASE58_INDEX = {char: index for index, char in enumerate(BASE58_ALPHABET)}

#: Every two-digit base58 string, by value (0 .. 58**2 - 1).
_BASE58_PAIRS = [high + low for high in BASE58_ALPHABET for low in BASE58_ALPHABET]

#: Ten base58 digits per limb: a limb fits a machine word, so only the
#: limb split touches the big integer.
_LIMB = 58**10

#: The ints orjson holds exactly: [-2**63, 2**64).
_INT_MIN, _INT_END = -(1 << 63), 1 << 64


def json_kernel() -> str:
    """Which encoder serves plain values: ``"orjson <version>"`` or
    ``"json (stdlib)"``."""
    return f"orjson {_orjson.__version__}" if _orjson is not None else "json (stdlib)"


def _plain(value: Any) -> bool:
    kind = type(value)
    if kind is dict:
        for key in value:
            if type(key) is not str:
                return False
        items: Iterable[Any] = value.values()
    elif kind is list or kind is tuple:
        items = value
    elif kind is int:
        return _INT_MIN <= value < _INT_END
    else:
        return kind is str or kind is bool or value is None
    # Leaves are tested inline: a call per leaf is most of the walk.
    for item in items:
        kind = type(item)
        if kind is str or kind is bool or item is None:
            continue
        if kind is int:
            if not _INT_MIN <= item < _INT_END:
                return False
        elif not _plain(item):
            return False
    return True


def is_plain(value: Any) -> bool:
    """True if ``value`` lies in orjson's exact domain (module docstring):
    for such a value orjson writes the stdlib's canonical bytes."""
    try:
        return _plain(value)
    except RecursionError:  # too deep for either encoder; json decides
        return False


class FrozenMemo:
    """A bounded memo of facts about *frozen* objects, by identity.

    An entry holds its object, so the object's id cannot be reused while
    the entry lives, and a hit also requires the very object (``is``).
    Only objects nothing will mutate again may go in: a fact about a
    mutable object would go stale.  The oldest entries leave first.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._entries: OrderedDict[int, tuple[Any, Any]] = OrderedDict()

    def get(self, value: Any) -> Any:
        entry = self._entries.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def put(self, value: Any, fact: Any) -> Any:
        entries = self._entries
        entries[id(value)] = (value, fact)
        if len(entries) > self.limit:
            entries.popitem(last=False)
        return fact


#: Frozen value -> (canonical bytes, plain?).
_FROZEN = FrozenMemo(8192)

#: ``[value, plain?]`` while :func:`vouched_bytes` encodes ``value``.
_VOUCHED: list[Any] = [None, False]


def canonical_serialize(value: Any) -> str:
    """Serialise ``value`` into the canonical JSON form used for hashing.

    Keys are sorted, separators carry no whitespace, and non-ASCII text is
    preserved as UTF-8 (``ensure_ascii=False``) so the same logical document
    always produces the same byte string.  Plain values go through orjson
    when it is importable, with the same result (module docstring).

    Raises:
        EncodingError: if ``value`` contains non-JSON-serialisable objects.
    """
    if _orjson is not None:
        vouched, plain = _VOUCHED
        if plain if value is vouched else is_plain(value):
            try:
                return _orjson.dumps(value, option=_orjson.OPT_SORT_KEYS).decode()
            except TypeError:
                pass  # a lone surrogate or a too-deep value: json decides
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


def vouched_bytes(value: Any, plain: bool) -> bytes:
    """``canonical_bytes(value)`` when the caller already knows whether
    ``value`` is plain (:func:`is_plain`), so the encode skips the walk.
    A value vouched plain may still hold ints orjson cannot: orjson
    refuses those itself and json decides."""
    _VOUCHED[:] = value, plain
    try:
        return canonical_bytes(value)
    finally:
        _VOUCHED[:] = None, False


def frozen_bytes(value: Any) -> bytes:
    """``canonical_bytes(value)`` for a value the caller vouches is frozen
    (nothing mutates it again): walked and encoded once per process while
    it stays among the :data:`_FROZEN` memo's newest entries, so replicas
    sharing one frozen document share its bytes."""
    fact = _FROZEN.get(value)
    if fact is None:
        plain = _orjson is not None and is_plain(value)
        fact = _FROZEN.put(value, (vouched_bytes(value, plain), plain))
    return fact[0]


def held_bytes(value: Any) -> bytes | None:
    """The bytes :func:`frozen_bytes` still holds for ``value``, else
    None; never encodes."""
    fact = _FROZEN.get(value)
    return fact[0] if fact is not None else None


def known_plain(value: Any) -> bool:
    """True if ``value`` went through :func:`frozen_bytes` recently and
    is plain, so its bytes decode exactly through :func:`decode_plain`."""
    fact = _FROZEN.get(value)
    return fact is not None and fact[1]


def decode_plain(data: bytes) -> Any:
    """``json.loads(data)`` for canonical bytes of plain values only (a
    big int from elsewhere would come back a float through orjson)."""
    return _orjson.loads(data) if _orjson is not None else json.loads(data)


class collector_paused:
    """``with collector_paused():`` builds a caller-owned read answer with
    the cyclic collector off, then restores its previous state.

    A large answer is thousands of fresh containers; gen-0 passes that run
    while it is alive promote it, until the promotions set off full passes
    over the ledger heap.  Safe because JSON trees and dict or list copies
    cannot form cycles; the gen-0 count still rises while paused, so a kept
    answer is collected later as before and a dropped one is freed by
    refcount without a pass; and the program is single-threaded.  A class,
    not a generator: leaving allocates no ``StopIteration`` that would start
    the put-off pass while the answer is alive.
    """

    __slots__ = ("_enabled",)

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._enabled:
            gc.enable()


def object_pieces(
    members: dict[str, Any], pieces: list[bytes] | None = None
) -> list[bytes]:
    """Byte pieces that concatenate to the canonical encoding of an object
    whose member values are already encoded.

    A value is the canonical bytes of that member, a list of pieces that
    join to them, or a nested ``dict`` of such values.  Joined, the pieces
    equal ``canonical_bytes`` of the object byte for byte: canonical JSON
    has no context-dependent whitespace or escaping, so a value's encoding
    is the same wherever it is nested and only the key order has to be
    redone.  The values are in the list by reference — a member is never
    copied here.
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
        elif isinstance(value, list):
            pieces.extend(value)
        else:
            pieces.append(value)
        pieces.append(b",")
    if members:
        pieces.pop()
    pieces.append(b"}")
    return pieces


def array_pieces(items: Iterable[bytes | list[bytes]]) -> list[bytes]:
    """Byte pieces of the canonical array of already-encoded items (each
    bytes, or a list of pieces), held by reference as in
    :func:`object_pieces`."""
    pieces = [b"["]
    for item in items:
        if isinstance(item, list):
            pieces.extend(item)
        else:
            pieces.append(item)
        pieces.append(b",")
    if len(pieces) > 1:
        pieces[-1] = b"]"
    else:
        pieces.append(b"]")
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
    the reference encoding used for keys and signatures.  The number is
    split into ten-digit limbs, each written two digits at a time.
    """
    body = data.lstrip(b"\0")
    number = int.from_bytes(body, "big")
    pairs = _BASE58_PAIRS
    limbs: list[str] = []
    while number:
        number, limb = divmod(number, _LIMB)
        limb, e = divmod(limb, 3364)
        limb, d = divmod(limb, 3364)
        limb, c = divmod(limb, 3364)
        a, b = divmod(limb, 3364)
        limbs.append(pairs[a] + pairs[b] + pairs[c] + pairs[d] + pairs[e])
    digits = "".join(reversed(limbs)).lstrip("1")
    return "1" * (len(data) - len(body)) + digits


def base58_decode(text: str) -> bytes:
    """Decode a base58 string back to bytes.

    Raises:
        EncodingError: if ``text`` contains characters outside the alphabet.
    """
    digits = text.lstrip("1")
    try:
        values = list(map(_BASE58_INDEX.__getitem__, digits))
    except KeyError:
        bad = next(char for char in text if char not in _BASE58_INDEX)
        raise EncodingError(f"invalid base58 character: {bad!r}") from None
    head = len(values) % 10
    number = 0
    for value in values[:head]:
        number = number * 58 + value
    for at in range(head, len(values), 10):
        a, b, c, d, e, f, g, h, i, j = values[at : at + 10]
        number = number * _LIMB + (
            ((((((((a * 58 + b) * 58 + c) * 58 + d) * 58 + e) * 58 + f) * 58 + g) * 58 + h) * 58 + i)
            * 58
            + j
        )
    body = number.to_bytes((number.bit_length() + 7) // 8, "big") if number else b""
    return b"\0" * (len(text) - len(digits)) + body


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
