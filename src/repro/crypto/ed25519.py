"""Pure-Python Ed25519 (RFC 8032) with a fast path for recurring keys.

BigchainDB signs transaction payloads with Ed25519 keys.  This module is a
self-contained implementation of the signature scheme over the twisted
Edwards curve edwards25519, using extended homogeneous coordinates for
group arithmetic.  It is deliberately free of third-party dependencies;
``hashlib.sha512`` is the only primitive it borrows.

The hot path is tuned for what the pipeline actually does — sign with a
seed it has used before, verify against a public key it has seen before:

* the running point is in extended (projective) coordinates, so a scalar
  multiplication performs **zero** field inversions; the one inversion per
  point compression or decompression is Euclidean (``pow(x, -1, P)``), a
  fifth of the cost of a Fermat exponentiation;
* every multiplication runs through one routine, :func:`_windowed_sum`:
  signed-digit windows over tables of *affine* multiples stored ready for
  the addition formula (:func:`_affine_table`), so a table add is 7 field
  multiplications, a negative digit reuses the positive entry, and one
  doubling chain is shared by all terms;
* the base point's table is built at import with 8-bit windows and a row
  per digit (33 x 128 entries, ~1 MB, ~35 ms), so ``r*B`` in signing and
  ``s*B`` in verification cost at most 33 adds and no doublings;
* :func:`sign` memoises the expanded key (:data:`_EXPANDED_KEY_CACHE`,
  4096 seeds, 2 MB worst case): one base multiplication and one
  compression per signature, the public key is never re-derived;
* :func:`verify` memoises recurring public keys (:data:`_PUBKEY_CACHE`, 384
  keys, < 20 MB worst case) and from the second sight of a key a table of
  5-bit windows in 13 rows of 4 digits (208 entries, ~53 KB), so ``h*A``
  costs 15 doublings and at most 52 adds instead of ~250 doublings, a
  one-row table and ~60 adds;
* :func:`verify` never takes the square root that decompressing ``R``
  would: it computes ``Q = s*B - h*A`` and asks whether the 32 bytes of
  ``R`` *encode* ``Q`` up to a point of small order — one comparison and
  one inversion on an honest signature.  A warm verification is at most
  86 adds, 15 doublings and that inversion.

``R`` by its encoding, and why nothing changes: the cofactored check
``8*s*B == 8*R + 8*h*A`` over a *decodable* ``R`` holds iff ``T = Q - R``
has small order, i.e. iff ``R = Q - T`` for one of the eight such ``T``;
and 32 bytes decode to a point iff they are that point's canonical
encoding (``y < P``, on the curve, no sign bit on ``x = 0``), because
encode and decode are inverse on exactly those.  Conversely bytes that
encode ``Q - T`` decode to it, and ``8*T = 0``.  So "some ``Q - T``
encodes to these bytes" is the same acceptance set, reached without
knowing ``x``.

Both memos are module-level, evict one entry at a fixed cap (the oldest
seed; the least recently used public key), and hold pure functions of
their keys: no verdict and no signature byte depends on them.

The implementation favours clarity over constant-time guarantees — it is a
research reproduction, not a hardened production signer — but it is fully
interoperable: signatures verify against the RFC 8032 test vectors (see
``tests/crypto/test_ed25519.py``).
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple, Sequence

from repro.common.errors import InvalidKeyError

# Curve constants for edwards25519 (RFC 8032, section 5.1).
P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P

#: Sign bit mask for point encoding.
_SIGN_BIT = 1 << 255


class _Point(NamedTuple):
    """A curve point in extended homogeneous coordinates (X, Y, Z, T).

    The hot-path arithmetic below trades on ``_Point`` being a tuple: the
    group operations unpack their operands positionally and return plain
    ``(x, y, z, t)`` tuples, skipping the NamedTuple constructor — at
    hundreds of point operations per signature the object overhead is
    measurable next to the ~255-bit field multiplies.
    """

    x: int
    y: int
    z: int
    t: int


#: 2*D, folded into the addition formula's ``cc`` term.
_D2 = 2 * D % P


def _point_add(a, b):
    """Add two points (RFC 8032 'add' on extended coordinates)."""
    ax, ay, az, at = a
    bx, by, bz, bt = b
    aa = (ay - ax) * (by - bx) % P
    bb = (ay + ax) * (by + bx) % P
    cc = at * bt % P * _D2 % P
    dd = 2 * az * bz % P
    e = bb - aa
    f = dd - cc
    g = dd + cc
    h = bb + aa
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_double(a):
    """Double a point using the dedicated doubling formula."""
    ax, ay, az, _ = a
    aa = ax * ax % P
    bb = ay * ay % P
    cc = 2 * az * az % P
    h = (aa + bb) % P
    e = (h - (ax + ay) * (ax + ay)) % P
    g = (aa - bb) % P
    f = (cc + g) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


_IDENTITY = _Point(0, 1, 1, 0)


def _affine_table(point, width: int, cols: int, rows: int) -> list[list]:
    """Signed-window table of ``point``: ``table[j][m]`` is ``m * 2**(width *
    cols * j) * point`` for ``m`` in ``1 .. 2**(width - 1)``.

    Entries are affine and stored as ``(y - x, y + x, 2*D*x*y)`` — the
    factors the addition formula needs from its table operand when that
    operand's ``Z`` is 1 — so a table add in :func:`_windowed_sum` is 7
    field multiplications, and the negative of an entry is the same three
    numbers with the first two swapped and the third negated, which is why
    only positive multiples are stored.  All ``Z`` are inverted together
    (Montgomery's trick: one inversion and three multiplications per
    entry).  Slot 0 (the identity) is never added and stays ``None``.

    ``rows`` rows ``cols`` digits apart trade memory for doublings: a
    multiplication over the table reads ``rows * cols`` digits in ``width
    * (cols - 1)`` doublings and at most ``rows * cols`` adds.
    """
    half = 1 << (width - 1)
    multiples = []
    for row in range(rows):
        if row:
            for _ in range(width * cols):
                point = _point_double(point)
        multiple = point
        multiples.append(multiple)
        for _ in range(half - 1):
            multiple = _point_add(multiple, point)
            multiples.append(multiple)
    # Montgomery's trick: products of all earlier Z, one inversion of the
    # whole product, then peel one Z off per entry walking back.
    prefixes = []
    product = 1
    for _, _, z, _ in multiples:
        prefixes.append(product)
        product = product * z % P
    inverse = pow(product, -1, P)
    entries: list = [None] * len(multiples)
    for index in range(len(multiples) - 1, -1, -1):
        x, y, z, _ = multiples[index]
        z_inv = inverse * prefixes[index] % P
        inverse = inverse * z % P
        x = x * z_inv % P
        y = y * z_inv % P
        entries[index] = ((y - x) % P, (y + x) % P, x * y % P * _D2 % P)
    return [[None] + entries[start : start + half] for start in range(0, len(entries), half)]


def _windowed_sum(terms: Sequence[tuple[list, int]], width: int, cols: int, start=_IDENTITY):
    """``2**(width * (cols - 1)) * start + sum(scalar_i * point_i)`` over
    ``terms[i] = (_affine_table(point_i, width, cols, any rows), scalar_i)``.

    Every scalar is read in signed ``width``-bit digits, ``-2**(width-1) <=
    digit < 2**(width-1)``: adding ``2**(width-1)`` at every digit position
    up front makes digit ``i`` of the sum, minus ``2**(width-1)``, the
    signed digit, with the carries done by that one big-int addition — so
    a table of ``n`` digits holds scalars up to a little under
    ``2**(width*n - 1)``.  The loop then walks the columns from the top,
    ``width`` doublings between columns shared by every term and every
    row, and per row one table add for a positive digit, one add of the
    mirrored entry for a negative one.

    The one place group arithmetic is inlined on local field elements — at
    a hundred point operations per signature, tuple construction and call
    dispatch would otherwise rival the big-int arithmetic itself — and the
    routine every multiplication in this module runs through.

    Raises:
        ValueError: if a scalar is negative or too wide for its table
            (its top digits would silently wrap).
    """
    x, y, z, t = start
    p = P
    half = 1 << (width - 1)
    mask = 2 * half - 1
    stride = width * cols
    recoded = []
    for table, scalar in terms:
        bits = stride * len(table)
        biased = scalar + ((1 << bits) - 1) // mask * half
        if scalar < 0 or biased >> bits:
            raise ValueError(f"scalar out of range for a {bits}-bit window table")
        recoded.append((table, biased))
    for col in range(cols - 1, -1, -1):
        if col != cols - 1:
            for _ in range(width):
                aa = x * x % p
                bb = y * y % p
                cc = 2 * z * z % p
                h = aa + bb
                e = h - (x + y) * (x + y)
                g = aa - bb
                f = cc + g
                x, y, z, t = e * f % p, g * h % p, f * g % p, e * h % p
        for table, scalar in recoded:
            scalar >>= width * col
            for row in table:
                digit = (scalar & mask) - half
                scalar >>= stride
                if digit:
                    if digit > 0:
                        ymx, ypx, xy2d = row[digit]
                    else:
                        ypx, ymx, xy2d = row[-digit]
                        xy2d = -xy2d
                    aa = (y - x) * ymx % p
                    bb = (y + x) * ypx % p
                    cc = t * xy2d % p
                    dd = z + z
                    e = bb - aa
                    f = dd - cc
                    g = dd + cc
                    h = bb + aa
                    x, y, z, t = e * f % p, g * h % p, f * g % p, e * h % p
    return (x, y, z, t)


#: Window width of the one-row table (8 entries) a point gets when it is
#: multiplied once: the first sight of a public key.
_ONE_SHOT_WIDTH = 4


def _scalar_mult(point, scalar: int):
    """``scalar * point`` for a point multiplied once: a one-row table,
    then four doublings and at most one add per digit."""
    # Two bits of headroom over the scalar cover the signed digits.
    cols = (scalar.bit_length() + 1) // _ONE_SHOT_WIDTH + 1
    table = _affine_table(point, _ONE_SHOT_WIDTH, cols, 1)
    return _windowed_sum([(table, scalar)], _ONE_SHOT_WIDTH, cols)


#: sqrt(-1) mod P, the p = 5 (mod 8) square-root fixup factor.
_SQRT_M1 = pow(2, (P - 1) // 4, P)


def _recover_x(y: int, sign: int) -> int:
    """Recover the x coordinate of a point from y and the sign bit.

    Raises:
        InvalidKeyError: if no square root exists (point not on curve).
    """
    if y >= P:
        raise InvalidKeyError("y coordinate out of range")
    x2 = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    if x2 == 0:
        if sign:
            raise InvalidKeyError("invalid sign bit for x = 0")
        return 0
    # Square root via the p = 5 (mod 8) shortcut.
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * _SQRT_M1 % P
    if (x * x - x2) % P != 0:
        raise InvalidKeyError("point is not on the curve")
    if (x & 1) != sign:
        x = P - x
    return x


# Base point B (RFC 8032 section 5.1).
_BASE_Y = 4 * pow(5, -1, P) % P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE = _Point(_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % P)

#: The base point's table, built once at import: 8-bit signed windows, a
#: row per digit (33 rows x 128 entries, ~1 MB), so a multiplication is at
#: most 33 adds and no doublings.
_BASE_WIDTH = 8
_BASE_TABLE = _affine_table(_BASE, _BASE_WIDTH, 1, 33)


def _base_mult(scalar: int, start=_IDENTITY):
    """``start + scalar * B`` (at most 33 table adds, no doublings)."""
    return _windowed_sum([(_BASE_TABLE, scalar)], _BASE_WIDTH, 1, start)


def _point_compress(point) -> bytes:
    """Encode a point to its 32-byte compressed form (the one inversion)."""
    px, py, pz, _ = point
    z_inv = pow(pz, -1, P)
    x = px * z_inv % P
    y = py * z_inv % P
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def _point_decompress(data: bytes) -> _Point:
    """Decode a 32-byte compressed point.

    Raises:
        InvalidKeyError: on malformed encodings or off-curve points.
    """
    if len(data) != 32:
        raise InvalidKeyError("compressed point must be 32 bytes")
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    x = _recover_x(y, sign)
    return _Point(x, y, 1, x * y % P)


#: The seven points of small order besides the identity: the multiples of
#: an order-8 point.  :func:`verify` compares ``R`` with a point up to these.
_SMALL_ORDER = [
    _scalar_mult(
        _point_decompress(
            bytes.fromhex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05")
        ),
        multiple,
    )
    for multiple in range(1, 8)
]


def _encodes(y: int, sign: int, point) -> bool:
    """Whether ``y < P`` and ``sign`` are the canonical encoding of ``point``:
    one multiplication to compare ``y``, and only on a match the inversion
    that tells the parity of ``x`` (``x = 0`` with the sign bit set, which
    decompression refuses, matches no point here either)."""
    px, py, pz, _ = point
    return (y * pz - py) % P == 0 and (px * pow(pz, -1, P) % P) & 1 == sign


def _memo_put(memo: dict, cap: int, key: bytes, value: Any) -> None:
    """Insert into a bounded module-level memo, evicting the oldest entry.

    One entry goes per insert (dicts iterate in insertion order);
    wholesale clearing would collapse the hit rate for key populations
    just past the bound.
    """
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


#: Recurring public keys: encoding -> ``[A, table or None]``, at most
#: :data:`_PUBKEY_CACHE_MAX` entries, ~53 KB each once the table exists
#: (< 20 MB worst case; ``tests/crypto/test_ed25519_fastpath.py`` measures
#: a table and holds the cap to that).  The first sight of a key
#: decompresses it (an inversion and a square root) and multiplies over a
#: one-row table made for the occasion.  The second sight builds the
#: key's table, 5-bit signed windows in 13 rows of 4 digits (208
#: entries), in ~2.4 ms, the price of six warm verifications; from then on
#: ``h*A`` costs 15 doublings and at most 52 adds instead of ~250 and ~60.
#: Every use moves the entry to the young end and eviction takes the
#: oldest, so the few keys that keep signing (validators) outlive any
#: number of one-shot client keys passing through.  One-shot keys pay
#: nothing, and a key population cycling past the bound is evicted before
#: its second sight, so no table is built that could not be kept — nor is
#: its decompression remembered; the benchmark workloads have ~20 keys.
#: Only ``A`` is memoised, never ``R`` (unique per signature).  Both
#: decompression and multiplication are pure functions of the encoding, so
#: the memo cannot change any verdict.
_PUBKEY_CACHE: dict[bytes, list] = {}
_PUBKEY_CACHE_MAX = 384
_PUBKEY_WIDTH, _PUBKEY_COLS, _PUBKEY_ROWS = 5, 4, 13


def _public_entry(data: bytes) -> tuple[list, bool]:
    """The memo entry of a public key, made the youngest, and whether the
    key had one before this call.

    Raises:
        InvalidKeyError: if the encoding is malformed or off-curve.
    """
    entry = _PUBKEY_CACHE.pop(data, None)
    seen = entry is not None
    if not seen:
        entry = [_point_decompress(data), None]
    _memo_put(_PUBKEY_CACHE, _PUBKEY_CACHE_MAX, data, entry)
    return entry, seen


def _public_mult(public_key: bytes, scalar: int):
    """``scalar * A`` for a compressed public key: over a one-row table on
    the first sight of the key, over its own table from the second on.

    Raises:
        InvalidKeyError: if the encoding is malformed or off-curve.
    """
    entry, seen = _public_entry(public_key)
    if not seen:
        return _scalar_mult(entry[0], scalar)
    if entry[1] is None:
        entry[1] = _affine_table(entry[0], _PUBKEY_WIDTH, _PUBKEY_COLS, _PUBKEY_ROWS)
    return _windowed_sum([(entry[1], scalar)], _PUBKEY_WIDTH, _PUBKEY_COLS)


def _sha512_int(*parts: bytes) -> int:
    digest = hashlib.sha512(b"".join(parts)).digest()
    return int.from_bytes(digest, "little")


def _clamp(seed_hash: bytes) -> int:
    scalar = int.from_bytes(seed_hash[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar


#: Expanded private keys: seed -> (clamped scalar, nonce prefix, compressed
#: public key), at most :data:`_EXPANDED_KEY_CACHE_MAX` entries of ~0.5 KB
#: (2 MB worst case).  Validators sign a vote per round and clients a
#: transaction per submit with the same few seeds; re-deriving the public
#: key would cost a second base multiplication and compression per
#: signature.
_EXPANDED_KEY_CACHE: dict[bytes, tuple[int, bytes, bytes]] = {}
_EXPANDED_KEY_CACHE_MAX = 4096


def _expand_seed(seed: bytes) -> tuple[int, bytes, bytes]:
    """Memoised RFC 8032 key expansion (section 5.1.5).

    Raises:
        InvalidKeyError: if the seed is not exactly 32 bytes.
    """
    expanded = _EXPANDED_KEY_CACHE.get(seed)
    if expanded is None:
        if len(seed) != 32:
            raise InvalidKeyError("Ed25519 seed must be 32 bytes")
        seed_hash = hashlib.sha512(seed).digest()
        scalar = _clamp(seed_hash)
        expanded = (scalar, seed_hash[32:], _point_compress(_base_mult(scalar)))
        _memo_put(_EXPANDED_KEY_CACHE, _EXPANDED_KEY_CACHE_MAX, seed, expanded)
    return expanded


def memo_stats() -> dict[str, int]:
    """Resident entries of the two key memos (counts only, no key material)."""
    return {
        "expanded_seeds": len(_EXPANDED_KEY_CACHE),
        "public_keys": len(_PUBKEY_CACHE),
        "public_key_tables": sum(entry[1] is not None for entry in _PUBKEY_CACHE.values()),
    }


def public_key_from_seed(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte private seed.

    Raises:
        InvalidKeyError: if the seed is not exactly 32 bytes.
    """
    return _expand_seed(seed)[2]


def sign(seed: bytes, message: bytes) -> bytes:
    """Produce a 64-byte RFC 8032 signature of ``message``.

    Args:
        seed: the signer's 32-byte private seed.
        message: arbitrary bytes to sign.

    Raises:
        InvalidKeyError: if the seed is malformed.
    """
    scalar, prefix, public = _expand_seed(seed)
    r = _sha512_int(prefix, message) % L
    r_point = _point_compress(_base_mult(r))
    challenge = _sha512_int(r_point, public, message) % L
    s = (r + challenge * scalar) % L
    return r_point + int.to_bytes(s, 32, "little")


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check a signature; returns ``True`` iff it is valid.

    Malformed keys/signatures return ``False`` rather than raising, so the
    validation pipeline can treat all failures uniformly.

    This is the *cofactored* check ``8*s*B == 8*R + 8*h*A`` (RFC 8032
    sanctions either form).

    It is evaluated as "``R``'s bytes are the canonical encoding of
    ``s*B - h*A - T`` for a ``T`` of small order" (the module docstring
    shows the two are one set), which needs no square root.
    """
    if len(public_key) != 32 or len(signature) != 64:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    r_y = int.from_bytes(signature[:32], "little")
    r_sign = r_y >> 255
    r_y &= _SIGN_BIT - 1
    if r_y >= P:
        return False
    challenge = _sha512_int(signature[:32], public_key, message) % L
    try:
        x, y, z, t = _public_mult(public_key, challenge)
    except InvalidKeyError:
        return False
    q = _base_mult(s, (-x, y, z, -t))  # s*B - h*A
    # All eight are tried because two of them can share a y.
    return _encodes(r_y, r_sign, q) or any(
        _encodes(r_y, r_sign, _point_add(q, torsion)) for torsion in _SMALL_ORDER
    )
