"""Pure-Python Ed25519 (RFC 8032) with a batched fast path.

BigchainDB signs transaction payloads with Ed25519 keys.  This module is a
self-contained implementation of the signature scheme over the twisted
Edwards curve edwards25519, using extended homogeneous coordinates for
group arithmetic.  It is deliberately free of third-party dependencies;
``hashlib.sha512`` is the only primitive it borrows.

The hot path is tuned for what the pipeline actually does — sign with a
seed it has used before, verify against a public key it has seen before —
and for the validation pipeline's batch pre-pass:

* all group arithmetic runs on extended (projective) coordinates, so a
  scalar multiplication performs **zero** field inversions; the one
  inversion per point compression or decompression is Euclidean
  (``pow(x, -1, P)``), a fifth of the cost of a Fermat exponentiation;
* every multiplication runs through one routine, :func:`_straus`: 4-bit
  window tables whose entries are stored ready for the addition formula,
  and one doubling chain shared by all terms;
* the base point's table is split 64 ways at import, so ``r*B`` in signing
  and ``s*B`` in verification cost at most 64 adds and no doublings;
* :func:`sign` memoises the expanded key (:data:`_EXPANDED_KEY_CACHE`,
  4096 seeds, 2 MB worst case): one base multiplication and one
  compression per signature, the public key is never re-derived;
* :func:`verify` memoises recurring public keys (:data:`_PUBKEY_CACHE`, 512
  keys, ~20 MB worst case) and from the second sight of a key an 8-way
  split table for it, so ``h*A`` costs 28 doublings and at most 64 adds
  instead of 252 doublings, 14 table-building adds and ~60 more;
* :func:`verify_batch` checks many signatures at once through a single
  random-linear-combination equation — the doubling chain is shared across
  the whole batch, which is where the batch speedup comes from.

Both memos are module-level, FIFO-evicted at a fixed cap, and hold pure
functions of their keys: no verdict and no signature byte depends on them.

The implementation favours clarity over constant-time guarantees — it is a
research reproduction, not a hardened production signer — but it is fully
interoperable: signatures verify against the RFC 8032 test vectors (see
``tests/crypto/test_ed25519.py``).
"""

from __future__ import annotations

import hashlib
from typing import Any, NamedTuple, Sequence

from repro.common.errors import InvalidKeyError, InvalidSignatureError

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


def _window_table(point) -> list:
    """Multiples ``1..15`` of ``point`` for 4-bit window recoding.

    Entries are stored as ``(Y-X, Y+X, 2*D*T, 2*Z)`` — the factors the
    addition formula needs from its table operand — so each table add in
    :func:`_straus` is 8 field multiplications instead of 9.  Slot 0 (the
    identity) is never added and stays ``None``.
    """
    multiples = [point]
    for _ in range(14):
        multiples.append(_point_add(multiples[-1], point))
    return [None] + [
        ((y - x) % P, (y + x) % P, t * _D2 % P, 2 * z % P) for x, y, z, t in multiples
    ]


def _straus(terms: Sequence[tuple[list, int]], steps: int):
    """``sum(scalar_i * point_i)`` over ``terms[i] = (_window_table(point_i), scalar_i)``.

    Straus interleaving: every scalar is read one nibble at a time from
    nibble ``steps - 1`` down, four doublings per step shared by all
    terms, then at most one table add per term.  The one place group
    arithmetic is inlined on local field elements — at hundreds of point
    operations per signature, tuple construction and call dispatch would
    otherwise rival the big-int arithmetic itself — and the routine every
    multiplication in this module runs through.
    """
    x, y, z, t = _IDENTITY
    p = P
    top = 4 * steps - 4
    for shift in range(top, -1, -4):
        if shift != top:
            for _ in range(4):
                aa = x * x % p
                bb = y * y % p
                cc = 2 * z * z % p
                h = aa + bb
                e = h - (x + y) * (x + y)
                g = aa - bb
                f = cc + g
                x, y, z, t = e * f % p, g * h % p, f * g % p, e * h % p
        for table, scalar in terms:
            nibble = (scalar >> shift) & 0xF
            if nibble:
                ymx, ypx, t2d, z2 = table[nibble]
                aa = (y - x) * ymx % p
                bb = (y + x) * ypx % p
                cc = t * t2d % p
                dd = z * z2 % p
                e = bb - aa
                f = dd - cc
                g = dd + cc
                h = bb + aa
                x, y, z, t = e * f % p, g * h % p, f * g % p, e * h % p
    return (x, y, z, t)


def _scalar_mult(point, scalar: int):
    """Fixed-window (4-bit) multiplication of a variable point: four
    doublings then at most one add per nibble, no field inversions."""
    if scalar <= 0:
        return _IDENTITY
    return _straus([(_window_table(point), scalar)], (scalar.bit_length() + 3) // 4)


def _multi_scalar_mult(pairs: Sequence[tuple[int, Any]]):
    """``sum(k_i * P_i)`` on one doubling chain shared by every term, so
    the marginal cost of an extra point is its window table plus ~one add
    per nibble — the workhorse of :func:`verify_batch`."""
    terms = [(_window_table(point), scalar) for scalar, point in pairs if scalar > 0]
    return _straus(terms, max(((k.bit_length() + 3) // 4 for _, k in terms), default=0))


def _split_table(point, chunks: int) -> list[list]:
    """Window tables of ``2**(256 // chunks * j) * point`` for each chunk ``j``.

    Cutting a 256-bit scalar into ``chunks`` equal pieces with a table
    each trades memory for doublings: :func:`_table_mult` then runs
    ``64 // chunks`` steps instead of 64.  The base point affords 64
    chunks (no doublings at all, built once at import); a recurring
    public key gets 8 (28 doublings), see :data:`_PUBKEY_CACHE`.
    """
    rows = [_window_table(point)]
    for _ in range(chunks - 1):
        for _ in range(256 // chunks):
            point = _point_double(point)
        rows.append(_window_table(point))
    return rows


def _table_mult(rows: list[list], scalar: int):
    """``scalar * point`` over ``rows = _split_table(point, chunks)``, for
    ``0 <= scalar < 2**256``: at most 64 adds whatever the split."""
    stride = 256 // len(rows)
    return _straus([(row, scalar >> stride * j) for j, row in enumerate(rows)], stride // 4)


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

#: The base point is simply the key whose table is built at import.
_BASE_TABLE = _split_table(_BASE, 64)


def _base_mult(scalar: int):
    """Multiply the base point by ``scalar`` (64 table adds, no doublings)."""
    return _table_mult(_BASE_TABLE, scalar)


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


def _memo_put(memo: dict, cap: int, key: bytes, value: Any) -> None:
    """Insert into a bounded module-level memo, evicting FIFO.

    One entry goes per insert (dicts iterate in insertion order);
    wholesale clearing would collapse the hit rate for key populations
    just past the bound.
    """
    if len(memo) >= cap:
        del memo[next(iter(memo))]
    memo[key] = value


#: Recurring public keys: encoding -> ``[A, split table or None]``, at most
#: :data:`_PUBKEY_CACHE_MAX` entries, ~39 KB each once the table exists
#: (~20 MB worst case).  The first sight of a key decompresses it (an
#: inversion and a square root, ~8% of a generic verification) and
#: multiplies generically.  The second sight — an entry exists, whether
#: :func:`verify` or :func:`verify_batch` made it — builds the key's 8-way
#: :func:`_split_table` for about the price of one generic verification;
#: from then on ``h*A`` costs 28 doublings instead of 252.  One-shot keys
#: pay nothing, and a key population cycling past the bound is evicted
#: before its second sight, so no table is built that could not be kept —
#: nor is its decompression remembered (the cap was 4096 points before it
#: had to price a table): 1024 keys in rotation verify at the first-sight
#: cost every time, measured no slower than with the old memo hitting but
#: with none of the warm-key gain; the benchmark workloads have ~20 keys.
#: Only ``A`` is memoised, never ``R`` (unique per signature).  Both
#: decompression and multiplication are pure functions of the encoding, so
#: the memo cannot change any verdict.
_PUBKEY_CACHE: dict[bytes, list] = {}
_PUBKEY_CACHE_MAX = 512
_PUBKEY_TABLE_CHUNKS = 8


def _decompress_public(data: bytes) -> _Point:
    """Memoised :func:`_point_decompress` for recurring public keys."""
    entry = _PUBKEY_CACHE.get(data)
    if entry is None:
        entry = [_point_decompress(data), None]
        _memo_put(_PUBKEY_CACHE, _PUBKEY_CACHE_MAX, data, entry)
    return entry[0]


def _public_mult(public_key: bytes, scalar: int):
    """``scalar * A`` for a compressed public key: generic on the first
    sight of the key, over its split table from the second sight on.

    Raises:
        InvalidKeyError: if the encoding is malformed or off-curve.
    """
    entry = _PUBKEY_CACHE.get(public_key)
    if entry is None:
        return _scalar_mult(_decompress_public(public_key), scalar)
    if entry[1] is None:
        entry[1] = _split_table(entry[0], _PUBKEY_TABLE_CHUNKS)
    return _table_mult(entry[1], scalar)


def _points_equal(a, b) -> bool:
    """Projective equality: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1."""
    ax, ay, az, _ = a
    bx, by, bz, _ = b
    if (ax * bz - bx * az) % P != 0:
        return False
    return (ay * bz - by * az) % P == 0


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
    sanctions either form) — deliberately the same acceptance set as
    :func:`verify_batch`'s cofactored batch equation.  If the two forms
    differed, a signature crafted with a small-order torsion component
    would flip verdicts between the batch and single paths (and therefore
    across cache evictions), making block validity state-dependent —
    exactly what a replicated validation pipeline cannot tolerate.
    """
    if len(public_key) != 32 or len(signature) != 64:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False
    challenge = _sha512_int(signature[:32], public_key, message) % L
    try:
        r_point = _point_decompress(signature[:32])
        right = _point_add(r_point, _public_mult(public_key, challenge))
    except InvalidKeyError:
        return False
    # Check 8*s*B == 8*(R + h*A): three doublings per side kill torsion.
    left = _base_mult(s)
    left = _point_double(_point_double(_point_double(left)))
    right = _point_double(_point_double(_point_double(right)))
    return _points_equal(left, right)


def verify_strict(public_key: bytes, message: bytes, signature: bytes) -> None:
    """Like :func:`verify` but raises on failure.

    Raises:
        InvalidSignatureError: if verification fails for any reason.
    """
    if not verify(public_key, message, signature):
        raise InvalidSignatureError("Ed25519 signature verification failed")


# -- batch verification ---------------------------------------------------------

#: Bit width of the random linear-combination coefficients.  128 bits keeps
#: the probability of a bad signature slipping through one batch equation
#: at 2^-128 (the standard choice for Ed25519 batch verification).
_BATCH_COEFF_BITS = 128


def _batch_coefficient(rng: Any, index: int, parts: tuple[bytes, bytes, bytes]) -> int:
    """One nonzero RLC coefficient.

    ``rng`` is any object with ``getrandbits`` (a named ``sim.rng`` stream
    in the simulator, keeping replays byte-identical per seed).  Without an
    rng the coefficient is derived Fiat-Shamir style from the batch item
    itself, which is equally deterministic and needs no plumbing.
    """
    if rng is not None:
        return rng.getrandbits(_BATCH_COEFF_BITS) | 1
    public_key, message, signature = parts
    digest = hashlib.sha512(
        b"ed25519-batch-coeff"
        + index.to_bytes(4, "little")
        + public_key
        + signature
        + hashlib.sha512(message).digest()
    ).digest()
    return int.from_bytes(digest[: _BATCH_COEFF_BITS // 8], "little") | 1


def _batch_equation_holds(
    candidates: list[tuple[int, bytes, _Point, _Point, int, int]], coefficients: list[int]
) -> bool:
    """The single RLC check ``sum(z_i*s_i)*B == sum(z_i*R_i) + sum(z_i*h_i*A_i)``.

    Rearranged as ``(-sum(z_i*s_i))*B + sum(z_i*R_i) + sum((z_i*h_i)*A_i)
    == identity`` so one interleaved multi-scalar multiplication plus one
    table-driven base multiplication decides the whole batch.

    The combined point is multiplied by the cofactor 8 before the
    identity test (RFC 8032's cofactored batch form).  Without it, the
    random linear combination is unsound for *crafted* signatures: a
    defect living in the order-8 torsion (e.g. ``R + T`` for an order-2
    point ``T``) contributes ``z_i * T``, and an attacker who can predict
    the coefficients' parity can pair two such defects so they cancel.
    Cofactoring annihilates every torsion contribution instead, at the
    cost of three point doublings per batch.
    """
    base_scalar = 0
    pairs: list[tuple[int, Any]] = []
    # Scalars of one signer (the same key across a block) are summed per
    # public-key *encoding*, so each distinct key pays for one window
    # table whatever the decompression memo evicts mid-batch; ``R`` is
    # unique per signature and stays a term of its own.  Summing mod L is
    # sound under the cofactored check: any torsion discrepancy it
    # introduces is annihilated by the final multiplication by 8.
    merged: dict[bytes, list] = {}
    for (_, public_key, a_point, r_point, s, challenge), z in zip(candidates, coefficients):
        base_scalar = (base_scalar + z * s) % L
        pairs.append((z, r_point))
        entry = merged.setdefault(public_key, [0, a_point])
        entry[0] = (entry[0] + z * challenge) % L
    pairs.extend((scalar, point) for scalar, point in merged.values())
    combined = _point_add(_base_mult((-base_scalar) % L), _multi_scalar_mult(pairs))
    combined = _point_double(_point_double(_point_double(combined)))
    return _points_equal(combined, _IDENTITY)


def verify_batch(
    items: Sequence[tuple[bytes, bytes, bytes]], rng: Any = None
) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples at once.

    Structurally malformed items (bad lengths, off-curve points, scalar out
    of range) are marked invalid up front without disturbing the rest.  The
    well-formed remainder is checked through one *cofactored*
    random-linear-combination equation; if that holds, every signature in
    it is valid except with probability ~2^-128 per coefficient draw.  If
    it fails — at least one bad signature hides in the batch — each
    remaining item falls back to an independent :func:`verify`, so one
    forgery can neither veto nor smuggle through its batchmates.

    :func:`verify` uses the cofactored check too, so batch and single
    paths share one acceptance set: a verdict can never depend on which
    path (or cache state) happened to judge a signature first.

    Args:
        items: the triples to check.
        rng: optional ``getrandbits`` provider for the RLC coefficients
            (pass a seeded ``sim.rng`` stream inside the simulator);
            ``None`` derives deterministic per-item coefficients by
            hashing, so results never depend on process-global randomness.

    Returns:
        Per-item verdicts, aligned with ``items``.
    """
    results = [False] * len(items)
    candidates: list[tuple[int, bytes, _Point, _Point, int, int]] = []
    for index, (public_key, message, signature) in enumerate(items):
        if len(public_key) != 32 or len(signature) != 64:
            continue
        try:
            a_point = _decompress_public(public_key)
            r_point = _point_decompress(signature[:32])
        except InvalidKeyError:
            continue
        s = int.from_bytes(signature[32:], "little")
        if s >= L:
            continue
        challenge = _sha512_int(signature[:32], public_key, message) % L
        candidates.append((index, public_key, a_point, r_point, s, challenge))
    if not candidates:
        return results
    if len(candidates) == 1:
        index = candidates[0][0]
        public_key, message, signature = items[index]
        results[index] = verify(public_key, message, signature)
        return results
    coefficients = [
        _batch_coefficient(rng, position, items[candidate[0]])
        for position, candidate in enumerate(candidates)
    ]
    if _batch_equation_holds(candidates, coefficients):
        for index, *_ in candidates:
            results[index] = True
        return results
    # At least one forgery in the batch: settle each signature on its own.
    for index, *_ in candidates:
        public_key, message, signature = items[index]
        results[index] = verify(public_key, message, signature)
    return results
