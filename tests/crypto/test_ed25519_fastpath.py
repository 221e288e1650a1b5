"""The recurring-key fast path changes costs, never bytes or verdicts.

``sign`` memoises the expanded key and ``verify`` builds a window table
for a public key on its second sight, so one triple can now be judged by
three routes — a one-row table (first sight of a key), the key's own table
(warm key) and the signature-cache wrapper in ``keys`` — and ``verify``
settles ``R`` by its encoding instead of decompressing it; ``keys`` also
asks native Ed25519 (libsodium or libcrypto) first, when one is bound, and
lets only its accepts stand.  This module pins that signatures equal a textbook
RFC 8032 signer byte for byte on the pure and the native route, that all
routes, native loaded or forced off, return one verdict on
valid, tampered, malformed and small-order inputs — the verdict of a
textbook verifier that does take the square root — that every
multiplication route equals double-and-add whatever the table shapes,
that the memos stay inside their bounds and keep what is hot, and that
nothing under ``repro/crypto`` can reach a third-party backend with a
different acceptance set.
"""

import ast
import contextlib
import hashlib
import inspect
import pathlib
import random
import sys

import pytest

from repro.common.encoding import base58_encode
from repro.crypto import ed25519, keys, native
from repro.crypto.sigcache import SignatureCache, set_shared_cache

from test_ed25519 import RFC8032_VECTORS

P, L, D = ed25519.P, ed25519.L, ed25519.D


# -- textbook RFC 8032 (section 6 sample code): the reference ---------------------
#
# Double-and-add on extended coordinates, Fermat inversion, no tables, no
# memos, nothing shared with the module under test but the constants.


def ref_add(a, b):
    aa = (a[1] - a[0]) * (b[1] - b[0]) % P
    bb = (a[1] + a[0]) * (b[1] + b[0]) % P
    cc = 2 * a[3] * b[3] * D % P
    dd = 2 * a[2] * b[2] % P
    e, f, g, h = bb - aa, dd - cc, dd + cc, bb + aa
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def ref_mul(scalar, point):
    result = (0, 1, 1, 0)
    while scalar > 0:
        if scalar & 1:
            result = ref_add(result, point)
        point = ref_add(point, point)
        scalar >>= 1
    return result


def ref_compress(point):
    z_inv = pow(point[2], P - 2, P)
    x, y = point[0] * z_inv % P, point[1] * z_inv % P
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


REF_BASE = tuple(ed25519._BASE)


def ref_expand(seed):
    digest = hashlib.sha512(seed).digest()
    scalar = int.from_bytes(digest[:32], "little")
    scalar &= (1 << 254) - 8
    scalar |= 1 << 254
    return scalar, digest[32:]


def ref_hash(*parts):
    return int.from_bytes(hashlib.sha512(b"".join(parts)).digest(), "little") % L


def ref_sign(seed, message):
    scalar, prefix = ref_expand(seed)
    public = ref_compress(ref_mul(scalar, REF_BASE))
    r = ref_hash(prefix, message)
    r_bytes = ref_compress(ref_mul(r, REF_BASE))
    s = (r + ref_hash(r_bytes, public, message) * scalar) % L
    return r_bytes + int.to_bytes(s, 32, "little")


def ref_decompress(data):
    y = int.from_bytes(data, "little")
    sign, y = y >> 255, y & ((1 << 255) - 1)
    if y >= P:
        return None
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        return None if sign else (0, y, 1, 0)
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P:
        x = x * pow(2, (P - 1) // 4, P) % P
    if (x * x - x2) % P:
        return None
    if x & 1 != sign:
        x = P - x
    return (x, y, 1, x * y % P)


def ref_verify(public, message, signature):
    """RFC 8032 section 5.1.7, cofactored: ``R`` and ``A`` are decompressed
    — square roots and all — and ``8*s*B == 8*(R + h*A)`` is computed by
    double-and-add.  The oracle ``verify``'s ``R``-by-encoding check has to
    agree with."""
    if len(public) != 32 or len(signature) != 64:
        return False
    a_point, r_point = ref_decompress(public), ref_decompress(signature[:32])
    s = int.from_bytes(signature[32:], "little")
    if a_point is None or r_point is None or s >= L:
        return False
    h = ref_hash(signature[:32], public, message)
    left = ref_mul(8 * s, REF_BASE)
    right = ref_mul(8, ref_add(r_point, ref_mul(h, a_point)))
    return ref_compress(left) == ref_compress(right)


def small_order_encodings():
    """The 8 torsion points: multiples of ``L * Q`` for a full-order ``Q``."""
    for y in range(2, 64):
        try:
            candidate = ref_mul(L, tuple(ed25519._point_decompress(bytes([y]) + bytes(31))))
        except Exception:
            continue
        if ref_compress(ref_mul(4, candidate)) != ref_compress((0, 1, 1, 0)):
            return [ref_compress(ref_mul(k, candidate)) for k in range(8)]
    raise AssertionError("no order-8 point found")


SMALL_ORDER = small_order_encodings()


@contextlib.contextmanager
def native_off():
    """Run the block as an interpreter without native Ed25519 would."""
    native.available()  # bind now, so no first use inside the block rebinds
    bound, native._LIB = native._LIB, None
    try:
        yield
    finally:
        native._LIB = bound


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty key memos for one test, restored afterwards."""
    monkeypatch.setattr(ed25519, "_PUBKEY_CACHE", {})
    monkeypatch.setattr(ed25519, "_EXPANDED_KEY_CACHE", {})


# -- (a) signatures -----------------------------------------------------------------


class TestSignIsByteIdenticalToTheTextbook:
    def pairs(self):
        rng = random.Random(14)
        for seed_hex, _, message_hex, _ in RFC8032_VECTORS:
            yield bytes.fromhex(seed_hex), bytes.fromhex(message_hex)
        for _ in range(200):
            yield rng.randbytes(32), rng.randbytes(rng.randrange(0, 96))

    def test_first_and_cached_use_of_a_seed(self, fresh_memos):
        for seed, message in self.pairs():
            expected = ref_sign(seed, message)
            assert seed not in ed25519._EXPANDED_KEY_CACHE
            assert ed25519.sign(seed, message) == expected  # expands the key
            assert seed in ed25519._EXPANDED_KEY_CACHE
            assert ed25519.sign(seed, message) == expected  # from the memo
            assert ed25519.public_key_from_seed(seed) == ref_compress(
                ref_mul(ref_expand(seed)[0], REF_BASE)
            )

    def test_rfc_vectors_through_the_memo(self, fresh_memos):
        for _ in range(2):
            for seed_hex, public_hex, message_hex, signature_hex in RFC8032_VECTORS:
                seed, message = bytes.fromhex(seed_hex), bytes.fromhex(message_hex)
                assert ed25519.public_key_from_seed(seed).hex() == public_hex
                assert ed25519.sign(seed, message).hex() == signature_hex

    def test_keypair_sign_is_the_pure_signature_with_native_loaded_and_off(self, fresh_memos):
        for seed_hex, public_hex, message_hex, signature_hex in RFC8032_VECTORS:
            seed, message = bytes.fromhex(seed_hex), bytes.fromhex(message_hex)
            pair = keys.KeyPair(base58_encode(bytes.fromhex(public_hex)), base58_encode(seed))
            expected = base58_encode(ed25519.sign(seed, message))
            assert ed25519.sign(seed, message).hex() == signature_hex
            if native.available():
                assert native.sign(seed, message).hex() == signature_hex
            assert pair.sign(message) == expected
            with native_off():
                assert native.sign(seed, message) is None
                assert pair.sign(message) == expected


# -- (b) one verdict everywhere -------------------------------------------------------


def flip(data, bit):
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def verdict_cases():
    """``(name, (public, message, signature), expected verdict)``."""
    seed, other_seed = bytes([21]) * 32, bytes([22]) * 32
    public, other_public = (ed25519.public_key_from_seed(s) for s in (seed, other_seed))
    message = b"one verdict everywhere"
    signature = ref_sign(seed, message)
    scalar, _ = ref_expand(seed)
    s_int = int.from_bytes(signature[32:], "little")
    non_canonical = int.to_bytes(P + 1, 32, "little")  # y = 1 written as P + 1
    order_2 = (0, P - 1, 1, 0)
    torsioned_r = ref_compress(ref_add(tuple(ed25519._point_decompress(signature[:32])), order_2))
    r = ref_hash(ref_expand(seed)[1], message)  # the nonce ref_sign used
    mixed_s = int.to_bytes((r + ref_hash(torsioned_r, public, message) * scalar) % L, 32, "little")
    cases = [
        ("valid", (public, message, signature), True),
        ("bit flipped in R", (public, message, flip(signature, 3)), False),
        ("bit flipped in s", (public, message, flip(signature, 256 + 77)), False),
        ("bit flipped in message", (public, flip(message, 9), signature), False),
        ("wrong key", (other_public, message, signature), False),
        ("s + L", (public, message, signature[:32] + int.to_bytes(s_int + L, 32, "little")), False),
        ("non-canonical A", (non_canonical, message, signature), False),
        ("non-canonical R", (public, message, non_canonical + signature[32:]), False),
        # R moved by the order-2 point (the signature of
        # test_torsioned_signature_has_one_verdict_everywhere): the
        # challenge hashes R, so this one fails on every route ...
        ("R + order-2 point, honest s", (public, message, torsioned_r + signature[32:]), False),
        # ... and with s recomputed for the moved R it is the signature
        # only the cofactored check accepts, so every route must.
        ("R + order-2 point, s to match", (public, message, torsioned_r + mixed_s), True),
    ]
    r = 0x1234567 % L
    r_bytes = ref_compress(ref_mul(r, REF_BASE))
    for number, torsion in enumerate(SMALL_ORDER):
        # Small-order A: 8*h*A vanishes, so (r*B, r) passes for any message.
        crafted = r_bytes + int.to_bytes(r, 32, "little")
        cases.append((f"small-order A #{number}, crafted", (torsion, message, crafted), True))
        cases.append((f"small-order A #{number}, honest sig", (torsion, message, signature), False))
        # Small-order R: 8*R vanishes, so s = h*a passes.
        s = ref_hash(torsion, public, message) * scalar % L
        crafted = torsion + int.to_bytes(s, 32, "little")
        cases.append((f"small-order R #{number}, crafted", (public, message, crafted), True))
        cases.append((f"small-order R #{number}, honest s", (public, message, torsion + signature[32:]), False))
    # The identity as A, spelled non-canonically: libcrypto decodes both
    # spellings and accepts (r*B, r), so only the canonical-encoding guard
    # in front of it keeps these rejected.
    crafted = r_bytes + int.to_bytes(r, 32, "little")
    for spelling, encoding in (("y = P + 1", P + 1), ("y = 1, sign bit set", 1 | (1 << 255))):
        cases.append((f"identity A as {spelling}, crafted", (int.to_bytes(encoding, 32, "little"), message, crafted), False))
    return cases


class TestOneVerdictEverywhere:
    CASES = verdict_cases()

    @pytest.mark.parametrize("name,triple,expected", CASES, ids=[case[0] for case in CASES])
    def test_generic_table_and_cache_routes_agree(self, fresh_memos, name, triple, expected):
        public, message, signature = triple
        generic = ed25519.verify(*triple)  # first sight of the key
        assert ed25519._PUBKEY_CACHE.get(public, [None, None])[1] is None
        second = ed25519.verify(*triple)  # builds the table, if the key decodes
        third = ed25519.verify(*triple)  # uses it
        if public in ed25519._PUBKEY_CACHE:
            assert ed25519._PUBKEY_CACHE[public][1] is not None
        cache = SignatureCache()
        previous = set_shared_cache(cache)
        try:
            encoded = (base58_encode(public), message, base58_encode(signature))
            wrapped_miss = keys.verify_signature(*encoded)
            wrapped_hit = keys.verify_signature(*encoded)
            wrapped_batch = keys.verify_signatures_batch([encoded])
        finally:
            set_shared_cache(previous)
        assert (cache.hits, cache.misses) == (2, 1)
        verdicts = [generic, second, third, wrapped_miss, wrapped_hit, wrapped_batch[0]]
        assert len(set(verdicts)) == 1, (name, verdicts)
        assert generic is expected, name

    def test_signing_does_not_seed_the_verdict_cache(self):
        cache = SignatureCache()
        previous = set_shared_cache(cache)
        try:
            keys.keypair_from_string("fastpath-signer").sign(b"vote")
        finally:
            set_shared_cache(previous)
        assert len(cache) == 0 and cache.hits + cache.misses == 0


# -- (c) bounds ----------------------------------------------------------------------


class TestMemosStayBounded:
    def test_cycling_past_tiny_caps_changes_nothing(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE_MAX", 4)
        monkeypatch.setattr(ed25519, "_EXPANDED_KEY_CACHE_MAX", 4)
        seeds = [bytes([n]) * 32 for n in range(64)]
        for lap in range(2):
            for number, seed in enumerate(seeds):
                message = b"lap-%d-%d" % (lap, number)
                signature = ed25519.sign(seed, message)
                assert signature == ref_sign(seed, message)
                public = ed25519.public_key_from_seed(seed)
                # Every fourth key recurs at once (generic, build, table);
                # the rest are seen once per lap and evicted in between.
                recurring = number % 4 == 0
                for _ in range(3 if recurring else 1):
                    assert ed25519.verify(public, message, signature)
                assert (ed25519._PUBKEY_CACHE[public][1] is not None) == recurring
                if recurring:
                    assert not ed25519.verify(public, message + b"!", signature)
                assert len(ed25519._PUBKEY_CACHE) <= 4
                assert len(ed25519._EXPANDED_KEY_CACHE) <= 4
        assert len(ed25519._PUBKEY_CACHE) == len(ed25519._EXPANDED_KEY_CACHE) == 4

    def test_a_population_cycling_past_the_bound_builds_no_tables(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE_MAX", 4)
        triples = [
            (ed25519.public_key_from_seed(bytes([n]) * 32), b"m", ed25519.sign(bytes([n]) * 32, b"m"))
            for n in range(8)
        ]
        for _ in range(3):
            for triple in triples:
                assert ed25519.verify(*triple)
                assert all(entry[1] is None for entry in ed25519._PUBKEY_CACHE.values())

    def test_eviction_is_fifo_one_entry_at_a_time(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_EXPANDED_KEY_CACHE_MAX", 4)
        seeds = [bytes([n]) * 32 for n in range(6)]
        for seed in seeds:
            ed25519.public_key_from_seed(seed)
        assert list(ed25519._EXPANDED_KEY_CACHE) == seeds[2:]


# -- (d) the hot keys stay, inside the documented bytes -----------------------------------


def deep_bytes(value):
    """``sys.getsizeof`` summed over nested lists and tuples."""
    if isinstance(value, (list, tuple)):
        return sys.getsizeof(value) + sum(deep_bytes(member) for member in value)
    return sys.getsizeof(value)


class TestThePublicKeyMemoKeepsWhatIsHot:
    def test_recurring_keys_outlive_any_number_of_one_shot_keys(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE_MAX", 8)
        key_tables = []  # one entry per multi-row table built
        affine_table = ed25519._affine_table

        def counting(point, width, cols, rows):
            if rows > 1:
                key_tables.append(point)
            return affine_table(point, width, cols, rows)

        monkeypatch.setattr(ed25519, "_affine_table", counting)
        recurring = [
            (ed25519.public_key_from_seed(bytes([n]) * 32), b"vote", ed25519.sign(bytes([n]) * 32, b"vote"))
            for n in range(1, 5)
        ]
        for number in range(2000):
            one_shot = ed25519.public_key_from_seed(number.to_bytes(4, "big") * 8)
            ed25519._public_mult(one_shot, 1)  # what verify does with a key
            if number % 3 == 0:  # four validators, then three clients
                for triple in recurring:
                    assert ed25519.verify(*triple)
            assert len(ed25519._PUBKEY_CACHE) <= 8
        assert len(key_tables) == 4
        assert ed25519.memo_stats()["public_key_tables"] == 4
        assert all(ed25519._PUBKEY_CACHE[public][1] is not None for public, _, _ in recurring)

    def test_use_refreshes_and_eviction_takes_the_least_recently_used(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE_MAX", 3)
        publics = [ed25519.public_key_from_seed(bytes([n]) * 32) for n in range(1, 6)]
        for public in publics[:3]:
            ed25519._public_mult(public, 1)
        ed25519._public_mult(publics[0], 1)  # the oldest becomes the youngest
        assert list(ed25519._PUBKEY_CACHE) == [publics[1], publics[2], publics[0]]
        for public in (publics[1], publics[3]):
            ed25519.verify(public, b"", bytes(64))
        assert list(ed25519._PUBKEY_CACHE) == [publics[0], publics[1], publics[3]]

    def test_a_malformed_key_is_not_remembered(self, fresh_memos):
        assert not ed25519.verify(int.to_bytes(P + 1, 32, "little"), b"m", bytes(64))
        assert ed25519._PUBKEY_CACHE == {}

    def test_the_cap_is_derived_from_the_measured_size_of_a_table(self, fresh_memos):
        public = ed25519.public_key_from_seed(bytes([9]) * 32)
        signature = ed25519.sign(bytes([9]) * 32, b"m")
        for _ in range(2):
            assert ed25519.verify(public, b"m", signature)
        entry = ed25519._PUBKEY_CACHE[public]
        assert entry[1] is not None
        per_key = deep_bytes(entry) + sys.getsizeof(public)
        budget = 20 * 2**20  # the documented worst case
        # The largest multiple of 64 keys whose tables fit the budget.
        assert ed25519._PUBKEY_CACHE_MAX == budget // per_key // 64 * 64, per_key


# -- (e) every multiplication route, whatever the table shapes ------------------------------

CLAMPED_MAX = (1 << 254) | ((1 << 254) - 8)


def parity_scalars():
    rng = random.Random(17)
    scalars = [0, 1, 2, L - 1, L, 2**252, 2**253 - 1, CLAMPED_MAX]
    # Every window exactly at, just under and just over half its range,
    # for every plausible width: the longest carry chains a signed-digit
    # recoding can meet, wherever the tables put their digit boundaries.
    for width in range(2, 10):
        for window in ((1 << (width - 1)) - 1, 1 << (width - 1), (1 << (width - 1)) + 1, (1 << width) - 1):
            repeated = sum(window << shift for shift in range(0, 260, width))
            scalars += [repeated % (1 << 253), repeated % (1 << 255)]
    return scalars + [rng.getrandbits(rng.choice((64, 128, 252, 253, 255))) for _ in range(500)]


def points_equal(a, b) -> bool:
    """Projective equality: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1."""
    return (a[0] * b[2] - b[0] * a[2]) % P == 0 and (a[1] * b[2] - b[1] * a[2]) % P == 0


class TestEveryRouteEqualsDoubleAndAdd:
    SCALARS = parity_scalars()

    def test_scalar_mult_matches_repeated_addition(self):
        accumulator = ed25519._IDENTITY
        for scalar in range(0, 40):
            assert points_equal(ed25519._scalar_mult(ed25519._BASE, scalar), accumulator), scalar
            accumulator = ed25519._point_add(accumulator, ed25519._BASE)

    def test_scalar_mult_matches_base_table(self):
        for scalar in (1, 15, 16, 2**63 + 11, L - 1, L + 7):
            assert points_equal(
                ed25519._scalar_mult(ed25519._BASE, scalar), ed25519._base_mult(scalar)
            ), scalar

    def test_windowed_sum_of_several_terms_matches_sum_of_singles(self):
        rng = random.Random(99)
        points = [ed25519._scalar_mult(ed25519._BASE, rng.getrandbits(64) | 1) for _ in range(4)]
        scalars = [rng.getrandbits(130) for _ in range(4)]
        cols = 34  # four-bit digits covering 130 bits plus the sign headroom
        terms = [(ed25519._affine_table(point, 4, cols, 1), k) for k, point in zip(scalars, points)]
        expected = ed25519._IDENTITY
        for scalar, point in zip(scalars, points):
            expected = ed25519._point_add(expected, ed25519._scalar_mult(point, scalar))
        assert points_equal(ed25519._windowed_sum(terms, 4, cols), expected)
        assert points_equal(ed25519._windowed_sum([], 4, cols), ed25519._IDENTITY)

    def test_base_table(self):
        for scalar in self.SCALARS:
            assert ed25519._point_compress(ed25519._base_mult(scalar)) == ref_compress(
                ref_mul(scalar, REF_BASE)
            ), scalar

    def test_one_row_table_then_the_keys_own_table(self, fresh_memos):
        public = ed25519.public_key_from_seed(bytes([5]) * 32)
        point = tuple(ed25519._point_decompress(public))
        for number, scalar in enumerate(self.SCALARS):
            expected = ref_compress(ref_mul(scalar, point))
            assert ed25519._point_compress(ed25519._scalar_mult(point, scalar)) == expected, scalar
            if number == 0:  # first sight: the one-row route again, through the memo
                assert ed25519._point_compress(ed25519._public_mult(public, scalar)) == expected
                assert ed25519.memo_stats()["public_key_tables"] == 0
            assert ed25519._point_compress(ed25519._public_mult(public, scalar)) == expected, scalar
            assert ed25519.memo_stats()["public_key_tables"] == 1

    def test_base_mult_continues_from_a_starting_point(self):
        start = ed25519._scalar_mult(ed25519._BASE, 12345)
        assert ed25519._point_compress(ed25519._base_mult(L - 12345, start)) == ref_compress((0, 1, 1, 0))

    def test_a_scalar_wider_than_its_table_raises_instead_of_wrapping(self, fresh_memos):
        public = ed25519.public_key_from_seed(bytes([5]) * 32)
        ed25519._public_mult(public, 1)
        for scalar in (-1, 1 << 300):
            with pytest.raises(ValueError):
                ed25519._base_mult(scalar)
            with pytest.raises(ValueError):
                ed25519._public_mult(public, scalar)  # over the key's table
        with pytest.raises(ValueError):
            ed25519._scalar_mult(ed25519._BASE, -1)
        # A one-row table is cut to its scalar, so width alone never raises.
        assert ed25519._point_compress(ed25519._scalar_mult(ed25519._BASE, 1 << 300)) == ref_compress(
            ref_mul(1 << 300, REF_BASE)
        )

    @pytest.mark.parametrize("width,cols,rows", [(2, 1, 5), (3, 2, 2), (4, 3, 1), (5, 1, 2)])
    def test_small_tables_exhaustively_up_to_the_first_scalar_that_does_not_fit(self, width, cols, rows):
        point = tuple(ed25519._scalar_mult(ed25519._BASE, 77))
        table = ed25519._affine_table(point, width, cols, rows)
        assert [len(row) for row in table] == [1 + (1 << (width - 1))] * rows
        bits = width * cols * rows
        fits = raised = 0
        expected = (0, 1, 1, 0)
        for scalar in range(1 << bits):
            try:
                got = ed25519._windowed_sum([(table, scalar)], width, cols)
            except ValueError:
                raised += 1
            else:
                assert raised == 0, "a scalar fitted after a smaller one did not"
                assert points_equal(got, expected), scalar
                fits += 1
            expected = ref_add(expected, point)
        assert fits > 1 << (bits - 2) and raised == (1 << bits) - fits > 0


class TestMalformedKeyEdgeCases:
    """Decoding edge cases the pipeline must reject cleanly."""

    @staticmethod
    def signed(number):
        seed = bytes([number + 1]) * 32
        message = f"edge-{number}".encode() * 4
        return ed25519.public_key_from_seed(seed), message, ed25519.sign(seed, message)

    def test_y_coordinate_out_of_range(self):
        # y >= P with the sign bit clear: not a canonical encoding.
        bad = int.to_bytes(P + 1, 32, "little")
        with pytest.raises(Exception):
            ed25519._point_decompress(bad)
        _, message, signature = self.signed(0)
        assert not ed25519.verify(bad, message, signature)

    def test_sign_bit_with_zero_x_rejected(self):
        # y = 1 gives x = 0; the sign bit then admits no valid x.
        bad = int.to_bytes(1 | (1 << 255), 32, "little")
        _, message, signature = self.signed(0)
        assert not ed25519.verify(bad, message, signature)

    def test_pubkey_cache_does_not_leak_wrong_points(self):
        """Decompression caching is keyed by the exact encoding."""
        (pub_a, msg_a, sig_a), (pub_b, msg_b, sig_b) = self.signed(0), self.signed(1)
        assert ed25519.verify(pub_a, msg_a, sig_a)
        assert ed25519.verify(pub_b, msg_b, sig_b)
        assert not ed25519.verify(pub_a, msg_b, sig_b)
        assert not ed25519.verify(pub_b, msg_a, sig_a)


# -- (f) R judged by its encoding == R decompressed ----------------------------------------


def encoding_cases():
    """``(name, (public, message, signature))``; the oracle says what is valid."""
    seed = bytes([23]) * 32
    public = ed25519.public_key_from_seed(seed)
    scalar, prefix = ref_expand(seed)
    message = b"R by its encoding"
    honest = ref_sign(seed, message)
    r = ref_hash(prefix, message)
    r_point = ref_mul(r, REF_BASE)
    torsion_points = [ref_decompress(encoding) for encoding in SMALL_ORDER]

    def with_s_for(r_bytes):
        s = (r + ref_hash(r_bytes, public, message) * scalar) % L
        return r_bytes + int.to_bytes(s, 32, "little")

    def small_q(r_bytes):
        # s = h*a makes s*B - h*A the identity: the eight candidates are
        # the small-order points themselves, which share their y in pairs.
        s = ref_hash(r_bytes, public, message) * scalar % L
        return r_bytes + int.to_bytes(s, 32, "little")

    cases = []
    for number, torsion in enumerate(torsion_points):
        moved = ref_compress(ref_add(r_point, torsion))
        cases += [
            (f"R + T{number}, s recomputed", (public, message, with_s_for(moved))),
            (f"R + T{number}, honest s", (public, message, moved + honest[32:])),
            (f"R + T{number}, sign bit flipped", (public, message, with_s_for(flip(moved, 255)))),
            (f"R + T{number}, sign bit flipped, s kept", (public, message, flip(with_s_for(moved), 255))),
            (f"small-order Q, R = T{number}", (public, message, small_q(SMALL_ORDER[number]))),
            (f"small-order Q, R = T{number} with the other sign", (public, message, small_q(flip(SMALL_ORDER[number], 255)))),
        ]
    # y >= P: every residue that has a non-canonical spelling below 2**255.
    for residue in range(19):
        for sign in (0, 1):
            spelled = int.to_bytes((P + residue) | (sign << 255), 32, "little")
            cases.append((f"y = P + {residue}, sign {sign}, small Q", (public, message, small_q(spelled))))
            cases.append((f"y = P + {residue}, sign {sign}", (public, message, with_s_for(spelled))))
    # x = 0 with the sign bit set: (0, 1) and (0, -1) spelled with bit 255.
    for y in (1, P - 1):
        spelled = int.to_bytes(y | (1 << 255), 32, "little")
        cases.append((f"x = 0, y = {y % 3 - 1:+d}, sign bit set", (public, message, small_q(spelled))))
    # y off the curve (no x at all), as R.
    off_curve = next(y for y in range(2, 99) if ref_decompress(int.to_bytes(y, 32, "little")) is None)
    for sign in (0, 1):
        spelled = int.to_bytes(off_curve | (sign << 255), 32, "little")
        cases.append((f"off-curve y, sign {sign}", (public, message, with_s_for(spelled))))
        cases.append((f"off-curve y, sign {sign}, small Q", (public, message, small_q(spelled))))
    # Small-order A under an R that is fine, moved, or itself small.
    k = 0x7654321
    k_point = ref_mul(k, REF_BASE)
    for number, torsion in enumerate(SMALL_ORDER):
        for moved_by, offset in enumerate(torsion_points[:3]):
            r_bytes = ref_compress(ref_add(k_point, offset))
            crafted = r_bytes + int.to_bytes(k, 32, "little")
            cases.append((f"small-order A #{number}, R + T{moved_by}", (torsion, message, crafted)))
        cases.append((f"small-order A #{number}, small R", (torsion, message, SMALL_ORDER[3] + bytes(32))))
        cases.append((f"small-order A #{number}, honest signature", (torsion, message, honest)))
    return cases


ENCODING_CASES = encoding_cases()
ORACLE = {name: ref_verify(*triple) for name, triple in ENCODING_CASES}
#: An honest signature every planted mutation below still accepts.
HONEST = (ed25519.public_key_from_seed(bytes([33]) * 32), b"filler", ref_sign(bytes([33]) * 32, b"filler"))


def verdicts_on_every_route(triple):
    """Cold, table-building and warm ``verify``; the ``keys`` wrapper
    missing and hitting its cache; the uncached ``keys`` verifier with
    native Ed25519 as loaded and forced off."""
    public, message, signature = triple
    verdicts = {}
    ed25519._PUBKEY_CACHE.clear()
    for sight in ("cold", "table-building", "warm"):
        verdicts[sight] = ed25519.verify(*triple)
    previous = set_shared_cache(SignatureCache())
    try:
        encoded = (base58_encode(public), message, base58_encode(signature))
        verdicts["wrapper, miss"] = keys.verify_signature(*encoded)
        verdicts["wrapper, hit"] = keys.verify_signature(*encoded)
    finally:
        set_shared_cache(previous)
    verdicts["keys, native loaded"] = keys._verify_signature_uncached(*encoded)
    with native_off():
        verdicts["keys, native off"] = keys._verify_signature_uncached(*encoded)
    return verdicts


def assert_every_route_agrees_with_the_oracle(cases=ENCODING_CASES):
    for name, triple in cases:
        for route, verdict in verdicts_on_every_route(triple).items():
            assert verdict is ORACLE[name], (name, route, verdict)


def planted(monkeypatch, function, old, new, module=ed25519):
    """Swap ``function`` of ``module`` for a copy with ``old`` -> ``new``."""
    source = inspect.getsource(getattr(module, function))
    assert source.count(old) == 1, f"{function} no longer contains {old!r}"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, function, namespace[function])


class TestRByItsEncodingEqualsRDecompressed:
    def test_the_oracle_accepts_and_rejects_what_the_names_say(self):
        for name, verdict in ORACLE.items():
            if "s recomputed" in name or (name.startswith("small-order Q, R = T") and "other" not in name):
                assert verdict, name  # all but T0 only under the cofactored check
            if ("honest s" in name and "T0" not in name) or "y = P" in name or "off-curve" in name or "x = 0" in name:
                assert not verdict, name
        # The other sign of a small-order point is a small-order point too,
        # unless its x is 0 (the identity and the point of order 2).
        other_sign = [ORACLE[f"small-order Q, R = T{number} with the other sign"] for number in range(8)]
        assert sorted(other_sign) == [False] * 2 + [True] * 6
        assert ORACLE["small-order A #3, R + T2"] and not ORACLE["small-order A #3, honest signature"]

    def test_the_small_order_points_are_the_eight_torsion_points(self):
        encodings = {ed25519._point_compress(point) for point in ed25519._SMALL_ORDER}
        assert len(encodings) == 7 and encodings | {ref_compress((0, 1, 1, 0))} == set(SMALL_ORDER)

    def test_every_route_agrees_with_the_oracle(self, fresh_memos):
        assert_every_route_agrees_with_the_oracle()

    def test_random_signatures_moved_by_every_small_order_point(self, fresh_memos):
        rng = random.Random(23)
        for _ in range(6):
            seed, message = rng.randbytes(32), rng.randbytes(rng.randrange(64))
            public = ed25519.public_key_from_seed(seed)
            scalar, prefix = ref_expand(seed)
            r = ref_hash(prefix, message)
            for encoding in SMALL_ORDER:
                moved = ref_compress(ref_add(ref_mul(r, REF_BASE), ref_decompress(encoding)))
                s = (r + ref_hash(moved, public, message) * scalar) % L
                for signature in (moved + int.to_bytes(s, 32, "little"), flip(moved, 255) + int.to_bytes(s, 32, "little")):
                    expected = ref_verify(public, message, signature)
                    for _ in range(3):
                        assert ed25519.verify(public, message, signature) is expected

    # Planted mutations: each is a way to get the encoding check wrong that
    # honest signatures never notice.

    def test_giving_up_at_the_first_y_match_is_caught(self, fresh_memos, monkeypatch):
        planted(
            monkeypatch,
            "verify",
            "    return _encodes(r_y, r_sign, q) or any(\n"
            "        _encodes(r_y, r_sign, _point_add(q, torsion)) for torsion in _SMALL_ORDER\n"
            "    )\n",
            "    for point in [q] + [_point_add(q, torsion) for torsion in _SMALL_ORDER]:\n"
            "        if (r_y * point[2] - point[1]) % P == 0:\n"
            "            return _encodes(r_y, r_sign, point)\n"
            "    return False\n",
        )
        assert ed25519.verify(*HONEST) and not ed25519.verify(HONEST[0], b"other", HONEST[2])
        with pytest.raises(AssertionError):
            assert_every_route_agrees_with_the_oracle()

    def test_skipping_the_y_below_p_test_is_caught(self, fresh_memos, monkeypatch):
        planted(monkeypatch, "verify", "    if r_y >= P:\n", "    if False:\n")
        assert ed25519.verify(*HONEST)
        with pytest.raises(AssertionError):
            assert_every_route_agrees_with_the_oracle()

    def test_trying_only_the_identity_is_caught(self, fresh_memos, monkeypatch):
        monkeypatch.setattr(ed25519, "_SMALL_ORDER", [])
        assert ed25519.verify(*HONEST)
        with pytest.raises(AssertionError):
            assert_every_route_agrees_with_the_oracle()

    def test_not_negating_the_third_member_on_a_negative_digit_is_caught(self, monkeypatch):
        planted(monkeypatch, "_windowed_sum", "                        xy2d = -xy2d\n", "                        pass\n")
        with pytest.raises(AssertionError):
            TestEveryRouteEqualsDoubleAndAdd().test_base_table()
        assert not ed25519.verify(*HONEST)

    @pytest.mark.skipif(not native.available(), reason="no native Ed25519 in this interpreter")
    def test_a_final_native_reject_is_caught(self, monkeypatch):
        planted(
            monkeypatch,
            "_verify_signature_uncached",
            "    return native.accepts(public, message, sig) or ed25519.verify(public, message, sig)\n",
            "    return native.accepts(public, message, sig)\n",
            module=keys,
        )
        encoded = (base58_encode(HONEST[0]), HONEST[1], base58_encode(HONEST[2]))
        assert keys._verify_signature_uncached(*encoded)
        with pytest.raises(AssertionError):
            self.test_every_route_agrees_with_the_oracle(None)


# -- (g) native libsodium and libcrypto: their accepts are oracle accepts -----------------


def differential_cases():
    """Random valid signatures, each tampered, shifted by ``L``, with
    ``A`` moved by the order-2 point and with ``R``'s sign bit flipped."""
    rng = random.Random(32)
    order_2 = SMALL_ORDER[4]
    for number in range(40):
        seed, message = rng.randbytes(32), rng.randbytes(rng.randrange(96))
        public, signature = ed25519.public_key_from_seed(seed), ed25519.sign(seed, message)
        s_int = int.from_bytes(signature[32:], "little")
        torsioned_a = ref_compress(ref_add(ref_decompress(public), ref_decompress(order_2)))
        yield f"valid #{number}", (public, message, signature)
        yield f"tampered #{number}", (public, message, flip(signature, rng.randrange(512)))
        yield f"s + L #{number}", (public, message, signature[:32] + int.to_bytes(s_int + L, 32, "little"))
        yield f"A + order-2 #{number}", (torsioned_a, message, signature)
        yield f"R sign flipped #{number}", (public, message, flip(signature, 255))


@pytest.fixture(params=[route.name for route in native._ROUTES])
def route(request, monkeypatch):
    """Bind one library through the module's own selection: libsodium as
    found, libcrypto with no libsodium file name to try; skip a library
    that does not bind in this interpreter."""
    if request.param == "libcrypto":
        monkeypatch.setattr(native, "_SODIUM_NAMES", ())
    monkeypatch.setattr(native, "_LIB", native._UNBOUND)
    if native.library() != request.param:
        pytest.skip(f"{request.param} does not bind in this interpreter")
    return native._LIB


def pre_checked(public, message, signature):
    """``s < L``, and ``A`` and ``R`` canonical: ``y < P``, no sign bit on ``x = 0``."""

    def canonical(encoding):
        y = int.from_bytes(encoding, "little") & ((1 << 255) - 1)
        return y < P and not (encoding[31] >> 7 and y in (1, P - 1))

    return int.from_bytes(signature[32:], "little") < L and canonical(public) and canonical(signature[:32])


class TestNativeAcceptsOnlyWhatThePureKernelAccepts:
    CASES = (
        [(name, triple, ORACLE[name]) for name, triple in ENCODING_CASES]
        + verdict_cases()
        + [(name, triple, ed25519.verify(*triple)) for name, triple in differential_cases()]
    )

    def test_a_loadable_library_means_native_bound(self):
        if native._mapped_libcrypto() is not None:
            assert native.available()
        assert native.available() is (native.library() is not None)

    def test_without_libsodium_the_mapped_libcrypto_binds(self, monkeypatch):
        monkeypatch.setattr(native, "_SODIUM_NAMES", ())
        monkeypatch.setattr(native, "_LIB", native._UNBOUND)
        assert native.library() == ("libcrypto" if native._mapped_libcrypto() else None)

    def test_a_native_accept_is_an_accept_and_native_takes_the_honest_ones(self, route):
        accepted = 0
        for name, triple, expected in self.CASES:
            if native.accepts(*triple):
                assert expected, (route.name, name)
                accepted += 1
        assert accepted >= sum(name.startswith("valid") for name, _, _ in self.CASES)
        assert any(expected and not native.accepts(*triple) for _, triple, expected in self.CASES)

    def test_rfc_vectors_and_keypair_sign(self, route, fresh_memos):
        for seed_hex, public_hex, message_hex, signature_hex in RFC8032_VECTORS:
            seed, public = bytes.fromhex(seed_hex), bytes.fromhex(public_hex)
            message, signature = bytes.fromhex(message_hex), bytes.fromhex(signature_hex)
            assert native.sign(seed, message) == signature, route.name
            assert native.accepts(public, message, signature), route.name
            pair = keys.KeyPair(base58_encode(public), base58_encode(seed))
            assert pair.sign(message) == base58_encode(ed25519.sign(seed, message))
            assert keys._verify_signature_uncached(pair.public_key, message, pair.sign(message))

    def test_the_pre_checks_hold_whatever_the_library_accepts(self, route, monkeypatch):
        # A build that accepts whatever it is asked (libsodium built with
        # ED25519_COMPAT checks little more than the top bits of s).
        monkeypatch.setattr(route, "verify", lambda public, message, signature: True)
        refused = 0
        for name, triple, _ in self.CASES:
            if not pre_checked(*triple):
                assert not native.accepts(*triple), (route.name, name)
                refused += 1
        assert refused >= 50

    def test_a_libsodium_accept_without_the_canonical_pre_checks_is_caught(self, monkeypatch):
        route = native._self_tested(native._Libsodium)
        if route is None:
            pytest.skip("no libsodium in this interpreter")
        monkeypatch.setattr(native, "_LIB", route)
        planted(
            monkeypatch,
            "accepts",
            "    route = _bound()\n",
            "    route = _bound()\n"
            "    if route is not None and route.name == \"libsodium\" and (\n"
            "        len(public_key) == 32 and len(signature) == 64\n"
            "    ):\n"
            "        return route.verify(public_key, message, signature)\n",
            module=native,
        )
        # This build's own checks hide the bypass from every verdict ...
        self.test_a_native_accept_is_an_accept_and_native_takes_the_honest_ones(route)
        # ... but not from a build that skips them.
        with pytest.raises(AssertionError):
            self.test_the_pre_checks_hold_whatever_the_library_accepts(route, monkeypatch)

    def test_libsodium_secret_key_memo_stays_bounded_and_evicts_oldest_first(self, monkeypatch):
        route = native._self_tested(native._Libsodium)
        if route is None:
            pytest.skip("no libsodium in this interpreter")
        monkeypatch.setattr(native, "_LIB", route)
        monkeypatch.setattr(native, "_KEYS_MAX", 4)
        route.keys.clear()
        seeds = [bytes([number + 60]) * 32 for number in range(7)]
        for order in (range(6), [2], [6]):
            for number in order:
                assert native.sign(seeds[number], b"memo") == ed25519.sign(seeds[number], b"memo")
                assert len(route.keys) <= 4
        # Six seeds left the newest four; signing with seed 2 again moved
        # nothing, so seed 6 evicted it.
        assert list(route.keys) == seeds[3:7]
        assert all(route.keys[seed] == seed + ed25519.public_key_from_seed(seed) for seed in seeds[3:7])

    def test_native_memo_stays_bounded_and_frees_what_it_evicts(self, monkeypatch):
        monkeypatch.setattr(native, "_SODIUM_NAMES", ())
        monkeypatch.setattr(native, "_LIB", native._UNBOUND)
        if native.library() != "libcrypto":
            pytest.skip("no libcrypto route in this interpreter")
        route, freed = native._LIB, []
        free = route.lib.EVP_PKEY_free
        monkeypatch.setattr(route.lib, "EVP_PKEY_free", lambda handle: (freed.append(handle), free(handle)))
        monkeypatch.setattr(native, "_KEYS_MAX", 4)
        held = len(route.keys)  # the self-test's seed and public key
        for lap in range(2):
            for number in range(6):
                seed = bytes([number + 40]) * 32
                message = b"lap %d" % lap
                signature = native.sign(seed, message)
                assert signature == ed25519.sign(seed, message)
                assert native.accepts(ed25519.public_key_from_seed(seed), message, signature)
                assert len(route.keys) <= 4
        # Every key made was freed on eviction but the four still held
        # (a freed address may come back for a later key).
        assert len(freed) == held + 2 * 2 * 6 - 4


# -- (h) import audit --------------------------------------------------------------------


def test_crypto_package_imports_only_stdlib_and_repro():
    """The installed ``cryptography`` wheel verifies cofactor-less; were any
    crypto module to fall back on it, verdicts on torsioned signatures
    would depend on what the environment has installed."""
    package = pathlib.Path(ed25519.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {path.name for path in sources} >= {"ed25519.py", "keys.py", "sigcache.py"}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = ["repro"] if node.level else [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "repro" or root in sys.stdlib_module_names, (path.name, root)
