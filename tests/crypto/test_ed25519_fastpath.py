"""The recurring-key fast path changes costs, never bytes or verdicts.

``sign`` memoises the expanded key and ``verify`` builds a split table
for a public key on its second sight, so one triple can now be judged by
four routes — generic multiplication (first sight of a key), table
multiplication (warm key), the batch equation, and the signature-cache
wrapper in ``keys``.  This module pins that signatures equal a textbook
RFC 8032 signer byte for byte, that all four routes return one verdict on
valid, tampered, malformed and small-order inputs, that the memos stay
inside their bounds, and that nothing under ``repro/crypto`` can reach a
third-party backend with a different acceptance set.
"""

import ast
import hashlib
import pathlib
import random
import sys

import pytest

from repro.common.encoding import base58_encode
from repro.crypto import ed25519, keys
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
    return cases


class TestOneVerdictEverywhere:
    FILLERS = [
        (ed25519.public_key_from_seed(bytes([n]) * 32), b"filler", ref_sign(bytes([n]) * 32, b"filler"))
        for n in (31, 32)
    ]

    CASES = verdict_cases()

    @pytest.mark.parametrize("name,triple,expected", CASES, ids=[case[0] for case in CASES])
    def test_generic_table_batch_and_cache_routes_agree(self, fresh_memos, name, triple, expected):
        public, message, signature = triple
        generic = ed25519.verify(*triple)  # first sight of the key
        assert ed25519._PUBKEY_CACHE.get(public, [None, None])[1] is None
        second = ed25519.verify(*triple)  # builds the table, if the key decodes
        third = ed25519.verify(*triple)  # uses it
        if public in ed25519._PUBKEY_CACHE:
            assert ed25519._PUBKEY_CACHE[public][1] is not None
        batch_warm = ed25519.verify_batch([triple] + self.FILLERS)
        ed25519._PUBKEY_CACHE.clear()
        batch_cold = ed25519.verify_batch(self.FILLERS[:1] + [triple] + self.FILLERS[1:])
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
        assert batch_warm[1:] == [True, True] and batch_cold[0] and batch_cold[2]
        verdicts = [generic, second, third, batch_warm[0], batch_cold[1], wrapped_miss, wrapped_hit, wrapped_batch[0]]
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


# -- (d) the split-table multiply -------------------------------------------------------


class TestSplitTableMultiply:
    @pytest.mark.parametrize("chunks", [1, 8, 64])
    def test_equals_generic_scalar_mult(self, chunks):
        point = ed25519._point_decompress(ed25519.public_key_from_seed(bytes([5]) * 32))
        rows = ed25519._split_table(point, chunks)
        assert len(rows) == chunks
        rng = random.Random(41)
        for scalar in [0, 1, L - 1, 2**252, 2**256 - 1] + [rng.getrandbits(256) for _ in range(100)]:
            assert ed25519._points_equal(
                ed25519._table_mult(rows, scalar), ed25519._scalar_mult(point, scalar)
            ), scalar

    def test_generic_scalar_mult_equals_textbook_double_and_add(self):
        rng = random.Random(42)
        point = ed25519._point_decompress(ed25519.public_key_from_seed(bytes([6]) * 32))
        for scalar in [1, 15, 16, L - 1, L, 2**252] + [rng.getrandbits(253) for _ in range(20)]:
            assert ed25519._point_compress(ed25519._scalar_mult(point, scalar)) == ref_compress(
                ref_mul(scalar, tuple(point))
            )

    def test_base_mult_is_the_64_way_table(self):
        assert len(ed25519._BASE_TABLE) == 64
        for scalar in (1, 2**255 - 1, L - 1):
            assert ed25519._point_compress(ed25519._base_mult(scalar)) == ref_compress(
                ref_mul(scalar, REF_BASE)
            )


# -- (e) import audit --------------------------------------------------------------------


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
