"""The cluster-wide signature cache: correctness under eviction and reuse."""

import hashlib

import pytest

from repro.crypto import ed25519
from repro.crypto.keys import (
    generate_keypair,
    verify_signature,
    verify_signatures_batch,
)
from repro.crypto.sigcache import SignatureCache, set_shared_cache, shared_cache


@pytest.fixture
def fresh_cache():
    """Isolate each test from the process-global shared cache."""
    cache = SignatureCache(maxsize=8)
    previous = set_shared_cache(cache)
    yield cache
    set_shared_cache(previous)


def signed(material: str, message: bytes):
    keypair = generate_keypair(seed=material.encode().ljust(32, b"\0")[:32])
    return keypair.public_key, message, keypair.sign(message)


class TestCacheMechanics:
    def test_put_get_roundtrip(self):
        cache = SignatureCache(maxsize=4)
        key = cache.key("pk", b"message", "sig")
        assert cache.get(key) is None
        cache.put(key, True)
        assert cache.get(key) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_negative_verdicts_are_cached_too(self):
        cache = SignatureCache(maxsize=4)
        key = cache.key("pk", b"message", "sig")
        cache.put(key, False)
        assert cache.get(key) is False  # a hit, not a miss

    def test_eviction_is_lru_and_bounded(self):
        cache = SignatureCache(maxsize=3)
        keys = [cache.key(f"pk{i}", b"m", f"s{i}") for i in range(4)]
        for key in keys[:3]:
            cache.put(key, True)
        assert cache.get(keys[0]) is True  # refresh 0: 1 is now oldest
        cache.put(keys[3], True)
        assert len(cache) == 3
        assert cache.evictions == 1
        assert cache.get(keys[1]) is None  # the LRU entry went
        assert cache.get(keys[0]) is True
        assert cache.get(keys[2]) is True

    def test_eviction_never_flips_a_verdict(self, fresh_cache):
        """An evicted signature is simply re-verified — same answer."""
        triples = [signed(f"signer-{i}", f"msg-{i}".encode()) for i in range(12)]
        first = [verify_signature(*triple) for triple in triples]
        assert all(first)
        # maxsize=8: the early entries have been evicted by now; verdicts
        # must still come back identical (recomputed, not fabricated).
        assert [verify_signature(*triple) for triple in triples] == first
        assert fresh_cache.evictions > 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            SignatureCache(maxsize=0)


class TestVerifySignatureIntegration:
    def test_second_verification_is_a_hit(self, fresh_cache):
        public, message, signature = signed("alice", b"payload")
        assert verify_signature(public, message, signature)
        hits_before = fresh_cache.hits
        assert verify_signature(public, message, signature)
        assert fresh_cache.hits == hits_before + 1

    def test_tampered_message_misses_and_fails(self, fresh_cache):
        public, message, signature = signed("alice", b"payload")
        assert verify_signature(public, message, signature)
        assert not verify_signature(public, b"tampered", signature)

    def test_swapped_signature_cannot_alias_a_cached_verdict(self, fresh_cache):
        public_a, message, signature_a = signed("alice", b"payload")
        public_b, _, signature_b = signed("bob", b"payload")
        assert verify_signature(public_a, message, signature_a)
        assert verify_signature(public_b, message, signature_b)
        assert not verify_signature(public_a, message, signature_b)
        assert not verify_signature(public_b, message, signature_a)

    def test_disabled_cache_still_verifies(self):
        previous = set_shared_cache(None)
        try:
            assert shared_cache() is None
            public, message, signature = signed("carol", b"payload")
            assert verify_signature(public, message, signature)
            assert not verify_signature(public, b"other", signature)
        finally:
            set_shared_cache(previous)


class TestForgedSignatureBinding:
    """ISSUE 6: the cache key must bind the *full* (public key, message
    digest, signature) triple, so an adversarial client's forged
    signature can never alias the honest verdict it was derived from."""

    def test_key_binds_every_component_of_the_triple(self):
        base = SignatureCache.key("pk", b"message", "sig")
        assert base == ("pk", hashlib.sha3_256(b"message").digest(), "sig")
        assert base != SignatureCache.key("pk2", b"message", "sig")
        assert base != SignatureCache.key("pk", b"message2", "sig")
        assert base != SignatureCache.key("pk", b"message", "sig2")

    def test_forged_signature_is_never_cached_true(self, fresh_cache):
        """The exact adversarial-client move from the chaos workload: take
        a signature the cluster has already verified (verdict True is in
        cache), flip one mid-signature base58 character, and re-verify.
        The forged triple must key to its own entry, fail verification,
        and be remembered as False — while the honest entry stays True."""
        public, message, signature = signed("alice", b"adversarial payload")
        assert verify_signature(public, message, signature)
        honest_key = fresh_cache.key(public, message, signature)
        assert fresh_cache.get(honest_key) is True

        mid = len(signature) // 2
        swapped = "3" if signature[mid] == "2" else "2"
        forged = signature[:mid] + swapped + signature[mid + 1 :]
        assert forged != signature

        assert not verify_signature(public, message, forged)
        forged_key = fresh_cache.key(public, message, forged)
        assert forged_key != honest_key
        assert fresh_cache.get(forged_key) is False
        assert fresh_cache.get(honest_key) is True
        # And the forged verdict stays False on re-sight (cache hit).
        assert not verify_signature(public, message, forged)


class TestBatchSeeding:
    """``verify_signatures_batch`` is ``verify_signature`` over a list."""

    def test_batch_seeds_the_cache_for_later_singles(self, fresh_cache):
        triples = [signed(f"signer-{i}", f"msg-{i}".encode()) for i in range(4)]
        assert verify_signatures_batch(triples) == [True] * 4
        hits_before = fresh_cache.hits
        assert all(verify_signature(*triple) for triple in triples)
        assert fresh_cache.hits == hits_before + 4

    def test_batch_with_bad_signature_matches_singles(self, fresh_cache):
        triples = [signed(f"signer-{i}", f"msg-{i}".encode()) for i in range(3)]
        bad = (triples[0][0], triples[0][1], triples[1][2])
        verdicts = verify_signatures_batch(triples + [bad])
        assert verdicts == [True, True, True, False]
        # The cached False must persist for the single-verify path.
        assert not verify_signature(*bad)

    def test_batch_with_undecodable_material(self, fresh_cache):
        public, message, signature = signed("alice", b"payload")
        verdicts = verify_signatures_batch(
            [
                (public, message, signature),
                ("not base58 0OIl", message, signature),
            ]
        )
        assert verdicts == [True, False]

    def test_batch_without_shared_cache_still_returns_verdicts(self):
        previous = set_shared_cache(None)
        try:
            triples = [signed(f"signer-{i}", b"m") for i in range(3)]
            assert verify_signatures_batch(triples) == [True] * 3
        finally:
            set_shared_cache(previous)
