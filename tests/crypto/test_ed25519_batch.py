"""The fast Ed25519 path: windowed multiplication and batch verification.

RFC 8032 interoperability of the single-verify path is pinned by
``test_ed25519.py``; this module covers what the batching PR added — the
windowed/multi-scalar arithmetic agreeing with first principles, the
random-linear-combination batch check, its per-signature fallback when a
batch contains a forgery, and the malformed-input edge cases the
validation pipeline feeds it.
"""

import random

import pytest

from repro.crypto import ed25519

RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


def make_triples(count, tag="batch"):
    triples = []
    for number in range(count):
        seed = bytes([number + 1]) * 32
        public = ed25519.public_key_from_seed(seed)
        message = f"{tag}-{number}".encode() * 4
        triples.append((public, message, ed25519.sign(seed, message)))
    return triples


class TestWindowedArithmetic:
    """The fast multipliers agree with definitional repeated addition."""

    def test_scalar_mult_matches_repeated_addition(self):
        point = ed25519._BASE
        accumulator = ed25519._IDENTITY
        for scalar in range(0, 40):
            assert ed25519._points_equal(
                ed25519._scalar_mult(point, scalar), accumulator
            ), scalar
            accumulator = ed25519._point_add(accumulator, point)

    def test_scalar_mult_matches_base_table(self):
        for scalar in (1, 15, 16, 2**63 + 11, ed25519.L - 1, ed25519.L + 7):
            assert ed25519._points_equal(
                ed25519._scalar_mult(ed25519._BASE, scalar),
                ed25519._base_mult(scalar),
            ), scalar

    def test_multi_scalar_matches_sum_of_singles(self):
        rng = random.Random(99)
        points = [
            ed25519._scalar_mult(ed25519._BASE, rng.getrandbits(64) | 1)
            for _ in range(4)
        ]
        scalars = [rng.getrandbits(130) for _ in range(4)]
        combined = ed25519._multi_scalar_mult(list(zip(scalars, points)))
        expected = ed25519._IDENTITY
        for scalar, point in zip(scalars, points):
            expected = ed25519._point_add(expected, ed25519._scalar_mult(point, scalar))
        assert ed25519._points_equal(combined, expected)

    def test_multi_scalar_empty_and_zero_scalars(self):
        assert ed25519._points_equal(ed25519._multi_scalar_mult([]), ed25519._IDENTITY)
        assert ed25519._points_equal(
            ed25519._multi_scalar_mult([(0, ed25519._BASE)]), ed25519._IDENTITY
        )


class TestBatchVerify:
    def test_rfc8032_vectors_as_a_batch(self):
        items = [
            (bytes.fromhex(public), bytes.fromhex(message), bytes.fromhex(signature))
            for _, public, message, signature in RFC8032_VECTORS
        ]
        assert ed25519.verify_batch(items) == [True, True, True]

    def test_empty_batch(self):
        assert ed25519.verify_batch([]) == []

    def test_single_item_batch(self):
        items = make_triples(1)
        assert ed25519.verify_batch(items) == [True]
        public, message, signature = items[0]
        assert ed25519.verify_batch([(public, b"other", signature)]) == [False]

    def test_all_valid_batch(self):
        assert all(ed25519.verify_batch(make_triples(8)))

    def test_one_bad_signature_does_not_poison_the_batch(self):
        """The fallback requirement: a forgery neither vetoes nor rides."""
        items = make_triples(8)
        good_sig = items[1][2]
        items[5] = (items[5][0], items[5][1], good_sig)  # wrong key/message
        verdicts = ed25519.verify_batch(items)
        assert verdicts[5] is False
        assert [v for i, v in enumerate(verdicts) if i != 5] == [True] * 7

    def test_multiple_bad_signatures(self):
        items = make_triples(6)
        items[0] = (items[0][0], b"swapped", items[0][2])
        tampered = bytearray(items[3][2])
        tampered[40] ^= 0x01
        items[3] = (items[3][0], items[3][1], bytes(tampered))
        assert ed25519.verify_batch(items) == [False, True, True, False, True, True]

    def test_malformed_items_rejected_without_disturbing_others(self):
        items = make_triples(6)
        items[0] = (b"short-key", items[0][1], items[0][2])
        items[2] = (items[2][0], items[2][1], b"short-sig")
        items[4] = (items[4][0], items[4][1], items[4][2][:32] + b"\xff" * 32)  # s >= L
        off_curve = bytes([0x13] * 31 + [0x80])
        items[5] = (off_curve, items[5][1], items[5][2])
        verdicts = ed25519.verify_batch(items)
        assert verdicts == [False, True, False, True, False, False]

    def test_duplicate_triples_in_one_batch(self):
        items = make_triples(3)
        assert ed25519.verify_batch(items + items) == [True] * 6

    def test_seeded_rng_is_deterministic_and_agrees_with_hash_coefficients(self):
        items = make_triples(5)
        items[2] = (items[2][0], b"not the signed message", items[2][2])
        expected = [True, True, False, True, True]
        assert ed25519.verify_batch(items) == expected
        assert (
            ed25519.verify_batch(items, rng=random.Random(1234))
            == ed25519.verify_batch(items, rng=random.Random(1234))
            == expected
        )

    def test_batch_agrees_with_single_verify_pointwise(self):
        items = make_triples(4)
        items[1] = (items[1][0], items[1][1], items[0][2])
        singles = [ed25519.verify(*item) for item in items]
        assert ed25519.verify_batch(items) == singles


class TestCofactoredVerification:
    """Single and batch verification share one *cofactored* acceptance set.

    Cofactorless RLC batching is unsound against crafted signatures: a
    defect in the order-8 torsion subgroup (``R + T`` for small-order
    ``T``) contributes ``z_i * T`` to the combined point, and paired
    defects can cancel when the coefficients' parities align.  Multiplying
    by the cofactor 8 annihilates all torsion — and because the *single*
    verify uses the cofactored form too (RFC 8032 sanctions either), a
    torsion-component signature gets the same verdict from every path:
    no batch-size dependence, no cache-eviction verdict flips, no
    replica divergence on block validity.
    """

    ORDER_2 = (0, ed25519.P - 1, 1, 0)  # the order-2 point (0, -1)

    def torsioned(self, triple):
        public, message, signature = triple
        r_point = ed25519._point_decompress(signature[:32])
        twisted = ed25519._point_add(r_point, self.ORDER_2)
        return (public, message, ed25519._point_compress(twisted) + signature[32:])

    def test_order_2_point_is_order_2(self):
        doubled = ed25519._point_double(self.ORDER_2)
        assert ed25519._points_equal(doubled, ed25519._IDENTITY)
        assert not ed25519._points_equal(self.ORDER_2, ed25519._IDENTITY)

    def test_torsioned_signature_has_one_verdict_everywhere(self):
        """The state-dependence regression: single verify, a 1-item batch
        (which falls back to single verify), and a multi-item batch must
        agree on a torsion-component signature."""
        base = make_triples(3)
        defective = self.torsioned(base[0])
        single = ed25519.verify(*defective)
        assert ed25519.verify_batch([defective]) == [single]
        multi = ed25519.verify_batch([defective, base[1], base[2]])
        assert multi == [single, True, True]

    def test_paired_torsion_defects_cannot_ride_coefficient_parity(self):
        """The pre-cofactoring attack: two identical order-2 defects whose
        coefficients sum to an even number cancel in the combined point.
        With cofactoring the verdict no longer depends on that parity at
        all — pinned here by checking the batch verdicts are identical
        across many different coefficient draws and match single verify."""
        base = make_triples(4)
        defective = self.torsioned(base[0])
        batch = [defective, defective, base[1], base[2]]
        verdicts = {tuple(ed25519.verify_batch(batch, rng=random.Random(seed))) for seed in range(12)}
        assert len(verdicts) == 1, "verdict must not depend on coefficient draw"
        expected = [ed25519.verify(*item) for item in batch]
        assert list(verdicts.pop()) == expected

    def test_honest_batches_and_ordinary_forgeries_are_unaffected(self):
        triples = make_triples(5)
        assert ed25519.verify_batch(triples) == [True] * 5
        tampered = bytearray(triples[2][2])
        tampered[5] ^= 0x40
        triples[2] = (triples[2][0], triples[2][1], bytes(tampered))
        assert ed25519.verify_batch(triples) == [True, True, False, True, True]

    def test_same_signer_scalars_merge_without_changing_verdicts(self):
        """Batches dominated by one key (the merged-window-table path)
        agree with per-item single verification."""
        seed = bytes([7] * 32)
        public = ed25519.public_key_from_seed(seed)
        triples = [
            (public, f"m-{i}".encode(), ed25519.sign(seed, f"m-{i}".encode()))
            for i in range(6)
        ]
        tampered = bytearray(triples[3][2])
        tampered[40] ^= 0x02
        triples[3] = (public, triples[3][1], bytes(tampered))
        assert ed25519.verify_batch(triples) == [True, True, True, False, True, True]

    def test_same_signer_scalars_merge_across_an_eviction_inside_the_batch(self, monkeypatch):
        """The merge is keyed on the public-key encoding, not on which
        point object the decompression memo happened to hand out: with the
        memo squeezed to one entry, two signers alternating through a
        batch are each decompressed afresh every time, and still pay for
        one window table per key."""
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE", {})
        monkeypatch.setattr(ed25519, "_PUBKEY_CACHE_MAX", 1)
        seeds = [bytes([7] * 32), bytes([8] * 32)]
        triples = [
            (ed25519.public_key_from_seed(seed), f"m-{i}".encode(), ed25519.sign(seed, f"m-{i}".encode()))
            for i in range(3)
            for seed in seeds
        ]
        terms = []
        multi_scalar_mult = ed25519._multi_scalar_mult
        monkeypatch.setattr(
            ed25519, "_multi_scalar_mult", lambda pairs: terms.append(len(pairs)) or multi_scalar_mult(pairs)
        )
        assert ed25519.verify_batch(triples) == [True] * 6
        assert terms == [6 + 2]  # six R terms, one merged term per signer
        assert len(ed25519._PUBKEY_CACHE) == 1


class TestMalformedKeyEdgeCases:
    """Fast-path decoding edge cases the pipeline must reject cleanly."""

    def test_y_coordinate_out_of_range(self):
        # y >= P with the sign bit clear: not a canonical encoding.
        bad = int.to_bytes(ed25519.P + 1, 32, "little")
        with pytest.raises(Exception):
            ed25519._point_decompress(bad)
        _, message, signature = make_triples(1)[0]
        assert not ed25519.verify(bad, message, signature)

    def test_sign_bit_with_zero_x_rejected(self):
        # y = 1 gives x = 0; the sign bit then admits no valid x.
        bad = int.to_bytes(1 | (1 << 255), 32, "little")
        _, message, signature = make_triples(1)[0]
        assert not ed25519.verify(bad, message, signature)

    def test_pubkey_cache_does_not_leak_wrong_points(self):
        """Decompression caching is keyed by the exact encoding."""
        triples = make_triples(2)
        (pub_a, msg_a, sig_a), (pub_b, msg_b, sig_b) = triples
        assert ed25519.verify(pub_a, msg_a, sig_a)
        assert ed25519.verify(pub_b, msg_b, sig_b)
        assert not ed25519.verify(pub_a, msg_b, sig_b)
        assert not ed25519.verify(pub_b, msg_a, sig_a)
