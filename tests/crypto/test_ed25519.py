"""Ed25519 against RFC 8032 vectors plus behavioural properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import InvalidKeyError
from repro.crypto import ed25519

# RFC 8032 section 7.1 test vectors (seed, public, message, signature).
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


class TestRfc8032Vectors:
    @pytest.mark.parametrize("seed_hex,public_hex,message_hex,signature_hex", RFC8032_VECTORS)
    def test_public_key_derivation(self, seed_hex, public_hex, message_hex, signature_hex):
        assert ed25519.public_key_from_seed(bytes.fromhex(seed_hex)).hex() == public_hex

    @pytest.mark.parametrize("seed_hex,public_hex,message_hex,signature_hex", RFC8032_VECTORS)
    def test_signature(self, seed_hex, public_hex, message_hex, signature_hex):
        signature = ed25519.sign(bytes.fromhex(seed_hex), bytes.fromhex(message_hex))
        assert signature.hex() == signature_hex

    @pytest.mark.parametrize("seed_hex,public_hex,message_hex,signature_hex", RFC8032_VECTORS)
    def test_verify(self, seed_hex, public_hex, message_hex, signature_hex):
        assert ed25519.verify(
            bytes.fromhex(public_hex),
            bytes.fromhex(message_hex),
            bytes.fromhex(signature_hex),
        )


class TestBehaviour:
    SEED = bytes(range(32))

    def test_wrong_message_rejected(self):
        public = ed25519.public_key_from_seed(self.SEED)
        signature = ed25519.sign(self.SEED, b"original")
        assert not ed25519.verify(public, b"tampered", signature)

    def test_wrong_key_rejected(self):
        other_public = ed25519.public_key_from_seed(bytes(reversed(range(32))))
        signature = ed25519.sign(self.SEED, b"message")
        assert not ed25519.verify(other_public, b"message", signature)

    def test_corrupted_signature_rejected(self):
        public = ed25519.public_key_from_seed(self.SEED)
        signature = bytearray(ed25519.sign(self.SEED, b"message"))
        signature[10] ^= 0xFF
        assert not ed25519.verify(public, b"message", bytes(signature))

    def test_malformed_inputs_return_false(self):
        public = ed25519.public_key_from_seed(self.SEED)
        assert not ed25519.verify(b"short", b"m", b"x" * 64)
        assert not ed25519.verify(public, b"m", b"short")

    def test_scalar_out_of_range_rejected(self):
        public = ed25519.public_key_from_seed(self.SEED)
        signature = ed25519.sign(self.SEED, b"m")
        # Force s >= L.
        bad = signature[:32] + (b"\xff" * 32)
        assert not ed25519.verify(public, b"m", bad)

    def test_bad_seed_length_raises(self):
        with pytest.raises(InvalidKeyError):
            ed25519.sign(b"short", b"m")
        with pytest.raises(InvalidKeyError):
            ed25519.public_key_from_seed(b"x" * 33)

    def test_signing_is_deterministic(self):
        assert ed25519.sign(self.SEED, b"m") == ed25519.sign(self.SEED, b"m")

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=64))
    def test_sign_verify_roundtrip_property(self, seed, message):
        public = ed25519.public_key_from_seed(seed)
        signature = ed25519.sign(seed, message)
        assert ed25519.verify(public, message, signature)
