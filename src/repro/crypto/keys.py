"""Key pairs and account identities.

The formal model (Section 3.1) is built on a set ``PBPK`` of public/private
key pairs, with a reserved subset ``PBPK-Res`` of system accounts (escrow,
admin).  Keys are Ed25519; both halves are rendered in base58 like
BigchainDB renders them.

Two Ed25519 paths run here.  Where :func:`repro.crypto.native.available`
(libsodium, else the libcrypto ``hashlib`` links), :meth:`KeyPair.sign`
signs natively and verification asks the library first; elsewhere both
run the pure kernel, :mod:`repro.crypto.ed25519`, alone.  Neither
signature bytes nor verdicts depend on which path ran:

* RFC 8032 signing is deterministic, so a native signature equals
  :func:`ed25519.sign`'s byte for byte; any native failure signs in pure
  Python.
* libsodium and libcrypto verify *cofactorless* (``[s]B = R + [h]A``),
  the pure kernel *cofactored* (``[8s]B = [8]R + [8h]A``).  Native is
  asked only when ``s < L`` and ``A`` and ``R`` are canonical encodings,
  where the two decode to the same points; a cofactorless accept is then
  an equation that, multiplied by 8, is the cofactored one.  So a native
  accept is final, and every other verdict — the cofactored-only
  accepts, malformed inputs, every native reject, libsodium's own
  refusals of small-order and non-canonical points among them — comes
  from the pure kernel.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.common.encoding import base58_decode, base58_encode
from repro.common.errors import InvalidKeyError
from repro.crypto import ed25519, native, sigcache


@dataclass(frozen=True)
class KeyPair:
    """An account identity: base58 public key + base58 private seed."""

    public_key: str
    private_key: str

    def sign(self, message: bytes) -> str:
        """Sign ``message``; returns the base58 signature string."""
        seed = base58_decode(self.private_key)
        return base58_encode(native.sign(seed, message) or ed25519.sign(seed, message))

    def verify(self, message: bytes, signature: str) -> bool:
        """Verify a base58 signature made by this key pair."""
        return verify_signature(self.public_key, message, signature)


def generate_keypair(seed: bytes | None = None) -> KeyPair:
    """Create a fresh Ed25519 key pair.

    Args:
        seed: optional 32-byte deterministic seed (tests and reproducible
            workloads); defaults to ``os.urandom``.

    Raises:
        InvalidKeyError: if an explicit seed has the wrong length.
    """
    if seed is None:
        seed = os.urandom(32)
    if len(seed) != 32:
        raise InvalidKeyError("seed must be exactly 32 bytes")
    public = ed25519.public_key_from_seed(seed)
    return KeyPair(public_key=base58_encode(public), private_key=base58_encode(seed))


def keypair_from_string(material: str) -> KeyPair:
    """Derive a deterministic key pair from arbitrary string material.

    Used by the workload generator to mint large account populations
    reproducibly: the seed is SHA3-256 of the material.
    """
    seed = hashlib.sha3_256(material.encode("utf-8")).digest()
    return generate_keypair(seed)


def verify_signature(public_key: str, message: bytes, signature: str) -> bool:
    """Verify a base58-encoded signature against a base58 public key.

    Any decoding failure counts as an invalid signature (returns False).
    Verdicts flow through the cluster-wide :mod:`repro.crypto.sigcache`
    when one is installed — a replica never re-verifies a triple another
    node already settled.
    """
    cache = sigcache.shared_cache()
    if cache is None:
        return _verify_signature_uncached(public_key, message, signature)
    key = cache.key(public_key, message, signature)
    verdict = cache.get(key)
    if verdict is None:
        verdict = _verify_signature_uncached(public_key, message, signature)
        cache.put(key, verdict)
    return verdict


def _verify_signature_uncached(public_key: str, message: bytes, signature: str) -> bool:
    try:
        public = base58_decode(public_key)
        sig = base58_decode(signature)
    except Exception:
        return False
    return native.accepts(public, message, sig) or ed25519.verify(public, message, sig)


def verify_signatures_batch(items: list[tuple[str, bytes, str]]) -> list[bool]:
    """:func:`verify_signature` over base58 ``(public_key, message,
    signature)`` triples, in order (a bound name of the e2e span recorder)."""
    return [verify_signature(*item) for item in items]


@dataclass
class ReservedAccounts:
    """The ``PBPK-Res`` reserved account set: escrow + admin system keys.

    The paper's BID semantics send every bid output to a reserved escrow
    account (CBID.6); ACCEPT_BID spends escrow-held outputs (CACCEPT_BID.7).
    A deployment owns one escrow key pair plus any number of additional
    admin accounts.
    """

    escrow: KeyPair = field(default_factory=lambda: keypair_from_string("smartchaindb-escrow"))
    admins: list[KeyPair] = field(default_factory=list)

    def public_keys(self) -> set[str]:
        """All reserved public keys (escrow first)."""
        keys = {self.escrow.public_key}
        keys.update(admin.public_key for admin in self.admins)
        return keys

    def is_reserved(self, public_key: str) -> bool:
        """True if ``public_key`` belongs to the reserved set."""
        return public_key in self.public_keys()
