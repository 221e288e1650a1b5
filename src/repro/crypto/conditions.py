"""Crypto-conditions: output conditions and input fulfillments.

BigchainDB encodes *who may spend an output* as a crypto-condition and
*proof of authority to spend* as a fulfillment.  Two condition types cover
the paper's needs:

* ``ed25519-sha-256`` — a single key must sign.
* ``threshold-sha-256`` — at least ``threshold`` of ``n`` keys must sign
  (the paper's multi-signature strings ``ms_{i,j,k}``).

Conditions serialise to plain dictionaries so they can live inside the
canonical transaction JSON; fulfillments carry base58 signatures keyed by
public key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import SchemaValidationError, ThresholdNotMetError
from repro.crypto.keys import KeyPair, verify_signature

ED25519_TYPE = "ed25519-sha-256"
THRESHOLD_TYPE = "threshold-sha-256"


@dataclass(frozen=True)
class Condition:
    """Spending condition attached to a transaction output.

    Attributes:
        public_keys: keys allowed to sign; order is canonical (sorted).
        threshold: how many distinct keys must sign.  ``1`` with a single
            key is the plain ed25519 condition; anything else is a
            threshold (multisig) condition.
    """

    public_keys: tuple[str, ...]
    threshold: int = 1

    def __post_init__(self) -> None:
        if not self.public_keys:
            raise SchemaValidationError("condition requires at least one public key", "condition.public_keys")
        distinct = len(set(self.public_keys))
        if not 1 <= self.threshold <= distinct:
            raise SchemaValidationError(
                f"threshold {self.threshold} out of range for {distinct} distinct keys",
                "condition.threshold",
            )

    @property
    def type_name(self) -> str:
        """Condition type URI fragment."""
        if len(self.public_keys) == 1 and self.threshold == 1:
            return ED25519_TYPE
        return THRESHOLD_TYPE

    def to_dict(self) -> dict[str, Any]:
        """Schema-conformant dictionary representation."""
        return {
            "type": self.type_name,
            "public_keys": sorted(self.public_keys),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Condition":
        """Parse a condition dictionary.

        Raises:
            SchemaValidationError: on missing/malformed fields.
        """
        try:
            keys = tuple(data["public_keys"])
            threshold = int(data.get("threshold", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaValidationError(f"malformed condition: {exc}", "condition") from exc
        return cls(public_keys=keys, threshold=threshold)

    @classmethod
    def for_owner(cls, public_key: str) -> "Condition":
        """Single-owner ed25519 condition."""
        return cls(public_keys=(public_key,), threshold=1)

    @classmethod
    def for_group(cls, public_keys: list[str], threshold: int) -> "Condition":
        """Threshold condition over a group of keys (multisig)."""
        return cls(public_keys=tuple(public_keys), threshold=threshold)


@dataclass
class Fulfillment:
    """Proof that an input's owner(s) authorised the spend.

    ``signatures`` maps public key -> base58 signature over the signing
    payload (the transaction body without fulfillments, canonically
    serialised — see :mod:`repro.core.transaction`).
    """

    signatures: dict[str, str] = field(default_factory=dict)

    def add_signature(self, keypair: KeyPair, message: bytes) -> None:
        """Sign ``message`` with ``keypair`` and record the signature."""
        self.signatures[keypair.public_key] = keypair.sign(message)

    def to_dict(self) -> dict[str, Any]:
        """Dictionary form for embedding in transaction JSON."""
        return {"signatures": dict(sorted(self.signatures.items()))}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fulfillment":
        """Parse a fulfillment dictionary.

        Raises:
            SchemaValidationError: if the structure is malformed.
        """
        signatures = data.get("signatures")
        if not isinstance(signatures, dict):
            raise SchemaValidationError("fulfillment.signatures must be a mapping", "fulfillment")
        return cls(signatures=dict(signatures))

    def signature_items(self, condition: Condition, message: bytes) -> list[tuple[str, bytes, str]]:
        """The ``(public_key, message, signature)`` triples :meth:`satisfies`
        verifies, one per distinct condition key that signed — the unit the
        batched validation pipeline collects across a whole block and
        settles in one batch check."""
        return [
            (public_key, message, self.signatures[public_key])
            for public_key in dict.fromkeys(condition.public_keys)
            if public_key in self.signatures
        ]

    def satisfies(self, condition: Condition, message: bytes) -> bool:
        """Check whether this fulfillment satisfies ``condition``.

        Counts the distinct condition keys whose recorded signature
        verifies over ``message`` — a key the condition lists twice still
        signs once — and compares against the threshold.  Extraneous
        signatures by non-condition keys are ignored.
        """
        valid = sum(verify_signature(*triple) for triple in self.signature_items(condition, message))
        return valid >= condition.threshold

    def require(self, condition: Condition, message: bytes) -> None:
        """Raise unless the fulfillment satisfies ``condition``.

        Raises:
            ThresholdNotMetError: with the shortfall spelled out.
        """
        if not self.satisfies(condition, message):
            raise ThresholdNotMetError(
                f"fulfillment does not satisfy {condition.type_name} condition "
                f"(threshold {condition.threshold} of {len(condition.public_keys)})"
            )


def multisignature_string(fulfillment: Fulfillment) -> str:
    """Render a fulfillment as the paper's ``ms_{i,j,k}`` display string.

    Purely cosmetic — used by examples and debug output to echo the
    formal model's notation.
    """
    keys = sorted(fulfillment.signatures)
    return "ms[" + ",".join(key[:8] for key in keys) + "]"
