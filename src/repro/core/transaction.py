"""The transaction object: ``T = <ID, OP, A, O, I, Ch, R>``.

This module realises Definition 1 of the paper.  A transaction is
fundamentally a JSON document (the wire payload the Driver submits); the
:class:`Transaction` class wraps that document with typed accessors,
id computation, signing and structural checks.

Wire layout (matching the YAML schemas in ``repro.schema.definitions``)::

    {
      "id":         "<sha3-256 hex of the signed body>",
      "operation":  "CREATE" | "TRANSFER" | ... ,
      "version":    "2.0",
      "asset":      {"data": {...}} | {"id": "<txid>"},
      "inputs":     [{"owners_before": [...],
                      "fulfills": {"transaction_id": ..., "output_index": ...} | null,
                      "fulfillment": {"signatures": {pubkey: sig, ...}}}],
      "outputs":    [{"condition": {...}, "amount": n,
                      "public_keys": [...], "owners_before": [...]}],
      "metadata":   {...} | null,
      "references": ["<txid>", ...],          # the R vector
      "children":   ["<txid>", ...]           # the Ch set (nested types)
    }

Outputs carry ``owners_before`` so that condition 8 of ACCEPT_BID — every
unaccepted output returns to its *original bidder* (``pb_prev``) — is
checkable from the transaction alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.common.errors import SchemaValidationError, ValidationError
from repro.crypto.conditions import Condition, Fulfillment
from repro.crypto.hashing import sha3_256_hex
from repro.crypto.keys import KeyPair

VERSION = "2.0"

CREATE = "CREATE"
TRANSFER = "TRANSFER"
REQUEST = "REQUEST"
BID = "BID"
ACCEPT_BID = "ACCEPT_BID"
RETURN = "RETURN"

#: Operations whose inputs spend nothing (the asset is born here).
GENESIS_OPERATIONS = frozenset({CREATE, REQUEST})

#: Operations whose inputs must spend committed outputs.
SPENDING_OPERATIONS = frozenset({TRANSFER, BID, ACCEPT_BID, RETURN})


@dataclass(frozen=True)
class OutputRef:
    """A pointer to the ``k``-th output of transaction ``transaction_id``."""

    transaction_id: str
    output_index: int

    def to_dict(self) -> dict[str, Any]:
        return {"transaction_id": self.transaction_id, "output_index": self.output_index}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OutputRef":
        return cls(
            transaction_id=data["transaction_id"],
            output_index=int(data["output_index"]),
        )


@dataclass
class Output:
    """Transaction output ``o_j = <pb, amt, pb_prev>`` plus its condition."""

    condition: Condition
    amount: int
    public_keys: list[str]
    owners_before: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "condition": self.condition.to_dict(),
            "amount": self.amount,
            "public_keys": list(self.public_keys),
        }
        if self.owners_before:
            data["owners_before"] = list(self.owners_before)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Output":
        return cls(
            condition=Condition.from_dict(data["condition"]),
            amount=int(data["amount"]),
            public_keys=list(data["public_keys"]),
            owners_before=list(data.get("owners_before", [])),
        )

    @classmethod
    def for_owner(cls, public_key: str, amount: int = 1, owners_before: list[str] | None = None) -> "Output":
        """Single-owner output."""
        return cls(
            condition=Condition.for_owner(public_key),
            amount=amount,
            public_keys=[public_key],
            owners_before=list(owners_before or []),
        )


@dataclass
class Input:
    """Transaction input ``i_k = <T'.o_b, ms>``.

    ``fulfills`` is None for genesis operations (CREATE/REQUEST).
    """

    owners_before: list[str]
    fulfills: OutputRef | None
    fulfillment: Fulfillment = field(default_factory=Fulfillment)

    def to_dict(self) -> dict[str, Any]:
        return {
            "owners_before": list(self.owners_before),
            "fulfills": self.fulfills.to_dict() if self.fulfills else None,
            "fulfillment": self.fulfillment.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Input":
        fulfills = data.get("fulfills")
        return cls(
            owners_before=list(data["owners_before"]),
            fulfills=OutputRef.from_dict(fulfills) if fulfills else None,
            fulfillment=Fulfillment.from_dict(data["fulfillment"]),
        )


class Transaction:
    """A typed view over a transaction payload."""

    def __init__(
        self,
        operation: str,
        asset: dict[str, Any],
        inputs: list[Input],
        outputs: list[Output],
        metadata: dict[str, Any] | None = None,
        references: list[str] | None = None,
        children: list[str] | None = None,
        tx_id: str | None = None,
    ):
        self.operation = operation
        self.asset = asset
        self.inputs = inputs
        self.outputs = outputs
        self.metadata = metadata
        self.references = list(references or [])
        self.children = list(children or [])
        self.tx_id = tx_id
        # Memoised canonical forms.  Serialising and hashing the body is
        # the dominant cost of integrity checks, and validation recomputes
        # them several times per transaction (signing payload for every
        # signature check, the signed-body hash for verify_id and
        # size_bytes).  Reassigning any body field, or calling sign(),
        # invalidates them; callers deep-mutating a field's *contents*
        # (e.g. ``tx.asset["data"]["k"] = v``) must call
        # invalidate_caches() themselves.
        self.invalidate_caches()

    #: Fields whose reassignment changes the canonical body.
    _BODY_FIELDS = frozenset(
        {"operation", "asset", "inputs", "outputs", "metadata", "references", "children"}
    )

    #: True once :meth:`seal` verified the instance and made it read-only.
    _sealed = False

    def __setattr__(self, name: str, value: Any) -> None:
        if self._sealed:
            raise AttributeError(f"sealed transaction is read-only (tried to set {name!r})")
        object.__setattr__(self, name, value)
        if name in Transaction._BODY_FIELDS:
            self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop memoised canonical bytes/ids after in-place mutation."""
        if self._sealed:
            raise AttributeError("sealed transaction is read-only")
        object.__setattr__(self, "_cached_signing_payload", None)
        object.__setattr__(self, "_cached_signed_bytes", None)
        object.__setattr__(self, "_cached_id", None)

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` verified and froze this instance."""
        return self._sealed

    def seal(self) -> bool:
        """Verify id and signatures once, then freeze; True if sealed.

        A sealed transaction is what the admission memo
        (:mod:`repro.core.validation`) shares between every replica of
        the process: its attributes reject assignment, its canonical
        forms are already memoised, and :meth:`verify_signatures`
        answers True without touching the signature cache — the verdict
        was a pure function of a body that can no longer change.  A
        transaction failing either check stays unsealed and writable.
        """
        if not self._sealed and self.verify_id() and self.verify_signatures():
            object.__setattr__(self, "_sealed", True)
        return self._sealed

    # -- serialisation --------------------------------------------------------

    def _body(self, with_signatures: bool) -> dict[str, Any]:
        inputs = []
        for item in self.inputs:
            entry = item.to_dict()
            if not with_signatures:
                entry["fulfillment"] = {"signatures": {}}
            inputs.append(entry)
        body: dict[str, Any] = {
            "operation": self.operation,
            "version": VERSION,
            "asset": deep_copy_json(self.asset),
            "inputs": inputs,
            "outputs": [output.to_dict() for output in self.outputs],
            "metadata": deep_copy_json(self.metadata),
        }
        if self.references or self.operation in (BID, ACCEPT_BID, RETURN):
            body["references"] = list(self.references)
        if self.children or self.operation == ACCEPT_BID:
            body["children"] = list(self.children)
        return body

    def signing_payload(self) -> bytes:
        """The byte string each input owner signs.

        The body with *empty* fulfillments, canonically serialised — so
        signatures commit to the asset, outputs, references and metadata
        but not to each other.  Memoised: adding signatures does not
        change it.
        """
        payload = self._cached_signing_payload
        if payload is None:
            payload = canonical_bytes(self._body(with_signatures=False))
            self._cached_signing_payload = payload
        return payload

    def _signed_bytes(self) -> bytes:
        """Canonical bytes of the fully signed body, memoised."""
        signed = self._cached_signed_bytes
        if signed is None:
            signed = canonical_bytes(self._body(with_signatures=True))
            self._cached_signed_bytes = signed
        return signed

    def compute_id(self) -> str:
        """SHA3-256 of the fully signed body (the schema's sha3_hexdigest)."""
        tx_id = self._cached_id
        if tx_id is None:
            tx_id = sha3_256_hex(self._signed_bytes())
            self._cached_id = tx_id
        return tx_id

    def sign(self, keypairs: list[KeyPair]) -> "Transaction":
        """Sign every input with the supplied key pairs, then freeze the id.

        Each input receives a signature from every keypair matching one of
        its ``owners_before`` keys.  Returns self for chaining.

        Raises:
            ValidationError: if an input ends up with no signatures.
        """
        # Start from a clean slate: outputs/asset may have been swapped
        # since the last signing, and the new signatures change the body.
        self.invalidate_caches()
        payload = self.signing_payload()
        by_public = {keypair.public_key: keypair for keypair in keypairs}
        for index, item in enumerate(self.inputs):
            signed = False
            for owner in item.owners_before:
                keypair = by_public.get(owner)
                if keypair is not None:
                    item.fulfillment.add_signature(keypair, payload)
                    signed = True
            if not signed:
                raise ValidationError(
                    f"no key available to sign input {index} (owners {item.owners_before})"
                )
        # The signed body changed; only the signature-free signing payload
        # survives in the cache.
        self._cached_signed_bytes = None
        self._cached_id = None
        self.tx_id = self.compute_id()
        return self

    def to_dict(self) -> dict[str, Any]:
        """Full wire payload (requires a signed transaction).

        Raises:
            ValidationError: if the transaction has not been signed.
        """
        if self.tx_id is None:
            raise ValidationError("transaction must be signed before serialisation")
        body = self._body(with_signatures=True)
        return {"id": self.tx_id, **body}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Transaction":
        """Parse a wire payload into a :class:`Transaction`.

        Raises:
            SchemaValidationError: on structurally broken payloads (schema
                validation should normally run first and give nicer errors).
        """
        try:
            return cls(
                operation=payload["operation"],
                asset=deep_copy_json(payload["asset"]),
                inputs=[Input.from_dict(item) for item in payload["inputs"]],
                outputs=[Output.from_dict(item) for item in payload["outputs"]],
                metadata=deep_copy_json(payload.get("metadata")),
                references=list(payload.get("references", [])),
                children=list(payload.get("children", [])),
                tx_id=payload.get("id"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaValidationError(f"malformed transaction payload: {exc}") from exc

    # -- integrity -------------------------------------------------------------

    def verify_id(self) -> bool:
        """True if the recorded id matches the body hash."""
        return self.tx_id == self.compute_id()

    def verify_signatures(self) -> bool:
        """Condition ``forall i: verify(s_i, pb_i, m_i)`` (CBID.5 etc.).

        Every input's fulfillment must carry valid signatures from at
        least one of its ``owners_before`` keys; inputs that spend an
        output are checked against that output's condition by the
        semantic validators (which know the prior transaction).

        A :meth:`seal`-ed transaction already passed and cannot change;
        otherwise the ed25519 verifications always run — the method
        stores no verdict itself, so direct callers see in-place
        fulfillment mutations.
        """
        if self._sealed:
            return True
        payload = self.signing_payload()
        for item in self.inputs:
            condition = Condition(public_keys=tuple(item.owners_before), threshold=1)
            if not item.fulfillment.satisfies(condition, payload):
                return False
        return True

    def signature_items(self) -> list[tuple[str, bytes, str]]:
        """Every ``(public_key, payload, signature)`` triple that
        :meth:`verify_signatures` would check, in check order.

        Block validation collects these across all transactions and
        settles them through one batch verification, pre-seeding the
        cluster-wide signature cache the per-input checks then hit.
        """
        payload = self.signing_payload()
        triples: list[tuple[str, bytes, str]] = []
        for item in self.inputs:
            condition = Condition(public_keys=tuple(item.owners_before), threshold=1)
            triples.extend(item.fulfillment.signature_items(condition, payload))
        return triples

    def spent_refs(self) -> list[OutputRef]:
        """Output references consumed by this transaction's inputs."""
        return [item.fulfills for item in self.inputs if item.fulfills is not None]

    def asset_id(self) -> str | None:
        """The linked asset id (TRANSFER-like), or this tx's own id for
        genesis operations once signed."""
        if "id" in self.asset:
            return self.asset["id"]
        return self.tx_id

    def size_bytes(self) -> int:
        """Canonical serialised size — drives network/storage cost models."""
        if self.tx_id is None:
            return len(self._signed_bytes())
        # The wire payload is the signed body plus the sorted-first
        # ``"id":"<64 hex>",`` member; sizing it from the memoised body
        # bytes avoids a second full serialisation.
        return len(self._signed_bytes()) + len('"id":"",') + len(self.tx_id)

    def __repr__(self) -> str:
        short = (self.tx_id or "unsigned")[:8]
        return f"<Transaction {self.operation} {short}>"
