"""Validation orchestrator: typing scheme dispatch, admitted once.

Implements the paper's typing scheme ``tau_alpha = <T_alpha, C_alpha>``:
a transaction is valid with respect to its type iff it meets *all* the
type's conditions.  The orchestrator layers the two phases of Fig. 4:

1. **Schema validation** (Algorithm 1) — structure against the YAML
   schema, via :mod:`repro.schema`.
2. **Semantic validation** — the per-type ``validateT_alpha`` methods,
   via the registered :mod:`repro.core.types` validators.

Fig. 4 runs both at the receiver, again at every validator's CheckTx and
again at DeliverTx.  The schema walk, the id hash and the transaction's
own signature conditions are pure functions of the payload, so this
module runs them **once per payload object per process** and keeps the
sealed parse in the shared memo (:data:`_shared`, a
:class:`~repro.common.encoding.FrozenMemo`), as
:func:`~repro.common.encoding.frozen_bytes` keeps the payload's canonical
bytes; only the ``C_alpha`` conditions that read the ledger run on every
replica.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.common.encoding import FrozenMemo
from repro.common.errors import SchemaValidationError, ValidationError
from repro.core.context import ValidationContext
from repro.core.transaction import Transaction
from repro.core.types import (
    AcceptBidValidator,
    BidValidator,
    CreateValidator,
    RequestValidator,
    ReturnValidator,
    TransferValidator,
)
from repro.schema import default_registry


class TypeValidator(Protocol):
    """A per-type semantic validator."""

    operation: str

    def validate(self, ctx: ValidationContext, transaction: Transaction) -> None: ...


#: Frozen payload -> its sealed :class:`Transaction`: the process-wide
#: memo of payloads that passed the stateless checks.
#:
#: Scope.  A "cluster" here is many simulated nodes in one interpreter,
#: and a payload that crossed the ``submit_payload`` trust boundary is
#: one frozen dict every one of them is handed by reference.  Schema
#: validity, ``verify_id`` and ``verify_signatures`` of that dict are the
#: same on every node, so — like the signature verdicts of
#: :mod:`repro.crypto.sigcache` — they are kept once per process, not
#: once per server.  An entry is written only after all three passed.
#: What is shared across replicas: the payload dict itself and its sealed
#: (read-only) parse; its canonical bytes are
#: :func:`~repro.common.encoding.frozen_bytes`'s to hold.  What is not:
#: everything that reads a ledger.  Input existence, double-spend checks,
#: spend guards, ingress gates and staging run against each replica's own
#: database on every call, so a DeliverTx verdict stays a function of
#: that replica's state.  The simulated cost
#: of validation (``ServerCostModel.validation_cost``,
#: ``block_validation_cost``) is likewise still charged per replica per
#: call: the model describes a deployment whose nodes are separate
#: machines, each doing the work this process happens to do once.
#:
#: Identity guard.  A hit requires the **same object** (``is``) as the
#: one admitted: equal content in a different dict misses, and a forged
#: body claiming a known id misses and goes through full verification,
#: so it cannot ride on a memoised verdict.  The memo holds strong
#: references, which is what makes the identity test sound while an
#: entry lives.
#:
#: Ownership contract.  A payload handed to a validator must not be
#: mutated in place afterwards — an identity hit cannot detect such
#: tampering without re-hashing, which is exactly the cost being
#: memoised away.  ``SmartchainCluster.submit_payload`` enforces this at
#: the driver trust boundary by deep-copying the payload once on entry,
#: so nothing outside the pipeline holds a reference to the object the
#: memo vouches for; standalone ``TransactionValidator`` users who mutate
#: and re-check a payload must construct a fresh dict.
#:
#: Bound.  An entry is needed from receiver validation until the last
#: replica's block check of the transaction, so the bound only has to
#: cover what is in flight: admitted, pooled or proposed, and not yet
#: checked in a block by every replica.  An evicted payload simply
#: re-verifies, to the same verdict.  A resident entry costs its parse
#: (measured 4.6 KB for a 1.4 KB payload, 2.6 KB of it the memoised
#: signing payload and signed body) on top of the payload the replicas
#: hold anyway: ~19 MB of parses at 4096 entries.
_shared = FrozenMemo(4096)


def shared_memo() -> FrozenMemo:
    """The process-wide memo every validator consults."""
    return _shared


def set_shared_memo(memo: FrozenMemo) -> FrozenMemo:
    """Swap the shared memo (tests needing isolation); returns the old one."""
    global _shared
    previous = _shared
    _shared = memo
    return previous


class AdmissionProbe:
    """One validator's window onto the shared memo, counting its own
    lookups (``hits`` / ``misses``) so per-node hit rates stay visible."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def lookup(self, payload: dict[str, Any]) -> Transaction | None:
        """Sealed parse of this exact payload object, or None."""
        transaction = shared_memo().get(payload)
        if transaction is None:
            self.misses += 1
        else:
            self.hits += 1
        return transaction


class TransactionValidator:
    """Schema + semantic validation for every registered type.

    Extensible by design: :meth:`register` adds new declarative types at
    runtime (the paper's "hope is that this set can be extended over
    time").
    """

    def __init__(self):
        self._schemas = default_registry()
        #: This validator's probe into the shared memo;
        #: None (a benchmark's uncached reference) runs every stateless
        #: check on every call.
        self.verification_cache: AdmissionProbe | None = AdmissionProbe()
        self._validators: dict[str, TypeValidator] = {}
        for validator in (
            CreateValidator(),
            TransferValidator(),
            RequestValidator(),
            BidValidator(),
            AcceptBidValidator(),
            ReturnValidator(),
        ):
            self.register(validator)

    def register(self, validator: TypeValidator) -> None:
        """Register (or replace) the validator for an operation."""
        self._validators[validator.operation] = validator

    # -- the stateless half, once per payload object ---------------------------

    def _parse(self, payload: dict[str, Any], schema: bool) -> Transaction:
        """The memoised sealed parse of this payload object, else a fresh
        unsealed one (after Algorithm 1 when ``schema``)."""
        probe = self.verification_cache
        if probe is not None:
            admitted = probe.lookup(payload)
            if admitted is not None:
                return admitted
        if schema:
            self.validate_schema(payload)
        return Transaction.from_dict(payload)

    def _verify(self, payload: dict[str, Any], transaction: Transaction, admit: bool) -> bool:
        """Integrity (raises) and signature (verdict) checks of a parse.

        :meth:`Transaction.seal` is the one place both run.  ``admit``
        says the schema ran too, so a passing payload may enter the
        shared memo.  A sealed parse came from the memo and passed
        already.
        """
        if transaction.sealed:
            return True
        if not transaction.seal():
            if not transaction.verify_id():  # memoised by seal(): says which check failed
                raise ValidationError("transaction id does not match body hash", "integrity")
            return False
        if admit and self.verification_cache is not None:
            if not transaction.sealed:  # never hand an unverified parse to other replicas
                raise ValueError("only a sealed transaction can be admitted")
            shared_memo().put(payload, transaction)
        return True

    # -- phases -----------------------------------------------------------------

    def validate_schema(self, payload: dict[str, Any]) -> None:
        """Phase 1 (Algorithm 1).

        Raises:
            SchemaValidationError on structural violations.
        """
        self._schemas.validate_transaction(payload)

    def _validate(
        self, ctx: ValidationContext, payload: dict[str, Any], schema: bool
    ) -> Transaction:
        transaction = self._parse(payload, schema)
        validator = self._validators.get(transaction.operation)
        if validator is None:
            raise ValidationError(
                f"no semantic validator registered for {transaction.operation!r}"
            )
        # A failed signature leaves the parse unsealed: the per-type
        # validator re-checks (through the signature cache) and raises at
        # its own condition, so rejection reasons keep their order.
        self._verify(payload, transaction, admit=schema)
        validator.validate(ctx, transaction)
        return transaction

    def validate_semantics(self, ctx: ValidationContext, payload: dict[str, Any]) -> Transaction:
        """Phase 2: the type's C_alpha conditions.  Returns the parsed tx.

        An admitted payload object is handed to the per-type validator as
        its shared sealed parse; anything else is parsed and verified
        here, and not remembered (the schema did not run).

        Raises:
            ValidationError (or a subclass) on the first violated condition.
        """
        return self._validate(ctx, payload, schema=False)

    def validate(self, ctx: ValidationContext, payload: dict[str, Any]) -> Transaction:
        """Both phases in order (receiver-node validation of Fig. 4)."""
        return self._validate(ctx, payload, schema=True)

    def check_block(self, payloads: list[dict[str, Any]]) -> list[bool]:
        """:meth:`check_tx` over a block's payloads, in block order."""
        return [self.check_tx(payload) for payload in payloads]

    def check_tx(self, payload: dict[str, Any]) -> bool:
        """Mempool-grade stateless check (schema + id + signatures).

        This is the CheckTx re-validation other validators run to confirm
        "the validator node did not tamper the transaction" (Fig. 4) —
        it needs no ledger state.
        """
        try:
            return self._verify(payload, self._parse(payload, schema=True), admit=True)
        except (SchemaValidationError, ValidationError):
            return False
