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
outcome in the :class:`AdmissionMemo`; only the ``C_alpha`` conditions
that read the ledger run on every replica.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Protocol

from repro.common.encoding import canonical_bytes
from repro.common.errors import SchemaValidationError, ValidationError
from repro.core.context import ValidationContext
from repro.core.transaction import Transaction
from repro.crypto import sigcache
from repro.crypto.keys import verify_signatures_batch
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


class Admission:
    """One admitted payload: the object, its parse, its canonical bytes."""

    __slots__ = ("payload", "transaction", "encoded")

    def __init__(self, payload: dict[str, Any], transaction: Transaction):
        self.payload = payload
        self.transaction = transaction
        #: ``canonical_bytes(payload)`` once :meth:`AdmissionMemo.keep_encoded`
        #: was handed them; None until then.
        self.encoded: bytes | None = None


class AdmissionMemo:
    """Process-wide memo of payloads that passed the stateless checks.

    Scope.  A "cluster" here is many simulated nodes in one interpreter,
    and a payload that crossed the ``submit_payload`` trust boundary is
    one frozen dict every one of them is handed by reference.  Schema
    validity, ``verify_id`` and ``verify_signatures`` of that dict are
    the same on every node, so — like the signature verdicts of
    :mod:`repro.crypto.sigcache` — they are kept once per process, not
    once per server.  An entry is written only after all three passed.

    What is shared across replicas: the payload dict itself, its sealed
    (read-only) :class:`Transaction` parse, and — on a durable cluster,
    handed over by ``submit_payload`` through :meth:`keep_encoded` — its
    canonical bytes: the same bytes object sizes the envelope, becomes
    the ``transactions`` fragment of every replica and is spliced into
    their block records.  What is not: everything that reads a ledger.  Input
    existence, double-spend checks, spend guards, ingress gates and
    staging run against each replica's own database on every call, so a
    DeliverTx verdict stays a function of that replica's state.  The
    simulated cost of validation (``ServerCostModel.validation_cost``,
    ``block_validation_cost``) is likewise still charged per replica per
    call: the model describes a deployment whose nodes are separate
    machines, each doing the work this process happens to do once.

    Identity guard.  Entries are keyed by transaction id but a hit
    additionally requires the entry's payload to be the **same object**
    (``is``) as the one being checked: equal content in a different dict
    misses, and a forged body claiming a known id misses and goes
    through full verification, so it cannot ride on a memoised verdict.
    The memo holds strong references, which is what makes the identity
    test sound while an entry lives.

    Ownership contract.  A payload handed to a validator must not be
    mutated in place afterwards — an identity hit cannot detect such
    tampering without re-hashing, which is exactly the cost being
    memoised away.  ``SmartchainCluster.submit_payload`` enforces this
    at the driver trust boundary by deep-copying the payload once on
    entry, so nothing outside the pipeline holds a reference to the
    object the memo vouches for; standalone ``TransactionValidator``
    users who mutate and re-check a payload must construct a fresh dict.

    Bound.  At most ``max_entries`` payloads and ``max_bytes`` of kept
    canonical bytes, least recently used evicted first.  An entry is
    needed from receiver validation until the last replica commits the
    transaction, so the bound only has to cover what is in flight — the
    default is the window the consensus layer's own CheckTx memo assumes
    (``consensus.bft.CHECK_MEMO_LIMIT``); an evicted payload simply
    re-verifies, to the same verdict.  A resident entry costs its parse
    (measured 4.6 KB for a 1.4 KB payload, 2.6 KB of it the memoised
    signing payload and signed body) on top of the payload and the bytes
    the replicas hold anyway: ~19 MB of parses at the default entry cap,
    and the byte cap keeps large payloads from multiplying that.
    """

    def __init__(self, max_entries: int = 4096, max_bytes: int = 16 << 20):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Admission]" = OrderedDict()
        self._kept_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, payload: dict[str, Any]) -> Admission | None:
        """The entry vouching for this exact payload object, if any."""
        tx_id = payload.get("id")
        entry = self._entries.get(tx_id) if isinstance(tx_id, str) else None
        if entry is None or entry.payload is not payload:
            return None
        self._entries.move_to_end(tx_id)
        return entry

    def record(self, payload: dict[str, Any], transaction: Transaction) -> None:
        """Remember a payload whose sealed parse is ``transaction``.

        Raises:
            ValueError: if the transaction is not sealed — an unverified
                parse must never be handed to other replicas as admitted.
        """
        if not transaction.sealed:
            raise ValueError("only a sealed transaction can be admitted")
        self._drop(self._entries.pop(transaction.tx_id, None))
        self._entries[transaction.tx_id] = Admission(payload, transaction)
        self._evict()

    def keep_encoded(self, payload: dict[str, Any], encoded: bytes) -> None:
        """Keep ``encoded`` — which must be ``canonical_bytes(payload)`` —
        with this payload's admission, for every replica's WAL to share;
        a payload the memo does not hold is left alone."""
        entry = self.lookup(payload)
        if entry is not None and entry.encoded is None:
            entry.encoded = encoded
            self._kept_bytes += len(encoded)
            self._evict()

    def _drop(self, entry: Admission | None) -> None:
        if entry is not None:
            self._kept_bytes -= len(entry.encoded or b"")

    def _evict(self) -> None:
        entries = self._entries
        while len(entries) > self.max_entries or (
            self._kept_bytes > self.max_bytes and len(entries) > 1
        ):
            self._drop(entries.popitem(last=False)[1])


_shared = AdmissionMemo()


def shared_memo() -> AdmissionMemo:
    """The process-wide memo every validator consults."""
    return _shared


def set_shared_memo(memo: AdmissionMemo) -> AdmissionMemo:
    """Swap the shared memo (tests needing isolation); returns the old one."""
    global _shared
    previous = _shared
    _shared = memo
    return previous


def kept_payload(payload: dict[str, Any]) -> bytes | None:
    """The canonical bytes kept with this payload's admission, if any."""
    entry = _shared.lookup(payload)
    return entry.encoded if entry is not None else None


def encoded_payload(payload: dict[str, Any]) -> bytes:
    """Canonical bytes of a payload: the kept ones, else encoded now."""
    return kept_payload(payload) or canonical_bytes(payload)


class AdmissionProbe:
    """One validator's window onto the shared memo, counting its own
    lookups (``hits`` / ``misses``) so per-node hit rates stay visible."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def lookup(self, payload: dict[str, Any]) -> Transaction | None:
        """Sealed parse of this exact payload object, or None."""
        entry = _shared.lookup(payload)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.transaction


class TransactionValidator:
    """Schema + semantic validation for every registered type.

    Extensible by design: :meth:`register` adds new declarative types at
    runtime (the paper's "hope is that this set can be extended over
    time").
    """

    def __init__(self, verification_cache: bool = True):
        self._schemas = default_registry()
        #: This validator's probe into the shared :class:`AdmissionMemo`;
        #: None runs every stateless check on every call (the hot-path
        #: benchmark's reference configuration).
        self.verification_cache: AdmissionProbe | None = (
            AdmissionProbe() if verification_cache else None
        )
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

    def operations(self) -> list[str]:
        """All operations with a registered semantic validator."""
        return sorted(self._validators)

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
            _shared.record(payload, transaction)
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

    def check_block(self, payloads: list[dict[str, Any]], rng: Any = None) -> list[bool]:
        """Block-grade :meth:`check_tx`: verify signatures batch-first.

        Every signature of every not yet admitted payload in the block is
        settled through one random-linear-combination batch check (seeding
        the cluster-wide signature cache), and only then do the
        per-payload checks run — their per-signature verifications become
        cache hits.  Verdicts match per-payload ``check_tx`` exactly; a
        bad signature anywhere in the block falls back to independent
        verification, so it can neither veto nor ride along with its
        batchmates.

        Args:
            payloads: the block's transaction payloads, in block order.
            rng: optional ``getrandbits`` provider for the batch
                coefficients (a seeded ``sim.rng`` stream).
        """
        verdicts: list[bool] = [False] * len(payloads)
        fresh: list[tuple[int, Transaction]] = []
        triples: list[tuple[str, bytes, str]] = []
        for index, payload in enumerate(payloads):
            try:
                transaction = self._parse(payload, schema=True)
                if transaction.sealed:
                    verdicts[index] = True
                elif transaction.verify_id():  # a forged body stays out of the batch
                    fresh.append((index, transaction))
                    triples.extend(transaction.signature_items())
            except (SchemaValidationError, ValidationError):
                pass
        # Batch pre-pass only pays off when the verdicts can be handed to
        # the per-signature checks through the shared cache.
        if triples and sigcache.shared_cache() is not None:
            verify_signatures_batch(triples, rng=rng)
        for index, transaction in fresh:
            verdicts[index] = self._verify(payloads[index], transaction, admit=True)
        return verdicts

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
