"""Declarative condition composition — the paper's future-work direction.

Section 8: "Our future work will be to generalize our modeling framework
further to support more complex transaction modeling, including
transaction conditions and compositions."  This module implements that
generalisation: transaction-type conditions become first-class,
composable *predicates*, and a new transaction type is just a name plus
a predicate expression — no imperative validator class required.

A predicate is evaluated against ``(ctx, transaction)`` and either
passes or raises :class:`~repro.common.errors.ValidationError` with the
condition label that failed; ``all_of(p, q, ...)`` — every sub-predicate
must hold — is the C_alpha set.  The primitive factories are the
vocabulary the marketplace extension types (:mod:`repro.core.extensions`)
are written in, and :func:`declarative_type` lets users add new types at
runtime, which is exactly the extensibility story of Section 2.2; a type
needing another condition writes it as a :class:`Predicate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.common.errors import ValidationError
from repro.core.context import ValidationContext
from repro.core.transaction import Transaction
from repro.core.types.common import verify_genesis_inputs, verify_own_signatures

#: A predicate body: raises ValidationError on failure.
PredicateFn = Callable[[ValidationContext, Transaction], None]


@dataclass(frozen=True)
class Predicate:
    """A named, composable validation condition."""

    label: str
    check: PredicateFn

    def __call__(self, ctx: ValidationContext, transaction: Transaction) -> None:
        try:
            self.check(ctx, transaction)
        except ValidationError as error:
            if error.condition is None:
                raise ValidationError(str(error), self.label) from error
            raise

# -- combinators ----------------------------------------------------------------


def all_of(*predicates: Predicate, label: str = "all") -> Predicate:
    """Conjunction: every predicate must hold (evaluated in order)."""

    def check(ctx: ValidationContext, transaction: Transaction) -> None:
        for predicate in predicates:
            predicate(ctx, transaction)

    return Predicate(label, check)


# -- primitive predicate factories -------------------------------------------------


def min_references(count: int) -> Predicate:
    """|R| >= count."""

    def check(ctx: ValidationContext, transaction: Transaction) -> None:
        if len(transaction.references) < count:
            raise ValidationError(f"requires at least {count} reference(s)")

    return Predicate(f"min_references({count})", check)


def references_committed_operation(operation: str, exactly: int = 1) -> Predicate:
    """Exactly ``exactly`` references resolve to committed ``operation`` txs."""

    def check(ctx: ValidationContext, transaction: Transaction) -> None:
        found = 0
        for reference in transaction.references:
            payload = ctx.get_tx(reference)
            if payload is not None and payload.get("operation") == operation:
                found += 1
        if found != exactly:
            raise ValidationError(
                f"expected exactly {exactly} committed {operation} reference(s), found {found}"
            )

    return Predicate(f"references({operation}x{exactly})", check)


def signatures_valid() -> Predicate:
    """Every input fulfillment carries a valid owner signature."""
    return Predicate(
        "signatures", lambda ctx, transaction: verify_own_signatures(transaction)
    )


def id_integral() -> Predicate:
    """The transaction id equals its body hash."""

    def check(ctx: ValidationContext, transaction: Transaction) -> None:
        if not transaction.verify_id():
            raise ValidationError("transaction id does not match body hash")

    return Predicate("id-integrity", check)


def genesis_inputs() -> Predicate:
    """Inputs spend nothing (CREATE/REQUEST-style)."""
    return Predicate(
        "genesis-inputs", lambda ctx, transaction: verify_genesis_inputs(transaction)
    )


def unique_per_reference(operation: str) -> Predicate:
    """At most one committed ``operation`` tx may reference each target —
    e.g. one INTEREST per (supplier, REQUEST)."""

    def check(ctx: ValidationContext, transaction: Transaction) -> None:
        signer = transaction.inputs[0].owners_before[0] if transaction.inputs else None
        for reference in transaction.references:
            existing = ctx._database.collection("transactions").find(
                {"operation": operation, "references": reference}, copy=False
            )
            for payload in existing:
                if payload.get("id") == transaction.tx_id:
                    continue
                if ctx.signer_of(payload) == signer:
                    raise ValidationError(
                        f"{operation} by this account already references "
                        f"{reference[:8]}..."
                    )

    return Predicate(f"unique({operation})", check)


# -- declarative type assembly -------------------------------------------------------


@dataclass(frozen=True)
class DeclarativeType:
    """A transaction type defined purely by a predicate expression.

    Plugs into :class:`~repro.core.validation.TransactionValidator` via
    ``register`` — the same registry the built-in validators use.
    """

    operation: str
    conditions: Predicate

    def validate(self, ctx: ValidationContext, transaction: Transaction) -> None:
        """Evaluate the composed condition expression."""
        self.conditions(ctx, transaction)


def declarative_type(operation: str, conditions: Sequence[Predicate]) -> DeclarativeType:
    """Build a :class:`DeclarativeType` from a list of conditions (ANDed)."""
    return DeclarativeType(
        operation=operation,
        conditions=all_of(*conditions, label=f"C_{operation}"),
    )
