"""Shared validation machinery: transfer-input rules.

Every spending type (TRANSFER, BID, ACCEPT_BID, RETURN) ends with
``validateTransferInputs`` (Algorithm 2 line 12, Algorithm 3 line 13):
inputs must spend committed, unspent outputs of the right asset, with
authorising signatures, and amounts must balance.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import (
    AmountError,
    InputDoesNotExistError,
    ValidationError,
)
from repro.core.context import ValidationContext
from repro.core.transaction import Transaction
from repro.crypto.conditions import Condition


def spent_output(
    ctx: ValidationContext, transaction: Transaction, index: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Resolve what an input spends: ``(prior transaction, spent output)``.

    The prior transaction's payload is read once, here; the rules that
    need more of it than the output (asset lineage) take it from the
    return value instead of asking the ledger again.

    Raises:
        InputDoesNotExistError: if the prior transaction or output index
            does not exist.
        ValidationError: if the input spends nothing (genesis-style input
            on a spending operation).
    """
    item = transaction.inputs[index]
    if item.fulfills is None:
        raise ValidationError(
            f"{transaction.operation} input {index} must spend an output", "transfer.fulfills"
        )
    prior = ctx.require_committed(item.fulfills.transaction_id, "spent")
    outputs = prior.get("outputs") or []
    if item.fulfills.output_index >= len(outputs):
        raise InputDoesNotExistError(
            f"transaction {item.fulfills.transaction_id[:8]} has no output "
            f"{item.fulfills.output_index}"
        )
    return prior, outputs[item.fulfills.output_index]


def validate_transfer_inputs(
    ctx: ValidationContext,
    transaction: Transaction,
    check_conditions: bool = True,
    check_asset_lineage: bool = True,
    check_balance: bool = True,
) -> int:
    """Run the transfer-input rule set; returns the total spent amount.

    Args:
        check_conditions: verify each spent output's crypto-condition
            against the input's fulfillment.  ACCEPT_BID disables this —
            escrow-held outputs are spendable by protocol rule when the
            type's own conditions hold (declarative authorisation).
        check_asset_lineage: require every spent output to belong to the
            transaction's ``asset.id`` lineage.
        check_balance: require spent amount == produced amount.

    Raises:
        InputDoesNotExistError / DoubleSpendError / ValidationError /
        AmountError per the violated rule.
    """
    message = transaction.signing_payload()
    asset_id = transaction.asset.get("id")
    total_spent = 0
    seen_refs: set[tuple[str, int]] = set()
    for index, item in enumerate(transaction.inputs):
        prior, output = spent_output(ctx, transaction, index)
        ref = item.fulfills
        assert ref is not None  # guarded by spent_output
        key = (ref.transaction_id, ref.output_index)
        if key in seen_refs:
            raise ValidationError(
                f"input {index} repeats spend of {ref.transaction_id[:8]}:{ref.output_index}",
                "transfer.duplicate-input",
            )
        seen_refs.add(key)
        ctx.require_unspent(ref)

        if check_asset_lineage and asset_id is not None:
            lineage = ctx.asset_lineage_id(prior)
            if lineage != asset_id and ref.transaction_id != asset_id:
                raise ValidationError(
                    f"input {index} spends asset {str(lineage)[:8]} but transaction "
                    f"declares asset {asset_id[:8]}",
                    "transfer.asset-lineage",
                )

        if check_conditions:
            condition = Condition.from_dict(output["condition"])
            if not item.fulfillment.satisfies(condition, message):
                raise ValidationError(
                    f"input {index} fulfillment does not satisfy the spent output's condition",
                    "transfer.condition",
                )
        total_spent += int(output["amount"])

    produced = sum(output.amount for output in transaction.outputs)
    if any(output.amount < 1 for output in transaction.outputs):
        raise AmountError("every output amount must be >= 1")
    if check_balance and total_spent != produced:
        raise AmountError(
            f"spent amount {total_spent} != produced amount {produced}"
        )
    return total_spent


def verify_own_signatures(transaction: Transaction) -> None:
    """CBID.5 and friends: every input carries a valid owner signature.

    Raises:
        ValidationError: if any input's fulfillment fails.
    """
    if not transaction.verify_signatures():
        raise ValidationError("input signature verification failed", "signatures")


def verify_genesis_inputs(transaction: Transaction) -> None:
    """Genesis operations must not spend anything.

    Raises:
        ValidationError: if any input has a ``fulfills`` pointer.
    """
    for index, item in enumerate(transaction.inputs):
        if item.fulfills is not None:
            raise ValidationError(
                f"{transaction.operation} input {index} must not spend an output",
                "genesis.fulfills",
            )
