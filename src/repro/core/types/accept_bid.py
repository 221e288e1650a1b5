"""ACCEPT_BID type: ``tau_ACCEPT_BID`` (Definition 4, Algorithm 3).

The nested transaction: its commit triggers children (the winning-bid
transfer embodied in its own outputs, plus RETURNs for every losing bid)
under non-locking, eventually-commit semantics.  Validation here is the
parent-side part of Algorithm 3 (lines 1-13); child determination lives
in :mod:`repro.core.nested`.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import (
    DuplicateTransactionError,
    InputDoesNotExistError,
    ValidationError,
)
from repro.core.context import ValidationContext
from repro.core.transaction import REQUEST, Transaction
from repro.core.types.common import validate_transfer_inputs, verify_own_signatures


class AcceptBidValidator:
    """The nine C_ACCEPT_BID conditions, sequenced as in Algorithm 3."""

    operation = "ACCEPT_BID"

    def validate(self, ctx: ValidationContext, transaction: Transaction) -> None:
        """``validateTACCEPT_BID``: raise on the first violated condition."""
        rfq_id, win_bid_id = self.extract_ids(transaction)
        # Lines 1-2: fetch RFQ and winning bid; lines 4-5: both committed.
        request_payload = self.check_committed(ctx, rfq_id, "REQUEST")
        win_payload = self.check_committed(ctx, win_bid_id, "winning BID")
        self.check_c2_c3(ctx, transaction)
        self.check_c5(transaction)
        # Line 6-7: signer(ACCEPT_BID) == signer(RFQ).
        self.check_signer(ctx, transaction, request_payload)
        # Lines 8-10: no duplicate ACCEPT for this RFQ.
        self.check_duplicate(ctx, transaction, rfq_id)
        # Lines 11-12: the winning bid is escrow-held (locked) for the RFQ.
        self.check_c7_locked(ctx, rfq_id, win_payload)
        # Line 13 + C9: transfer-input rules; output goes to the requester.
        validate_transfer_inputs(
            ctx,
            transaction,
            check_conditions=False,  # escrow outputs are spent by protocol rule
            check_asset_lineage=False,
            check_balance=True,
        )
        self.check_c9(ctx, transaction, request_payload)

    # -- extraction ------------------------------------------------------------

    def extract_ids(self, transaction: Transaction) -> tuple[str, str]:
        """Pull (rfq_id, win_bid_id) from metadata/references/asset.

        Raises:
            ValidationError: if either id is missing.
        """
        metadata = transaction.metadata or {}
        rfq_id = metadata.get("rfq_id")
        if rfq_id is None and transaction.references:
            rfq_id = transaction.references[0]
        win_bid_id = metadata.get("win_bid_id") or transaction.asset.get("id")
        if not rfq_id or not win_bid_id:
            raise ValidationError(
                "ACCEPT_BID must identify its RFQ and winning bid", "CACCEPT_BID"
            )
        return rfq_id, win_bid_id

    # -- conditions --------------------------------------------------------------

    def check_committed(self, ctx: ValidationContext, tx_id: str, what: str) -> dict[str, Any]:
        """Algorithm 3 lines 4-5.

        Raises:
            InputDoesNotExistError: if not committed.
        """
        payload = ctx.get_tx(tx_id)
        if payload is None:
            raise InputDoesNotExistError(f"{what} {tx_id[:8]}... is not committed")
        return payload

    def check_c2_c3(self, ctx: ValidationContext, transaction: Transaction) -> None:
        """CACCEPT_BID.2-3: exactly one reference, and it is a REQUEST."""
        if len(transaction.references) != 1:
            raise ValidationError(
                "ACCEPT_BID reference vector must contain exactly one element",
                "CACCEPT_BID.2",
            )
        payload = ctx.get_tx(transaction.references[0])
        if payload is None or payload.get("operation") != REQUEST:
            raise ValidationError(
                "ACCEPT_BID must reference a committed REQUEST", "CACCEPT_BID.3"
            )

    def check_c5(self, transaction: Transaction) -> None:
        """CACCEPT_BID.5: every input signature verifies."""
        verify_own_signatures(transaction)

    def check_signer(
        self,
        ctx: ValidationContext,
        transaction: Transaction,
        request_payload: dict[str, Any],
    ) -> None:
        """Algorithm 3 line 6: only the requester may accept a bid."""
        owners = transaction.inputs[0].owners_before if transaction.inputs else []
        accept_signer = owners[0] if owners else None
        request_signer = ctx.signer_of(request_payload)
        if accept_signer is None or accept_signer != request_signer:
            raise ValidationError(
                "ACCEPT_BID signer differs from REQUEST signer", "CACCEPT_BID.signer"
            )

    def check_duplicate(
        self, ctx: ValidationContext, transaction: Transaction, rfq_id: str
    ) -> None:
        """Algorithm 3 lines 8-10: one ACCEPT_BID per RFQ, ever.

        Raises:
            DuplicateTransactionError: if another accept exists.
        """
        existing = ctx.accept_for_request(rfq_id)
        if existing is not None and existing.get("id") != transaction.tx_id:
            raise DuplicateTransactionError(
                f"RFQ {rfq_id[:8]}... already has ACCEPT_BID {existing['id'][:8]}..."
            )

    def check_c7_locked(
        self,
        ctx: ValidationContext,
        rfq_id: str,
        win_payload: dict[str, Any],
    ) -> None:
        """CACCEPT_BID.7 / Algorithm 3 lines 11-12: the winning bid's
        escrow output must be among the locked (escrow-held, unspent)
        bids for this RFQ."""
        if win_payload.get("operation") != "BID":
            raise ValidationError("winning transaction is not a BID", "CACCEPT_BID.7")
        if rfq_id not in (win_payload.get("references") or []):
            raise ValidationError(
                "winning BID does not reference this RFQ", "CACCEPT_BID.7"
            )
        outputs = win_payload.get("outputs") or []
        if not outputs:
            raise ValidationError("winning BID has no outputs", "CACCEPT_BID.7")
        for public_key in outputs[0].get("public_keys", []):
            if not ctx.reserved.is_reserved(public_key):
                raise ValidationError(
                    "winning BID output is not escrow-held", "CACCEPT_BID.7"
                )

    def check_c9(
        self,
        ctx: ValidationContext,
        transaction: Transaction,
        request_payload: dict[str, Any],
    ) -> None:
        """CACCEPT_BID.9: exactly one output transfers to the requester."""
        requester = ctx.signer_of(request_payload)
        to_requester = [
            output
            for output in transaction.outputs
            if requester in output.public_keys
        ]
        if len(to_requester) != 1:
            raise ValidationError(
                f"ACCEPT_BID must have exactly one output to the requester, found "
                f"{len(to_requester)}",
                "CACCEPT_BID.9",
            )
