"""CREATE / TRANSFER / REQUEST semantic validation, incl. double spends."""

import pytest

from repro.common.errors import (
    AmountError,
    DoubleSpendError,
    InputDoesNotExistError,
    ValidationError,
)
from repro.core.builders import build_create, build_request, build_transfer
from repro.core.context import ValidationContext
from repro.core.validation import TransactionValidator
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage.database import make_smartchaindb_database

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
CAROL = keypair_from_string("carol")


@pytest.fixture()
def ledger():
    database = make_smartchaindb_database()
    ctx = ValidationContext(database, ReservedAccounts())
    validator = TransactionValidator()

    def commit(transaction):
        database.collection("transactions").insert_one(transaction.to_dict())
        return transaction

    return ctx, validator, commit


class TestCreate:
    def test_valid_create(self, ledger):
        ctx, validator, _ = ledger
        transaction = build_create(ALICE, {"name": "w"}).sign([ALICE])
        validator.validate(ctx, transaction.to_dict())

    def test_create_with_recipients_split(self, ledger):
        ctx, validator, _ = ledger
        transaction = build_create(
            ALICE, {"name": "w"}, recipients=[(BOB.public_key, 2), (CAROL.public_key, 3)]
        ).sign([ALICE])
        parsed = validator.validate(ctx, transaction.to_dict())
        assert sum(output.amount for output in parsed.outputs) == 5

    def test_create_spending_an_output_rejected(self, ledger):
        ctx, validator, commit = ledger
        base = commit(build_create(ALICE, {"name": "w"}).sign([ALICE]))
        bad = build_create(ALICE, {"name": "w2"})
        from repro.core.transaction import OutputRef

        bad.inputs[0].fulfills = OutputRef(base.tx_id, 0)
        bad.sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, bad.to_dict())

    def test_create_requires_data_document(self, ledger):
        ctx, validator, _ = ledger
        transaction = build_create(ALICE, {"ok": True}).sign([ALICE])
        transaction.asset = {"data": None}
        transaction.tx_id = transaction.compute_id()
        # Re-sign over the mutated body.
        transaction.inputs[0].fulfillment.signatures.clear()
        transaction.sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, transaction.to_dict())


class TestTransfer:
    def setup_asset(self, commit, amount=1):
        return commit(build_create(ALICE, {"name": "w"}, amount=amount).sign([ALICE]))

    def test_valid_transfer(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        transfer = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        validator.validate(ctx, transfer.to_dict())

    def test_spending_unknown_tx_rejected(self, ledger):
        ctx, validator, _ = ledger
        transfer = build_transfer(
            ALICE, [("f" * 64, 0, 1)], "f" * 64, [(BOB.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(InputDoesNotExistError):
            validator.validate_semantics(ctx, transfer.to_dict())

    def test_bad_output_index_rejected(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        transfer = build_transfer(
            ALICE, [(create.tx_id, 5, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(InputDoesNotExistError):
            validator.validate_semantics(ctx, transfer.to_dict())

    def test_double_spend_rejected(self, ledger):
        """Native double-spend protection — the paper's headline for
        native TRANSFER vs hand-rolled contract checks."""
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        first = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        commit(first)
        second = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(CAROL.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(DoubleSpendError):
            validator.validate_semantics(ctx, second.to_dict())

    def test_intra_block_double_spend_rejected(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        first = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        validator.validate_semantics(ctx, first.to_dict())
        ctx.stage(first.to_dict())
        second = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(CAROL.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(DoubleSpendError):
            validator.validate_semantics(ctx, second.to_dict())

    def test_non_owner_cannot_spend(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        theft = build_transfer(
            BOB, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([BOB])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, theft.to_dict())

    def test_amount_conservation(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit, amount=5)
        inflating = build_transfer(
            ALICE, [(create.tx_id, 0, 5)], create.tx_id, [(BOB.public_key, 7)]
        ).sign([ALICE])
        with pytest.raises(AmountError):
            validator.validate_semantics(ctx, inflating.to_dict())

    def test_split_transfer_balances(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit, amount=5)
        split = build_transfer(
            ALICE,
            [(create.tx_id, 0, 5)],
            create.tx_id,
            [(BOB.public_key, 2), (CAROL.public_key, 3)],
        ).sign([ALICE])
        validator.validate(ctx, split.to_dict())

    def test_wrong_asset_lineage_rejected(self, ledger):
        ctx, validator, commit = ledger
        create_a = commit(build_create(ALICE, {"name": "a"}).sign([ALICE]))
        create_b = commit(build_create(ALICE, {"name": "b"}).sign([ALICE]))
        crossed = build_transfer(
            ALICE, [(create_a.tx_id, 0, 1)], create_b.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, crossed.to_dict())

    def test_repeated_input_rejected(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit, amount=2)
        doubled = build_transfer(
            ALICE,
            [(create.tx_id, 0, 1), (create.tx_id, 0, 1)],
            create.tx_id,
            [(BOB.public_key, 4)],
        ).sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, doubled.to_dict())

    def test_chained_transfers(self, ledger):
        ctx, validator, commit = ledger
        create = self.setup_asset(commit)
        hop1 = commit(
            build_transfer(
                ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
            ).sign([ALICE])
        )
        hop2 = build_transfer(
            BOB, [(hop1.tx_id, 0, 1)], create.tx_id, [(CAROL.public_key, 1)]
        ).sign([BOB])
        validator.validate(ctx, hop2.to_dict())

    def test_each_spent_transaction_is_read_once(self, ledger):
        """Per input: one ``getTxFromDB`` (output, condition and asset
        lineage all come from that payload) and one spend check."""
        ctx, validator, commit = ledger
        create = commit(
            build_create(
                ALICE, {"name": "w"}, recipients=[(ALICE.public_key, 2), (ALICE.public_key, 3)]
            ).sign([ALICE])
        )
        merge = build_transfer(
            ALICE,
            [(create.tx_id, 0, 2), (create.tx_id, 1, 3)],
            create.tx_id,
            [(BOB.public_key, 5)],
        ).sign([ALICE])
        fetched = []
        get_tx = ctx.get_tx
        ctx.get_tx = lambda tx_id: fetched.append(tx_id) or get_tx(tx_id)
        transactions = ctx._database.collection("transactions")
        before = transactions.stats["queries"]
        validator.validate_semantics(ctx, merge.to_dict())
        assert fetched == [create.tx_id, create.tx_id]
        assert transactions.stats["queries"] - before == 4


class TestRequest:
    def test_valid_request(self, ledger):
        ctx, validator, _ = ledger
        request = build_request(ALICE, ["3d-print"]).sign([ALICE])
        validator.validate(ctx, request.to_dict())

    def test_empty_capabilities_rejected(self, ledger):
        ctx, validator, _ = ledger
        request = build_request(ALICE, ["x"]).sign([ALICE])
        request.asset["data"]["capabilities"] = []
        request.inputs[0].fulfillment.signatures.clear()
        request.sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, request.to_dict())

    def test_future_deadline_accepted(self, ledger):
        ctx, validator, _ = ledger
        ctx.now = 10.0
        request = build_request(ALICE, ["x"], metadata={"deadline": 100.0}).sign([ALICE])
        validator.validate_semantics(ctx, request.to_dict())

    def test_past_deadline_rejected(self, ledger):
        ctx, validator, _ = ledger
        ctx.now = 200.0
        request = build_request(ALICE, ["x"], metadata={"deadline": 100.0}).sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, request.to_dict())

    def test_non_numeric_deadline_rejected(self, ledger):
        ctx, validator, _ = ledger
        request = build_request(ALICE, ["x"], metadata={"deadline": "tomorrow"}).sign([ALICE])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, request.to_dict())
