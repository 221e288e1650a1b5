"""Group-controlled assets: threshold (multi-signature) conditions.

The formal model's multi-signature strings ``ms_{i,j,k}`` — "an asset is
controlled by a group of entities who must sign transactions on the
asset" (Section 3.1).  These tests drive a 2-of-3 asset through the full
validation stack.
"""

import pytest

from repro.common.errors import SchemaValidationError, ValidationError
from repro.core.context import ValidationContext
from repro.core.transaction import Input, Output, OutputRef, Transaction
from repro.core.validation import TransactionValidator
from repro.crypto.conditions import Condition
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage.database import make_smartchaindb_database

BOARD = [keypair_from_string(f"board-member-{index}") for index in range(3)]
BUYER = keypair_from_string("buyer")


@pytest.fixture()
def ledger():
    database = make_smartchaindb_database()
    ctx = ValidationContext(database, ReservedAccounts())
    validator = TransactionValidator()

    def commit(transaction):
        database.collection("transactions").insert_one(transaction.to_dict())
        return transaction

    return ctx, validator, commit


def group_create() -> Transaction:
    """CREATE whose single output needs 2-of-3 board signatures to spend."""
    condition = Condition.for_group([member.public_key for member in BOARD], threshold=2)
    transaction = Transaction(
        operation="CREATE",
        asset={"data": {"name": "corporate-treasury-asset"}},
        inputs=[Input(owners_before=[BOARD[0].public_key], fulfills=None)],
        outputs=[
            Output(
                condition=condition,
                amount=1,
                public_keys=[member.public_key for member in BOARD],
            )
        ],
        metadata=None,
    )
    return transaction.sign([BOARD[0]])


def group_spend(create: Transaction, signers: list) -> Transaction:
    """TRANSFER of the group asset to the buyer, signed by ``signers``."""
    transaction = Transaction(
        operation="TRANSFER",
        asset={"id": create.tx_id},
        inputs=[
            Input(
                owners_before=[keypair.public_key for keypair in signers],
                fulfills=OutputRef(create.tx_id, 0),
            )
        ],
        outputs=[Output.for_owner(BUYER.public_key, 1)],
        metadata=None,
    )
    return transaction.sign(list(signers))


class TestGroupAssets:
    def test_group_create_validates(self, ledger):
        ctx, validator, commit = ledger
        create = group_create()
        validator.validate(ctx, create.to_dict())
        assert create.outputs[0].condition.type_name == "threshold-sha-256"

    def test_two_of_three_spend_accepted(self, ledger):
        ctx, validator, commit = ledger
        create = commit(group_create())
        spend = group_spend(create, [BOARD[0], BOARD[2]])
        validator.validate(ctx, spend.to_dict())

    def test_all_three_spend_accepted(self, ledger):
        ctx, validator, commit = ledger
        create = commit(group_create())
        spend = group_spend(create, list(BOARD))
        validator.validate(ctx, spend.to_dict())

    def test_single_signer_rejected(self, ledger):
        ctx, validator, commit = ledger
        create = commit(group_create())
        spend = group_spend(create, [BOARD[1]])
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, spend.to_dict())

    def test_outsider_signatures_do_not_count(self, ledger):
        ctx, validator, commit = ledger
        create = commit(group_create())
        outsiders = [keypair_from_string("mallory-1"), keypair_from_string("mallory-2")]
        transaction = Transaction(
            operation="TRANSFER",
            asset={"id": create.tx_id},
            inputs=[
                Input(
                    owners_before=[keypair.public_key for keypair in outsiders],
                    fulfills=OutputRef(create.tx_id, 0),
                )
            ],
            outputs=[Output.for_owner(BUYER.public_key, 1)],
            metadata=None,
        )
        transaction.sign(outsiders)
        with pytest.raises(ValidationError):
            validator.validate_semantics(ctx, transaction.to_dict())

    def test_an_output_whose_threshold_exceeds_its_distinct_keys_is_rejected_at_parse(self, ledger):
        """``(A, A)`` at threshold 2 promised two signers and took one."""
        ctx, validator, commit = ledger
        create = group_create()
        twice = [BOARD[0].public_key] * 2
        condition = create.outputs[0].condition
        object.__setattr__(condition, "public_keys", tuple(twice))  # past __post_init__
        create.outputs[0].public_keys = list(twice)
        payload = create.sign([BOARD[0]]).to_dict()
        assert payload["outputs"][0]["condition"] == {
            "type": "threshold-sha-256", "public_keys": twice, "threshold": 2,
        }
        with pytest.raises(SchemaValidationError) as raised:
            validator.validate(ctx, payload)
        assert raised.value.path == "condition.threshold"

    def test_a_key_listed_twice_cannot_meet_the_threshold_alone(self, ledger):
        ctx, validator, commit = ledger
        create = group_create()
        listed = [BOARD[0].public_key, BOARD[0].public_key, BOARD[1].public_key]
        create.outputs[0] = Output(
            condition=Condition.for_group(listed, threshold=2), amount=1, public_keys=listed
        )
        create = commit(create.sign([BOARD[0]]))
        validator.validate(ctx, create.to_dict())
        with pytest.raises(ValidationError) as raised:
            validator.validate(ctx, group_spend(create, [BOARD[0]]).to_dict())
        assert "condition" in str(raised.value)
        validator.validate(ctx, group_spend(create, [BOARD[0], BOARD[1]]).to_dict())

    def test_owners_before_repeating_a_key_keeps_verifying(self, ledger):
        ctx, validator, commit = ledger
        create = group_create()
        create.inputs[0].owners_before = [BOARD[0].public_key] * 2
        create.sign([BOARD[0]])
        assert create.verify_signatures()
        validator.validate(ctx, create.to_dict())

    def test_group_asset_end_to_end_on_cluster(self):
        from repro.core.cluster import ClusterConfig, SmartchainCluster

        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=61))
        create = group_create()
        record = cluster.submit_and_settle(create)
        assert record.committed_at is not None
        spend = group_spend(create, [BOARD[0], BOARD[1]])
        record = cluster.submit_and_settle(spend)
        assert record.committed_at is not None
        server = cluster.any_server()
        assert len(server.outputs_for(BUYER.public_key)) == 1
