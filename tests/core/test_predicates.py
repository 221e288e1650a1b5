"""The declarative condition DSL (future-work extension)."""

import pytest

from repro.common.errors import ValidationError
from repro.core.builders import build_create, build_request
from repro.core.context import ValidationContext
from repro.core.predicates import (
    Predicate,
    all_of,
    declarative_type,
    genesis_inputs,
    id_integral,
    min_references,
    references_committed_operation,
    signatures_valid,
)
from repro.core.transaction import Transaction
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage.database import make_smartchaindb_database

ALICE = keypair_from_string("alice")
SALLY = keypair_from_string("sally")


@pytest.fixture()
def ctx():
    return ValidationContext(make_smartchaindb_database(), ReservedAccounts())


@pytest.fixture()
def signed_create() -> Transaction:
    return build_create(ALICE, {"name": "w"}).sign([ALICE])


def always_fails(label="boom"):
    def check(ctx, transaction):
        raise ValidationError("nope")

    return Predicate(label, check)


def always_passes(label="ok"):
    return Predicate(label, lambda ctx, transaction: None)


class TestCombinators:
    def test_all_of_passes_when_all_pass(self, ctx, signed_create):
        all_of(always_passes(), always_passes())(ctx, signed_create)

    def test_all_of_fails_on_first_failure(self, ctx, signed_create):
        with pytest.raises(ValidationError):
            all_of(always_passes(), always_fails())(ctx, signed_create)

    def test_failure_carries_label(self, ctx, signed_create):
        with pytest.raises(ValidationError) as info:
            always_fails("my-label")(ctx, signed_create)
        assert "my-label" in str(info.value)


class TestPrimitives:
    def test_min_references(self, ctx, signed_create):
        with pytest.raises(ValidationError):
            min_references(1)(ctx, signed_create)

    def test_id_integral(self, ctx, signed_create):
        id_integral()(ctx, signed_create)
        signed_create.metadata = {"tampered": True}
        with pytest.raises(ValidationError):
            id_integral()(ctx, signed_create)

    def test_signatures_valid(self, ctx, signed_create):
        signatures_valid()(ctx, signed_create)
        signed_create.inputs[0].fulfillment.signatures.clear()
        with pytest.raises(ValidationError):
            signatures_valid()(ctx, signed_create)

    def test_genesis_inputs(self, ctx, signed_create):
        genesis_inputs()(ctx, signed_create)

    def test_references_committed_operation(self, ctx):
        request = build_request(SALLY, ["cap"]).sign([SALLY])
        ctx._database.collection("transactions").insert_one(request.to_dict())
        probe = build_create(ALICE, {"n": 1})
        probe.references = [request.tx_id]
        probe.sign([ALICE])
        references_committed_operation("REQUEST")(ctx, probe)
        with pytest.raises(ValidationError):
            references_committed_operation("BID")(ctx, probe)


class TestDeclarativeType:
    def test_composed_type_validates(self, ctx, signed_create):
        custom = declarative_type(
            "CREATE", [id_integral(), genesis_inputs(), signatures_valid()]
        )
        custom.validate(ctx, signed_create)
        assert custom.operation == "CREATE"

    def test_composed_type_rejects(self, ctx, signed_create):
        custom = declarative_type("CREATE", [min_references(2)])
        with pytest.raises(ValidationError):
            custom.validate(ctx, signed_create)

    def test_plugs_into_validator_registry(self, ctx, signed_create):
        from repro.core.validation import TransactionValidator

        validator = TransactionValidator()
        # Replace the CREATE validator with a DSL-composed equivalent.
        validator.register(
            declarative_type("CREATE", [id_integral(), genesis_inputs(), signatures_valid()])
        )
        validator.validate_semantics(ctx, signed_create.to_dict())
