"""Soundness of the process-wide admission memo.

The memo lets every replica of a process skip the schema walk, the parse
and the id / signature checks of a payload object some replica already
admitted.  These tests pin what that must never change: a verdict is
vouched for one exact object, nothing unverified gets in, eviction is
harmless, and everything that reads a ledger still runs per replica.
"""

import pytest

from repro.common.encoding import canonical_bytes, deep_copy_json
from repro.common.errors import SchemaValidationError, ValidationError
from repro.consensus.abci import envelope_for
from repro.consensus.tendermint import tendermint_config
from repro.core.builders import build_create
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.context import ValidationContext
from repro.core.extensions import build_interest, build_pre_request
from repro.core.transaction import Transaction
from repro.core.validation import (
    AdmissionMemo,
    TransactionValidator,
    encoded_payload,
    kept_payload,
    set_shared_memo,
    shared_memo,
)
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.storage.database import make_smartchaindb_database

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")


@pytest.fixture(autouse=True)
def memo():
    """Every test gets its own empty process-wide memo."""
    fresh = AdmissionMemo()
    previous = set_shared_memo(fresh)
    yield fresh
    set_shared_memo(previous)


@pytest.fixture()
def ledger():
    database = make_smartchaindb_database()
    return ValidationContext(database, ReservedAccounts()), TransactionValidator()


def create_payload(name="widget", owner=ALICE):
    return build_create(owner, {"name": name}).sign([owner]).to_dict()


def small_cluster(**overrides) -> SmartchainCluster:
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=11,
            consensus=tendermint_config(max_block_txs=8, propose_timeout=0.5),
            **overrides,
        )
    )


def envelope(payload):
    return envelope_for(payload, payload["id"], len(canonical_bytes(payload)))


def forge(payload):
    """A different body under the genuine payload's id."""
    forged = deep_copy_json(payload)
    forged["metadata"] = {"note": "forged"}
    return forged


def broken_signature(payload):
    """Valid shape, id recomputed over a body whose signature is wrong."""
    transaction = Transaction.from_dict(payload)
    signatures = transaction.inputs[0].fulfillment.signatures
    owner, signature = next(iter(signatures.items()))
    signatures[owner] = ("2" if signature[0] != "2" else "3") + signature[1:]
    transaction.invalidate_caches()
    transaction.tx_id = transaction.compute_id()
    return transaction.to_dict()


# -- the checks the planted mutations below must trip ---------------------------


def assert_forged_body_is_rejected_on_every_route(memo):
    cluster = small_cluster()
    server = cluster.any_server()
    validator = server.validator
    genuine = create_payload("genuine")
    validator.validate(server.context, genuine)
    assert memo.lookup(genuine) is not None
    forged = forge(genuine)
    assert forged["id"] == genuine["id"]
    with pytest.raises(ValidationError, match="does not match body hash"):
        validator.validate(server.context, forged)
    with pytest.raises(ValidationError, match="does not match body hash"):
        validator.validate_semantics(server.context, forged)
    assert validator.check_tx(forged) is False
    assert validator.check_block([genuine, forged]) == [True, False]
    assert server.check_tx(envelope(forged)) is False
    assert server.check_block([envelope(genuine), envelope(forged)]) == [True, False]
    for replica in cluster.servers.values():
        assert replica.deliver_tx(envelope(forged)) is False
    # The forgery neither entered the memo nor displaced the genuine entry.
    assert memo.lookup(forged) is None
    assert memo.lookup(genuine).payload is genuine


def assert_bad_signature_is_never_recorded(memo):
    ctx, validator = (
        ValidationContext(make_smartchaindb_database(), ReservedAccounts()),
        TransactionValidator(),
    )
    bad = broken_signature(create_payload("unsigned"))
    assert Transaction.from_dict(bad).verify_id()
    with pytest.raises(ValidationError, match="signature"):
        validator.validate(ctx, bad)
    assert validator.check_tx(bad) is False
    assert validator.check_block([bad, create_payload("fine")]) == [False, True]
    assert memo.lookup(bad) is None
    assert len(memo) == 1  # only the valid batchmate


# -- identity guard -----------------------------------------------------------------


class TestIdentityGuard:
    def test_equal_content_in_a_different_object_misses(self, memo, ledger):
        ctx, validator = ledger
        payload = create_payload()
        validator.validate(ctx, payload)
        probe = validator.verification_cache
        assert (probe.hits, probe.misses) == (0, 1)
        assert validator.check_tx(payload)
        assert (probe.hits, probe.misses) == (1, 1)
        twin = deep_copy_json(payload)
        assert twin == payload and memo.lookup(twin) is None
        assert validator.check_tx(twin)  # verified on its own merits
        assert (probe.hits, probe.misses) == (1, 2)
        # One entry per id: the twin took the slot, the original re-verifies.
        assert memo.lookup(twin) is not None and memo.lookup(payload) is None
        assert validator.check_tx(payload)

    def test_forged_body_under_a_cached_id_is_rejected_on_every_route(self, memo):
        assert_forged_body_is_rejected_on_every_route(memo)

    def test_a_hit_hands_out_the_one_sealed_parse(self, memo, ledger):
        ctx, validator = ledger
        assert shared_memo() is memo
        payload = create_payload()
        first = validator.validate(ctx, payload)
        assert first.sealed
        assert validator.validate_semantics(ctx, payload) is first
        assert TransactionValidator().validate_semantics(ctx, payload) is first


# -- nothing unverified gets in -----------------------------------------------------


def _missing_field(payload):
    del payload["outputs"]
    return payload


def _wrong_id(payload):
    payload["id"] = "0" * 64
    return payload


def _unknown_operation(payload):
    payload["operation"] = "MINT"
    return payload


class TestOnlyVerifiedPayloadsAreRecorded:
    @pytest.mark.parametrize(
        "spoil", [_missing_field, _wrong_id, _unknown_operation, broken_signature]
    )
    def test_a_failed_stateless_check_records_nothing(self, memo, ledger, spoil):
        ctx, validator = ledger
        for route in ("validate", "validate_semantics", "check_tx", "check_block"):
            payload = spoil(create_payload(route))
            if route == "check_tx":
                assert validator.check_tx(payload) is False
            elif route == "check_block":
                assert validator.check_block([payload]) == [False]
            else:
                with pytest.raises((ValidationError, SchemaValidationError)):
                    getattr(validator, route)(ctx, payload)
            assert len(memo) == 0, route

    def test_bad_signature_is_never_recorded(self, memo):
        assert_bad_signature_is_never_recorded(memo)

    def test_semantic_phase_alone_does_not_admit(self, memo, ledger):
        """``validate_semantics`` skips Algorithm 1, so what it verified
        is not the whole stateless half and must not be vouched for."""
        ctx, validator = ledger
        payload = create_payload()
        assert validator.validate_semantics(ctx, payload).verify_id()
        assert len(memo) == 0

    def test_a_stateful_rejection_keeps_the_stateless_admission(self, memo, ledger):
        """Statelessly sound but spending a missing output: admitted once,
        rejected by every ledger that lacks the input."""
        ctx, validator = ledger
        cluster = small_cluster()
        create = cluster.driver.prepare_create(ALICE, {"name": "elsewhere"})
        transfer = cluster.driver.prepare_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).to_dict()
        for _ in range(2):
            with pytest.raises(ValidationError, match="not committed"):
                validator.validate(ctx, transfer)
        assert memo.lookup(transfer) is not None
        assert validator.verification_cache.hits == 1

    def test_record_refuses_an_unsealed_parse(self, memo):
        payload = create_payload()
        with pytest.raises(ValueError):
            memo.record(payload, Transaction.from_dict(payload))


# -- bound ------------------------------------------------------------------------


class TestBound:
    def test_entry_cap_holds_under_churn_and_eviction_keeps_verdicts(self, ledger):
        ctx, validator = ledger
        memo = AdmissionMemo(max_entries=8)
        set_shared_memo(memo)
        good = [create_payload(f"asset-{index}") for index in range(40)]
        bad = broken_signature(create_payload("bad"))
        for payload in good:
            validator.validate(ctx, payload)
            assert validator.check_tx(bad) is False
            assert len(memo) <= 8
        assert len(memo) == 8
        assert memo.lookup(good[0]) is None and memo.lookup(good[-1]) is not None
        misses = validator.verification_cache.misses
        assert validator.check_tx(good[0]) is True  # evicted: verified again
        assert validator.verification_cache.misses == misses + 1
        assert memo.lookup(good[0]) is not None and len(memo) == 8

    def test_byte_cap_counts_the_bytes_kept_with_admissions(self, ledger):
        ctx, validator = ledger
        payloads = [create_payload(f"asset-{index}") for index in range(6)]
        size = len(canonical_bytes(payloads[0]))
        memo = AdmissionMemo(max_entries=100, max_bytes=3 * size + size // 2)
        set_shared_memo(memo)
        for payload in payloads:
            validator.validate(ctx, payload)  # no bytes yet: nothing to count
        assert len(memo) == 6
        for payload in payloads[:4]:
            memo.keep_encoded(payload, canonical_bytes(payload))
        # The fourth set of bytes went over the cap: least recently used
        # entries go, byteless ones included, until it holds again.
        assert [memo.lookup(payload) is not None for payload in payloads] == [
            False, True, True, True, False, False
        ]  # fmt: skip
        kept = memo.lookup(payloads[3]).encoded
        assert kept == canonical_bytes(payloads[3])
        assert kept_payload(payloads[3]) is kept is encoded_payload(payloads[3])
        # Not admitted: left alone, and encoded for the caller when asked.
        memo.keep_encoded(payloads[0], canonical_bytes(payloads[0]))
        assert memo.lookup(payloads[0]) is None and len(memo) == 3
        assert kept_payload(payloads[0]) is None
        assert encoded_payload(payloads[0]) == canonical_bytes(payloads[0])
        # Admitted without bytes: the same.
        validator.validate(ctx, payloads[5])
        assert kept_payload(payloads[5]) is None
        assert encoded_payload(payloads[5]) == canonical_bytes(payloads[5])


# -- state-dependent checks still run on every replica ----------------------------


def committed_ids_by_height(cluster, node_id):
    blocks = cluster.servers[node_id].database.collection("blocks")
    return {
        block["height"]: block["transaction_ids"] for block in blocks.find({}, copy=False)
    }


class TestReplicasStillJudgeTheirOwnState:
    def test_each_replica_rejects_a_double_spend_at_deliver(self, memo):
        cluster = small_cluster()
        create = cluster.driver.prepare_create(ALICE, {"name": "contended"})
        cluster.submit_and_settle(create)
        first, rival = (
            cluster.driver.prepare_transfer(
                ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(to.public_key, 1)]
            ).to_dict()
            for to in (BOB, SALLY)
        )
        cluster.submit_and_settle(first)
        # The rival is statelessly sound and admitted process-wide ...
        assert cluster.any_server().validator.check_tx(rival)
        assert memo.lookup(rival) is not None
        # ... and still every replica's own ledger refuses it.
        for server in cluster.servers.values():
            hits = server.validator.verification_cache.hits
            assert server.deliver_tx(envelope(rival)) is False
            assert server.validator.verification_cache.hits == hits + 1

    def test_staged_spends_are_per_replica(self, memo):
        cluster = small_cluster()
        create = cluster.driver.prepare_create(ALICE, {"name": "staged"})
        cluster.submit_and_settle(create)
        first, rival = (
            envelope(
                cluster.driver.prepare_transfer(
                    ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(to.public_key, 1)]
                ).to_dict()
            )
            for to in (BOB, SALLY)
        )
        one, other = list(cluster.servers.values())[:2]
        assert one.deliver_tx(first) is True
        assert one.deliver_tx(rival) is False  # staged on this replica
        assert other.deliver_tx(rival) is True  # not on that one
        assert other.deliver_tx(first) is False

    def test_a_replica_that_missed_gossip_reaches_its_peers_verdicts(self, memo):
        cluster = small_cluster()
        nodes = cluster.engine.validator_order
        laggard = nodes[-1]
        create = cluster.driver.prepare_create(ALICE, {"name": "raced"})
        cluster.submit_and_settle(create)
        cluster.failures.crash_now(laggard)
        # Two rival spends admitted by different receivers at once: both
        # reach a block, DeliverTx keeps one.
        rivals = [
            cluster.driver.prepare_transfer(
                ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(to.public_key, 1)]
            ).to_dict()
            for to in (BOB, SALLY)
        ]
        for payload, receiver in zip(rivals, nodes):
            cluster.submit_payload(payload, receiver=receiver)
        for index in range(5):
            cluster.submit_payload(create_payload(f"filler-{index}"))
        cluster.run()
        peers = committed_ids_by_height(cluster, nodes[0])
        delivered = [tx_id for ids in peers.values() for tx_id in ids]
        assert len({payload["id"] for payload in rivals} & set(delivered)) == 1
        assert committed_ids_by_height(cluster, laggard) != peers
        cluster.failures.recover_now(laggard)
        cluster.run()
        assert committed_ids_by_height(cluster, laggard) == peers
        for node_id in nodes:
            transactions = cluster.servers[node_id].database.collection("transactions")
            assert sorted(doc["id"] for doc in transactions.find({}, copy=False)) == sorted(
                delivered
            )


# -- the shared parse and the shared payload are read-only -------------------------


class TestSharedObjectsAreNeverWritten:
    def test_a_sealed_transaction_rejects_every_write(self, ledger):
        ctx, validator = ledger
        sealed = validator.validate(ctx, create_payload())
        assert sealed.sealed and sealed.verify_id() and sealed.verify_signatures()
        with pytest.raises(AttributeError):
            sealed.metadata = {"x": 1}
        with pytest.raises(AttributeError):
            sealed.tx_id = "0" * 64
        with pytest.raises(AttributeError):
            sealed.invalidate_caches()
        with pytest.raises(AttributeError):
            sealed.sign([ALICE])
        assert sealed.seal() is True

    def test_every_type_validator_runs_against_the_sealed_parse(self, memo):
        """All six operations plus the marketplace extensions, through a
        real cluster: any write to the shared parse raises AttributeError
        and takes the event loop down with it."""
        cluster = small_cluster(enable_extensions=True)
        seen: dict[str, set[bool]] = {}

        class Spy:
            def __init__(self, inner):
                self.operation, self.inner = inner.operation, inner

            def validate(self, ctx, transaction):
                seen.setdefault(transaction.operation, set()).add(transaction.sealed)
                self.inner.validate(ctx, transaction)

        for server in cluster.servers.values():
            for type_validator in list(server.validator._validators.values()):
                server.validator.register(Spy(type_validator))
        driver = cluster.driver
        creates = [driver.prepare_create(owner, {"capabilities": ["cap"]}) for owner in (ALICE, BOB)]
        spare = driver.prepare_create(ALICE, {"name": "spare"})
        request = driver.prepare_request(SALLY, ["cap"])
        for transaction in (*creates, spare, request):
            cluster.submit_payload(transaction.to_dict())
        cluster.run()
        bids = [
            driver.prepare_bid(owner, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
            for owner, create in zip((ALICE, BOB), creates)
        ]
        followers = [
            driver.prepare_transfer(
                ALICE, [(spare.tx_id, 0, 1)], spare.tx_id, [(BOB.public_key, 1)]
            ),
            build_interest(BOB, request.tx_id).sign([BOB]),
            build_pre_request(SALLY, ["cap"]).sign([SALLY]),
        ]
        for transaction in (*bids, *followers):
            cluster.submit_payload(transaction.to_dict())
        cluster.run()
        cluster.submit_payload(driver.prepare_accept_bid(SALLY, request.tx_id, bids[0]).to_dict())
        cluster.run()
        assert seen == {
            operation: {True}
            for operation in (
                "CREATE", "TRANSFER", "REQUEST", "BID", "ACCEPT_BID", "RETURN",
                "INTEREST", "PRE_REQUEST",
            )
        }
        rejected = [r for r in cluster.records.values() if r.rejected is not None]
        assert rejected == [] and len(cluster.committed_records()) == 11

    def test_one_replicas_updates_and_deletes_leave_the_shared_payload_alone(self, memo):
        cluster = small_cluster()
        payload = create_payload("shared")
        snapshot = deep_copy_json(payload)
        cluster.submit_payload(payload)
        cluster.run()
        stored = [
            server.database.collection("transactions").find_one({"id": payload["id"]}, copy=False)
            for server in cluster.servers.values()
        ]
        frozen = stored[0]
        assert frozen is not payload  # the submit boundary copied it once ...
        assert all(document is frozen for document in stored)  # ... and nobody since
        assert memo.lookup(frozen).payload is frozen
        first, second, *rest = cluster.servers.values()
        first.database.collection("transactions").update_many(
            {"id": payload["id"]}, {"$set": {"metadata": {"reviewed": True}}}
        )
        first.database.collection("transactions").update_many(
            {"id": payload["id"]}, lambda document: {**document, "asset": {"data": {}}}
        )
        second.database.collection("transactions").delete_many({"id": payload["id"]})
        assert first.get_transaction(payload["id"])["metadata"] == {"reviewed": True}
        assert first.get_transaction(payload["id"])["asset"] == {"data": {}}
        assert second.get_transaction(payload["id"]) is None
        assert frozen == snapshot
        for server in rest:
            transactions = server.database.collection("transactions")
            assert transactions.find_one({"id": payload["id"]}, copy=False) is frozen
        assert memo.lookup(frozen).payload == snapshot


# -- planted mutations: the checks above must notice -------------------------------


class TestPlantedMutations:
    def test_dropping_the_identity_guard_is_caught(self, memo, monkeypatch):
        def lookup_without_guard(self, payload):
            return self._entries.get(payload.get("id"))

        monkeypatch.setattr(AdmissionMemo, "lookup", lookup_without_guard)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            assert_forged_body_is_rejected_on_every_route(memo)

    def test_recording_before_the_signature_check_is_caught(self, memo, monkeypatch):
        def seal_without_signatures(self):
            if self.verify_id():
                object.__setattr__(self, "_sealed", True)
            return self._sealed

        monkeypatch.setattr(Transaction, "seal", seal_without_signatures)
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            assert_bad_signature_is_never_recorded(memo)

