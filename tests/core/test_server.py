"""SmartchainServer: ABCI surface, storage effects, queries."""

import pytest

from repro.consensus.abci import envelope_for
from repro.consensus.types import NIL, PREVOTE, Block
from repro.core.builders import build_create, build_request, build_transfer
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.server import ServerCostModel, SmartchainServer
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.sim.network import Message

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
SALLY = keypair_from_string("sally")


@pytest.fixture()
def server():
    return SmartchainServer("node-0", ReservedAccounts())


def envelope_of(transaction):
    payload = transaction.to_dict()
    return envelope_for(payload, payload["id"], transaction.size_bytes())


def commit_block(server, envelopes, height=1):
    delivered = [envelope for envelope in envelopes if server.deliver_tx(envelope)]
    block = Block.build(height, 0, "node-0", list(envelopes), "0" * 64)
    server.commit_block(block, delivered)
    return delivered


def assert_two_copies_earn_a_nil_prevote(payload):
    """A peer proposes a block of two envelopes carrying ``payload``: the
    receiving validator refuses it at CheckTx and prevotes nil."""
    cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
    engine = cluster.engine
    node, proposer, peer = engine.validator_order[:3]  # height 1, round 0: order[1] proposes
    envelopes = [envelope_for(payload, tx_id * 64, 10) for tx_id in "ab"]
    assert cluster.servers[node].check_tx(envelopes[0]) is False
    assert cluster.servers[node].validator.check_tx(payload) is False
    block = Block.build(1, 0, proposer, envelopes, engine.validator(node).state.last_block_id)
    engine.validator(node).handle_message(Message(proposer, node, "PROPOSAL", block, 20))
    cluster.loop.run(until=cluster.loop.clock.now + 0.05)
    votes = engine.validator(peer).state.voters(PREVOTE, 0, NIL)
    assert [vote.voter for vote in votes] == [node]


class TestAbciSurface:
    def test_check_tx_accepts_valid(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        assert server.check_tx(envelope_of(create))

    def test_check_tx_rejects_tampered(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        payload = create.to_dict()
        payload["metadata"] = {"injected": True}
        assert not server.check_tx(envelope_for(payload, payload["id"], 100))

    @pytest.mark.parametrize("payload", [[1, 2], "x", None], ids=["list", "str", "none"])
    def test_a_proposal_with_a_non_mapping_payload_earns_a_nil_prevote(self, payload):
        """A peer's proposal may carry anything: CheckTx refuses what is
        not a mapping instead of raising out of the validator."""
        assert_two_copies_earn_a_nil_prevote(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"inputs": 5}, {"inputs": [1]}, {"inputs": [{"fulfills": "x"}]}, {"asset": "x"},
         {"references": 5}, {"operation": ["ACCEPT_BID"]}, {"operation": {}}],
        ids=["inputs-int", "input-int", "fulfills-str", "asset-str", "references-int",
             "operation-list", "operation-dict"],
    )
    def test_a_proposal_with_misshapen_access_fields_earns_a_nil_prevote(self, payload):
        """Blocks are priced (lane schedule) before CheckTx runs: a mapping
        payload whose fields have the wrong shape declares nothing there
        instead of raising out of the validator."""
        assert_two_copies_earn_a_nil_prevote(payload)

    def test_deliver_then_commit_persists(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        commit_block(server, [envelope_of(create)])
        assert server.get_transaction(create.tx_id) is not None
        assert server.database.collection("blocks").count() == 1

    def test_deliver_rejects_invalid(self, server):
        transfer = build_transfer(
            ALICE, [("a" * 64, 0, 1)], "a" * 64, [(BOB.public_key, 1)]
        ).sign([ALICE])
        assert not server.deliver_tx(envelope_of(transfer))
        assert server.stats["rejected"] == 1

    def test_utxo_maintenance(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        commit_block(server, [envelope_of(create)], height=1)
        assert len(server.outputs_for(ALICE.public_key)) == 1
        transfer = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        commit_block(server, [envelope_of(transfer)], height=2)
        assert server.outputs_for(ALICE.public_key) == []
        assert len(server.outputs_for(BOB.public_key)) == 1

    def test_assets_collection_populated(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        commit_block(server, [envelope_of(create)])
        asset = server.database.collection("assets").find_one({"id": create.tx_id})
        assert asset["data"]["name"] == "w"

    def test_intra_block_double_spend_filtered(self, server):
        create = build_create(ALICE, {"name": "w"}).sign([ALICE])
        commit_block(server, [envelope_of(create)], height=1)
        spend_1 = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        ).sign([ALICE])
        spend_2 = build_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(SALLY.public_key, 1)]
        ).sign([ALICE])
        delivered = commit_block(server, [envelope_of(spend_1), envelope_of(spend_2)], height=2)
        assert len(delivered) == 1  # the second is a double spend


class TestQueries:
    def test_open_requests_by_capability(self, server):
        """The Section 2.1 query smart contracts cannot answer."""
        request = build_request(SALLY, ["3d-print", "iso-9001"]).sign([SALLY])
        other = build_request(SALLY, ["cnc"]).sign([SALLY])
        commit_block(server, [envelope_of(request), envelope_of(other)])
        found = server.open_requests(capability="3d-print")
        assert [item["id"] for item in found] == [request.tx_id]
        assert len(server.open_requests()) == 2

    def test_receiver_validate_raises_on_bad(self, server):
        from repro.common.errors import ValidationError

        transfer = build_transfer(
            ALICE, [("b" * 64, 0, 1)], "b" * 64, [(BOB.public_key, 1)]
        ).sign([ALICE])
        with pytest.raises(ValidationError):
            server.receiver_validate(transfer.to_dict())


class TestCostModel:
    def test_validation_cost_nearly_flat_in_size(self):
        """The structural property behind SCDB's flat latency curves."""
        costs = ServerCostModel()
        small = costs.validation_cost("BID", 500)
        large = costs.validation_cost("BID", 2_000)
        assert large < small * 1.2

    def test_per_operation_ordering(self):
        costs = ServerCostModel()
        assert costs.validation_cost("ACCEPT_BID", 500) > costs.validation_cost("CREATE", 500)

    def test_commit_cost_scales_with_bytes(self):
        costs = ServerCostModel()
        assert costs.block_commit_cost(1_000_000) > costs.block_commit_cost(1_000)
