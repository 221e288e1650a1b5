"""Golden parity: view-served analytics == from-scratch rescans.

Every public answer of :class:`MarketplaceAnalytics` and
:class:`FraudAnalyzer` is computed twice — ``source="views"`` and
``source="scan"`` — over a history that exercises the whole marketplace
vocabulary (multi-output transfers, a settled auction with a losing bid
and its RETURN, wash-trade loops) plus a crash-restart in the middle.
Any divergence means the incremental view maintenance and the
collection-scan semantics have drifted apart.
"""

import pytest

from repro.analytics import FraudAnalyzer, MarketplaceAnalytics
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
CAROL = keypair_from_string("carol")
SALLY = keypair_from_string("sally")


def rich_history(cluster, restart_midway=False):
    driver = cluster.driver
    create_a = driver.prepare_create(
        ALICE, {"capabilities": ["3d-print", "iso-9001"]}, amount=3
    )
    create_b = driver.prepare_create(BOB, {"capabilities": ["3d-print", "cnc"]})
    cluster.submit_and_settle(create_a)
    cluster.submit_and_settle(create_b)

    # Multi-output split: payment to Carol, change back to Alice, then
    # spend the change first (the provenance-regression shape).
    split = driver.prepare_transfer(
        ALICE,
        [(create_a.tx_id, 0, 3)],
        create_a.tx_id,
        [(CAROL.public_key, 1), (ALICE.public_key, 2)],
    )
    cluster.submit_and_settle(split)
    change_spend = driver.prepare_transfer(
        ALICE, [(split.tx_id, 1, 2)], create_a.tx_id, [(BOB.public_key, 2)]
    )
    cluster.submit_and_settle(change_spend)

    if restart_midway:
        cluster.restart_node_from_disk(cluster.engine.validator_order[0])

    # A settled auction with a losing bid (whose escrow RETURNs).
    request = driver.prepare_request(SALLY, ["3d-print"])
    cluster.submit_and_settle(request)
    bid_carol = driver.prepare_bid(
        CAROL, request.tx_id, create_a.tx_id, [(split.tx_id, 0, 1)]
    )
    bid_bob = driver.prepare_bid(
        BOB, request.tx_id, create_b.tx_id, [(create_b.tx_id, 0, 1)]
    )
    cluster.submit_and_settle(bid_carol)
    cluster.submit_and_settle(bid_bob)
    accept = driver.prepare_accept_bid(SALLY, request.tx_id, bid_bob)
    cluster.submit_and_settle(accept)
    cluster.run()  # drain nested RETURN workers for the losing bid

    # A second, still-open request.
    open_request = driver.prepare_request(SALLY, ["cnc"])
    cluster.submit_and_settle(open_request)
    return create_a, request


def rejected_in_block_spend(cluster):
    """Two rival spends of one output, both admitted before either
    commits: the second reaches a block and fails DeliverTx there — a
    committed block that *contains* a transaction it did not *deliver*."""
    driver = cluster.driver
    create = driver.prepare_create(ALICE, {"capabilities": ["cnc"]})
    cluster.submit_and_settle(create)
    rivals = [
        driver.prepare_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(party.public_key, 1)]
        )
        for party in (BOB, CAROL)
    ]
    for rival in rivals:
        cluster.submit_payload(rival.to_dict())
    cluster.run()
    validator = cluster.engine.validator(cluster.engine.validator_order[0])
    contained = {envelope.tx_id for block in validator.chain for envelope in block.transactions}
    assert {rival.tx_id for rival in rivals} <= contained
    server = cluster.any_server()
    winner, loser = sorted(rivals, key=lambda rival: server.get_transaction(rival.tx_id) is None)
    assert server.get_transaction(winner.tx_id) is not None
    assert server.get_transaction(loser.tx_id) is None, "the rival must fail DeliverTx"
    return create, winner, loser


def assert_parity(cluster, create_a, request):
    server = cluster.any_server()
    assert server.views_current()
    scan = MarketplaceAnalytics(server, source="scan")
    views = MarketplaceAnalytics(server, source="views")

    assert views.operation_volume() == scan.operation_volume()
    assert views.capability_demand() == scan.capability_demand()
    assert views.bid_competition() == scan.bid_competition()
    assert views.settlement_rate() == pytest.approx(scan.settlement_rate())
    assert views.request_summary(request.tx_id) == scan.request_summary(request.tx_id)
    assert views.provenance(create_a.tx_id) == scan.provenance(create_a.tx_id)
    key = lambda r: r["id"]
    assert sorted(views.open_requests(), key=key) == sorted(scan.open_requests(), key=key)
    for party in (ALICE, BOB, CAROL, SALLY):
        ref = lambda d: (d["transaction_id"], d["output_index"])
        assert sorted(map(ref, views.holdings(party.public_key))) == sorted(
            map(ref, scan.holdings(party.public_key))
        )

    fraud_scan = FraudAnalyzer(server, source="scan")
    fraud_views = FraudAnalyzer(server, source="views")
    assert fraud_views.self_dealing() == fraud_scan.self_dealing()
    assert fraud_views.bid_withdraw_churn(threshold=1) == fraud_scan.bid_withdraw_churn(threshold=1)
    assert fraud_views.rapid_flips() == fraud_scan.rapid_flips()
    assert fraud_views.capability_overclaim() == fraud_scan.capability_overclaim()
    assert fraud_views.screen() == fraud_scan.screen()


def durable_cluster(seed):
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=seed,
            enable_extensions=True,
            durability=DurabilityConfig(snapshot_interval=60),
        )
    )


class TestGoldenParity:
    def test_every_answer_matches_on_a_rich_history(self):
        cluster = durable_cluster(seed=29)
        create_a, request = rich_history(cluster)
        assert_parity(cluster, create_a, request)

    def test_parity_survives_a_crash_restart_mid_history(self):
        cluster = durable_cluster(seed=31)
        create_a, request = rich_history(cluster, restart_midway=True)
        assert_parity(cluster, create_a, request)

    def test_a_spend_rejected_inside_a_block_changes_no_view(self):
        """Views apply what a block delivered, not what it contained:
        the losing rival is in a committed block's journal record, and
        must not take the output, mint one for its recipient, or count."""
        cluster = durable_cluster(seed=59)
        create_a, request = rich_history(cluster)
        create, winner, loser = rejected_in_block_spend(cluster)
        assert_parity(cluster, create_a, request)
        views = cluster.views
        assert views.spender_of(create.tx_id, 0)["id"] == winner.tx_id
        assert views.transaction(loser.tx_id) is None
        minted = [
            doc["transaction_id"]
            for party in (BOB, CAROL)
            for doc in views.outputs_for(party.public_key)
        ]
        assert winner.tx_id in minted and loser.tx_id not in minted

    def test_auto_source_prefers_views_and_matches_scan(self):
        cluster = durable_cluster(seed=37)
        create_a, request = rich_history(cluster)
        server = cluster.any_server()
        before = server.read_stats["view_served"]
        auto = MarketplaceAnalytics(server)
        scan = MarketplaceAnalytics(server, source="scan")
        assert auto.open_requests() == scan.open_requests()
        assert server.read_stats["view_served"] > before
        assert auto.operation_volume() == scan.operation_volume()

    def test_unknown_source_is_rejected(self):
        cluster = durable_cluster(seed=41)
        server = cluster.any_server()
        with pytest.raises(ValueError):
            MarketplaceAnalytics(server, source="oracle")
        with pytest.raises(ValueError):
            FraudAnalyzer(server, source="oracle")


def open_by_probing_each_request(server, capability=None):
    """The scan as it was: one ``accept_for_request`` probe per committed
    REQUEST — the reference the one-pass accepted set has to equal."""
    found = []
    for request in server.database.collection("transactions").find({"operation": "REQUEST"}):
        if server.context.accept_for_request(request["id"]) is not None:
            continue
        if capability is not None and capability not in request["asset"]["data"]["capabilities"]:
            continue
        found.append(request)
    return found


class TestOpenRequestsScanBuildsTheAcceptedSetOnce:
    CAPABILITIES = (None, "3d-print", "cnc", "iso-9001", "never-requested")

    def assert_scan_parity(self, server, views_too=True):
        answers = {}
        for capability in self.CAPABILITIES:
            scan = server.open_requests(capability, source="scan")
            assert scan == open_by_probing_each_request(server, capability), capability
            if views_too:
                key = lambda r: r["id"]
                assert sorted(scan, key=key) == sorted(server.open_requests(capability, source="views"), key=key)
            answers[capability] = [request["id"] for request in scan]
        return answers

    def test_open_and_accepted_requests_with_and_without_a_capability(self):
        cluster = durable_cluster(seed=43)
        _, accepted = rich_history(cluster)
        server = cluster.any_server()
        answers = self.assert_scan_parity(server)
        (still_open,) = answers[None]
        assert still_open != accepted.tx_id
        assert answers == {
            None: [still_open], "3d-print": [], "cnc": [still_open], "iso-9001": [], "never-requested": [],
        }

    def test_an_accept_that_is_only_staged_closes_its_request(self):
        """Inside a block, an ACCEPT_BID staged by an earlier DeliverTx must
        already hide its RFQ — the answer the per-request probe gave."""
        cluster = durable_cluster(seed=47)
        rich_history(cluster)
        server = cluster.any_server()
        (still_open,) = self.assert_scan_parity(server)[None]
        server.context.stage(
            {"id": "staged-accept", "operation": "ACCEPT_BID", "references": [still_open, "winning-bid"], "inputs": []}
        )
        try:
            assert server.context.accept_for_request(still_open)["id"] == "staged-accept"
            answers = self.assert_scan_parity(server, views_too=False)  # views see commits only
            assert not any(answers.values())
        finally:
            server.context.clear_staged()
        assert self.assert_scan_parity(server)[None] == [still_open]

    def test_no_requests_no_accept_query(self):
        cluster = durable_cluster(seed=53)
        cluster.submit_and_settle(cluster.driver.prepare_create(ALICE, {"capabilities": ["cnc"]}))
        server = cluster.any_server()
        transactions = server.database.collection("transactions")
        before = transactions.stats["queries"]
        assert server.open_requests(source="scan") == []
        assert transactions.stats["queries"] == before + 1
