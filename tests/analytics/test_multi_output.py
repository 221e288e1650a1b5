"""Regression: multi-output transactions and the exact-pair spend walk.

The provenance and wash-trade walks used to find "the" spender of a
transaction by matching ``inputs.fulfills.transaction_id`` alone —
whichever committed spend of *any* output the scan met first.  With a
payment-plus-change transfer that walk follows commit order, not
custody: spend the change output first and the asset's history veers
down the change branch.
"""

from repro.analytics import FraudAnalyzer, MarketplaceAnalytics
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig

ALICE = keypair_from_string("alice")
BOB = keypair_from_string("bob")
CAROL = keypair_from_string("carol")
DAVE = keypair_from_string("dave")


def multi_output_history(cluster):
    """Mint 3 shares; pay 1 to Bob with 2 change back to Alice; then
    commit the **change** spend (Alice -> Dave) before the payment spend
    (Bob -> Carol) so the buggy order-based walk picks the wrong branch.
    """
    driver = cluster.driver
    create = driver.prepare_create(ALICE, {"capabilities": ["cap"]}, amount=3)
    cluster.submit_and_settle(create)
    split = driver.prepare_transfer(
        ALICE,
        [(create.tx_id, 0, 3)],
        create.tx_id,
        [(BOB.public_key, 1), (ALICE.public_key, 2)],
    )
    cluster.submit_and_settle(split)
    change_spend = driver.prepare_transfer(
        ALICE, [(split.tx_id, 1, 2)], create.tx_id, [(DAVE.public_key, 2)]
    )
    cluster.submit_and_settle(change_spend)
    payment_spend = driver.prepare_transfer(
        BOB, [(split.tx_id, 0, 1)], create.tx_id, [(CAROL.public_key, 1)]
    )
    cluster.submit_and_settle(payment_spend)
    return create, split, change_spend, payment_spend


class TestMultiOutputProvenance:
    def test_provenance_follows_the_payment_branch_not_commit_order(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=17))
        create, split, change_spend, payment_spend = multi_output_history(cluster)
        steps = MarketplaceAnalytics(cluster.any_server()).provenance(create.tx_id)
        assert [step.transaction_id for step in steps] == [
            create.tx_id,
            split.tx_id,
            payment_spend.tx_id,
        ], "the walk must follow output 0 to Carol, not the change to Dave"
        assert steps[1].holders == [BOB.public_key]
        assert steps[2].holders == [CAROL.public_key]
        assert change_spend.tx_id not in [step.transaction_id for step in steps]

    def test_view_served_provenance_matches(self):
        cluster = SmartchainCluster(
            ClusterConfig(
                n_validators=4, seed=17, durability=DurabilityConfig(snapshot_interval=6)
            )
        )
        create, *_ = multi_output_history(cluster)
        server = cluster.any_server()
        scan = MarketplaceAnalytics(server, source="scan").provenance(create.tx_id)
        views = MarketplaceAnalytics(server, source="views").provenance(create.tx_id)
        assert scan == views


class TestMultiOutputRapidFlips:
    def test_change_returning_to_the_seller_is_not_a_flip(self):
        """Alice's change coming back to Alice is one transaction's
        split, not an ownership loop; the old outputs[0]-only walk never
        saw it, but a transaction-id-matched walk that picked the change
        spend first reported phantom custody for Dave."""
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=18))
        multi_output_history(cluster)
        findings = FraudAnalyzer(cluster.any_server()).rapid_flips()
        assert findings == []

    def test_true_loop_on_the_followed_branch_is_still_caught(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=19))
        driver = cluster.driver
        create = driver.prepare_create(ALICE, {"capabilities": ["cap"]}, amount=2)
        cluster.submit_and_settle(create)
        split = driver.prepare_transfer(
            ALICE,
            [(create.tx_id, 0, 2)],
            create.tx_id,
            [(BOB.public_key, 1), (ALICE.public_key, 1)],
        )
        cluster.submit_and_settle(split)
        back = driver.prepare_transfer(
            BOB, [(split.tx_id, 0, 1)], create.tx_id, [(ALICE.public_key, 1)]
        )
        cluster.submit_and_settle(back)
        findings = FraudAnalyzer(cluster.any_server()).rapid_flips()
        assert [finding.subject for finding in findings] == [ALICE.public_key]
