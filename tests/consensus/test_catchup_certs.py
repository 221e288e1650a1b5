"""Catch-up trust: quorum commit certificates on the sync path.

ROADMAP item 5's open edge: a recovering node used to adopt whatever
chain suffix its catch-up peer served (catch-up poisoning).  Blocks now
travel with commit certificates — the quorum's precommit signatures over
``precommit|height|round|block_id`` — and a forged block fails
verification no matter how consistent the forged suffix looks.
"""

import pytest

from repro.consensus.byzantine import make_behavior
from repro.consensus.types import precommit_message
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig


def durable_cluster(seed=7):
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=seed,
            durability=DurabilityConfig(snapshot_interval=6),
        )
    )


def commit_creates(cluster, count, tag="x"):
    driver = cluster.driver
    alice = keypair_from_string("alice")
    for rank in range(count):
        create = driver.prepare_create(
            alice, {"capabilities": [tag], "rank": rank}
        )
        cluster.submit_payload(create.to_dict())
    cluster.run()


def lag_and_catchup(cluster, peer_kind=None, disable_verify=False):
    """Crash node 0, commit traffic past it, recover it and direct its
    catch-up at node 1 (optionally byzantine)."""
    nodes = cluster.engine.validator_order
    lagger, peer = nodes[0], nodes[1]
    v_lag = cluster.engine.validator(lagger)
    if peer_kind is not None:
        cluster.engine.validator(peer).byzantine = make_behavior(peer_kind)
    if disable_verify:
        v_lag._verify_commit_cert = lambda block, cert: True
    cluster.failures.crash_now(lagger)
    commit_creates(cluster, 6, tag="while-down")
    cluster.failures.recover_now(lagger)
    v_lag._catchup_requested_at = float("-inf")
    v_lag._request_catchup(peer)
    cluster.run()
    reference = cluster.engine.validator(nodes[2])
    return v_lag, reference


class TestCommitCertificates:
    def test_every_committed_height_carries_a_quorum_cert(self):
        cluster = durable_cluster()
        commit_creates(cluster, 8)
        quorum = (2 * 4) // 3 + 1
        for node_id in cluster.engine.validator_order:
            validator = cluster.engine.validator(node_id)
            assert len(validator.chain) > 1
            for block in validator.chain:
                cert = validator.commit_certs.get(block.height)
                assert cert is not None
                assert cert["id"] == block.block_id
                assert len(cert["sigs"]) >= quorum
                assert validator._verify_commit_cert(block, cert)

    def test_cert_binds_the_block_id(self):
        cluster = durable_cluster()
        commit_creates(cluster, 4)
        validator = cluster.engine.validator(cluster.engine.validator_order[0])
        block = validator.chain[-1]
        cert = validator.commit_certs[block.height]
        assert not validator._verify_commit_cert(block, {**cert, "id": "f" * 64})
        assert not validator._verify_commit_cert(block, None)
        assert not validator._verify_commit_cert(block, {**cert, "sigs": {}})
        # A signature moved to another validator's name must not count.
        voters = list(cert["sigs"])
        swapped = dict(cert["sigs"])
        swapped[voters[0]], swapped[voters[1]] = swapped[voters[1]], swapped[voters[0]]
        assert not validator._verify_commit_cert(block, {**cert, "sigs": swapped})

    def test_precommit_message_binds_height_round_and_id(self):
        assert precommit_message(3, 1, "abc") == b"precommit|3|1|abc"
        assert precommit_message(3, 2, "abc") != precommit_message(3, 1, "abc")

    def test_certs_survive_restart_from_disk(self):
        cluster = durable_cluster()
        commit_creates(cluster, 8)
        node = cluster.engine.validator_order[0]
        before = dict(cluster.engine.validator(node).commit_certs)
        assert before
        cluster.restart_node_from_disk(node)
        validator = cluster.engine.validator(node)
        assert validator.commit_certs == before
        # And the restarted node can serve verifiable catch-up answers.
        for block in validator.chain:
            assert validator._verify_commit_cert(
                block, validator.commit_certs[block.height]
            )


class TestCatchupPoisoning:
    def test_honest_catchup_succeeds_without_evidence(self):
        cluster = durable_cluster()
        commit_creates(cluster, 4)
        lagger, reference = lag_and_catchup(cluster)
        assert [(b.height, b.block_id) for b in lagger.chain] == [
            (b.height, b.block_id) for b in reference.chain
        ]
        assert [e for e in lagger.evidence if e["kind"] == "forged_catchup"] == []

    def test_forged_suffix_is_rejected_and_recovery_routes_around(self):
        cluster = durable_cluster()
        commit_creates(cluster, 4)
        lagger, reference = lag_and_catchup(cluster, peer_kind="poison")
        forged = [e for e in lagger.evidence if e["kind"] == "forged_catchup"]
        assert forged, "the poisoned answer must leave evidence"
        assert forged[0]["sender"] == cluster.engine.validator_order[1]
        # The retry hit an honest peer: the node still caught up, and to
        # the *real* chain.
        assert [(b.height, b.block_id) for b in lagger.chain] == [
            (b.height, b.block_id) for b in reference.chain
        ]

    def test_without_verification_the_forged_chain_wins(self):
        """Mutation check: disable `_verify_commit_cert` and the same
        poisoned catch-up is adopted wholesale — proof the certificate
        check is what defeats the attack, not some other guard."""
        cluster = durable_cluster()
        commit_creates(cluster, 4)
        lagger, reference = lag_and_catchup(
            cluster, peer_kind="poison", disable_verify=True
        )
        assert [(b.height, b.block_id) for b in lagger.chain] != [
            (b.height, b.block_id) for b in reference.chain
        ]
