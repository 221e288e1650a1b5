"""Catch-up trust: quorum commit certificates on the sync path.

ROADMAP item 5's open edge: a recovering node used to adopt whatever
chain suffix its catch-up peer served (catch-up poisoning).  Blocks now
travel with commit certificates — the quorum's precommit signatures over
``precommit|height|round|block_id`` — and a forged block fails
verification no matter how consistent the forged suffix looks.
"""

import inspect
import textwrap

import pytest

from repro.consensus.bft import certifies
from repro.consensus.byzantine import make_behavior
from repro.consensus.types import precommit_message
from repro.core import cluster as cluster_module
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto import sigcache
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


def chain_ids(validator):
    return [(block.height, block.block_id) for block in validator.chain]


def lag_behind_a_bad_signer(cluster):
    """Node 2 signs its precommits with a key that is not its own, and
    its peers take them in through ``handle_message``; node 3 is down
    while six creates commit, so each certificate the live nodes build
    holds node 2's bad signature beside only two valid ones.  Returns
    (lagger, its catch-up items as node 0 serves them, one create)."""
    nodes = cluster.engine.validator_order
    cluster.engine.validator(nodes[2]).keypair = keypair_from_string("impostor")
    commit_creates(cluster, 2, tag="all-up")
    lagger = cluster.engine.validator(nodes[3])
    cluster.failures.crash_now(nodes[3])
    alice = keypair_from_string("alice")
    creates = [cluster.driver.prepare_create(alice, {"lagged": rank}) for rank in range(6)]
    for create in creates:
        cluster.submit_payload(create.to_dict())
    cluster.run()
    cluster.failures.recover_now(nodes[3])
    server = cluster.engine.validator(nodes[0])
    items = [
        {"block": block, "cert": server.commit_certs.get(block.height)}
        for block in server.chain
        if block.height >= lagger.state.h
    ]
    return lagger, items, creates[0]


def with_own_precommit(lagger, item):
    """``item`` with the lagger's own valid precommit added to its cert."""
    block, cert = item["block"], item["cert"]
    signature = lagger.keypair.sign(precommit_message(block.height, cert["r"], block.block_id))
    return {"block": block, "cert": {**cert, "sigs": {**cert["sigs"], lagger.node_id: signature}}}


def assert_commit_evidence_ships_only_certifying_certs(cluster, lagger, tx_id):
    evidence = cluster.commit_evidence(tx_id)
    assert evidence is not None
    height, keys = evidence["header"]["height"], cluster.engine.public_keys
    block_id = lagger.chain[height - 1].block_id
    assert certifies(evidence["cert"], block_id, height, keys), (
        "commit_evidence shipped a certificate that does not certify"
    )
    assert evidence["cert"] is lagger.commit_certs[height]


class TestBadPrecommitSignature:
    """Assembling a certificate verifies nothing; each consumer does."""

    def test_height_commits_and_each_consumer_judges_the_cert(self):
        cluster = durable_cluster()
        nodes = cluster.engine.validator_order
        lagger, items, create = lag_behind_a_bad_signer(cluster)
        live = [cluster.engine.validator(node) for node in nodes[:3]]
        # Every lagged height committed on the live nodes alike.
        assert items
        assert chain_ids(live[0]) == chain_ids(live[1]) == chain_ids(live[2])
        keys = cluster.engine.public_keys
        for item in items:
            block, cert = item["block"], item["cert"]
            assert sorted(cert["sigs"]) == sorted(nodes[:3])
            assert not certifies(cert, block.block_id, block.height, keys)
        # Two valid signatures and a bad one: refused, and blamed on the server.
        assert lagger.evidence == []
        lagger._handle_catchup_blocks(items, nodes[0])
        assert len(lagger.chain) == items[0]["block"].height - 1
        forged = [e for e in lagger.evidence if e["kind"] == "forged_catchup"]
        assert [(e["sender"], e["height"]) for e in forged] == [
            (nodes[0], items[0]["block"].height)
        ]
        # Three valid signatures and the bad one: adopted.
        lagger._handle_catchup_blocks([with_own_precommit(lagger, i) for i in items], nodes[0])
        assert chain_ids(lagger) == chain_ids(live[0])
        # Only the lagger holds a certificate for the create's height that
        # certifies; the evidence is its, though three live nodes come first.
        assert_commit_evidence_ships_only_certifying_certs(cluster, lagger, create.tx_id)

    def test_commit_evidence_without_certifies_is_caught(self, monkeypatch):
        owner = SmartchainCluster
        source = textwrap.dedent(inspect.getsource(owner.commit_evidence))
        old = "        if payload is not None and certifies(\n"
        assert source.count(old) == 1, "commit_evidence no longer calls certifies"
        namespace = dict(vars(cluster_module))
        exec(source.replace(old, "        if payload is not None and (lambda *_: True)(\n"), namespace)
        monkeypatch.setattr(owner, "commit_evidence", namespace["commit_evidence"])
        with pytest.raises(AssertionError, match="does not certify"):
            self.test_height_commits_and_each_consumer_judges_the_cert()


class TestNoVerifyAtCommit:
    def test_fault_free_run_verifies_only_transaction_signatures(self, monkeypatch):
        """Each distinct transaction signature misses the shared cache
        once; no replica verifies a precommit when it commits."""
        cache = sigcache.SignatureCache()
        monkeypatch.setattr(sigcache, "_shared", cache)
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
        driver = cluster.driver
        alice, bob = keypair_from_string("alice"), keypair_from_string("bob")
        creates = [driver.prepare_create(alice, {"rank": rank}) for rank in range(6)]
        for create in creates:
            cluster.submit_payload(create.to_dict())
        cluster.run()
        transfers = [
            driver.prepare_transfer(alice, [(c.tx_id, 0, 1)], c.tx_id, [(bob.public_key, 1)])
            for c in creates[:3]
        ]
        for transfer in transfers:
            cluster.submit_payload(transfer.to_dict())
        cluster.run()
        for tx in creates + transfers:
            assert cluster.landed(tx.tx_id) is True
        heights = len(cluster.engine.validator(cluster.engine.validator_order[0]).chain)
        assert heights >= 2
        signatures = {
            signature
            for tx in creates + transfers
            for item in tx.to_dict()["inputs"]
            for signature in item["fulfillment"]["signatures"].values()
        }
        assert cache.misses == len(signatures) == 9
        validator_keys = set(cluster.engine.public_keys.values())
        assert not any(key[0] in validator_keys for key in cache._entries)
