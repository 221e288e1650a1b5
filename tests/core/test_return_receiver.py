"""RETURN children are determined once: by the ACCEPT_BID's receiver.

Every replica logs the accept for recovery, but only the node that took
the client's submission builds, escrow-signs and enqueues the RETURNs
(Algorithm 3, Commit part), and only it re-enqueues them after a crash.
"""

import pytest

from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.nested import NestedTransactionProcessor
from repro.crypto.keys import KeyPair, ReservedAccounts, keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.simtest.invariants import InvariantChecker, nested_eventual_commit
from repro.simtest.plane import FaultPlane
from repro.workloads import ScenarioSpec, run_scdb_scenario
from repro.workloads import scenarios

ESCROW = ReservedAccounts().escrow
BIDDERS = [keypair_from_string(name) for name in ("alice", "bob", "carol")]
SALLY = keypair_from_string("sally")


@pytest.fixture()
def escrow_signs(monkeypatch):
    """Counts every signature the escrow key makes."""
    counts = {"signs": 0}
    sign = KeyPair.sign

    def counting(self, message):
        if self.public_key == ESCROW.public_key:
            counts["signs"] += 1
        return sign(self, message)

    monkeypatch.setattr(KeyPair, "sign", counting)
    return counts


def test_escrow_signs_once_per_return_on_the_fig7_auction(monkeypatch, escrow_signs):
    built = []

    class Kept(SmartchainCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(scenarios, "SmartchainCluster", Kept)
    run_scdb_scenario(
        ScenarioSpec(
            n_windows=3,
            creates_per_window=4,
            bids_per_window=4,
            phased=True,
            scale_caps_with_payload=True,
        )
    )
    (cluster,) = built
    returns = cluster.any_server().database.collection("transactions").count(
        {"operation": "RETURN"}
    )
    assert returns == 3 * (4 - 1)
    assert escrow_signs["signs"] == returns
    receivers = set(cluster._accept_receivers.values())
    enqueued = {
        node_id: server.nested.queue.stats["enqueued"]
        for node_id, server in cluster.servers.items()
    }
    assert all(enqueued[node_id] == 0 for node_id in set(enqueued) - receivers)
    assert sum(enqueued.values()) == returns
    for server in cluster.servers.values():
        assert server.stats["accepts_processed"] == 3


def auction_in_crash_window(receiver_index: int):
    """A durable cluster whose ACCEPT_BID (two losing bids) is committed
    and journaled on every node, its RETURNs still queued on the
    receiver: the workers poll too slowly to have started."""
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=11,
            consensus=tendermint_config(max_block_txs=8, propose_timeout=0.5),
            worker_poll_interval=5.0,
            durability=DurabilityConfig(snapshot_interval=6),
        )
    )
    driver = cluster.driver
    creates = []
    for index, keypair in enumerate(BIDDERS):
        create = driver.prepare_create(keypair, {"capabilities": ["cap"], "n": index})
        cluster.submit_payload(create.to_dict())
        creates.append((keypair, create))
    cluster.run()
    request = driver.prepare_request(SALLY, ["cap"])
    cluster.submit_and_settle(request)
    bids = []
    for keypair, create in creates:
        bid = driver.prepare_bid(keypair, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
        cluster.submit_payload(bid.to_dict())
        bids.append(bid)
    cluster.run()
    receiver = cluster.engine.validator_order[receiver_index]
    accept = driver.prepare_accept_bid(SALLY, request.tx_id, bids[0])
    cluster.submit_payload(accept.to_dict(), receiver=receiver)
    servers = cluster.servers.values()
    while not all(s.nested.recovery.status(accept.tx_id) for s in servers):
        cluster.loop.run(until=cluster.loop.clock.now + 0.05)
    for durability in cluster.node_durability.values():
        durability.log.flush_now()
    assert len(cluster.servers[receiver].nested.queue) == 2
    return cluster, receiver, accept


def returns_committed(cluster):
    return cluster.any_server().database.collection("transactions").count(
        {"operation": "RETURN"}
    )


def test_restarted_non_receiver_enqueues_and_signs_nothing(escrow_signs):
    cluster, receiver, accept = auction_in_crash_window(receiver_index=1)
    other = next(n for n in cluster.engine.validator_order if n != receiver)
    escrow_signs["signs"] = 0
    cluster.restart_node_from_disk(other)
    cluster.run()
    assert cluster.servers[other].nested.queue.stats["enqueued"] == 0
    assert escrow_signs["signs"] == 0
    assert returns_committed(cluster) == 2
    for server in cluster.servers.values():
        assert server.nested.recovery.is_fully_committed(accept.tx_id)


def test_restarted_receiver_reenqueues_its_pending_children(escrow_signs):
    cluster, receiver, accept = auction_in_crash_window(receiver_index=2)
    escrow_signs["signs"] = 0
    cluster.restart_node_from_disk(receiver)
    server = cluster.servers[receiver]
    assert server.nested.queue.stats["enqueued"] == 2
    assert escrow_signs["signs"] == 2
    cluster.run()
    assert returns_committed(cluster) == 2
    assert server.nested.recovery.is_fully_committed(accept.tx_id)
    assert nested_eventual_commit(FaultPlane(cluster)) == []


class TestNestedEventualCommitInvariant:
    def run_auction(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=5))
        driver = cluster.driver
        creates = [
            driver.prepare_create(keypair, {"capabilities": ["cap"], "n": index})
            for index, keypair in enumerate(BIDDERS)
        ]
        for create in creates:
            cluster.submit_payload(create.to_dict())
        cluster.run()
        request = driver.prepare_request(SALLY, ["cap"])
        cluster.submit_and_settle(request)
        bids = [
            driver.prepare_bid(keypair, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
            for keypair, create in zip(BIDDERS, creates)
        ]
        for bid in bids:
            cluster.submit_payload(bid.to_dict())
        cluster.run()
        cluster.submit_and_settle(driver.prepare_accept_bid(SALLY, request.tx_id, bids[1]))
        return FaultPlane(cluster)

    def test_holds_on_a_settled_auction(self):
        assert nested_eventual_commit(self.run_auction()) == []

    def test_receiver_that_never_enqueues_fails_it_by_name(self, monkeypatch):
        monkeypatch.setattr(
            NestedTransactionProcessor, "_enqueue", lambda self, accept_id, returns: []
        )
        plane = self.run_auction()
        violations = InvariantChecker(plane).check_quiesce(step=0)
        assert {violation.invariant for violation in violations} == {"nested_eventual_commit"}
        assert "not fully committed on its receiver" in violations[0].detail
