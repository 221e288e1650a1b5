"""Replica determinism vs the 2PC lock oracle (ISSUE 6 regression).

The byzantine chaos sweep (seed 7) caught block delivery consulting the
shard agent's *live* lock table: replicas deliver the same block at
different simulated instants, so a lock released in between made one
replica reject a transaction its peers applied — committed-state
divergence with identical block ids.  The fix relocates lock
enforcement to the admission edges and makes DeliverTx a pure function
of committed + staged state:

* the spend guard sits on the server, beside the ingress gates, and
  ``deliver_tx`` reads only the validation context, which holds committed
  state alone;
* ``check_tx`` (gossip / direct mempool injection) consults it, so a
  locked or tombstoned ref can never enter a pool once the lock exists;
* the 2PC participant's prepare vote refuses to lock an output some
  validator already has a pooled rival spend for (proposals assemble by
  non-destructive peek, so in-flight block contents are still pooled).

The elastic chaos sweep (seeds 110 / 123 / 141) then caught the same
disease from another side: a replica that had stored a transaction as a
cross-shard *reference copy* before the block containing it arrived
rejected it as its own double spend, or died re-inserting it.  Since
reference copies arrive only inside blocks, every replica stores a copy
at the same height, and a copy's own later delivery is refused alike.
"""

import pytest

from repro.common.errors import DoubleSpendError
from repro.consensus.abci import envelope_for
from repro.consensus.types import Block
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.transaction import OutputRef
from repro.crypto.keys import keypair_from_string
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig


def _committed_create(cluster, material="holder"):
    owner = keypair_from_string(material)
    create = cluster.driver.prepare_create(owner, {"capabilities": ["x"]})
    cluster.submit_payload(create.to_dict())
    cluster.run()
    return owner, create


def _transfer_payload(cluster, owner, create, recipient="recipient"):
    transfer = cluster.driver.prepare_transfer(
        owner,
        [(create.tx_id, 0, 1)],
        create.tx_id,
        [(keypair_from_string(recipient).public_key, 1)],
    )
    return transfer.to_dict()


class TestDeliverIgnoresTheLockOracle:
    def test_deliver_applies_despite_a_reported_lock(self):
        """The exact divergence mechanism, reduced: a guard that claims
        the input is locked must not affect DeliverTx — only committed
        state may."""
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        payload = _transfer_payload(cluster, owner, create)
        cluster.set_spend_guard(lambda ref: "shard-lock:phantom")
        server = cluster.any_server()
        envelope = envelope_for(payload, payload["id"], 100)
        assert server.deliver_tx(envelope) is True

    def test_deliver_still_rejects_a_committed_double_spend(self):
        """Determinism must not weaken the committed-state check."""
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        first = _transfer_payload(cluster, owner, create, recipient="r1")
        cluster.submit_payload(first)
        cluster.run()
        rival = _transfer_payload(cluster, owner, create, recipient="r2")
        server = cluster.any_server()
        assert server.deliver_tx(envelope_for(rival, rival["id"], 100)) is False

    def test_receiver_validation_still_honors_the_lock(self):
        """Admission is where locks bite: the same phantom lock that
        delivery ignores must keep rejecting fresh submissions."""
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        payload = _transfer_payload(cluster, owner, create)
        cluster.set_spend_guard(lambda ref: "shard-lock:phantom")
        with pytest.raises(DoubleSpendError):
            cluster.any_server().receiver_validate(payload)


def _store_reference_copy(cluster, payload):
    """What an earlier block's attachment leaves on every replica: the
    payload in ``transactions``, no UTXO."""
    for server in cluster.servers.values():
        server.database.collection("transactions").insert_one(payload)


class TestDeliveryOverReferenceCopies:
    """A reference copy first (an earlier cross-shard spend's attachment,
    or an import), the same transaction in a block second: the ledger
    already holds it, while its outputs live where it committed, so
    DeliverTx refuses it — delivering it again would mint them twice."""

    def refused_over_copy(self, cluster, payload):
        _store_reference_copy(cluster, payload)
        server = cluster.any_server()
        envelope = envelope_for(payload, payload["id"], 100)
        assert server.deliver_tx(envelope) is False
        server.commit_block(Block.build(99, 0, "scdb-0", [envelope], "p" * 64), [])
        stored = server.database.collection("transactions").find({"id": payload["id"]})
        assert len(stored) == 1, "the copy is the stored payload: no second insert"
        return server.database.collection("utxos")

    def test_create(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner = keypair_from_string("holder")
        payload = cluster.driver.prepare_create(owner, {"capabilities": ["x"]}).to_dict()
        utxos = self.refused_over_copy(cluster, payload)
        assert utxos.count({"transaction_id": payload["id"]}) == 0

    def test_transfer_is_refused_over_its_own_copy(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        payload = _transfer_payload(cluster, owner, create)
        utxos = self.refused_over_copy(cluster, payload)
        assert utxos.count({"transaction_id": create.tx_id}) == 1
        assert utxos.count({"transaction_id": payload["id"]}) == 0

    def test_admission_still_refuses_what_the_store_already_holds(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        payload = _transfer_payload(cluster, owner, create)
        _store_reference_copy(cluster, payload)
        with pytest.raises(DoubleSpendError):
            cluster.any_server().receiver_validate(payload)

    def test_delivery_still_rejects_a_rival_of_the_copy(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        _store_reference_copy(cluster, _transfer_payload(cluster, owner, create, "r1"))
        rival = _transfer_payload(cluster, owner, create, "r2")
        assert cluster.any_server().deliver_tx(envelope_for(rival, rival["id"], 100)) is False


class TestAdmissionHonorsTheLockOracle:
    def test_check_tx_refuses_a_guarded_input(self):
        """Direct mempool injection (an adversarial client, or gossip
        from one) is stopped at admission — the last place a lock can
        be consulted without breaking replica determinism."""
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        owner, create = _committed_create(cluster)
        payload = _transfer_payload(cluster, owner, create)
        envelope = envelope_for(payload, payload["id"], 100)
        server = cluster.any_server()
        assert server.check_tx(envelope) is True
        cluster.set_spend_guard(
            lambda ref: "shard-lock:t1" if ref.transaction_id == create.tx_id else None
        )
        assert server.check_tx(envelope) is False
        validator = cluster.engine.validator(cluster.engine.validator_order[0])
        assert validator.submit_transaction(envelope) is False
        assert payload["id"] not in validator.mempool

    def test_block_check_refuses_what_check_tx_refuses(self):
        """The verdict must not depend on how many transactions of a
        proposal this node has not seen: two or more misses route through
        ``check_block``, which used to skip the lock oracle and the
        ingress gates — and the ``True`` was then memoised."""
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        envelopes = []
        for material in ("holder-a", "holder-b"):
            owner, create = _committed_create(cluster, material)
            payload = _transfer_payload(cluster, owner, create)
            envelopes.append(envelope_for(payload, payload["id"], 100))
        node_id = cluster.engine.validator_order[0]
        server = cluster.servers[node_id]
        assert server.check_block(envelopes) == [True, True]
        cluster.set_spend_guard(lambda ref: "shard-lock:phantom")
        assert [server.check_tx(envelope) for envelope in envelopes] == [False, False]
        assert server.check_block(envelopes) == [False, False]
        validator = cluster.engine.validator(node_id)
        assert validator._check_batch(envelopes) == [False, False]

    def test_block_check_applies_the_ingress_gates(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        envelopes = []
        for material in ("gated-a", "gated-b"):
            create = cluster.driver.prepare_create(
                keypair_from_string(material), {"capabilities": ["x"]}
            ).to_dict()
            envelopes.append(envelope_for(create, create["id"], 100))
        refused = envelopes[1].tx_id
        cluster.add_ingress_gate(
            lambda payload: "refused" if payload["id"] == refused else None
        )
        server = cluster.any_server()
        assert [server.check_tx(envelope) for envelope in envelopes] == [True, False]
        assert server.check_block(envelopes) == [True, False]

    def test_inputless_operations_are_unaffected(self):
        cluster = SmartchainCluster(ClusterConfig(seed=3))
        cluster.set_spend_guard(lambda ref: "shard-lock:anything")
        create = cluster.driver.prepare_create(
            keypair_from_string("fresh"), {"capabilities": ["x"]}
        ).to_dict()
        assert cluster.any_server().check_tx(envelope_for(create, create["id"], 100))


class TestPrepareRefusesPooledRivals:
    def test_prepare_votes_no_while_a_rival_spend_is_pooled(self):
        """A lock granted over a pooled rival could be broken by that
        rival's commit (delivery no longer reads the lock table), so the
        participant must refuse to promise the output."""
        cluster = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=9))
        owner, create = _committed_create(cluster, material="contended")
        home = cluster.router.home_of_tx(create.tx_id)
        shard = cluster.shards[home]
        rival = _transfer_payload(shard, owner, create, recipient="local-rival")
        envelope = envelope_for(rival, rival["id"], 100)
        node = shard.engine.validator_order[0]
        assert shard.engine.validator(node).submit_transaction(envelope, gossip=False)
        agent = cluster.agents[home]
        refused_before = agent.stats["locks_refused"]
        agent.handle_prepare("other-shard", "remote-tx", [[create.tx_id, 0]])
        assert agent.stats["locks_refused"] == refused_before + 1
        assert agent.active_locks() == []

    def test_prepare_still_locks_an_uncontended_output(self):
        cluster = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=9))
        _, create = _committed_create(cluster, material="uncontended")
        home = cluster.router.home_of_tx(create.tx_id)
        agent = cluster.agents[home]
        granted_before = agent.stats["locks_granted"]
        agent.handle_prepare("other-shard", "remote-tx", [[create.tx_id, 0]])
        assert agent.stats["locks_granted"] == granted_before + 1
        holders = [lock["holder"] for lock in agent.active_locks()]
        assert holders == ["remote-tx"]
