"""One CheckTx judge: a validator asks its application every time.

The consensus layer keeps no verdict memo of its own.  Admission, gossip
intake and every block check call ``app.check_tx``; what a verdict
would have to remember that can change — the ledger, a 2PC lock or
abort, a migration fence — is read afresh each time.  The expensive,
unchanging half (schema, id, signatures) is the shared validation memo's
to keep, once per payload object per process.

A block check that refuses a transaction also drops it from this node's
pool (Tendermint's Recheck), so a pooled transaction the chain or the
2PC agent has made invalid is not re-proposed every few rounds forever:
that was elastic chaos seed 24, whose shard spun 344 148 rounds on one
such transfer.  Only the pooled envelope carrying the *same payload
object* is dropped, so a lying proposer cannot evict an honest pooled
transaction by proposing a forged body under its id.  Once no pool
holds a dropped transaction and no block carried it, its client hears
the refusal; a node whose refused block a quorum commits fetches it.
"""

from collections import Counter

import pytest

from repro.common.encoding import FrozenMemo, canonical_bytes, deep_copy_json
from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.tendermint import make_tendermint_cluster
from repro.consensus.types import NIL, PREVOTE, Block
from repro.core import validation
from repro.core.builders import build_create
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.core.entries import export_entry
from repro.crypto.keys import keypair_from_string
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.sim.events import EventLoop
from repro.sim.network import Message, Network
from repro.sim.rng import SeededRng


class FencedApplication(NullApplication):
    """Refuses everything while ``fenced``; counts every check."""

    def __init__(self):
        super().__init__()
        self.fenced = False
        self.check_calls = 0

    def check_tx(self, envelope):
        self.check_calls += 1
        return not self.fenced


def single_validator():
    loop = EventLoop()
    apps = []

    def factory(node_id):
        apps.append(FencedApplication())
        return apps[-1]

    engine = make_tendermint_cluster(loop, Network(loop, SeededRng(11)), factory, n_validators=1)
    return engine.validator(engine.validator_order[0]), apps[0]


def envelope_of(payload):
    return envelope_for(payload, payload["id"], len(canonical_bytes(payload)))


def idle(validator) -> bool:
    handle = validator._timeout_handle
    return handle is None or handle.cancelled


class TestOneJudge:
    def test_a_forged_body_under_a_known_id_is_refused(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
        validator = cluster.engine.validator(cluster.engine.validator_order[0])
        genuine = cluster.driver.prepare_create(keypair_from_string("alice"), {"n": 1}).to_dict()
        forged = deep_copy_json(genuine)
        forged["metadata"] = {"forged": True}
        assert validator._check_batch([envelope_of(genuine)]) == [True]
        assert validator._check_batch([envelope_of(forged), envelope_of(genuine)]) == [False, True]

    def test_a_refusal_that_goes_away_is_accepted_later(self):
        """What refuses a transaction — a lock, a migration fence, a
        parent not applied here yet — can go away (elastic seed 123 once
        stalled on a remembered refusal); and what accepted it can come
        back, so an acceptance is not remembered either."""
        validator, app = single_validator()
        envelope = envelope_for({"n": 1}, "c" * 64, 100)
        app.fenced = True
        assert validator.submit_transaction(envelope) is False
        assert len(validator.mempool) == 0
        app.fenced = False
        assert validator.submit_transaction(envelope) is True
        app.fenced = True
        assert validator._check_batch([envelope]) == [False]
        assert app.check_calls == 3
        assert validator.check_stats["calls"] == 3

    def test_schema_and_signatures_run_once_per_payload_per_process(self, monkeypatch):
        """Every node checks every transaction at admission and again at
        each block check, yet the stateless half runs once per payload:
        the shared memo admits each payload once, and every later check
        on any node is a hit on it."""

        class CountingMemo(FrozenMemo):
            def __init__(self):
                super().__init__(4096)
                self.puts = Counter()

            def put(self, value, fact):
                self.puts[value["id"]] += 1
                return super().put(value, fact)

        memo = CountingMemo()
        monkeypatch.setattr(validation, "_shared", memo)
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=5))
        alice = keypair_from_string("alice")
        ids = []
        for number in range(10):
            payload = build_create(alice, {"name": f"asset-{number}"}).sign([alice]).to_dict()
            ids.append(payload["id"])
            cluster.submit_payload(payload)
        cluster.run()
        assert all(cluster.records[tx_id].committed_at is not None for tx_id in ids)
        assert memo.puts == Counter({tx_id: 1 for tx_id in ids})
        for node_id, server in cluster.servers.items():
            checks = cluster.engine.validator(node_id).check_stats["calls"]
            assert checks >= 2 * len(ids), (node_id, checks)  # admission + block check
            assert server.validator.verification_cache.hits >= checks, node_id


def staged_spend(cluster, cross_shard: bool):
    """A committed CREATE and a signed transfer of its output: homed on
    the CREATE's shard, or on the other one (a 2PC transaction)."""
    owner = keypair_from_string("pooled-owner")
    create = cluster.driver.prepare_create(owner, {"capabilities": ["x"]})
    assert cluster.submit_and_settle(create.to_dict()).committed_at is not None
    origin = cluster.router.home_of_tx(create.tx_id)
    other = next(shard for shard in cluster.shard_ids if shard != origin)
    metadata = None
    if cross_shard:
        key = next(f"k-{n}" for n in range(512) if cluster.ring.shard_for(f"k-{n}") == other)
        metadata = {SHARD_KEY_METADATA: key}
    payee = keypair_from_string("pooled-payee").public_key
    spend = cluster.driver.prepare_transfer(
        owner, [(create.tx_id, 0, 1)], create.tx_id, [(payee, 1)], metadata=metadata
    )
    return create, spend.to_dict(), origin, other


#: Events a scenario may take to go idle (it needs under 100): a shard
#: that re-proposes a refused transaction spins far past it.
SPIN = 20_000


def step_until(cluster, done):
    while not done():
        assert cluster.loop.step(), "the loop drained first"


def pooled_then_moved_by_export(cluster):
    """A local transfer enters every pool while the block carrying the
    controller's ``SHARD_EXPORT`` of its input is being decided: once
    that block commits, CheckTx answers ``redirect:moved``."""
    create, spend, source, target = staged_spend(cluster, cross_shard=False)
    shard = cluster.shards[source]
    validators = [shard.engine.validator(node) for node in shard.engine.validator_order]
    export = export_entry("m-0001", source, target, [(create.tx_id, 0)], cluster.migrator.keypair)
    shard.submit_entry(export)
    step_until(cluster, lambda: any(validator.state.undecided() for validator in validators))
    envelope = envelope_of(spend)
    assert all(server.check_tx(envelope) for server in shard.servers.values())
    for validator in validators:
        assert validator.mempool.add(envelope)
    cluster.run(max_events=SPIN)
    assert shard.landed(export["id"]) is True
    return shard, spend["id"]


def pooled_then_aborted(cluster):
    """The coordinator's commit-point submission of a 2PC transfer
    reaches every home pool; then the coordinator decides abort, and the
    ingress gate's CheckTx refuses it (``outbox=aborted``)."""
    _create, spend, origin, home = staged_spend(cluster, cross_shard=True)
    shard = cluster.shards[home]
    validators = [shard.engine.validator(node) for node in shard.engine.validator_order]
    for validator in validators:
        # Held, not proposed, until the abort: every pool takes it.
        validator.submit_transaction = lambda envelope, gossip=True: all(
            [peer.mempool.add(envelope) for peer in validators]
        )
    cluster.submit_payload(spend)
    step_until(cluster, lambda: all(spend["id"] in validator.mempool for validator in validators))
    for validator in validators:
        del validator.submit_transaction
    envelope = validators[0].mempool.pending_envelopes()[0]
    assert all(server.check_tx(envelope) for server in shard.servers.values())
    cluster.agents[home]._decide(spend["id"], "aborted", "coordinator gave up")
    assert not any(server.check_tx(envelope) for server in shard.servers.values())
    for validator in validators:
        validator.maybe_propose()  # the kick the held intake withheld
    cluster.run(max_events=SPIN)
    assert cluster.agents[origin].active_locks() == []
    return shard, spend["id"]


class TestRefusedTransactionsLeaveThePool:
    @pytest.mark.parametrize(
        "invalidate", [pooled_then_moved_by_export, pooled_then_aborted],
        ids=["moved-by-export", "2pc-abort"],
    )
    def test_a_pooled_transaction_checktx_now_refuses_leaves_every_pool(self, invalidate):
        """The proposer proposes it, every validator's block check
        refuses it and drops it, and the shard goes idle: no pool holds
        it, no round timer is armed, the loop has drained."""
        cluster = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=7))
        shard, tx_id = invalidate(cluster)
        for node_id in shard.engine.validator_order:
            validator = shard.engine.validator(node_id)
            assert tx_id not in validator.mempool, node_id
            assert idle(validator), node_id
        assert cluster.loop.pending == 0
        assert shard.landed(tx_id) is not True

    def test_a_forged_body_under_an_honest_pooled_id_evicts_nothing(self):
        """A lying proposer's block carries a forged body under the id of
        an honest pooled transaction: the receiver refuses the block and
        keeps the honest envelope, which then commits — here too, since
        a block id hashes transaction ids, not bodies, and the refused
        forgery left the table for the honest block of the same id."""
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
        engine = cluster.engine
        node, liar = engine.validator_order[:2]  # height 1, round 0: order[1] proposes
        honest = cluster.driver.prepare_create(keypair_from_string("honest"), {"n": 1}).to_dict()
        envelope = envelope_of(honest)
        validators = [engine.validator(node_id) for node_id in engine.validator_order]
        for validator in validators:
            assert validator.mempool.add(envelope)
        forged = deep_copy_json(honest)
        forged["metadata"] = {"forged": True}
        receiver = engine.validator(node)
        block = Block.build(1, 0, liar, [envelope_of(forged)], receiver.state.last_block_id)
        receiver.handle_message(Message(liar, node, "PROPOSAL", block, 20))
        cluster.loop.run(until=cluster.loop.clock.now + 0.05)
        assert [vote.voter for vote in receiver.state.voters(PREVOTE, 0, NIL)] == [node]
        assert [pooled.payload for pooled in receiver.mempool.pending_envelopes()] == [honest]
        assert receiver.mempool.pending_envelopes()[0].payload is honest
        for validator in validators:
            validator.maybe_propose()
        cluster.run()
        assert cluster.servers[node].get_transaction(honest["id"]) is not None
        assert all(len(validator.mempool) == 0 and idle(validator) for validator in validators)


FENCE = "redirect:migrating:m-0001"


def submit_until_pooled(cluster, payload, receiver=None):
    """Submit ``payload`` and run until its receiver pools it (before any
    block check); returns the list its client's outcomes land in."""
    outcomes = []
    callback = lambda *outcome: outcomes.append(outcome)  # noqa: E731
    cluster.submit_payload(payload, callback=callback, receiver=receiver)
    nodes = cluster.engine.validator_order
    step_until(cluster, lambda: any(payload["id"] in cluster.engine.validator(n).mempool for n in nodes))
    return outcomes


class TestTheClientHearsADrop:
    """A transaction dropped from the last pool that held it would never
    get an outcome: its client hears the CheckTx refusal instead, with
    the reason (a ``redirect`` one is the driver's to retry elsewhere)."""

    def test_every_pool_drops_it_and_the_client_hears_why(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
        validators = [cluster.engine.validator(node) for node in cluster.engine.validator_order]
        payload = cluster.driver.prepare_create(keypair_from_string("alice"), {"n": 1}).to_dict()
        outcomes = submit_until_pooled(cluster, payload)
        fence = lambda _payload: FENCE  # noqa: E731
        cluster.add_ingress_gate(fence)
        cluster.run()
        assert outcomes == [("rejected", FENCE)]
        assert cluster.records[payload["id"]].rejected == FENCE
        assert all(len(validator.mempool) == 0 and idle(validator) for validator in validators)
        # No id is remembered: once the fence lifts, the same payload commits.
        for server in cluster.servers.values():
            server.ingress_gates.remove(fence)
        outcomes = []
        cluster.submit_payload(payload, callback=lambda *outcome: outcomes.append(outcome))
        cluster.run()
        assert [status for status, _ in outcomes] == ["committed"]

    def test_a_refusal_the_quorum_does_not_share_waits_for_its_commit(self):
        """One node's check refuses the block the other three commit: its
        drop tells no one (peers still pool the transaction), the client
        hears the commit, and the node that threw the block away fetches
        it certified instead of staying a height behind."""
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=3))
        node, peer = cluster.engine.validator_order[:2]
        payload = cluster.driver.prepare_create(keypair_from_string("alice"), {"n": 1}).to_dict()
        outcomes = submit_until_pooled(cluster, payload, receiver=node)
        cluster.servers[node].ingress_gates.append(lambda _payload: FENCE)
        cluster.run()
        assert [status for status, _ in outcomes] == ["committed"]
        refusing = cluster.engine.validator(node)
        assert len(refusing.chain) == len(cluster.engine.validator(peer).chain) == 1
        assert cluster.servers[node].get_transaction(payload["id"]) is not None
