"""Regression: CheckTx runs once per transaction per node, not per phase.

The engine used to re-run ``app.check_tx`` on every block transaction at
proposal validation even though mempool admission had already validated
it on the same node — doubling (or worse, across rounds) the most
expensive per-transaction work.  The bounded, identity-guarded verdict
memo makes every post-admission check a lookup; these tests count actual
application invocations to pin that down.
"""

import hashlib

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.tendermint import make_tendermint_cluster
from repro.core.builders import build_create
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import SeededRng


class CountingApplication(NullApplication):
    def __init__(self):
        super().__init__()
        self.check_calls = 0

    def check_tx(self, envelope):
        self.check_calls += 1
        return super().check_tx(envelope)


def build_cluster(n=4, config=None):
    loop = EventLoop()
    network = Network(loop, SeededRng(11))
    apps = {}

    def factory(node_id):
        apps[node_id] = CountingApplication()
        return apps[node_id]

    engine = make_tendermint_cluster(loop, network, factory, n_validators=n, config=config)
    return loop, engine, apps


def submit(loop, engine, count):
    for index in range(count):
        tx_id = hashlib.sha3_256(f"memo-{index}".encode()).hexdigest()
        envelope = envelope_for({"n": index}, tx_id, 200, now=loop.clock.now)
        node = engine.validator_order[index % len(engine.validator_order)]
        engine.validator(node).submit_transaction(envelope)


class TestCheckTxMemo:
    def test_one_app_check_per_tx_per_node(self):
        """Admission checks once; proposal/block validation hit the memo."""
        n_txs = 24
        loop, engine, apps = build_cluster()
        submit(loop, engine, n_txs)
        loop.run(until=60.0)
        assert len(engine.committed_envelopes()) == n_txs
        for node_id, app in apps.items():
            assert app.check_calls == n_txs, (node_id, app.check_calls)

    def test_block_validation_is_all_memo_hits(self):
        loop, engine, apps = build_cluster()
        submit(loop, engine, 16)
        loop.run(until=60.0)
        for node_id in engine.validator_order:
            stats = engine.validator(node_id).check_stats
            assert stats["app_checks"] == 16, (node_id, stats)
            # Every committed block re-checked its transactions via memo.
            assert stats["memo_hits"] >= 16, (node_id, stats)

    def test_memo_is_identity_guarded(self):
        """A different payload object under a known id re-validates."""
        loop, engine, apps = build_cluster(n=1)
        validator = engine.validator(engine.validator_order[0])
        app = apps[engine.validator_order[0]]
        tx_id = "f" * 64
        first = envelope_for({"n": 1}, tx_id, 100)
        assert validator.check_tx_cached(first)
        assert app.check_calls == 1
        assert validator.check_tx_cached(first)
        assert app.check_calls == 1  # same object: memo hit
        forged = envelope_for({"n": "forged"}, tx_id, 100)
        assert validator.check_tx_cached(forged)
        assert app.check_calls == 2  # different object: full re-check

    def test_a_refusal_is_never_remembered(self):
        """What refuses a transaction — a 2PC lock, a migration fence, a
        parent this node has not applied yet — can go away.  Found by
        elastic chaos seed 123: three validators had memoised ``False``
        for a transfer that had since become valid, prevoted NIL on every
        block carrying it, and the height spun rounds until the event
        valve closed."""
        loop, engine, apps = build_cluster(n=1)
        validator = engine.validator(engine.validator_order[0])
        app = apps[engine.validator_order[0]]
        fenced = {"now": True}
        app.check_tx = lambda envelope: not fenced["now"]
        envelope = envelope_for({"n": 1}, "c" * 64, 100)
        assert validator.check_tx_cached(envelope) is False
        assert len(validator._check_memo) == 0
        fenced["now"] = False
        assert validator.check_tx_cached(envelope) is True
        fenced["now"] = True  # an acceptance is remembered (DeliverTx re-judges it)
        assert validator.check_tx_cached(envelope) is True

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.consensus.bft.CHECK_MEMO_LIMIT", 8)
        loop, engine, apps = build_cluster(n=1)
        validator = engine.validator(engine.validator_order[0])
        for index in range(40):
            envelope = envelope_for({"n": index}, f"{index:064d}", 100)
            validator.check_tx_cached(envelope)
        assert len(validator._check_memo) <= 8

    def test_memo_cleared_on_crash(self):
        loop, engine, apps = build_cluster(n=1)
        validator = engine.validator(engine.validator_order[0])
        validator.check_tx_cached(envelope_for({"n": 1}, "a" * 64, 100))
        assert len(validator._check_memo) == 1
        validator.on_crash()
        assert len(validator._check_memo) == 0


class TestFullPipelineCheckCounts:
    def test_smartchain_server_checks_once_per_tx_per_node(self):
        """End-to-end: the real application's CheckTx counter stays at one
        validation per transaction per node across the whole commit path."""
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=5))
        alice = keypair_from_string("alice")
        n_txs = 10
        for number in range(n_txs):
            payload = (
                build_create(alice, {"name": f"asset-{number}"}).sign([alice]).to_dict()
            )
            cluster.submit_payload(payload)
        cluster.run()
        committed = cluster.committed_records()
        assert len(committed) == n_txs
        for node_id, server in cluster.servers.items():
            assert server.stats["checked"] == n_txs, (node_id, server.stats)
