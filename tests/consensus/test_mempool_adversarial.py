"""Mempool dedup under adversarial double-submission (ISSUE 6).

The ``_seen`` window is a bounded FIFO, so a patient adversary *can*
replay a transaction after its id falls out — the defense in depth is
layered: within the window the pool itself rejects the replay; past the
window the consensus layer's committed-id set stops re-admission; and at
the facade, resubmitting an in-flight or settled id returns the original
record instead of opening a second lifecycle.  Each layer is pinned here
against the exact replay patterns the chaos workload's adversarial
clients generate.
"""

import hashlib

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.mempool import Mempool
from repro.consensus.tendermint import make_tendermint_cluster
from repro.crypto.keys import keypair_from_string
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import SeededRng

from test_bft import committed_envelopes


def envelope(tag: str):
    tx_id = hashlib.sha3_256(tag.encode()).hexdigest()
    return envelope_for({"tag": tag}, tx_id, 100)


def build_cluster(n=4):
    loop = EventLoop()
    network = Network(loop, SeededRng(31))
    engine = make_tendermint_cluster(
        loop, network, lambda node_id: NullApplication(), n_validators=n
    )
    return loop, engine


class TestSeenWindowUnderReplayFlood:
    def test_window_stays_bounded_under_sustained_reaping(self):
        pool = Mempool(capacity=1000, seen_capacity=8)
        for index in range(64):
            pool.add(envelope(f"flood-{index}"))
            pool.reap(max_txs=1)
            assert pool.seen_size() <= 8
        assert pool.seen_size() == 8

    def test_replay_within_the_window_is_rejected(self):
        pool = Mempool(capacity=16, seen_capacity=8)
        item = envelope("replayed")
        assert pool.add(item)
        pool.reap()
        duplicates_before = pool.stats["duplicates"]
        for _ in range(5):
            assert pool.add(item) is False
        assert pool.stats["duplicates"] == duplicates_before + 5
        assert item.tx_id not in pool

    def test_pooled_id_is_its_own_dedup(self):
        pool = Mempool(capacity=16, seen_capacity=8)
        item = envelope("pooled")
        assert pool.add(item)
        assert pool.add(item) is False
        assert len(pool) == 1

    def test_replay_after_window_eviction_reenters_the_pool(self):
        """The window alone is *not* the whole defense: evict an id and
        the pool will take it again — which is exactly why the consensus
        layer keeps its committed-id set (next test)."""
        pool = Mempool(capacity=64, seen_capacity=4)
        target = envelope("evict-me")
        pool.add(target)
        pool.reap()
        for index in range(4):  # push the target out of the window
            pool.add(envelope(f"filler-{index}"))
        pool.reap()
        assert pool.add(target) is True


class TestCommittedIdBackstop:
    def test_replay_past_the_evicted_window_is_still_refused(self):
        """An adversary that waits out the dedup window hits the
        committed-id filter in ``submit_transaction`` instead."""
        loop, engine = build_cluster()
        item = envelope("commit-once")
        for node_id in engine.validator_order:
            engine.validator(node_id).submit_transaction(item, gossip=False)
        loop.run(until=30.0)
        assert len(committed_envelopes(engine)) == 1
        validator = engine.validator(engine.validator_order[0])
        validator.mempool._seen.clear()  # the window eviction, forced
        assert validator.submit_transaction(item) is False
        assert item.tx_id not in validator.mempool

    def test_gossiped_replay_is_equally_refused(self):
        loop, engine = build_cluster()
        item = envelope("gossip-once")
        for node_id in engine.validator_order:
            engine.validator(node_id).submit_transaction(item, gossip=False)
        loop.run(until=30.0)
        committed = len(committed_envelopes(engine))
        assert committed == 1
        # Replay through the gossip entry point on every node at once.
        for node_id in engine.validator_order:
            validator = engine.validator(node_id)
            validator.mempool._seen.clear()
            network = engine.network
            network.send(engine.validator_order[0], node_id, "TX", item, 100)
        loop.run(until=60.0)
        assert len(committed_envelopes(engine)) == committed
        for node_id in engine.validator_order:
            assert item.tx_id not in engine.validator(node_id).mempool


class TestFacadeResubmission:
    def test_shard_routed_resubmit_commits_exactly_once(self):
        """Double-submitting through the sharded facade — same payload,
        twice, plus a direct injection into the home shard's validator —
        must produce exactly one applied copy on every replica."""
        cluster = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=9))
        owner = keypair_from_string("adversarial-owner")
        payload = cluster.driver.prepare_create(
            owner, {"capabilities": ["dup"]}
        ).to_dict()
        first = cluster.submit_payload(payload)
        second = cluster.submit_payload(payload)  # in-flight resubmit
        assert first.tx_id == second.tx_id
        cluster.run()
        record = cluster.record_for(first.tx_id)
        assert record is not None and record.committed_at is not None
        third = cluster.submit_payload(payload)  # post-commit resubmit
        assert third.tx_id == first.tx_id
        home = cluster.router.home_of_tx(first.tx_id)
        shard = cluster.shards[home]
        replay = envelope_for(payload, payload["id"], 100)
        for node_id in shard.engine.validator_order:
            shard.engine.validator(node_id).submit_transaction(replay)
        cluster.run()
        for node_id in shard.engine.validator_order:
            appearances = sum(
                block["transaction_ids"].count(first.tx_id)
                for block in shard.servers[node_id]
                .database.collection("blocks")
                .find({}, copy=False)
            )
            assert appearances == 1, f"{node_id} applied the replay"
