"""BFT engine: commits, safety, liveness, crashes, pipelining."""

import hashlib

import pytest

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.bft import GENESIS_ID, BftConfig, BftEngine
from repro.consensus.byzantine import make_behavior
from repro.consensus.ibft import ibft_config
from repro.consensus.tendermint import make_tendermint_cluster, tendermint_config
from repro.sim.events import EventLoop
from repro.sim.failures import FailureInjector
from repro.consensus.types import NIL, PREVOTE, Block
from repro.sim.network import Message, Network
from repro.sim.rng import SeededRng


def committed_envelopes(engine):
    """Every committed transaction with its cluster commit time."""
    return [
        (envelope, record.committed_at)
        for record in engine.commits
        for envelope in record.block.transactions
    ]


def build_cluster(n=4, config=None, seed=3):
    loop = EventLoop()
    network = Network(loop, SeededRng(seed))
    apps = {}

    def factory(node_id):
        apps[node_id] = NullApplication()
        return apps[node_id]

    engine = make_tendermint_cluster(loop, network, factory, n_validators=n, config=config)
    injector = FailureInjector(loop, network)
    for node_id in engine.validator_order:
        validator = engine.validator(node_id)
        injector.register_callbacks(node_id, validator.on_crash, validator.on_recover)
    return loop, network, engine, apps, injector


def submit_batch(loop, engine, count, start=0):
    for index in range(start, start + count):
        tx_id = hashlib.sha3_256(f"tx-{index}".encode()).hexdigest()
        envelope = envelope_for({"n": index}, tx_id, 200)
        node = engine.validator_order[index % len(engine.validator_order)]
        engine.validator(node).submit_transaction(envelope)


class TestHappyPath:
    def test_all_transactions_commit(self):
        loop, network, engine, apps, _ = build_cluster()
        submit_batch(loop, engine, 50)
        loop.run(until=60.0)
        assert len(committed_envelopes(engine)) == 50

    def test_heights_are_sequential(self):
        loop, network, engine, apps, _ = build_cluster()
        submit_batch(loop, engine, 30)
        loop.run(until=60.0)
        heights = [record.block.height for record in engine.commits]
        assert heights == list(range(1, len(heights) + 1))

    def test_no_forks_across_nodes(self):
        loop, network, engine, apps, _ = build_cluster(n=7)
        submit_batch(loop, engine, 40)
        loop.run(until=60.0)
        chains = {nid: [b.block_id for b in v.chain] for nid, v in engine.validators.items()}
        reference = max(chains.values(), key=len)
        for chain in chains.values():
            assert chain == reference[: len(chain)]

    def test_no_duplicate_commits(self):
        loop, network, engine, apps, _ = build_cluster()
        submit_batch(loop, engine, 40)
        loop.run(until=60.0)
        tx_ids = [envelope.tx_id for envelope, _ in committed_envelopes(engine)]
        assert len(tx_ids) == len(set(tx_ids))

    def test_loop_goes_idle_after_commit(self):
        """No runaway timers once all work is decided."""
        loop, network, engine, apps, _ = build_cluster()
        submit_batch(loop, engine, 8)
        executed = loop.run(max_events=500_000)
        assert executed < 500_000  # reached natural idleness
        assert len(committed_envelopes(engine)) == 8

    def test_deterministic_given_seed(self):
        def run(seed):
            loop, network, engine, apps, _ = build_cluster(seed=seed)
            submit_batch(loop, engine, 20)
            loop.run(until=60.0)
            return [record.committed_at for record in engine.commits]

        assert run(11) == run(11)


class TestValidationPath:
    def test_check_tx_rejection_keeps_tx_out(self):
        loop, network, engine, apps, _ = build_cluster()

        class Rejecting(NullApplication):
            def check_tx(self, envelope):
                return envelope.payload.get("ok", True)

        node = engine.validator_order[0]
        engine.validators[node].app = Rejecting()
        good = envelope_for({"ok": True}, "a" * 64, 100)
        bad = envelope_for({"ok": False}, "b" * 64, 100)
        assert engine.validator(node).submit_transaction(good)
        assert not engine.validator(node).submit_transaction(bad)

    def test_deliver_tx_filter_drops_invalid(self):
        loop, network, engine, apps, _ = build_cluster()

        class HalfDeliver(NullApplication):
            def deliver_tx(self, envelope):
                if envelope.payload["n"] % 2 == 0:
                    return super().deliver_tx(envelope)
                return False

        for app in apps.values():
            app.__class__ = HalfDeliver
        submit_batch(loop, engine, 10)
        loop.run(until=30.0)
        for app in apps.values():
            if app.delivered:
                assert all(int(tx[-1], 16) >= 0 for tx in app.delivered)


class TestCrashFaults:
    def test_minority_crash_preserves_liveness(self):
        loop, network, engine, apps, injector = build_cluster(n=4)
        injector.crash_now(engine.validator_order[3])
        submit_batch(loop, engine, 12)
        loop.run(until=120.0)
        assert len(committed_envelopes(engine)) >= 12 - 3  # txs routed to dead node lost

    def test_majority_crash_halts_chain(self):
        """> 1/3 offline: BFT must stop committing (paper case 2)."""
        loop, network, engine, apps, injector = build_cluster(n=4)
        submit_batch(loop, engine, 4)
        loop.run(until=5.0)
        committed_before = len(committed_envelopes(engine))
        injector.crash_now(engine.validator_order[0])
        injector.crash_now(engine.validator_order[1])
        submit_batch(loop, engine, 8, start=100)
        loop.run(until=30.0)
        newly = len(committed_envelopes(engine)) - committed_before
        assert newly == 0

    def test_quorum_recovery_resumes(self):
        """Chain resumes once voting power is back (paper case 2.a)."""
        loop, network, engine, apps, injector = build_cluster(n=4)
        injector.crash_now(engine.validator_order[0])
        injector.crash_now(engine.validator_order[1])
        submit_batch(loop, engine, 6, start=200)
        loop.run(until=10.0)
        assert len(committed_envelopes(engine)) == 0
        injector.recover_now(engine.validator_order[0])
        injector.recover_now(engine.validator_order[1])
        submit_batch(loop, engine, 6, start=300)
        loop.run(until=120.0)
        assert len(committed_envelopes(engine)) >= 6

    def test_recovered_node_catches_up(self):
        loop, network, engine, apps, injector = build_cluster(n=4)
        dead = engine.validator_order[3]
        injector.crash_now(dead)
        submit_batch(loop, engine, 9)
        loop.run(until=60.0)
        committed = len(engine.validator(engine.validator_order[0]).chain)
        assert committed > 0
        injector.recover_now(dead)
        submit_batch(loop, engine, 3, start=400)
        loop.run(until=180.0)
        assert len(engine.validator(dead).chain) >= committed


class TestPipelining:
    def _throughput(self, pipelining: bool) -> float:
        config = tendermint_config(max_block_txs=4, pipelining=pipelining)
        loop, network, engine, apps, _ = build_cluster(config=config)
        submit_batch(loop, engine, 40)
        loop.run(until=300.0)
        records = engine.commits
        assert records, "nothing committed"
        span = records[-1].committed_at - records[0].committed_at
        if span <= 0:
            return float("inf")
        return sum(len(r.block.transactions) for r in records) / span

    def test_pipelining_improves_throughput(self):
        """The BigchainDB pipelining ablation: on > off."""
        assert self._throughput(True) > self._throughput(False)


class TestIbftConfig:
    def test_block_gas_limit_enforced(self):
        loop = EventLoop()
        network = Network(loop, SeededRng(9))
        apps = {}

        def factory(node_id):
            apps[node_id] = NullApplication()
            return apps[node_id]

        config = ibft_config(block_gas_limit=100, block_period=0.1)
        engine = BftEngine(loop, network, factory, [f"q{i}" for i in range(4)], config)
        for index in range(6):
            tx_id = hashlib.sha3_256(f"g{index}".encode()).hexdigest()
            envelope = envelope_for({"n": index}, tx_id, 100, weight=60)
            engine.validator("q0").submit_transaction(envelope)
        loop.run(until=120.0)
        # 60-gas txs against a 100-gas limit: one tx per block.
        for record in engine.commits:
            assert len(record.block.transactions) == 1
        assert len(committed_envelopes(engine)) == 6

    def test_min_block_interval_spacing(self):
        loop = EventLoop()
        network = Network(loop, SeededRng(9))
        config = ibft_config(block_period=1.0)
        engine = BftEngine(
            loop, network, lambda nid: NullApplication(), [f"q{i}" for i in range(4)], config
        )
        for index in range(8):
            tx_id = hashlib.sha3_256(f"s{index}".encode()).hexdigest()
            envelope = envelope_for({"n": index}, tx_id, 100, weight=1)
            engine.validator(f"q{index % 4}").submit_transaction(envelope)
        loop.run(until=120.0)
        same_proposer_times: dict[str, list[float]] = {}
        for record in engine.commits:
            same_proposer_times.setdefault(record.block.proposer, []).append(record.committed_at)


def envelope(tag: str):
    tx_id = hashlib.sha3_256(tag.encode()).hexdigest()
    return envelope_for({"tag": tag}, tx_id, 100)


def proposer_for(engine, height, round_number):
    order = engine.validator_order
    return order[(height + round_number) % len(order)]


def deliver_proposal(engine, node_id, block):
    """Hand ``block`` to ``node_id`` as if its proposer had sent it."""
    message = Message(block.proposer, node_id, "PROPOSAL", block, block.size_bytes)
    engine.validator(node_id).handle_message(message)


class TestLockAcrossTheDriver:
    def test_lock_clears_when_the_height_commits(self):
        loop, _, engine, _, _ = build_cluster(seed=17)
        submitted = envelope("commit-me")
        for node_id in engine.validator_order:
            engine.validator(node_id).submit_transaction(submitted, gossip=False)
        loop.run(until=30.0)
        assert len(committed_envelopes(engine)) == 1
        for node_id in engine.validator_order:
            assert engine.validator(node_id).state.locked_value is None

    def test_competing_rounds_for_the_same_value_converge(self):
        """The seed-606 shape: the same transaction proposed at round 0
        and round 1 must commit as one block id everywhere."""
        loop, _, engine, _, _ = build_cluster(seed=17)
        shared = [envelope("contested")]
        r0 = Block.build(1, 0, proposer_for(engine, 1, 0), shared, GENESIS_ID)
        r1 = Block.build(1, 1, proposer_for(engine, 1, 1), shared, GENESIS_ID)
        assert r0.block_id == r1.block_id
        # Half the cluster sees round 0 first, half sees round 1 first.
        order = engine.validator_order
        for node_id in order[:2]:
            deliver_proposal(engine, node_id, r0)
            deliver_proposal(engine, node_id, r1)
        for node_id in order[2:]:
            deliver_proposal(engine, node_id, r1)
            deliver_proposal(engine, node_id, r0)
        loop.run(until=30.0)
        chains = {
            tuple(block.block_id for block in engine.validator(node_id).chain)
            for node_id in order
            if engine.validator(node_id).chain
        }
        assert chains, "nothing committed"
        assert len(chains) == 1, chains

    def test_wrong_parent_earns_a_nil_prevote(self):
        """A proposal that does not extend this node's chain is invalid
        whatever the application says about its transactions."""
        loop, _, engine, _, _ = build_cluster(seed=23)
        node_id, peer = engine.validator_order[0], engine.validator_order[2]
        block = Block.build(1, 0, proposer_for(engine, 1, 0), [envelope("x")], "f" * 64)
        deliver_proposal(engine, node_id, block)
        loop.run(until=loop.clock.now + 0.05)
        votes = engine.validator(peer).state.voters(PREVOTE, 0, NIL)
        assert [vote.voter for vote in votes] == [node_id]


class TestByzantineBehaviorsEndToEnd:
    def submit_everywhere(self, engine, tags):
        for tag in tags:
            item = envelope(tag)
            for node_id in engine.validator_order:
                engine.validator(node_id).submit_transaction(item, gossip=False)

    def honest_chains(self, engine, liar):
        return {
            node_id: tuple(
                block.block_id for block in engine.validator(node_id).chain
            )
            for node_id in engine.validator_order
            if node_id != liar
        }

    def test_equivocating_proposer_is_contained(self):
        loop, _, engine, _, _ = build_cluster(seed=23)
        liar = proposer_for(engine, 1, 0)
        engine.validator(liar).byzantine = make_behavior("equivocate")
        self.submit_everywhere(engine, ["m1", "m2"])
        loop.run(until=60.0)
        chains = self.honest_chains(engine, liar)
        assert all(chains.values()), f"honest nodes never committed: {chains}"
        assert len(set(chains.values())) == 1, chains
        # The proposer's double-voting left evidence on honest nodes.
        assert any(
            item["kind"] in ("double_vote", "equivocation")
            for node_id in chains
            for item in engine.validator(node_id).evidence
        )

    def test_vote_withholder_does_not_stall_the_quorum(self):
        loop, _, engine, _, _ = build_cluster(seed=23)
        liar = next(
            node
            for node in engine.validator_order
            if node != proposer_for(engine, 1, 0)
        )
        engine.validator(liar).byzantine = make_behavior("withhold")
        self.submit_everywhere(engine, ["w1"])
        loop.run(until=60.0)
        chains = self.honest_chains(engine, liar)
        assert all(chains.values())
        assert len(set(chains.values())) == 1

    def test_stale_replica_freezes_while_honest_nodes_advance(self):
        loop, _, engine, _, _ = build_cluster(seed=23)
        liar = next(
            node
            for node in engine.validator_order
            if node != proposer_for(engine, 1, 0)
        )
        engine.validator(liar).byzantine = make_behavior("stale")
        self.submit_everywhere(engine, ["s1"])
        loop.run(until=60.0)
        chains = self.honest_chains(engine, liar)
        assert all(chains.values())
        assert len(set(chains.values())) == 1
        assert len(engine.validator(liar).chain) < len(
            next(iter(chains.values()))
        ) + 1  # the frozen replica fell behind the honest commit
