"""Network partitions: safety holds, liveness needs a 2/3 partition."""

import hashlib

from repro.consensus.abci import NullApplication, envelope_for
from repro.consensus.tendermint import make_tendermint_cluster
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import SeededRng

from test_bft import committed_envelopes


def build(n=4, seed=71):
    loop = EventLoop()
    network = Network(loop, SeededRng(seed))
    engine = make_tendermint_cluster(loop, network, lambda nid: NullApplication(), n)
    return loop, network, engine


def submit(loop, engine, count, start=0):
    for index in range(start, start + count):
        tx_id = hashlib.sha3_256(f"p{index}".encode()).hexdigest()
        envelope = envelope_for({"n": index}, tx_id, 150)
        node = engine.validator_order[index % len(engine.validator_order)]
        engine.validator(node).submit_transaction(envelope)


class TestPartitions:
    def test_even_split_halts(self):
        """2-2 split of 4 validators: no group has a 2/3 quorum."""
        loop, network, engine, = build()
        nodes = engine.validator_order
        network.partition([set(nodes[:2]), set(nodes[2:])])
        submit(loop, engine, 8)
        loop.run(until=30.0)
        assert len(committed_envelopes(engine)) == 0

    def test_majority_partition_commits(self):
        """A 3-1 split: the 3-node side has quorum and keeps committing."""
        loop, network, engine = build()
        nodes = engine.validator_order
        network.partition([set(nodes[:3]), {nodes[3]}])
        submit(loop, engine, 8)
        loop.run(until=60.0)
        majority_chain = engine.validator(nodes[0]).chain
        minority_chain = engine.validator(nodes[3]).chain
        assert len(majority_chain) > 0
        assert len(minority_chain) == 0

    def test_no_fork_across_partition(self):
        loop, network, engine = build()
        nodes = engine.validator_order
        network.partition([set(nodes[:3]), {nodes[3]}])
        submit(loop, engine, 8)
        loop.run(until=30.0)
        network.heal_partition()
        submit(loop, engine, 4, start=100)
        loop.run(until=200.0)
        chains = {nid: [b.block_id for b in v.chain] for nid, v in engine.validators.items()}
        reference = max(chains.values(), key=len)
        for chain in chains.values():
            assert chain == reference[: len(chain)]

    def test_healed_partition_resumes_liveness(self):
        loop, network, engine = build()
        nodes = engine.validator_order
        network.partition([set(nodes[:2]), set(nodes[2:])])
        submit(loop, engine, 4)
        loop.run(until=20.0)
        committed_during = len(committed_envelopes(engine))
        network.heal_partition()
        submit(loop, engine, 4, start=50)
        loop.run(until=300.0)
        assert committed_during == 0
        assert len(committed_envelopes(engine)) >= 4
