"""The chain-replay oracle reads what it claims.

``replay_determinism`` is the report behind ``replica_utxo_consistency``:
how far each live replica is from its shard's chain replay.  A
single-shard deployment has no 2PC, no reference imports and no
migrations, so nothing reaches a replica's store except through its
chain: under crashes and partitions every live replica still reads
``(0, 0)``.  A row planted in, or taken out of, one replica's store
shows as exactly one ``extra`` / ``missing`` on that replica alone.  The
replay itself is extended incrementally: each block of a shard's chain
is delivered into it once per run.
"""

import pytest

from repro.simtest import SimHarness, SimtestConfig, invariants
from repro.simtest.invariants import REPLAY_KEYS, replay_determinism, replica_utxo_consistency

CLEAN = {name: (0, 0) for name in REPLAY_KEYS}

PLANTED = {
    "transactions": {"id": "planted"},
    "utxos": {"transaction_id": "planted", "output_index": 0, "public_keys": ["planted"], "amount": 1},
    "blocks": {"height": 10**9, "block_id": "planted", "transaction_ids": []},
}


def single_shard(seed):
    harness = SimHarness(SimtestConfig(seed=seed, steps=60, single=True))
    report = harness.run()
    assert report.ok, [f"{v.invariant} at step {v.step}: {v.detail}" for v in report.violations]
    return harness.plane


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_a_single_shard_replica_is_a_pure_replay_of_its_chain(seed):
    report = replay_determinism(single_shard(seed))
    assert report and all(cells == CLEAN for cells in report.values()), report


@pytest.mark.parametrize("direction", ["missing", "extra"])
@pytest.mark.parametrize("collection", sorted(REPLAY_KEYS))
def test_a_planted_row_shows_on_that_replica_alone(collection, direction):
    plane = single_shard(5)
    shard_id = plane.shard_ids[0]
    node_id = plane.nodes(shard_id)[1]
    store = plane.shard_cluster(shard_id).servers[node_id].database.collection(collection)
    if direction == "missing":
        row = store.find({})[0]
        assert store.delete_many({field: row[field] for field in REPLAY_KEYS[collection][:2]}) == 1
    else:
        store.insert_one(dict(PLANTED[collection]))
    report = replay_determinism(plane)
    planted = dict(CLEAN, **{collection: (1, 0) if direction == "missing" else (0, 1)})
    assert report.pop(f"{shard_id}/{node_id}") == planted
    assert all(cells == CLEAN for cells in report.values()), report


def test_each_block_is_delivered_into_the_replay_once_per_run(monkeypatch):
    delivered = []
    deliver_block = invariants.deliver_block

    def counted(app, block, committed):
        delivered.append((app, block.block_id))
        return deliver_block(app, block, committed)

    monkeypatch.setattr(invariants, "deliver_block", counted)
    harness = SimHarness(SimtestConfig(seed=5, steps=60))
    assert harness.run().ok
    assert harness.checker.checks_run["replica_utxo_consistency"] > 2
    plane = harness.plane
    for shard_id in plane.shard_ids:
        engine = plane.shard_cluster(shard_id).engine
        chain = max((engine.validator(n).chain for n in engine.validator_order), key=len)
        server = plane.replays[shard_id].server
        assert [bid for app, bid in delivered if app is server] == [b.block_id for b in chain]
    assert len(delivered) == sum(len(replay.block_ids) for replay in plane.replays.values())


def test_a_reference_chain_that_stops_extending_the_replay_is_a_violation():
    plane = single_shard(5)
    assert replica_utxo_consistency(plane) == []
    engine = plane.shard_cluster(plane.shard_ids[0]).engine
    for node_id in engine.validator_order:
        engine.validator(node_id).chain.pop()
    violations = replica_utxo_consistency(plane)
    assert violations and "no longer extends" in violations[0]


def test_each_block_delta_is_read_from_its_writes(monkeypatch):
    """Every block's added and removed rows, read from the block's own
    writes, equal the difference of the whole collections before and
    after it — through transfers, 2PC consumes, exports and imports."""
    advance = invariants.ChainReplay._advance

    def checked(replay, name):
        before = set(replay.rows[name].values())
        added, removed = advance(replay, name)
        after = invariants._rows(replay.database.collection(name).find({}, copy=False), name)
        assert (added, removed) == (after - before, before - after), name
        return added, removed

    monkeypatch.setattr(invariants.ChainReplay, "_advance", checked)
    report = SimHarness(
        SimtestConfig(seed=7, steps=80, fault_rate=0.05, elastic_rate=0.12, cross_rate=0.3)
    ).run()
    assert report.ok, [f"{v.invariant}: {v.detail}" for v in report.violations]
    migrated = report.stats["reshard"]["refs_moved"]
    assert migrated > 0, "the run moved no keys: exports and imports went untested"


def test_the_replay_follows_an_update_in_its_delivery(monkeypatch):
    """A block write the replicas never made (here an update of every
    UTXO in the replay's own delivery) is read from the change set like
    any other: the replay's tip follows its store, and every replica
    then differs from it on ``utxos`` alone."""
    plane = single_shard(5)
    deliver = invariants.deliver_block

    def deliver_and_update(server, block, committed):
        delivered = list(deliver(server, block, committed))
        server.database.collection("utxos").update_many({}, {"$set": {"amount": 2}})
        return delivered

    monkeypatch.setattr(invariants, "deliver_block", deliver_and_update)
    plane.replays.clear()
    report = replay_determinism(plane)
    replay = plane.replays[plane.shard_ids[0]]
    assert replay.broken is None
    for name in REPLAY_KEYS:
        stored = replay.database.collection(name).find({}, copy=False)
        assert set(replay.rows[name].values()) == invariants._rows(stored, name), name
    assert {row[3] for row in replay.rows["utxos"].values()} == {2}
    assert len(report) == len(plane.nodes(plane.shard_ids[0]))
    for cells in report.values():
        assert cells["utxos"] != (0, 0)
        assert dict(cells, utxos=(0, 0)) == CLEAN, cells
