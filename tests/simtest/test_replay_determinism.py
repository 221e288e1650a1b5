"""The report-only ``replay_determinism`` oracle reads what it claims.

A single-shard deployment has no 2PC, no reference imports and no
migrations, so nothing reaches a replica's store except through its
chain: under crashes and partitions every live replica still reads
``(0, 0)``.  And a row planted in, or taken out of, one replica's store
shows as exactly one ``extra`` / ``missing`` on that replica alone.
"""

import pytest

from repro.simtest import SimHarness, SimtestConfig
from repro.simtest.invariants import REPLAY_KEYS, replay_determinism

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
