"""Ring rebalance edge cases: duplicates, degenerate vnodes, growth."""

import pytest

from repro.sharding.ring import ConsistentHashRing

from test_ring import assignment, spread


def _keys(n: int = 200) -> list[str]:
    return [f"edge-key-{index}" for index in range(n)]


class TestDuplicateShardIds:
    def test_duplicate_add_does_not_inflate_placement(self):
        ring = ConsistentHashRing(["a", "b"])
        baseline = assignment(ring, _keys())
        ring.add_shard("a")
        ring.add_shard("a")
        assert ring.shards == ["a", "b"]
        assert assignment(ring, _keys()) == baseline

    def test_duplicate_seed_membership_collapses(self):
        ring = ConsistentHashRing(["a", "a", "b", "b", "a"])
        assert ring.shards == ["a", "b"]
        counts = spread(ring, _keys())
        # Two members must split the keys, not 3:2-weight them.
        assert set(counts) == {"a", "b"}
        assert min(counts.values()) > 0


class TestDegenerateVnodeCount:
    def test_vnode_count_one_still_covers_the_circle(self):
        ring = ConsistentHashRing(["a", "b", "c"], virtual_nodes=1)
        counts = spread(ring, _keys(1000))
        assert sum(counts.values()) == 1000
        # One point per shard: wrap-around must still map every key.
        assert set(counts) == {"a", "b", "c"}

    def test_vnode_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(["a"], virtual_nodes=0)

    def test_single_shard_single_vnode_owns_everything(self):
        ring = ConsistentHashRing(["solo"], virtual_nodes=1)
        assert all(ring.shard_for(key) == "solo" for key in _keys(64))


class TestResizeMovementProperties:
    """Elastic-resharding contract: growing the ring may only move keys
    onto the new member; everything else stays put."""

    def test_add_shard_only_moves_keys_onto_the_new_member(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        before = assignment(ring, _keys(1000))
        ring.add_shard("d")
        after = assignment(ring, _keys(1000))
        for key, owner in before.items():
            assert after[key] in (owner, "d"), key

    def test_growth_steals_a_bounded_fraction(self):
        # Growing n -> n+1 should claim roughly 1/(n+1) of the keyspace,
        # not reshuffle it wholesale.
        ring = ConsistentHashRing(["a", "b", "c"])
        before = assignment(ring, _keys(2000))
        ring.add_shard("d")
        after = assignment(ring, _keys(2000))
        moved = sum(1 for key in before if after[key] != before[key])
        assert moved / len(before) < 0.5

    def test_every_resize_bumps_the_epoch(self):
        ring = ConsistentHashRing(["a", "b"])
        seen = [ring.epoch]
        ring.add_shard("c")
        seen.append(ring.epoch)
        ring.add_shard("d")
        seen.append(ring.epoch)
        assert seen == sorted(set(seen)), "epochs must strictly increase"
