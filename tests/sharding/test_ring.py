"""Consistent-hash ring properties: balance, determinism, minimal movement."""

from collections import Counter

import pytest

from repro.sharding.ring import ConsistentHashRing
from repro.sim.rng import SeededRng


def _keys(n: int, seed: int = 11) -> list[str]:
    rng = SeededRng(seed).stream("ring-keys")
    return [f"key-{rng.getrandbits(64):016x}" for _ in range(n)]


def assignment(ring: ConsistentHashRing, keys: list[str]) -> dict[str, str]:
    """key -> shard for a batch of keys."""
    return {key: ring.shard_for(key) for key in keys}


def spread(ring: ConsistentHashRing, keys: list[str]) -> Counter:
    """shard -> key count, every member present."""
    counts = Counter({shard: 0 for shard in ring.shards})
    counts.update(ring.shard_for(key) for key in keys)
    return counts


class TestMembership:
    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().shard_for("anything")

    def test_add_is_idempotent(self):
        ring = ConsistentHashRing(["a", "b"])
        ring.add_shard("a")
        assert ring.shards == ["a", "b"]

    def test_single_shard_owns_everything(self):
        ring = ConsistentHashRing(["solo"])
        assert all(ring.shard_for(key) == "solo" for key in _keys(100))


class TestDeterminism:
    def test_same_membership_same_mapping(self):
        keys = _keys(2_000)
        first = assignment(ConsistentHashRing(["s0", "s1", "s2", "s3"]), keys)
        # Insertion order must not matter.
        second = assignment(ConsistentHashRing(["s3", "s1", "s0", "s2"]), keys)
        assert first == second

    def test_repeated_lookup_stable(self):
        ring = ConsistentHashRing([f"s{index}" for index in range(5)])
        for key in _keys(50):
            assert ring.shard_for(key) == ring.shard_for(key)


class TestBalance:
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_virtual_nodes_spread_load(self, n_shards):
        """Every shard's share stays within 2x of perfectly uniform —
        the tolerance 64 virtual nodes comfortably achieves."""
        ring = ConsistentHashRing([f"s{index}" for index in range(n_shards)])
        counts = spread(ring, _keys(20_000))
        expected = 20_000 / n_shards
        for shard, count in counts.items():
            assert 0.5 * expected <= count <= 2.0 * expected, (shard, dict(counts))

    def test_more_vnodes_tightens_spread(self):
        keys = _keys(20_000)
        shards = [f"s{index}" for index in range(4)]

        def imbalance(vnodes: int) -> float:
            counts = spread(ConsistentHashRing(shards, virtual_nodes=vnodes), keys)
            return max(counts.values()) / min(counts.values())

        assert imbalance(128) <= imbalance(1)


class TestMinimalMovement:
    def test_adding_a_shard_only_moves_keys_to_it(self):
        keys = _keys(10_000)
        ring = ConsistentHashRing(["s0", "s1", "s2"])
        before = assignment(ring, keys)
        ring.add_shard("s3")
        after = assignment(ring, keys)
        moved = [key for key in keys if before[key] != after[key]]
        # Every displaced key lands on the new shard, never reshuffles
        # between the survivors.
        assert all(after[key] == "s3" for key in moved)
        # And roughly 1/4 of the keyspace moves (within loose bounds).
        assert 0.10 <= len(moved) / len(keys) <= 0.45
