"""Consistent-hash ring with virtual nodes.

Keys (asset ids, RFQ ids, routing hints) and shards are both hashed onto
a 64-bit circle; a key belongs to the first virtual node clockwise from
its point.  Virtual nodes smooth placement so each shard owns many small
arcs instead of one big one, which keeps the load spread tight and —
the property resharding relies on — means adding a shard only moves the
keys that land on the new arcs (~1/N of the keyspace) while every other
key keeps its owner.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

#: Default virtual nodes per shard — enough to keep the placement spread
#: within a few percent of uniform at single-digit shard counts.
DEFAULT_VIRTUAL_NODES = 64

_SPACE = 1 << 64


def _hash_point(label: str) -> int:
    """Deterministic 64-bit ring position for a label."""
    digest = hashlib.sha3_256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Maps string keys to shard ids with minimal-movement resize.

    Every membership change bumps :attr:`epoch`, so a topology version
    travels with the ring: routers stamp their decisions with the epoch
    they routed under, and a decision stamped with an older epoch is
    known-stale — it may name a retired owner — and must be re-routed
    rather than trusted.

    Args:
        shard_ids: initial shard membership.
        virtual_nodes: ring points per shard.
    """

    def __init__(
        self,
        shard_ids: Iterable[str] = (),
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
    ):
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        #: Topology version: starts at 0 on an empty ring and increments
        #: on every add (including the constructor's).
        self.epoch = 0
        self._members: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership -----------------------------------------------------------

    @property
    def shards(self) -> list[str]:
        """Current membership, sorted."""
        return sorted(self._members)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._members

    def add_shard(self, shard_id: str) -> None:
        """Join a shard (idempotent)."""
        if shard_id in self._members:
            return
        self._members.add(shard_id)
        self._rebuild()

    def _rebuild(self) -> None:
        self.epoch += 1
        entries: list[tuple[int, str]] = []
        for shard_id in self._members:
            for vnode in range(self.virtual_nodes):
                entries.append((_hash_point(f"{shard_id}#vn{vnode}"), shard_id))
        # Ties (astronomically unlikely) break by shard id so that two
        # rings built from the same membership agree exactly.
        entries.sort()
        self._points = [point for point, _ in entries]
        self._owners = [owner for _, owner in entries]

    # -- lookup ---------------------------------------------------------------

    def shard_for(self, key: str) -> str:
        """Owner shard of ``key``.

        Raises:
            LookupError: on an empty ring.
        """
        if not self._points:
            raise LookupError("consistent-hash ring has no shards")
        position = bisect_right(self._points, _hash_point(key))
        if position == len(self._points):
            position = 0  # wrap past the last virtual node
        return self._owners[position]

    def key_landing_on(
        self, shard_id: str, prefix: str = "key", attempts: int = 512
    ) -> str:
        """A deterministic string key that maps to ``shard_id`` — used by
        demos/workloads to steer a transaction (e.g. an asset migration)
        onto a chosen shard.

        Raises:
            LookupError: if no probe lands within ``attempts`` (cannot
                happen for a ring member with default attempts).
        """
        if shard_id not in self._members:
            raise LookupError(f"shard {shard_id!r} is not on the ring")
        for probe in range(attempts):
            key = f"{prefix}-{probe}"
            if self.shard_for(key) == shard_id:
                return key
        raise LookupError(
            f"no key with prefix {prefix!r} landed on {shard_id!r} in {attempts} attempts"
        )
