"""Horizontal partitioning for SmartchainDB clusters.

The paper's evaluation is single-cluster: one BFT group validates every
transaction, so aggregate throughput is capped no matter how fast the
per-node hot path gets.  This package adds the first scale-out layer:

* :mod:`repro.sharding.ring` — a consistent-hash ring with virtual
  nodes mapping asset / RFQ ids to shards with balanced placement and
  minimal key movement on resize;
* :mod:`repro.sharding.router` — classifies each transaction as
  single- vs cross-shard from its asset id and input references and
  picks its home shard;
* :mod:`repro.sharding.coordinator` — a two-phase-commit agent per
  shard (coordinator for home transactions, resource manager for
  remote lock requests) whose prepare/commit/abort traffic runs on the
  simulated event loop, so crash-fault schedules apply to it;
* :mod:`repro.sharding.cluster` — :class:`ShardedCluster`, composing N
  independent :class:`~repro.core.cluster.SmartchainCluster` BFT groups
  behind one driver-compatible facade with per-shard and aggregate
  metrics.
"""

from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.sharding.ring import ConsistentHashRing
from repro.sharding.router import RoutingDecision, ShardRouter

__all__ = [
    "ConsistentHashRing",
    "RoutingDecision",
    "ShardRouter",
    "ShardedCluster",
    "ShardedClusterConfig",
    "TwoPhaseCoordinator",
]
