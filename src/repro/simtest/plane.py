"""The fault plane: one chaos surface over both deployment shapes.

Crash knobs live all over the stack — ``Network.crash``,
``FailureInjector.crash_now``, the recovery drivers on the cluster and
the 2PC agent.  The :class:`FaultPlane` is the one fault surface over
them (the only coordinator crash hook), an interface that treats a
plain :class:`~repro.core.cluster.SmartchainCluster` and a
:class:`~repro.sharding.cluster.ShardedCluster` uniformly, so a fault
schedule generated for one topology replays against the other.

Every mutation goes through the underlying failure injectors, which
means the node-side crash/recovery callbacks (mempool flush, catch-up,
RETURN re-enqueue, 2PC resume) fire exactly as they would in the
hand-written crash tests.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.consensus.byzantine import make_behavior
from repro.core.cluster import SmartchainCluster, TxRecord
from repro.sharding.cluster import ShardedCluster
from repro.sharding.coordinator import COORDINATOR_NODE, TwoPhaseCoordinator
from repro.sim.events import EventLoop

#: Shard label a single (unsharded) cluster is addressed by.
SINGLE_SHARD = "single"


class FaultPlane:
    """Uniform chaos-injection surface over a cluster deployment.

    Args:
        cluster: a :class:`ShardedCluster` or :class:`SmartchainCluster`.
    """

    def __init__(self, cluster: ShardedCluster | SmartchainCluster):
        self.cluster = cluster
        self.sharded = isinstance(cluster, ShardedCluster)
        if self.sharded:
            self.shard_ids: list[str] = list(cluster.shard_ids)
            self._shards: dict[str, SmartchainCluster] = dict(cluster.shards)
        else:
            self.shard_ids = [SINGLE_SHARD]
            self._shards = {SINGLE_SHARD: cluster}
        #: Shards whose network currently has a chaos delay installed.
        self._chaotic: set[str] = set()
        #: Shards currently split by :meth:`partition_minority`.
        self._partitioned: dict[str, list[str]] = {}
        #: shard -> {node -> byzantine behavior kind} currently lying.
        self._byzantine: dict[str, dict[str, str]] = {}
        #: (shard, node) -> last observed chain (block ids) of each
        #: honest node, for the prefix-monotonicity half of
        #: ``equivocation_contained``.  Reset on crash-restart, where a
        #: node legitimately rewinds to its durable prefix.
        self.chain_watch: dict[tuple[str, str], list[str]] = {}
        #: Transaction ids the adversarial workload submitted with forged
        #: or mutated signatures — ``no_forged_admission`` asserts none
        #: of them ever reaches an applied block.
        self.forged_tx_ids: set[str] = set()
        #: shard -> its invariants.ChainReplay, extended as the chain grows.
        self.replays: dict[str, Any] = {}

    # -- topology ---------------------------------------------------------------

    @property
    def loop(self) -> EventLoop:
        return self.cluster.loop

    @property
    def now(self) -> float:
        return self.cluster.loop.clock.now

    def shard_cluster(self, shard_id: str) -> SmartchainCluster:
        return self._shards[shard_id]

    def nodes(self, shard_id: str) -> list[str]:
        """Validator ids of one shard, in deterministic order."""
        return list(self._shards[shard_id].engine.validator_order)

    @property
    def agents(self) -> dict[str, TwoPhaseCoordinator]:
        """2PC agents by shard (empty for a single cluster)."""
        return self.cluster.agents if self.sharded else {}

    def register_phase_listener(self, listener: Callable[[str, str, str], None]) -> None:
        """Observe 2PC protocol-phase transitions on every agent."""
        for agent in self.agents.values():
            agent.phase_listeners.append(listener)

    # -- elastic resharding -------------------------------------------------------

    @property
    def migrator(self):
        """The deployment's reshard controller (None for single clusters)."""
        return getattr(self.cluster, "migrator", None)

    def register_migration_listener(
        self, listener: Callable[[str, str], None]
    ) -> None:
        """Observe migration protocol-phase transitions on the controller."""
        migrator = self.migrator
        if migrator is not None:
            migrator.phase_listeners.append(listener)

    def start_migration(self, source: str, target: str) -> str:
        """Begin a live key migration between two existing shards.

        Raises:
            MigrationError: unknown shards or a conflicting active
                migration — schedules treat a refused start as a no-op
                fault.
        """
        migrator = self.migrator
        if migrator is None:
            raise ValueError("a single cluster has no reshard controller")
        return migrator.start_migration(source, target)

    def crash_migration_role(
        self, role: str, source: str, target: str, torn_bytes: int = 0
    ) -> None:
        """Crash one party of a live migration and restart it.

        ``source`` / ``target`` kill the shard's 2PC agent *and* its
        first validator mid-protocol and restore both from disk (the
        worst case: fences and shipped state must all survive the
        restart); ``controller`` restarts the reshard controller, which
        keeps no disk: it re-derives every cutover from the chains.
        """
        if role == "controller":
            self.migrator.restart()
            return
        shard_id = source if role == "source" else target
        self.crash_restart_coordinator(shard_id, torn_bytes=torn_bytes)
        node_id = self.nodes(shard_id)[0]
        self.crash_restart(shard_id, node_id, torn_bytes=torn_bytes)

    # -- node faults ------------------------------------------------------------

    def crash_node(self, shard_id: str, node_id: str) -> None:
        self._shards[shard_id].failures.crash_now(node_id)

    def recover_node(self, shard_id: str, node_id: str) -> None:
        self._shards[shard_id].failures.recover_now(node_id)

    def crashed_nodes(self, shard_id: str) -> list[str]:
        shard = self._shards[shard_id]
        return [n for n in shard.engine.validator_order if shard.network.is_crashed(n)]

    # -- byzantine faults ---------------------------------------------------------

    def byzantine_cap(self, shard_id: str) -> int:
        """Max concurrently-byzantine validators a shard's quorum math
        tolerates: f = ⌊(n−1)/3⌋."""
        return (len(self.nodes(shard_id)) - 1) // 3

    def mark_byzantine(self, shard_id: str, node_id: str, kind: str) -> None:
        """Turn one validator into a liar (see
        :mod:`repro.consensus.byzantine` for the behavior kinds).

        Raises:
            ValueError: if the mark would push the shard past its
                f<n/3 cap — a schedule that over-corrupts a shard can no
                longer distinguish broken safety from starved quorums.
        """
        marked = self._byzantine.setdefault(shard_id, {})
        if node_id not in marked and len(marked) >= self.byzantine_cap(shard_id):
            raise ValueError(
                f"{shard_id}: marking {node_id} byzantine would exceed the "
                f"f<n/3 cap ({self.byzantine_cap(shard_id)})"
            )
        self._shards[shard_id].engine.validator(node_id).byzantine = make_behavior(kind)
        marked[node_id] = kind

    def heal_byzantine(self, shard_id: str, node_id: str) -> None:
        """Restore a marked validator to honesty and resync it — a node
        that withheld votes or froze its replica lags exactly like a
        briefly crashed one."""
        self._byzantine.get(shard_id, {}).pop(node_id, None)
        shard = self._shards[shard_id]
        shard.engine.validator(node_id).byzantine = None
        if not shard.network.is_crashed(node_id):
            shard.resync_node(node_id)

    def byzantine_nodes(self, shard_id: str) -> list[str]:
        """Currently-byzantine validator ids of one shard, sorted."""
        return sorted(self._byzantine.get(shard_id, {}))

    def byzantine_kind(self, shard_id: str, node_id: str) -> str | None:
        return self._byzantine.get(shard_id, {}).get(node_id)

    # -- crash-restart faults (durability required) --------------------------------

    @property
    def durable(self) -> bool:
        """True when the deployment journals to per-node SimDisks, i.e.
        the crash-restart fault family is expressible."""
        return bool(self._shards[self.shard_ids[0]].node_durability)

    def crash_restart(self, shard_id: str, node_id: str, torn_bytes: int = 0) -> None:
        """Kill a node, discard its memory, restore it purely from its
        SimDisk (losing the device's unsynced tail, optionally keeping
        ``torn_bytes`` of it as a torn write), and rejoin the cluster."""
        # A restart-from-disk legitimately rewinds the node to its durable
        # prefix; the chain watch must re-baseline or it would misread the
        # rewind as a byzantine rollback.
        self.chain_watch.pop((shard_id, node_id), None)
        self._shards[shard_id].restart_node_from_disk(node_id, torn_bytes=torn_bytes)

    def crash_restart_coordinator(self, shard_id: str, torn_bytes: int = 0) -> None:
        """Crash-restart one shard's 2PC agent purely from its SimDisk."""
        if not self.sharded:
            raise ValueError("a single cluster has no 2PC coordinator to restart")
        self.cluster.agents[shard_id].restart_from_disk(torn_bytes=torn_bytes)

    # -- coordinator faults -------------------------------------------------------

    def crash_coordinator(self, shard_id: str) -> None:
        if not self.sharded:
            raise ValueError("a single cluster has no 2PC coordinator to crash")
        self._shards[shard_id].failures.crash_now(COORDINATOR_NODE)

    def recover_coordinator(self, shard_id: str) -> None:
        if not self.sharded:
            raise ValueError("a single cluster has no 2PC coordinator to recover")
        self._shards[shard_id].failures.recover_now(COORDINATOR_NODE)

    def coordinator_crashed(self, shard_id: str) -> bool:
        return self.sharded and self.cluster.agents[shard_id].crashed

    # -- network faults -----------------------------------------------------------

    def partition_minority(self, shard_id: str, minority: int = 1) -> None:
        """Split one shard's validator network: the last ``minority``
        nodes (by validator order) are isolated from the rest.  The
        majority keeps a BFT quorum, so the shard stays live while the
        minority silently falls behind."""
        order = self.nodes(shard_id)
        minority = max(1, min(minority, len(order) - 1))
        isolated = order[-minority:]
        kept = order[:-minority]
        self._shards[shard_id].network.partition([set(kept), set(isolated)])
        self._partitioned[shard_id] = isolated

    def heal(self, shard_id: str) -> None:
        """Remove a partition and resync the nodes it isolated — a healed
        minority lags exactly like a briefly crashed node does."""
        shard = self._shards[shard_id]
        shard.network.heal_partition()
        for node_id in self._partitioned.pop(shard_id, []):
            if not shard.network.is_crashed(node_id):
                shard.resync_node(node_id)

    def set_chaos_delay(self, shard_id: str, extra_delay: float) -> None:
        """Install (or with 0.0 clear) message delay/reorder chaos on one
        shard's validator network."""
        self._shards[shard_id].network.set_chaos(extra_delay)
        if extra_delay > 0:
            self._chaotic.add(shard_id)
        else:
            self._chaotic.discard(shard_id)

    def time_jump(self, delta: float) -> None:
        """Advance simulated time without running anything — every armed
        timer and in-flight message becomes due at once (clock skew /
        scheduler stall)."""
        self.cluster.loop.clock.advance(delta)

    # -- driving ------------------------------------------------------------------

    def submit_payload(self, payload: dict[str, Any], **kwargs: Any):
        return self.cluster.submit_payload(payload, **kwargs)

    def record_for(self, tx_id: str) -> TxRecord | None:
        if self.sharded:
            return self.cluster.record_for(tx_id)
        return self.cluster.records.get(tx_id)

    def run_slice(self, duration: float, max_events: int = 250_000) -> None:
        """Advance the shared loop by one harness step's worth of time."""
        self.loop.run(until=self.loop.clock.now + duration, max_events=max_events)

    # -- quiesce -------------------------------------------------------------------

    def quiesce(self, max_events: int = 2_000_000, rounds: int = 4) -> bool:
        """Repair everything and drain the deployment to a fixpoint.

        Heals partitions, clears chaos, recovers every crashed node and
        coordinator, then alternates ``run_until_idle`` with 2PC
        ``resume()`` kicks until no agent holds undecided state (bounded
        by ``rounds`` — parked retries need at most one kick per side).
        Returns whether the loop drained: False means ``max_events`` ran
        out first, i.e. something keeps scheduling work forever.
        """
        for shard_id in self.shard_ids:
            for node_id in list(self._byzantine.get(shard_id, {})):
                self.heal_byzantine(shard_id, node_id)
            if shard_id in self._partitioned:
                self.heal(shard_id)
            else:
                self._shards[shard_id].network.heal_partition()
            self.set_chaos_delay(shard_id, 0.0)
            for node_id in self.crashed_nodes(shard_id):
                self.recover_node(shard_id, node_id)
            if self.coordinator_crashed(shard_id):
                self.recover_coordinator(shard_id)
        migrator = self.migrator
        # A heal is not a crash: nodes that merely lagged still need the
        # catch-up kick recovery would have given them.
        for shard_id in self.shard_ids:
            shard = self._shards[shard_id]
            for node_id in shard.engine.validator_order:
                shard.resync_node(node_id)
        self.loop.run_until_idle(max_events=max_events)
        for _ in range(rounds):
            unfinished = any(
                agent.active_locks() or agent.unfinished()
                for agent in self.agents.values()
            ) or bool(migrator is not None and migrator.unfinished())
            if not unfinished:
                break
            for agent in self.agents.values():
                agent.resume()
            if migrator is not None:
                migrator.resume()
            self.loop.run_until_idle(max_events=max_events)
        return not self.loop.pending
