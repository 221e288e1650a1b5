"""Elastic resharding: crash-safe live migration of key ownership.

The consistent-hash ring can *compute* a minimal-movement resize, but a
resize is useless until the deployment can actually move state between
BFT groups while traffic is running.  This module is that protocol: an
epoch-versioned migration state machine driven by a deployment-level
:class:`ReshardController`, built from certified chain entries, the 2PC
fence and router placement memory, so that a migration can be killed at
any point and never loses, duplicates, or double-spends a key.  The
controller keeps no journal and no disk: the chains are its log.

Phases of one migration (``planned`` is the initial state)::

    planned -> snapshot_ship -> wal_tail -> drain -> cutover -> done
           \\___________________________________/       |
                     |  (stall / drain failure,           |
                     v   or the source refuses the export)
                 rolled_back <-----------------------------'

* **snapshot_ship** — the moving set (a lineage of CREATE/TRANSFER
  transactions with live outputs, selected load-aware by the hot-shard
  policy or explicitly by the caller) is captured at a source chain
  height ``h0``; nothing is written anywhere yet.
* **wal_tail** — the source chain above ``h0`` is re-read each round:
  outputs its entries spend or consume leave the moving set, children
  that kept the lineage on the source join it, until a round's delta is
  bounded.
* **drain** — the source agent's spend guard fences the moving set
  (``redirect:migrating:<id>`` refuses new admissions, pool entries, 2PC
  prepares *and* pending home commit-points) while the controller waits
  for every in-flight spend — pooled rivals, prepared locks — to settle,
  absorbing their effects through more tail rounds.  A drain that cannot
  settle in its round budget rolls back; nothing moved yet.
* **cutover** — entered in the event that submits the controller-signed
  ``SHARD_EXPORT`` of the final moved set to the source chain.  Its
  delivery there is the commit point: DeliverTx refuses it unless every
  moved output is still unspent (then the migration rolls back), and
  from it on the source answers their spends ``redirect:moved``.  A
  ``SHARD_IMPORT`` on the target then carries the creating payloads, read
  from the source chain, with the export block's commit certificate as
  evidence (:mod:`repro.core.entries`), so the target cannot own an
  output before the source let it go.  Then the router learns the new
  homes and bumps its epoch.  Entries have content ids, so re-submitting
  one is harmless; clients that raced the cutover see ``redirect:*`` and
  retry against the new owner (the driver's backoff).

Crash matrix — who can die, and what recovery does:

=============  ==========================================================
crashed party  outcome
=============  ==========================================================
source node    WAL replay + catch-up: the export is a block like any
               other, so the node's outputs match its chain again.
target node    WAL replay + catch-up, likewise for the import.
source/target  pre-cutover: nothing to redo — a stalled migration
agent          retries, bounded, then rolls back.  Post-cutover the
               agents hold no migration state: the redirect is the
               export on the source chain.
controller     :meth:`~ReshardController.restart` forgets every
               migration and folds the chains and pools: an export
               delivered without its import, or still pooled, rolls
               forward; a migration whose export was never pooled is
               forgotten — nothing of it is on any chain, and its fence
               went with the memory.
=============  ==========================================================

Fed every commit by the facade, the controller also closes the detection
loop: it tracks a sliding ``hot_shard_share`` window and auto-splits a
hot shard (growing the ring or rebalancing onto the coldest member) when
the share crosses its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.encoding import deep_copy_json
from repro.common.errors import MigrationError
from repro.core.context import REDIRECT_MARKER
from repro.core.entries import (
    CONTROLLER,
    SHARD_EXPORT,
    SHARD_IMPORT,
    export_entry,
    import_entry,
    refs_of,
)
from repro.core.transaction import OutputRef
from repro.crypto.keys import keypair_from_string
from repro.telemetry import INERT, Telemetry

TERMINAL_PHASES = ("done", "rolled_back")

#: Phases the chaos harness arms ``migrate_trap`` actions on: a trap
#: crashes its role *inside* the phase (each phase spans at least one
#: loop tick, so a zero-delay crash scheduled from the phase-entry
#: notification lands mid-phase — on ``cutover`` after the export is
#: pooled and before a block delivers it).
MIGRATE_TRAP_PHASES = ("snapshot_ship", "wal_tail", "drain", "cutover")

#: Parties a ``migrate_trap`` can kill.
MIGRATE_TRAP_ROLES = ("source", "target", "controller")

#: Operations a migration will move.  Marketplace lineage (REQUEST /
#: BID / ACCEPT_BID / RETURN) routes by its RFQ and stays put; spends
#: that cross into a moved asset go through ordinary 2PC.
MOVABLE_OPERATIONS = frozenset({"CREATE", "TRANSFER"})

#: Observer of migration phase transitions: ``(migration_id, phase)``.
#: Like 2PC phase listeners, a listener must not mutate the deployment
#: synchronously — schedule faults through the event loop.
MigrationPhaseListener = Callable[[str, str], None]

#: Phases with their own telemetry clock (``migration_<phase>_ms``).
_CLOCKED_PHASES = ("snapshot_ship", "wal_tail", "drain", "cutover")


# Tuning of the migration state machine (simulated seconds).
#: Spacing between state-machine ticks (tail rounds, drain
#: probes, stall retries).
TICK_INTERVAL = 0.02
#: A tail round adding at most this many fresh transactions counts as
#: "lag bounded" and advances to drain.
TAIL_LAG_TARGET = 1
#: Tail rounds before advancing to drain regardless of lag.
MAX_TAIL_ROUNDS = 10
#: Drain probes before the migration gives up and rolls back.
MAX_DRAIN_ROUNDS = 150
#: Ticks a pre-cutover phase may stall (no live node / crashed agent)
#: before presumed-abort rollback.  A cutover waiting that long parks
#: instead: its export is out, so it only rolls forward, on the next resume.
MAX_STALL_TICKS = 600
#: Cutover ticks between re-submissions of a chain entry not yet landed.
RESUBMIT_TICKS = 25
#: Cap on the moving set (transactions per migration).
MAX_PLAN_TXS = 48


@dataclass
class MigrationPolicy:
    """Hot-shard auto-split policy (the detection half of the loop)."""

    #: Split when one shard's share of the commit window exceeds this.
    hot_share_threshold: float = 0.6
    #: Sliding window length (movable commits observed).
    window: int = 48
    #: Observations before the share is trusted at all.
    min_observations: int = 32
    #: Simulated seconds between auto-splits.
    cooldown: float = 4.0
    #: Grow the ring with a fresh shard (a true split) up to this many
    #: shards; past it, rebalance onto the coldest existing member.
    max_shards: int = 12


class ShardMigration:
    """The controller's memory of one migration.  A restart loses it; what
    survives is its export, on a chain or in a pool (see
    :meth:`ReshardController.resume`)."""

    def __init__(self, migration_id: str, source: str, target: str):
        self.migration_id = migration_id
        self.source = source
        self.target = target
        self.phase = "planned"
        #: Ids of the transactions in the moving set.
        self.plan: set[str] = set()
        #: (transaction_id, output_index) of every moving output still live.
        self.live: set[tuple[str, int]] = set()
        #: Explicit plan requested by the caller (None = select here).
        self.requested: list[str] | None = None
        #: The refs the export names, fixed at cutover.
        self.moved: list[tuple[str, int]] = []
        self.tailed_height = 0
        self.tail_rounds = 0
        self.drain_rounds = 0
        self.stall_ticks = 0
        #: The cutover's two chain entries, built once each, and the id
        #: of the one last submitted (see ``_await_entry``).
        self.export: dict[str, Any] | None = None
        self.import_: dict[str, Any] | None = None
        self.awaiting: str | None = None
        #: phase -> entry time (telemetry clocks; a migration taken up
        #: from the chains has none).
        self.phase_started: dict[str, float] = {}

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES


class ReshardController:
    """Deployment-level migration controller + hot-shard policy.

    It keeps no journal and no disk: a migration's commit point is its
    export landing on the source chain, and :meth:`restart` re-derives
    every cutover from the export and import entries the chains and
    pools hold.

    Args:
        deployment: the owning
            :class:`~repro.sharding.cluster.ShardedCluster`.
        policy: hot-shard auto-split policy (None disables detection;
            explicit :meth:`start_migration` calls still work).
        telemetry: shared deployment telemetry.
    """

    def __init__(
        self,
        deployment,
        policy: MigrationPolicy | None = None,
        telemetry: Telemetry = INERT,
    ):
        self.deployment = deployment
        self.policy = policy
        self.telemetry = telemetry
        #: Signs the cutovers' ``SHARD_EXPORT`` / ``SHARD_IMPORT`` entries
        #: (replicas take them only under this key).
        self.keypair = keypair_from_string(CONTROLLER)
        self._loop = deployment.loop
        self._epoch = 0
        self.migrations: dict[str, ShardMigration] = {}
        self.phase_listeners: list[MigrationPhaseListener] = []
        #: Per-migration outcome reports (write pause, refs moved) for
        #: benchmarks.  Like ``stats``, a run counter: a restart keeps it.
        self.reports: dict[str, dict[str, Any]] = {}
        # Hot-shard policy state: sliding (shard, asset) commit window.
        self._window: list[tuple[str, str]] = []
        self._last_split_at = float("-inf")
        #: A migration a restart forgot before its export is counted
        #: started, but neither done nor rolled back.
        self.stats = {
            "started": 0,
            "done": 0,
            "rolled_back": 0,
            "auto_splits": 0,
            "refs_moved": 0,
            "payloads_shipped": 0,
            "entries_submitted": 0,
        }

    # -- plumbing ---------------------------------------------------------------

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Epoch-guarded timer: anything armed before a restart or a
        resume is dead on arrival (mirrors the 2PC agent's timers)."""
        epoch = self._epoch

        def fire() -> None:
            if self._epoch == epoch:
                callback()

        self._loop.schedule_in(delay, fire)

    def _notify(self, migration_id: str, phase: str) -> None:
        self.telemetry.flight.record(self._loop.clock.now, "reshard", phase, tx_id=migration_id)
        for listener in self.phase_listeners:
            listener(migration_id, phase)

    def _set_active_gauge(self) -> None:
        active = sum(1 for m in self.migrations.values() if not m.terminal)
        self.telemetry.gauge("migrations_active").set(active)

    def _live_node(self, shard_id: str):
        cluster = self.deployment.shards[shard_id]
        for node_id in cluster.engine.validator_order:
            if not cluster.network.is_crashed(node_id):
                return node_id, cluster.servers[node_id]
        return None

    def _enter_phase(self, m: ShardMigration, phase: str) -> None:
        now = self._loop.clock.now
        started = m.phase_started.get(m.phase)
        if started is not None and m.phase in _CLOCKED_PHASES:
            self.telemetry.observe_ms(f"migration_{m.phase}_ms", now - started, shard=m.source)
        m.phase = phase
        m.phase_started[phase] = now
        self._set_active_gauge()
        self._notify(m.migration_id, phase)

    # -- starting migrations ------------------------------------------------------

    def _next_id(self) -> str:
        """One past the highest id held: a restart takes back every export
        on a chain or in a pool (:meth:`resume`), so an id comes back only
        when nothing anywhere carries it."""
        return f"m-{max((int(mid[2:]) for mid in self.migrations), default=0) + 1:04d}"

    def start_migration(
        self, source: str, target: str, plan_txs: list[str] | None = None
    ) -> str:
        """Begin migrating a lineage of keys from ``source`` to ``target``.

        Returns the migration id.  One migration at a time per shard: a
        shard already acting as source or target refuses a second.

        Raises:
            MigrationError: unknown shards, source == target, or a
                conflicting active migration.
        """
        shards = self.deployment.shards
        if source not in shards:
            raise MigrationError(f"unknown source shard {source!r}")
        if target not in shards:
            raise MigrationError(f"unknown target shard {target!r}")
        if source == target:
            raise MigrationError("source and target shards are the same")
        for other in self.migrations.values():
            if not other.terminal and {source, target} & {other.source, other.target}:
                raise MigrationError(
                    f"{other.migration_id} is already migrating "
                    f"{other.source}->{other.target}"
                )
        migration_id = self._next_id()
        m = ShardMigration(migration_id, source, target)
        m.requested = sorted(plan_txs) if plan_txs else None
        m.phase_started["planned"] = self._loop.clock.now
        self.migrations[migration_id] = m
        self.stats["started"] += 1
        self.telemetry.counter("migrations_started", shard=source).inc()
        self._set_active_gauge()
        self._notify(migration_id, "planned")
        self._schedule(TICK_INTERVAL, lambda: self._tick(migration_id))
        return migration_id

    # -- the state machine --------------------------------------------------------

    def _tick(self, migration_id: str) -> None:
        m = self.migrations.get(migration_id)
        if m is None or m.terminal:
            return
        if m.phase == "planned":
            self._tick_plan(m)
        elif m.phase == "snapshot_ship":
            self._tick_ship(m)
        elif m.phase == "wal_tail":
            self._tick_tail(m)
        elif m.phase == "drain":
            self._tick_drain(m)
        elif m.phase == "cutover":
            self._apply_cutover(m)

    def _reschedule(self, m: ShardMigration) -> None:
        self._schedule(
            TICK_INTERVAL, lambda: self._tick(m.migration_id)
        )

    def _stall(self, m: ShardMigration) -> None:
        """A tick that could not progress (no live node, crashed agent,
        an entry not landed yet).  Pre-cutover stalls are bounded by
        presumed abort; a cutover, its export out, waits for its parties,
        then parks until :meth:`resume` (keeping the event loop finite)."""
        m.stall_ticks += 1
        if m.stall_ticks > MAX_STALL_TICKS:
            if m.phase != "cutover":
                self._rollback(m, f"stalled in {m.phase} for {m.stall_ticks} ticks")
            return  # a cutover parks until the next resume
        self._reschedule(m)

    def _tick_plan(self, m: ShardMigration) -> None:
        live = self._live_node(m.source)
        if live is None:
            return self._stall(m)
        _node_id, server = live
        plan_ids = m.requested if m.requested is not None else self._select_plan(
            m.source, server
        )
        transactions = server.database.collection("transactions")
        for tx_id in plan_ids:
            if transactions.find_one({"id": tx_id}, copy=False) is None:
                continue
            m.plan.add(tx_id)
            if len(m.plan) >= MAX_PLAN_TXS:
                break
        utxos = server.database.collection("utxos")
        for tx_id in sorted(m.plan):
            for doc in utxos.find({"transaction_id": tx_id}, copy=False):
                m.live.add((doc["transaction_id"], doc["output_index"]))
        if not m.live:
            return self._rollback(m, "nothing live to move")
        blocks = server.database.collection("blocks")
        m.tailed_height = max(
            (block["height"] for block in blocks.find({}, copy=False)), default=0
        )
        self._enter_phase(m, "snapshot_ship")
        self._reschedule(m)

    def _movable(self, source: str, server) -> dict[str, dict[str, Any]]:
        """tx id -> payload of every source-homed movable transaction
        with live outputs, in deterministic (sorted) order."""
        router = self.deployment.router
        transactions = server.database.collection("transactions")
        movable: dict[str, dict[str, Any]] = {}
        for tx_id in sorted(
            {doc["transaction_id"] for doc in server.database.collection("utxos").find({}, copy=False)}
        ):
            payload = transactions.find_one({"id": tx_id}, copy=False)
            if (
                payload is not None
                and payload.get("operation") in MOVABLE_OPERATIONS
                and router.home_of_tx(tx_id) == source
            ):
                movable[tx_id] = payload
        return movable

    def _select_plan(self, source: str, server) -> list[str]:
        """Default moving set: the first movable transactions."""
        return list(self._movable(source, server))[:MAX_PLAN_TXS]

    def _tick_ship(self, m: ShardMigration) -> None:
        # The snapshot was captured at plan time; the payloads travel in
        # the import entry, read from the source chain at cutover, so
        # there is nothing to write yet.
        self._enter_phase(m, "wal_tail")
        self._reschedule(m)

    def _tail_once(self, m: ShardMigration) -> int | None:
        """One tail round: absorb the source chain above the cursor into
        the moving set — spends, consumes and exports drop the outputs
        they name, lineage children join.  Returns fresh-transaction
        count, or None when no live source node could be read."""
        live = self._live_node(m.source)
        if live is None:
            return None
        node_id, server = live
        transactions = server.database.collection("transactions")
        fresh = 0
        chain = self.deployment.shards[m.source].engine.validator(node_id).chain
        for block in chain[m.tailed_height:]:
            for envelope in block.transactions:
                tx_id, payload = envelope.tx_id, envelope.payload
                if transactions.find_one({"id": tx_id}, copy=False) is None:
                    continue  # not delivered: it changed nothing
                spent_plan_output = False
                for item in payload.get("inputs") or []:
                    fulfills = item.get("fulfills")
                    if not fulfills:
                        continue
                    ref = (fulfills["transaction_id"], fulfills["output_index"])
                    if ref[0] in m.plan:
                        spent_plan_output = True
                    m.live.discard(ref)
                if (
                    tx_id not in m.plan
                    and spent_plan_output
                    and payload.get("operation") in MOVABLE_OPERATIONS
                    and self.deployment.router.home_of_tx(tx_id) == m.source
                    and len(m.plan) < MAX_PLAN_TXS
                ):
                    # A child kept the lineage on the source mid-flight:
                    # it joins the moving set so the asset moves whole.
                    m.plan.add(tx_id)
                    fresh += 1
                    for index in range(len(payload.get("outputs") or [])):
                        m.live.add((tx_id, index))
            m.tailed_height = max(m.tailed_height, block.height)
        return fresh

    def _tick_tail(self, m: ShardMigration) -> None:
        fresh = self._tail_once(m)
        if fresh is None:
            return self._stall(m)
        m.tail_rounds += 1
        if (
            fresh <= TAIL_LAG_TARGET
            or m.tail_rounds >= MAX_TAIL_ROUNDS
        ):
            self._enter_phase(m, "drain")
        self._reschedule(m)

    def _pending_writer(self, m: ShardMigration) -> str | None:
        """An in-flight spend of the moving set: a pooled rival on any
        source node, or a 2PC lock on a moving ref — prepared, or
        decided with its consume entry not on the source chain yet."""
        source = self.deployment.shards[m.source]
        for ref in sorted(m.live):
            rival = source.inflight_spender(OutputRef(ref[0], ref[1]))
            if rival is not None:
                return f"pooled {rival[:8]}"
        agent = self.deployment.agents.get(m.source)
        if agent is not None:
            for lock in agent.active_locks():
                if (lock["transaction_id"], lock["output_index"]) in m.live:
                    return f"{lock['status']} lock held by {lock['holder'][:8]}"
        return None

    def _tick_drain(self, m: ShardMigration) -> None:
        m.drain_rounds += 1
        if self._tail_once(m) is None:
            return self._stall(m)
        if not m.live:
            return self._rollback(m, "moving set fully consumed before cutover")
        if m.drain_rounds > MAX_DRAIN_ROUNDS:
            return self._rollback(
                m, f"drain did not settle in {MAX_DRAIN_ROUNDS} rounds"
            )
        pending = self._pending_writer(m)
        if pending is not None:
            return self._reschedule(m)
        m.moved = sorted(m.live)
        m.stall_ticks = 0
        m.export = export_entry(m.migration_id, m.source, m.target, m.moved, self.keypair)
        # The commit point goes out before the phase listeners hear of
        # it: a crash they schedule at cutover finds the export pooled.
        self._submit(m, self.deployment.shards[m.source], m.export)
        self._enter_phase(m, "cutover")
        self._stall(m)

    # -- cutover ------------------------------------------------------------------

    def _apply_cutover(self, m: ShardMigration) -> None:
        """Drive a cutover one step: the export onto the source chain,
        then the import onto the target chain, then routing.  Every step
        re-derives where it stands from the chains, so a migration taken
        up after a restart resumes anywhere."""
        deployment = self.deployment
        source, target = deployment.shards[m.source], deployment.shards[m.target]
        landed = source.landed(m.export["id"])
        if landed is False:
            return self._rollback(m, "the source chain refused the export", cutover=True)
        if not landed:
            return self._await_entry(m, source, m.export)
        if m.import_ is None:
            evidence = source.commit_evidence(m.export["id"])
            payloads = self._creators(m) if evidence is not None else None
            if payloads is None:
                return self._stall(m)
            m.import_ = import_entry(m.export, evidence, payloads, self.keypair)
        if not target.landed(m.import_["id"]):
            return self._await_entry(m, target, m.import_)
        for tx_id in sorted({ref[0] for ref in m.moved}):
            deployment.router.record_home(tx_id, m.target)
        # New routing epoch: in-flight clients re-route and retry.
        deployment.router.bump_epoch()
        now = self._loop.clock.now
        tel = self.telemetry
        tel.counter("migration_refs_moved", shard=m.source).inc(len(m.moved))
        drained_at = m.phase_started.get("drain")
        if drained_at is not None:
            tel.observe_ms("migration_write_pause_ms", now - drained_at, shard=m.source)
        planned_at = m.phase_started.get("planned")
        if planned_at is not None:
            tel.observe_ms("migration_total_ms", now - planned_at, shard=m.source)
        self.stats["done"] += 1
        self.stats["refs_moved"] += len(m.moved)
        self.stats["payloads_shipped"] += len(m.import_["payloads"])
        self.reports[m.migration_id] = {
            "source": m.source,
            "target": m.target,
            "refs_moved": len(m.moved),
            "txs_shipped": len(m.import_["payloads"]),
            "write_pause": now - drained_at if drained_at is not None else None,
            "completed_at": now,
        }
        self._enter_phase(m, "done")

    def _creators(self, m: ShardMigration) -> list[dict[str, Any]] | None:
        """Copies of the payloads that created the moved outputs, as a
        live source replica stores them (None while none holds them all)."""
        source = self.deployment.shards[m.source]
        creators = sorted({ref[0] for ref in m.moved})
        for node_id in source.engine.validator_order:
            if source.network.is_crashed(node_id):
                continue
            transactions = source.servers[node_id].database.collection("transactions")
            payloads = [transactions.find_one({"id": tx_id}, copy=False) for tx_id in creators]
            if all(payload is not None for payload in payloads):
                return [deep_copy_json(payload) for payload in payloads]
        return None

    def _submit(self, m: ShardMigration, cluster, entry: dict[str, Any]) -> None:
        m.awaiting = entry["id"]
        self.stats["entries_submitted"] += 1
        cluster.submit_entry(entry)

    def _await_entry(self, m: ShardMigration, cluster, entry: dict[str, Any]) -> None:
        """Submit a cutover entry, and again every :data:`RESUBMIT_TICKS`
        while it has not landed — its content id makes a duplicate
        harmless."""
        if m.awaiting != entry["id"] or m.stall_ticks % RESUBMIT_TICKS == 0:
            self._submit(m, cluster, entry)
        self._stall(m)

    def _rollback(self, m: ShardMigration, reason: str, cutover: bool = False) -> None:
        """Presumed abort; a cutover rolls back only when its export was
        refused (``cutover``): nothing moved on either chain."""
        if m.terminal or (m.phase == "cutover" and not cutover):
            return
        self.stats["rolled_back"] += 1
        self.telemetry.counter("migrations_rolled_back", shard=m.source).inc()
        self.reports[m.migration_id] = {
            "source": m.source,
            "target": m.target,
            "rolled_back": reason,
            "completed_at": self._loop.clock.now,
        }
        self._enter_phase(m, "rolled_back")

    # -- the spend-guard fence ----------------------------------------------------

    def fence(self, shard_id: str, ref) -> str | None:
        """Fence verdict for one output ref on one shard: refuse spends
        of the moving set from drain until the cutover lands (every
        shard's agent consults it before its lock table)."""
        for migration_id in sorted(self.migrations):
            m = self.migrations[migration_id]
            if m.source != shard_id or m.phase not in ("drain", "cutover"):
                continue
            if (ref.transaction_id, ref.output_index) in m.live:
                return f"{REDIRECT_MARKER}:migrating:{migration_id}->{m.target}"
        return None

    # -- restart: the chains are the log ------------------------------------------

    def restart(self) -> None:
        """Kill the controller and start it with no memory: its timers die,
        every migration (and with it every fence) is forgotten, and
        :meth:`resume` takes back from the chains and pools whatever an
        export put in flight.  ``stats`` and ``reports`` are run counters
        and survive."""
        self.telemetry.flight.record(self._loop.clock.now, "reshard", "restart")
        self.migrations = {}
        self.resume()

    def resume(self) -> None:
        """Fold the chains and pools, then drive every migration toward a
        terminal phase.  An export this controller does not hold is taken
        up — as ``done`` once its import is delivered, else in
        ``cutover``, to roll forward — and live migrations get a fresh
        tick budget."""
        self._epoch += 1  # one tick chain per migration from here on
        for export, phase in self._exports():
            if export["migration"] not in self.migrations:
                m = self.migrations[export["migration"]] = ShardMigration(
                    export["migration"], export["source"], export["target"]
                )
                m.phase, m.export, m.moved = phase, export, refs_of(export)
                m.live = set(m.moved)
        for migration_id in sorted(self.migrations):
            m = self.migrations[migration_id]
            if m.terminal:
                continue
            m.stall_ticks = 0
            if m.phase == "cutover":
                self._apply_cutover(m)
            else:
                self._reschedule(m)
        self._set_active_gauge()

    def _exports(self) -> list[tuple[dict[str, Any], str]]:
        """Every export a shard's committed blocks delivered or a mempool
        holds, in migration-id order, with the phase it stands in: ``done``
        once its import is delivered, else ``cutover``.  An export a block
        carried and DeliverTx refused moved nothing and is left out."""
        exports: dict[str, dict[str, Any]] = {}
        imported: set[str] = set()
        for cluster in self.deployment.shards.values():
            engine = cluster.engine
            envelopes = [envelope for record in engine.commits for envelope in record.delivered]
            for node_id in engine.validator_order:
                envelopes += engine.validator(node_id).mempool.pending_envelopes()
            for envelope in envelopes:
                entry, landed = envelope.payload, cluster.landed(envelope.tx_id)
                if entry.get("operation") == SHARD_EXPORT and landed is not False:
                    exports[entry["migration"]] = entry
                elif entry.get("operation") == SHARD_IMPORT and landed:
                    imported.add(entry["export"]["id"])
        return [
            (exports[mid], "done" if exports[mid]["id"] in imported else "cutover")
            for mid in sorted(exports)
        ]

    def unfinished(self) -> list[str]:
        """Ids of the migrations this controller holds that are not yet
        terminal (quiesce drives these to completion before invariants run)."""
        return sorted(mid for mid, m in self.migrations.items() if not m.terminal)

    # -- hot-shard policy ---------------------------------------------------------

    def observe_commit(self, shard_id: str, payload: dict[str, Any]) -> None:
        """Feed one committed transaction into the hot-shard window (the
        facade calls this from its commit listener)."""
        if self.policy is None:
            return
        if payload.get("operation") not in MOVABLE_OPERATIONS:
            return
        asset = (payload.get("asset") or {}).get("id") or payload.get("id", "")
        self._window.append((shard_id, asset))
        if len(self._window) > self.policy.window:
            del self._window[: len(self._window) - self.policy.window]
        self.maybe_split()

    def hot_shard_share(self) -> tuple[str | None, float]:
        """(hottest shard, its share of the commit window)."""
        if not self._window:
            return None, 0.0
        counts: dict[str, int] = {}
        for shard_id, _asset in self._window:
            counts[shard_id] = counts.get(shard_id, 0) + 1
        hot = max(sorted(counts), key=lambda sid: counts[sid])
        return hot, counts[hot] / len(self._window)

    def maybe_split(self) -> str | None:
        """Auto-split when one shard dominates the commit window.
        Returns the started migration id, or None."""
        policy = self.policy
        if policy is None:
            return None
        if len(self._window) < policy.min_observations:
            return None
        now = self._loop.clock.now
        if now - self._last_split_at < policy.cooldown:
            return None
        if any(not m.terminal for m in self.migrations.values()):
            return None
        hot, share = self.hot_shard_share()
        if hot is None or share < policy.hot_share_threshold:
            return None
        deployment = self.deployment
        plan = self._hot_plan(hot)
        if not plan:
            return None
        if len(deployment.shard_ids) < policy.max_shards:
            target = deployment.add_shard()
        else:
            counts: dict[str, int] = {sid: 0 for sid in deployment.shard_ids}
            for shard_id, _asset in self._window:
                if shard_id in counts:
                    counts[shard_id] += 1
            coldest = min(
                sorted(sid for sid in counts if sid != hot),
                key=lambda sid: counts[sid],
                default=None,
            )
            if coldest is None:
                return None
            target = coldest
        try:
            migration_id = self.start_migration(hot, target, plan_txs=plan)
        except MigrationError:
            return None
        self._last_split_at = now
        self.stats["auto_splits"] += 1
        self.telemetry.counter("migrations_auto_split", shard=hot).inc()
        return migration_id

    def _hot_plan(self, source: str) -> list[str]:
        """The hot half of a shard's window: live movable transactions
        whose assets carry the most recent traffic."""
        asset_counts: dict[str, int] = {}
        total = 0
        for shard_id, asset in self._window:
            if shard_id == source:
                asset_counts[asset] = asset_counts.get(asset, 0) + 1
                total += 1
        if total == 0:
            return []
        hot_assets: set[str] = set()
        cumulative = 0
        for asset in sorted(
            asset_counts, key=lambda a: (-asset_counts[a], a)
        ):
            hot_assets.add(asset)
            cumulative += asset_counts[asset]
            if cumulative * 2 >= total:
                break
        live = self._live_node(source)
        if live is None:
            return []
        plan = [
            tx_id
            for tx_id, payload in self._movable(source, live[1]).items()
            if ((payload.get("asset") or {}).get("id") or tx_id) in hot_assets
        ]
        return plan[:MAX_PLAN_TXS]
