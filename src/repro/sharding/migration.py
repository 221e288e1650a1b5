"""Elastic resharding: crash-safe live migration of key ownership.

The consistent-hash ring can *compute* a minimal-movement resize, but a
resize is useless until the deployment can actually move state between
BFT groups while traffic is running.  This module is that protocol: an
epoch-versioned migration state machine driven by a deployment-level
:class:`ReshardController`, built from parts that already exist —
certified chain entries, the durability WAL, the 2PC fence, router
placement memory — composed so the migration can be killed at any byte
and never loses, duplicates, or double-spends a key.

Phases of one migration (``planned`` is the initial state)::

    planned -> snapshot_ship -> wal_tail -> drain -> cutover -> done
           \\___________________________________/       |
                     |  (crash / stall / drain failure,   |
                     v   or the source refuses the export)
                 rolled_back <-----------------------------'

* **snapshot_ship** — the moving set (a lineage of CREATE/TRANSFER
  transactions with live outputs, selected load-aware by the hot-shard
  policy or explicitly by the caller) is captured at a source chain
  height ``h0``: its payloads are copied into the controller, nothing is
  written anywhere yet.
* **wal_tail** — the source chain above ``h0`` is re-read each round:
  outputs its entries spend or consume leave the moving set, children
  that kept the lineage on the source join it.  Rounds repeat until the
  per-round delta is bounded.
* **drain** — the source agent's spend guard starts fencing the moving
  set (``redirect:migrating:<id>`` verdicts refuse new admissions, pool
  entries, 2PC prepares *and* pending home commit-points), then the
  controller waits for every in-flight spend — pooled rivals and
  prepared locks — to settle, absorbing their effects through more tail
  rounds.  A drain that cannot settle within its round budget rolls the
  migration back (lifting the fence); nothing was moved yet, so rollback
  is trivially safe.
* **cutover** — a forced ``cutover`` journal record carries the final
  moved set and payloads.  The move then happens on the two chains, in
  order, as entries the controller signs: a ``SHARD_EXPORT`` on the
  source (refused unless every moved output is still unspent there —
  then the migration rolls back), and once it is delivered a
  ``SHARD_IMPORT`` on the target, whose evidence
  is the export block's commit certificate (:mod:`repro.core.entries`):
  the target cannot own an output before the source let it go (from the
  export on, the source chain answers its spends ``redirect:moved``).  Then
  the router learns the new homes and bumps its epoch.  The entries have
  content ids, so a controller that crashes after the forced record
  rolls *forward* by re-submitting them; one that crashes before it
  rolls *back*.  Clients that raced the cutover see ``redirect:*``
  rejections and retry against the new owner (the driver's backoff).

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
controller     pre-cutover crash: presumed abort — restart rolls the
               migration back from its journal.  Post-``cutover`` record:
               roll forward — the entries re-submit under the same ids.
=============  ==========================================================

The :class:`ReshardController` also closes the detection loop: fed every
commit by the facade, it tracks a sliding ``hot_shard_share`` window and
auto-splits a hot shard (growing the ring or rebalancing onto the
coldest member) when the share crosses its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.encoding import deep_copy_json
from repro.common.errors import MigrationError
from repro.core.context import REDIRECT_MARKER
from repro.core.entries import CONTROLLER, export_entry, import_entry
from repro.core.transaction import OutputRef
from repro.crypto.keys import keypair_from_string
from repro.durability.recovery import checkpoint_state, recover
from repro.storage.database import Database
from repro.telemetry import INERT, Telemetry

TERMINAL_PHASES = ("done", "rolled_back")

#: Phases the chaos harness arms ``migrate_trap`` actions on: a trap
#: crashes its role *inside* the phase (each phase spans at least one
#: loop tick, so a zero-delay crash scheduled from the phase-entry
#: notification lands mid-phase — on ``cutover`` between the forced
#: journal record and the export).
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
#: instead: once journaled it only rolls forward, on the next resume.
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
    """In-memory state of one migration (the journal is authoritative)."""

    def __init__(self, migration_id: str, source: str, target: str):
        self.migration_id = migration_id
        self.source = source
        self.target = target
        self.phase = "planned"
        #: tx_id -> payload of every transaction in the moving set.
        self.plan: dict[str, dict[str, Any]] = {}
        #: (transaction_id, output_index) -> utxo document still live.
        self.live: dict[tuple[str, int], dict[str, Any]] = {}
        #: Explicit plan requested by the caller (None = select here).
        self.requested: list[str] | None = None
        #: Final moved set journaled at cutover: [tx_id, index, utxo doc].
        self.moved: list[list[Any]] = []
        self.tailed_height = 0
        self.tail_rounds = 0
        self.drain_rounds = 0
        self.stall_ticks = 0
        #: The cutover's two chain entries, built once each, and the id
        #: of the one last submitted (see ``_await_entry``).
        self.export: dict[str, Any] | None = None
        self.import_: dict[str, Any] | None = None
        self.awaiting: str | None = None
        #: phase -> entry time (telemetry clocks; lost on controller
        #: restart, where the rebuilt state only rolls forward/back).
        self.phase_started: dict[str, float] = {}
        #: True when rebuilt from the journal after a controller restart
        #: (volatile tail state is gone: presumed abort pre-cutover).
        self.rebuilt = False

    @property
    def terminal(self) -> bool:
        return self.phase in TERMINAL_PHASES


class ReshardController:
    """Deployment-level migration controller + hot-shard policy.

    Args:
        deployment: the owning
            :class:`~repro.sharding.cluster.ShardedCluster`.
        policy: hot-shard auto-split policy (None disables detection;
            explicit :meth:`start_migration` calls still work).
        durability: optional persistence stack for the migration
            journal — required for :meth:`restart_from_disk`.
        telemetry: shared deployment telemetry.
    """

    def __init__(
        self,
        deployment,
        policy: MigrationPolicy | None = None,
        durability=None,
        telemetry: Telemetry = INERT,
    ):
        self.deployment = deployment
        self.policy = policy
        self.durability = durability
        self.telemetry = telemetry
        self.crashed = False
        #: Signs the cutovers' ``SHARD_EXPORT`` / ``SHARD_IMPORT`` entries
        #: (replicas take them only under this key).
        self.keypair = keypair_from_string(CONTROLLER)
        self._loop = deployment.loop
        self._epoch = 0
        self.migrations: dict[str, ShardMigration] = {}
        self.phase_listeners: list[MigrationPhaseListener] = []
        #: Per-migration outcome reports (write pause, refs moved) for benchmarks.
        self.reports: dict[str, dict[str, Any]] = {}
        self.journal_db = self._make_journal_database()
        if durability is not None:
            durability.state_provider = self._checkpoint_state
        # Hot-shard policy state: sliding (shard, asset) commit window.
        self._window: list[tuple[str, str]] = []
        self._last_split_at = float("-inf")
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

    def _make_journal_database(self, journaled: bool = True) -> Database:
        wal = (
            self.durability.log
            if journaled and self.durability is not None
            else None
        )
        database = Database("reshard-controller", wal=wal)
        collection = database.create_collection("migrations")
        collection.create_index("migration_id", unique=True)
        collection.create_index("phase")
        return database

    def _checkpoint_state(self, full: bool) -> list[bytes]:
        return checkpoint_state(self.journal_db, full)

    def _force(self) -> None:
        """Migration force-write point: the ``cutover`` record must hit
        the disk before any state moves — it is the commit point the
        roll-forward/roll-back decision reads after a crash."""
        if self.durability is not None:
            self.durability.log.flush_now()

    @property
    def _journal(self):
        return self.journal_db.collection("migrations")

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Epoch-guarded timer: anything armed before a crash/recovery
        boundary is dead on arrival (mirrors the 2PC agent's timers)."""
        epoch = self._epoch

        def fire() -> None:
            if self.crashed or self._epoch != epoch:
                return
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

    def _enter_phase(self, m: ShardMigration, phase: str, **journal_fields: Any) -> None:
        now = self._loop.clock.now
        started = m.phase_started.get(m.phase)
        if started is not None and m.phase in _CLOCKED_PHASES:
            self.telemetry.observe_ms(f"migration_{m.phase}_ms", now - started, shard=m.source)
        m.phase = phase
        m.phase_started[phase] = now
        updates: dict[str, Any] = {"phase": phase}
        updates.update(journal_fields)
        self._journal.update_many(
            {"migration_id": m.migration_id}, {"$set": updates}
        )
        if phase in ("cutover",) + TERMINAL_PHASES:
            # The records recovery decisions read must be torn-proof.
            self._force()
        self._set_active_gauge()
        self._notify(m.migration_id, phase)

    # -- starting migrations ------------------------------------------------------

    def _next_id(self) -> str:
        taken = {doc["migration_id"] for doc in self._journal.find({}, copy=False)}
        sequence = len(taken) + 1
        while f"m-{sequence:04d}" in taken:
            sequence += 1
        return f"m-{sequence:04d}"

    def start_migration(
        self, source: str, target: str, plan_txs: list[str] | None = None
    ) -> str:
        """Begin migrating a lineage of keys from ``source`` to ``target``.

        Returns the migration id.  One migration at a time per shard: a
        shard already acting as source or target refuses a second.

        Raises:
            MigrationError: unknown shards, source == target, a
                conflicting active migration, or a crashed controller.
        """
        if self.crashed:
            raise MigrationError("reshard controller is crashed")
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
        self._journal.insert_one(
            {
                "migration_id": migration_id,
                "source": source,
                "target": target,
                "phase": "planned",
                "reason": None,
                "h0": 0,
                "planned_refs": [],
                "moved": [],
                "payloads": [],
            }
        )
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
        presumed abort; a journaled cutover waits for its parties, then
        parks until :meth:`resume` (keeping the event loop finite)."""
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
        node_id, server = live
        plan_ids = m.requested if m.requested is not None else self._select_plan(
            m.source, server
        )
        transactions_seen = 0
        for tx_id in plan_ids:
            payload = server.get_transaction(tx_id)
            if payload is None:
                continue
            m.plan[tx_id] = deep_copy_json(payload)
            transactions_seen += 1
            if transactions_seen >= MAX_PLAN_TXS:
                break
        utxos = server.database.collection("utxos")
        for tx_id in sorted(m.plan):
            for doc in utxos.find({"transaction_id": tx_id}, copy=False):
                ref = (doc["transaction_id"], doc["output_index"])
                m.live[ref] = deep_copy_json(doc)
        if not m.live:
            return self._rollback(m, "nothing live to move")
        blocks = server.database.collection("blocks")
        m.tailed_height = max(
            (block["height"] for block in blocks.find({}, copy=False)), default=0
        )
        self._enter_phase(
            m,
            "snapshot_ship",
            h0=m.tailed_height,
            planned_refs=[[t, i] for t, i in sorted(m.live)],
        )
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
        # the import entry at cutover, so there is nothing to write yet.
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
        fresh: list[dict[str, Any]] = []
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
                    m.live.pop(ref, None)
                if (
                    tx_id not in m.plan
                    and spent_plan_output
                    and payload.get("operation") in MOVABLE_OPERATIONS
                    and self.deployment.router.home_of_tx(tx_id) == m.source
                    and len(m.plan) < MAX_PLAN_TXS
                ):
                    # A child kept the lineage on the source mid-flight:
                    # it joins the moving set so the asset moves whole.
                    copied = deep_copy_json(payload)
                    m.plan[tx_id] = copied
                    fresh.append(copied)
                    for index, output in enumerate(payload.get("outputs") or []):
                        m.live[(tx_id, index)] = {
                            "transaction_id": tx_id,
                            "output_index": index,
                            "public_keys": list(output.get("public_keys", [])),
                            "amount": output.get("amount"),
                        }
            m.tailed_height = max(m.tailed_height, block.height)
        return len(fresh)

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
        moved = [[ref[0], ref[1], m.live[ref]] for ref in sorted(m.live)]
        m.moved = moved
        m.stall_ticks = 0
        # One forced journal record carrying everything roll-forward
        # needs.  The export goes out on the next tick, so a crash
        # scheduled from this notification lands exactly between the
        # decision and its effects.
        self._enter_phase(
            m,
            "cutover",
            moved=moved,
            payloads=[m.plan[tx_id] for tx_id in sorted(m.plan)],
        )
        self._schedule(0.0, lambda: self._tick(m.migration_id))

    # -- cutover ------------------------------------------------------------------

    def _apply_cutover(self, m: ShardMigration) -> None:
        """Drive a journaled cutover one step: the export onto the source
        chain, then the import onto the target chain, then routing.  Every
        step re-derives where it stands from the chains, so a restarted
        controller resumes anywhere."""
        deployment = self.deployment
        source, target = deployment.shards[m.source], deployment.shards[m.target]
        if m.export is None:
            m.export = export_entry(
                m.migration_id, m.source, m.target, [(r[0], r[1]) for r in m.moved], self.keypair
            )
        landed = source.landed(m.export["id"])
        if landed is False:
            return self._rollback(m, "the source chain refused the export", cutover=True)
        if not landed:
            return self._await_entry(m, source, m.export)
        if m.import_ is None:
            evidence = source.commit_evidence(m.export["id"])
            if evidence is None:
                return self._stall(m)
            creators = sorted({row[0] for row in m.moved})
            m.import_ = import_entry(
                m.export,
                evidence,
                [deep_copy_json(m.plan[tx_id]) for tx_id in creators],
                self.keypair,
            )
        if not target.landed(m.import_["id"]):
            return self._await_entry(m, target, m.import_)
        for tx_id in sorted({row[0] for row in m.moved}):
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
            "write_pause": (
                now - m.phase_started["drain"] if "drain" in m.phase_started else None
            ),
            "completed_at": now,
        }
        self._enter_phase(m, "done")

    def _await_entry(self, m: ShardMigration, cluster, entry: dict[str, Any]) -> None:
        """Submit a cutover entry, and again every :data:`RESUBMIT_TICKS`
        while it has not landed — its content id makes a duplicate
        harmless."""
        if m.awaiting != entry["id"] or m.stall_ticks % RESUBMIT_TICKS == 0:
            m.awaiting = entry["id"]
            self.stats["entries_submitted"] += 1
            cluster.submit_entry(entry)
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
        self._enter_phase(m, "rolled_back", reason=reason)

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

    # -- crash / recovery ---------------------------------------------------------

    def crash(self) -> None:
        """Stop the controller (timers die; fences stay up in memory)."""
        if self.crashed:
            return
        self.crashed = True
        self._epoch += 1
        self.telemetry.flight.record(self._loop.clock.now, "reshard", "crash")

    def recover(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        self._epoch += 1
        self.resume()

    def restart_from_disk(self, torn_bytes: int = 0) -> None:
        """Kill the controller, discard its memory, restore it purely
        from its journal's SimDisk, then roll every recorded migration
        forward (cutover journaled) or back (anything earlier).

        Raises:
            MigrationError: when the controller has no durability stack.
        """
        if self.durability is None:
            raise MigrationError(
                "reshard controller has no durability stack to restart from"
            )
        self.crash()
        self.durability.power_fail(torn_bytes)
        recovered = recover(
            self.durability, lambda: self._make_journal_database(journaled=False)
        )
        self.journal_db = recovered.database
        self.journal_db.attach_wal(self.durability.log)
        self.migrations = {}
        self.crashed = False
        self._epoch += 1
        self.resume()

    def resume(self) -> None:
        """Drive every recorded migration toward a terminal state:
        journaled cutovers roll forward, live pre-cutover migrations get
        a fresh tick budget, and orphans (memory lost to a restart) roll
        back."""
        if self.crashed:
            return
        self._epoch += 1  # one tick chain per migration from here on
        for doc in sorted(
            self._journal.find({}, copy=False), key=lambda d: d["migration_id"]
        ):
            migration_id = doc["migration_id"]
            phase = doc["phase"]
            if phase in TERMINAL_PHASES:
                continue
            m = self.migrations.get(migration_id)
            if m is None:
                m = ShardMigration(migration_id, doc["source"], doc["target"])
                m.phase = phase
                m.moved = [list(row) for row in doc.get("moved") or []]
                for payload in doc.get("payloads") or []:
                    m.plan[payload["id"]] = deep_copy_json(payload)
                m.live = {(row[0], row[1]): row[2] for row in m.moved}
                m.rebuilt = True
                self.migrations[migration_id] = m
            m.stall_ticks = 0
            if m.phase == "cutover":
                self._apply_cutover(m)
            elif m.rebuilt:
                self._rollback(
                    m, "controller restarted mid-migration (presumed abort)"
                )
            else:
                self._reschedule(m)
        self._set_active_gauge()

    def unfinished(self) -> list[str]:
        """Ids of journal migrations not yet terminal (quiesce drives
        these to completion before invariants run)."""
        return sorted(
            doc["migration_id"]
            for doc in self._journal.find({}, copy=False)
            if doc["phase"] not in TERMINAL_PHASES
        )

    def journal_record(self, migration_id: str) -> dict[str, Any] | None:
        doc = self._journal.find_one({"migration_id": migration_id}, copy=False)
        return deep_copy_json(doc) if doc is not None else None

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
        if policy is None or self.crashed:
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
