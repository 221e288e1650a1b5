"""Elastic resharding: crash-safe live migration of key ownership.

The consistent-hash ring can *compute* a minimal-movement resize, but a
resize is useless until the deployment can actually move state between
BFT groups while traffic is running.  This module is that protocol: an
epoch-versioned migration state machine driven by a deployment-level
:class:`ReshardController`, built from parts that already exist —
reference-payload shipping, the durability WAL, the 2PC fence, router
placement memory — composed so the migration can be killed at any byte
and never loses, duplicates, or double-spends a key.

Phases of one migration (``planned`` is the initial state)::

    planned -> snapshot_ship -> wal_tail -> drain -> cutover -> done
           \\___________________________________/
                     |  (crash / stall / drain failure)
                     v
                 rolled_back

* **snapshot_ship** — the moving set (a lineage of CREATE/TRANSFER
  transactions with live outputs, selected load-aware by the hot-shard
  policy or explicitly by the caller) is captured at a source chain
  height ``h0`` and its payloads are shipped to the target shard in
  chunks, as idempotent reference imports (imports create no UTXOs, so
  nothing is spendable on the target yet).
* **wal_tail** — the source's journal suffix above ``h0`` is re-scanned
  each round (:func:`~repro.durability.recovery.scan_block_records` on a
  durable deployment, a block-collection scan otherwise): consumed
  outputs leave the moving set, children that kept the lineage on the
  source join it and ship too.  Rounds repeat until the per-round delta
  is bounded.
* **drain** — the source agent's spend guard starts fencing the moving
  set (``redirect:migrating:<id>`` verdicts refuse new admissions, pool
  entries, 2PC prepares *and* pending home commit-points), then the
  controller waits for every in-flight spend — pooled rivals and
  prepared locks — to settle, absorbing their effects through more tail
  rounds.  A drain that cannot settle within its round budget rolls the
  migration back (lifting the fence); nothing was moved yet, so rollback
  is trivially safe.
* **cutover** — the commit point.  The controller journals a durable
  ``cutover`` record (forced to disk) carrying the final moved set, then
  applies it: durable ``shard_migrations`` registry rows on both agents
  (forced), UTXO documents materialize on the target's nodes and vanish
  from the source's, the view manager re-attributes the moved range, the
  router learns the new homes and bumps its epoch so stale-epoch clients
  re-route.  Every part of the apply is idempotent: a controller that
  crashes after the force rolls *forward* on restart; one that crashes
  before it rolls *back*.  Clients that raced the cutover see
  ``redirect:*`` rejections and retry against the new owner (the
  driver's bounded deterministic backoff).

Crash matrix — who can die, and what recovery does:

=============  ==========================================================
crashed party  outcome
=============  ==========================================================
source node    restart-from-disk may lose unsynced deletions; the resync
               hook re-runs the idempotent cutover apply from the agents'
               forced registries (``scrub_shard``).
target node    restart-from-disk may lose shipped payloads/UTXOs; same
               scrub re-imports and re-inserts them.
source/target  pre-cutover: shipping stalls and retries, bounded, then
agent          rolls back.  Post-cutover registry rows are forced before
               any node state moves, so agent restarts cannot lose them.
controller     pre-cutover crash: presumed abort — restart rolls the
               migration back from its journal.  Post-``cutover`` record:
               roll forward — the apply re-runs idempotently.
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
from repro.core.transaction import OutputRef
from repro.durability.recovery import checkpoint_state, recover, scan_block_records
from repro.storage.database import Database

#: Every phase, in protocol order (terminal states last).
MIGRATION_PHASES = (
    "planned",
    "snapshot_ship",
    "wal_tail",
    "drain",
    "cutover",
    "done",
    "rolled_back",
)

TERMINAL_PHASES = ("done", "rolled_back")

#: Phases the chaos harness arms ``migrate_trap`` actions on: a trap
#: crashes its role *inside* the phase (each phase spans several loop
#: ticks, so a zero-delay crash scheduled from the phase-entry
#: notification lands mid-phase — mid-snapshot-ship between chunks,
#: and on ``cutover`` between the forced journal record and the apply).
MIGRATE_TRAP_PHASES = ("snapshot_ship", "wal_tail", "drain", "cutover")

#: Parties a ``migrate_trap`` can kill.
MIGRATE_TRAP_ROLES = ("source", "target", "controller")

#: Operations a migration will move.  Marketplace lineage (REQUEST /
#: BID / ACCEPT_BID / RETURN) routes by its RFQ and stays put; spends
#: that cross into a moved asset go through ordinary 2PC.
MOVABLE_OPERATIONS = frozenset({"CREATE", "TRANSFER"})

#: Spend-guard verdicts and rejection reasons for migrating/moved keys
#: start with this marker (exactly 8 characters, so even the
#: truncated-spender form of a DoubleSpendError keeps it intact) — the
#: driver's retry path keys off it.
REDIRECT_MARKER = "redirect"

#: Observer of migration phase transitions: ``(migration_id, phase)``.
#: Like 2PC phase listeners, a listener must not mutate the deployment
#: synchronously — schedule faults through the event loop.
MigrationPhaseListener = Callable[[str, str], None]

#: Phases with their own telemetry clock (``migration_<phase>_ms``).
_CLOCKED_PHASES = ("snapshot_ship", "wal_tail", "drain", "cutover")


# Tuning of the migration state machine (simulated seconds).
#: Payloads shipped to the target per snapshot-ship tick.
CHUNK_SIZE = 6
#: Spacing between state-machine ticks (ship chunks, tail rounds, drain
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
#: before presumed-abort rollback.  Cutover never stalls out: once the
#: commit point is journaled it only rolls forward.
MAX_STALL_TICKS = 600
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
        self.ship_queue: list[str] = []
        self.tailed_height = 0
        self.tail_rounds = 0
        self.drain_rounds = 0
        self.stall_ticks = 0
        #: phase -> entry time (telemetry clocks; lost on controller
        #: restart, where the rebuilt state only rolls forward/back).
        self.phase_started: dict[str, float] = {}
        #: True when rebuilt from the journal after a controller restart
        #: (volatile shipping state is gone: presumed abort pre-cutover).
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
        telemetry=None,
    ):
        self.deployment = deployment
        self.policy = policy
        self.durability = durability
        self.telemetry = telemetry
        self.crashed = False
        self._loop = deployment.loop
        self._epoch = 0
        self.migrations: dict[str, ShardMigration] = {}
        self.phase_listeners: list[MigrationPhaseListener] = []
        #: Per-migration outcome reports for benchmarks and the CLI.
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

    def _checkpoint_state(self) -> list[bytes]:
        return checkpoint_state(self.journal_db)

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
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.flight.record(
                self._loop.clock.now, "reshard", phase, tx_id=migration_id
            )
        for listener in self.phase_listeners:
            listener(migration_id, phase)

    def _set_active_gauge(self) -> None:
        tel = self.telemetry
        if tel is not None and tel.enabled:
            active = sum(1 for m in self.migrations.values() if not m.terminal)
            tel.registry.gauge("migrations_active").set(active)

    def _live_node(self, shard_id: str):
        cluster = self.deployment.shards[shard_id]
        for node_id in cluster.engine.validator_order:
            if not cluster.network.is_crashed(node_id):
                return node_id, cluster.servers[node_id]
        return None

    def _enter_phase(self, m: ShardMigration, phase: str, **journal_fields: Any) -> None:
        now = self._loop.clock.now
        tel = self.telemetry
        if tel is not None and tel.enabled:
            started = m.phase_started.get(m.phase)
            if started is not None and m.phase in _CLOCKED_PHASES:
                tel.observe_ms(
                    f"migration_{m.phase}_ms", now - started, shard=m.source
                )
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
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("migrations_started", shard=source).inc()
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
        """A tick that could not progress (no live node, crashed agent).
        Pre-cutover stalls are bounded by presumed abort; a journaled
        cutover only ever waits for its parties to come back."""
        m.stall_ticks += 1
        if m.phase != "cutover" and m.stall_ticks > MAX_STALL_TICKS:
            self._rollback(m, f"stalled in {m.phase} for {m.stall_ticks} ticks")
            return
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
        m.ship_queue = sorted(m.plan)
        self._enter_phase(
            m,
            "snapshot_ship",
            h0=m.tailed_height,
            planned_refs=[[t, i] for t, i in sorted(m.live)],
        )
        self._reschedule(m)

    def _select_plan(self, source: str, server) -> list[str]:
        """Default moving set: source-homed movable transactions with
        live outputs, in deterministic (sorted) order."""
        router = self.deployment.router
        candidates: list[str] = []
        seen: set[str] = set()
        for doc in server.database.collection("utxos").find({}, copy=False):
            tx_id = doc["transaction_id"]
            if tx_id in seen:
                continue
            seen.add(tx_id)
            payload = server.get_transaction(tx_id)
            if payload is None:
                continue
            if payload.get("operation") not in MOVABLE_OPERATIONS:
                continue
            if router.home_of_tx(tx_id) != source:
                continue
            candidates.append(tx_id)
        return sorted(candidates)[: MAX_PLAN_TXS]

    def _tick_ship(self, m: ShardMigration) -> None:
        if not m.ship_queue:
            self._enter_phase(m, "wal_tail")
            return self._reschedule(m)
        chunk = m.ship_queue[: CHUNK_SIZE]
        del m.ship_queue[: CHUNK_SIZE]
        payloads = [m.plan[tx_id] for tx_id in chunk]
        self.deployment.shards[m.target].import_reference_payloads(payloads)
        self.stats["payloads_shipped"] += len(payloads)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("migration_payloads_shipped", shard=m.source).inc(
                len(payloads)
            )
            tel.flight.record(
                self._loop.clock.now,
                "reshard",
                f"ship_chunk:{len(payloads)}",
                tx_id=m.migration_id,
            )
        self._reschedule(m)

    def _records_above(self, shard_id: str, node_id: str, height: int):
        """The source chain's suffix above ``height`` as journal block
        records — from the node's WAL + snapshot when durable (the
        literal WAL-suffix shipping of the protocol), rebuilt from the
        blocks collection on a volatile deployment."""
        cluster = self.deployment.shards[shard_id]
        durability = cluster.node_durability.get(node_id)
        if durability is not None:
            return list(scan_block_records(durability, from_height=height))
        server = cluster.servers[node_id]
        transactions = server.database.collection("transactions")
        records = []
        for block in sorted(
            server.database.collection("blocks").find({}, copy=False),
            key=lambda doc: doc["height"],
        ):
            if block["height"] <= height:
                continue
            entries = []
            for tx_id in block["transaction_ids"]:
                payload = transactions.find_one({"id": tx_id}, copy=False)
                if payload is not None:
                    entries.append([tx_id, deep_copy_json(payload)])
            records.append({"h": block["height"], "txs": entries})
        return records

    def _tail_once(self, m: ShardMigration) -> int | None:
        """One WAL-tail round: absorb the source suffix above the cursor
        into the moving set.  Returns fresh-transaction count, or None
        when no live source node could be read."""
        live = self._live_node(m.source)
        if live is None:
            return None
        node_id, _server = live
        fresh: list[dict[str, Any]] = []
        for record in self._records_above(m.source, node_id, m.tailed_height):
            for entry in record.get("txs") or []:
                tx_id, payload = entry[0], entry[1]
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
            m.tailed_height = max(m.tailed_height, record["h"])
        if fresh:
            self.deployment.shards[m.target].import_reference_payloads(fresh)
            self.stats["payloads_shipped"] += len(fresh)
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

    def _refresh_live(self, m: ShardMigration) -> bool:
        """Drop moving refs whose UTXO documents vanished on the source —
        consumed by cross-shard decisions the source chain never shows."""
        live = self._live_node(m.source)
        if live is None:
            return False
        _node_id, server = live
        utxos = server.database.collection("utxos")
        for ref in sorted(m.live):
            if (
                utxos.find_one(
                    {"transaction_id": ref[0], "output_index": ref[1]}, copy=False
                )
                is None
            ):
                del m.live[ref]
        return True

    def _pending_writer(self, m: ShardMigration) -> str | None:
        """An in-flight spend of the moving set: a pooled rival on any
        source node, or a prepared 2PC lock on a moving ref."""
        source = self.deployment.shards[m.source]
        for ref in sorted(m.live):
            rival = source.inflight_spender(OutputRef(ref[0], ref[1]))
            if rival is not None:
                return f"pooled {rival[:8]}"
        agent = self.deployment.agents.get(m.source)
        if agent is not None:
            for lock in agent.active_locks():
                if (
                    lock.get("status") == "prepared"
                    and (lock["transaction_id"], lock["output_index"]) in m.live
                ):
                    return f"prepared lock held by {lock['holder'][:8]}"
        return None

    def _tick_drain(self, m: ShardMigration) -> None:
        m.drain_rounds += 1
        if self._tail_once(m) is None or not self._refresh_live(m):
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
        missing = self._verify_shipped(m)
        if missing:
            self.deployment.shards[m.target].import_reference_payloads(
                [m.plan[tx_id] for tx_id in missing]
            )
            return self._reschedule(m)
        moved = [[ref[0], ref[1], m.live[ref]] for ref in sorted(m.live)]
        m.moved = moved
        # The commit point: one forced journal record carrying everything
        # roll-forward needs.  The apply runs on the next tick, so a
        # crash scheduled from this notification lands exactly between
        # the decision and its effects.
        self._enter_phase(
            m,
            "cutover",
            moved=moved,
            payloads=[m.plan[tx_id] for tx_id in sorted(m.plan)],
        )
        self._schedule(0.0, lambda: self._tick(m.migration_id))

    def _verify_shipped(self, m: ShardMigration) -> list[str]:
        """Plan payloads missing from any live target node (a target
        restart may have torn away unsynced imports)."""
        target = self.deployment.shards[m.target]
        missing: set[str] = set()
        for node_id in target.engine.validator_order:
            if target.network.is_crashed(node_id):
                continue
            transactions = target.servers[node_id].database.collection("transactions")
            for tx_id in sorted(m.plan):
                if transactions.find_one({"id": tx_id}, copy=False) is None:
                    missing.add(tx_id)
        return sorted(missing)

    # -- cutover ------------------------------------------------------------------

    def _apply_cutover(self, m: ShardMigration) -> None:
        source_agent = self.deployment.agents.get(m.source)
        target_agent = self.deployment.agents.get(m.target)
        if (
            source_agent is None
            or target_agent is None
            or source_agent.crashed
            or target_agent.crashed
        ):
            return self._stall(m)
        # 1) Durable ownership registries on both agents, forced before
        #    any node state moves: the replica invariant and the scrub
        #    path read these, so they must never lag the move itself.
        for tx_id, index, doc in m.moved:
            self._ensure_registry_row(
                source_agent, m.migration_id, tx_id, index, "out", m.target, doc
            )
            self._ensure_registry_row(
                target_agent, m.migration_id, tx_id, index, "in", m.source, doc
            )
        source_agent._force()
        target_agent._force()
        # 2) Apply the move to node state (idempotent, see _apply_moves).
        payloads = [m.plan[tx_id] for tx_id in sorted(m.plan)]
        self._apply_moves(m.source, m.target, payloads, m.moved, m.migration_id)
        # 3) New routing epoch: in-flight clients re-route and retry.
        self.deployment.router.bump_epoch()
        now = self._loop.clock.now
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("migration_refs_moved", shard=m.source).inc(len(m.moved))
            drained_at = m.phase_started.get("drain")
            if drained_at is not None:
                tel.observe_ms(
                    "migration_write_pause_ms", now - drained_at, shard=m.source
                )
            planned_at = m.phase_started.get("planned")
            if planned_at is not None:
                tel.observe_ms(
                    "migration_total_ms", now - planned_at, shard=m.source
                )
        self.stats["done"] += 1
        self.stats["refs_moved"] += len(m.moved)
        self.reports[m.migration_id] = {
            "source": m.source,
            "target": m.target,
            "refs_moved": len(m.moved),
            "txs_shipped": len(m.plan),
            "write_pause": (
                now - m.phase_started["drain"] if "drain" in m.phase_started else None
            ),
            "completed_at": now,
        }
        self._enter_phase(m, "done")

    @staticmethod
    def _ensure_registry_row(
        agent,
        migration_id: str,
        tx_id: str,
        index: int,
        direction: str,
        peer: str,
        utxo_doc: dict[str, Any],
    ) -> None:
        registry = agent.durable.collection("shard_migrations")
        existing = registry.find_one(
            {
                "migration_id": migration_id,
                "transaction_id": tx_id,
                "output_index": index,
                "direction": direction,
            },
            copy=False,
        )
        if existing is None:
            registry.insert_one(
                {
                    "migration_id": migration_id,
                    "transaction_id": tx_id,
                    "output_index": index,
                    "direction": direction,
                    "peer": peer,
                    "utxo": deep_copy_json(utxo_doc),
                }
            )

    def _apply_moves(
        self,
        source: str,
        target: str,
        payloads: list[dict[str, Any]],
        moved: list[list[Any]],
        migration_id: str | None = None,
    ) -> None:
        """The idempotent physical move: payload imports + UTXO documents
        materialize on the target, disappear from the source, the views
        re-attribute, the router learns the new homes.  Safe to re-run —
        roll-forward, quiesce repair and the node-restart scrub all do.

        Re-running an *old* migration must not undo newer history: refs
        the target has since spent (chain spender or cross-shard 2PC
        tombstone) stay dead, refs a *later* migration moved off the
        target again are neither re-inserted nor re-homed — the scrub of
        a shard only touched by the earlier hop would otherwise
        resurrect them where they no longer live — and refs a later
        migration moved *back onto the source* are not deleted from it
        (a round trip leaves the source holding them legitimately).

        The spent check is per-replica: each node's utxo view must match
        *its own* chain, so a ref is re-inserted on a replica that has
        not yet applied the spender block (the block's apply deletes it
        again) but never on one whose chain already consumed it.  A
        single cluster-wide probe through one reference node gets this
        wrong in both directions whenever that node lags its peers."""
        deployment = self.deployment
        target_cluster = deployment.shards[target]
        source_cluster = deployment.shards[source]
        target_cluster.import_reference_payloads(payloads)
        spent_on_target = self._spent_on_target(target_cluster, moved)
        moved_on: set[tuple[str, int]] = set()
        target_agent = deployment.agents.get(target)
        if target_agent is not None:
            # Cross-shard spends leave no spender in the target's
            # transactions, only a committed 2PC tombstone on its agent.
            locks = target_agent.durable.collection("shard_locks")
            registry = target_agent.durable.collection("shard_migrations")
            sequence = (
                int(migration_id.rsplit("-", 1)[1]) if migration_id else -1
            )
            for tx_id, index, _doc in moved:
                tombstone = locks.find_one(
                    {
                        "transaction_id": tx_id,
                        "output_index": index,
                        "status": "committed",
                    },
                    copy=False,
                )
                if tombstone is not None:
                    spent_on_target.add((tx_id, index))
                for row in registry.find(
                    {
                        "transaction_id": tx_id,
                        "output_index": index,
                        "direction": "out",
                    },
                    copy=False,
                ):
                    if int(row["migration_id"].rsplit("-", 1)[1]) > sequence:
                        moved_on.add((tx_id, index))
                        break
        returned_to_source: set[tuple[str, int]] = set()
        source_agent = deployment.agents.get(source)
        if source_agent is not None:
            sequence = (
                int(migration_id.rsplit("-", 1)[1]) if migration_id else -1
            )
            registry = source_agent.durable.collection("shard_migrations")
            for tx_id, index, _doc in moved:
                latest_seq, latest_direction = -1, ""
                for row in registry.find(
                    {"transaction_id": tx_id, "output_index": index}, copy=False
                ):
                    row_seq = int(row["migration_id"].rsplit("-", 1)[1])
                    if row_seq > latest_seq:
                        latest_seq = row_seq
                        latest_direction = row["direction"]
                if latest_seq > sequence and latest_direction == "in":
                    returned_to_source.add((tx_id, index))
        for server in target_cluster.servers.values():
            utxos = server.database.collection("utxos")
            spent_here = self._spent_on_replica(server, moved)
            for tx_id, index, doc in moved:
                if (
                    (tx_id, index) in spent_on_target
                    or (tx_id, index) in moved_on
                    or (tx_id, index) in spent_here
                ):
                    continue
                if (
                    utxos.find_one(
                        {"transaction_id": tx_id, "output_index": index}, copy=False
                    )
                    is None
                ):
                    utxos.insert_one(deep_copy_json(doc))
        for server in source_cluster.servers.values():
            utxos = server.database.collection("utxos")
            for tx_id, index, _doc in moved:
                if (tx_id, index) in returned_to_source:
                    continue
                utxos.delete_many(
                    {"transaction_id": tx_id, "output_index": index}
                )
        rehomed = sorted(
            {row[0] for row in moved if (row[0], row[1]) not in moved_on}
        )
        views = getattr(deployment, "views", None)
        if views is not None:
            views.note_migration(rehomed, target)
        for tx_id in rehomed:
            deployment.router.record_home(tx_id, target)

    @staticmethod
    def _spent_on_target(target_cluster, moved: list[list[Any]]) -> set[tuple[str, int]]:
        """Moved refs the *target* has since consumed — a repair pass
        must not resurrect an output the new owner already spent.

        Probes one reference node only, so it can miss spends that node
        has not caught up to; :meth:`_spent_on_replica` re-checks against
        each replica's own chain before any insert."""
        try:
            server = target_cluster.any_server()
        except Exception:
            return set()
        return ReshardController._spent_on_replica(server, moved)

    @staticmethod
    def _spent_on_replica(server, moved: list[list[Any]]) -> set[tuple[str, int]]:
        """Moved refs this replica's own transaction log has consumed."""
        spent: set[tuple[str, int]] = set()
        transactions = server.database.collection("transactions")
        for tx_id, index, *_rest in moved:
            spender = transactions.find_one(
                {
                    "inputs.fulfills.transaction_id": tx_id,
                    "inputs": {
                        "$elemMatch": {
                            "fulfills.transaction_id": tx_id,
                            "fulfills.output_index": index,
                        }
                    },
                },
                copy=False,
            )
            if spender is not None:
                spent.add((tx_id, index))
        return spent

    def _rollback(self, m: ShardMigration, reason: str) -> None:
        if m.terminal or m.phase == "cutover":
            return
        self.stats["rolled_back"] += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("migrations_rolled_back", shard=m.source).inc()
        self.reports[m.migration_id] = {
            "source": m.source,
            "target": m.target,
            "rolled_back": reason,
            "completed_at": self._loop.clock.now,
        }
        # Shipped reference payloads stay behind on the target: imports
        # are idempotent and create no UTXOs, so they are inert.
        self._enter_phase(m, "rolled_back", reason=reason)

    # -- the spend-guard fence ----------------------------------------------------

    def attach_agent(self, shard_id: str, agent) -> None:
        """Install this controller's migration fence on a shard's agent
        (the facade calls this for every shard, including grown ones)."""
        agent.migration_guards.append(
            lambda ref, sid=shard_id: self._guard(sid, ref)
        )

    def _guard(self, shard_id: str, ref) -> str | None:
        """Fence verdict for one output ref on one shard: refuse spends
        of the moving set from drain until the cutover lands."""
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
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.flight.record(self._loop.clock.now, "reshard", "crash")

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
        a fresh tick budget, orphans (memory lost to a restart) roll
        back, and done migrations re-verify their applied state (the
        idempotent repair that heals node restarts)."""
        if self.crashed:
            return
        for doc in sorted(
            self._journal.find({}, copy=False), key=lambda d: d["migration_id"]
        ):
            migration_id = doc["migration_id"]
            phase = doc["phase"]
            if phase in TERMINAL_PHASES:
                if phase == "done":
                    self._repair_done(doc)
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

    def _repair_done(self, doc: dict[str, Any]) -> None:
        moved = [list(row) for row in doc.get("moved") or []]
        if not moved:
            return
        self._apply_moves(
            doc["source"],
            doc["target"],
            [deep_copy_json(p) for p in doc.get("payloads") or []],
            moved,
            doc["migration_id"],
        )

    def scrub_shard(self, shard_id: str) -> None:
        """Re-apply every done migration touching ``shard_id`` — the
        node-recovery hook: a restart-from-disk may have torn away
        unsynced imports, UTXO inserts or deletions, and the forced
        journal/registry records are the truth to restore from."""
        for doc in sorted(
            self._journal.find({"phase": "done"}, copy=False),
            key=lambda d: d["migration_id"],
        ):
            if shard_id in (doc["source"], doc["target"]):
                self._repair_done(doc)

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
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("migrations_auto_split", shard=hot).inc()
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
        _node_id, server = live
        router = self.deployment.router
        plan: list[str] = []
        seen: set[str] = set()
        for doc in server.database.collection("utxos").find({}, copy=False):
            tx_id = doc["transaction_id"]
            if tx_id in seen:
                continue
            seen.add(tx_id)
            payload = server.get_transaction(tx_id)
            if payload is None:
                continue
            if payload.get("operation") not in MOVABLE_OPERATIONS:
                continue
            if router.home_of_tx(tx_id) != source:
                continue
            asset = (payload.get("asset") or {}).get("id") or tx_id
            if asset in hot_assets:
                plan.append(tx_id)
        return sorted(plan)[: MAX_PLAN_TXS]
