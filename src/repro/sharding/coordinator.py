"""Two-phase commit across shards.

One :class:`TwoPhaseCoordinator` agent runs per shard, playing both 2PC
roles:

* **coordinator** for cross-shard transactions *homed* on its shard —
  it prepares remote input locks, drives the home BFT commit, then
  broadcasts the commit/abort decision;
* **participant** (resource manager) for remote coordinators — it locks
  locally-held UTXOs at prepare, makes the lock visible to local
  validation through the cluster's spend guard, and consumes or releases
  the lock when the decision arrives.

The protocol per cross-shard transaction ``T`` homed on ``H``:

1. ``H`` durably records intent in its ``shard_outbox`` (state
   ``preparing``) and sends PREPARE for the refs each remote shard holds.
2. Each participant verifies the ref is committed, unspent and unlocked,
   writes a durable ``prepared`` row in its ``shard_locks`` table (from
   that instant local validation rejects competing spends), and votes
   YES, shipping the referenced payloads so ``H`` can validate ``T``.
3. On unanimous YES, ``H`` imports the shipped payloads, flips the
   outbox to ``commit_pending`` and submits ``T`` to its own BFT group —
   the home chain is the commit point.
4. When ``T`` commits (or is rejected) there, ``H`` records the outcome
   and broadcasts COMMIT/ABORT; participants turn prepared locks into
   permanent ``committed`` tombstones and drop the spent UTXO, or delete
   the locks, and acknowledge.

All messages and timers run on the shared simulated event loop, so
:mod:`repro.sim.failures` schedules can kill either side mid-protocol.
Crash recovery preserves atomicity:

* coordinator crash with state ``preparing`` → presumed abort (no home
  submit happened yet);
* crash with ``commit_pending`` → the home chain is consulted: committed
  → COMMIT is (re)broadcast, rejected → ABORT, in flight → the pending
  commit callback resolves it;
* decided-but-unacknowledged outcomes are re-broadcast on recovery; a
  participant re-inquires about stale ``prepared`` locks on a timer and
  after its own recovery — so no UTXO stays locked once both sides are
  eventually up, and a lock is only ever consumed by the one transaction
  the home chain actually committed.

Message loss is bounded-retried; when retries exhaust while the other
side is down, the state parks durably and the next recovery (either
side) resumes it — keeping the event loop finite for ``run_until_idle``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.common.encoding import deep_copy_json
from repro.common.errors import ValidationError
from repro.core.cluster import SmartchainCluster
from repro.core.transaction import OutputRef
from repro.durability.node import NodeDurability
from repro.durability.recovery import checkpoint_state, recover
from repro.sharding.router import RoutingDecision
from repro.sim.events import EventLoop
from repro.storage.database import SMARTCHAINDB_LAYOUT, Database

#: Pseudo-node id the coordinator occupies in its shard's failure domain.
COORDINATOR_NODE = "coordinator"

#: Outcome callback the owning facade registers:
#: (tx_id, "committed" | "aborted", reason_or_None).
OutcomeCallback = Callable[[str, str, "str | None"], None]

#: Phase listener: (shard_id, phase, tx_id).  Phases a listener observes,
#: in protocol order on the coordinator side — ``begin``,
#: ``commit_pending``, ``decided:committed`` / ``decided:aborted``,
#: ``done`` — and on the participant side — ``prepared``,
#: ``vote_refused``, ``decision_applied``, ``inquiry``.  The chaos
#: harness uses these to crash an agent at an exact protocol phase.
PhaseListener = Callable[[str, str, str], None]


# Timing of the cross-shard protocol (simulated seconds).
#: One-way latency of coordinator <-> participant messages.
INTER_SHARD_DELAY = 0.005
#: How long the coordinator waits for prepare votes before aborting.
PREPARE_TIMEOUT = 1.0
#: How long a participant holds a prepared lock before inquiring.
LOCK_TIMEOUT = 2.0
#: Spacing between decision re-broadcasts / repeated inquiries.
RETRY_INTERVAL = 0.5
#: Bounded retries; beyond them the state parks until a recovery.
MAX_RETRIES = 8


class TwoPhaseCoordinator:
    """Per-shard 2PC agent (coordinator + participant roles).

    Args:
        shard_id: the shard this agent serves.
        cluster: that shard's BFT cluster (home commits, UTXO views).
        loop: the deployment-wide event loop.
        peer_lookup: resolves a shard id to its agent.
        on_outcome: facade callback fired exactly once per home
            cross-shard transaction with the final outcome.
    """

    def __init__(
        self,
        shard_id: str,
        cluster: SmartchainCluster,
        loop: EventLoop,
        peer_lookup: Callable[[str], "TwoPhaseCoordinator"],
        on_outcome: OutcomeCallback,
        durability: NodeDurability | None = None,
    ):
        self.shard_id = shard_id
        self.cluster = cluster
        self._loop = loop
        self._peer = peer_lookup
        self._on_outcome = on_outcome
        self.crashed = False
        #: Optional persistence stack: when set, the outbox/locks tables
        #: journal through its group-commit WAL and the agent can be
        #: rebuilt purely from disk (:meth:`restart_from_disk`).
        self.durability = durability
        #: Durable agent state: survives crashes, like any node database.
        self.durable = self._make_durable_database()
        if durability is not None:
            durability.state_provider = self._checkpoint_state
        # Volatile protocol state (lost on crash, rebuilt from durable).
        self._votes: dict[str, dict[str, bool]] = {}
        self._vote_payloads: dict[str, list[dict[str, Any]]] = {}
        self._acks: dict[str, set[str]] = {}
        self._timers: dict[tuple[str, str], Any] = {}
        self._epoch = 0
        #: Per-target outbound message queue: every message enqueued for a
        #: peer within one event-loop tick rides one wire delivery (see
        #: :meth:`_send`).
        self._outgoing: dict[str, list[tuple[str, tuple]]] = {}
        #: Observers of protocol-phase transitions (see PhaseListener).
        #: Listeners must not mutate the agent synchronously; schedule
        #: faults through the event loop instead.
        self.phase_listeners: list[PhaseListener] = []
        #: Migration fences (installed by the reshard controller): each
        #: maps an OutputRef to a ``redirect:*`` verdict while the ref's
        #: key range is draining toward a cutover, or None.  Consulted
        #: before the lock table so migrating outputs refuse new spends
        #: — admissions, pool entries and 2PC prepares alike.
        self.migration_guards: list[Callable[[OutputRef], str | None]] = []
        self.stats = {
            "coordinated": 0,
            "committed": 0,
            "aborted": 0,
            "locks_granted": 0,
            "locks_refused": 0,
            "inquiries": 0,
        }
        #: Optional :class:`~repro.telemetry.Telemetry` (set by the facade).
        self.telemetry = None
        #: Coordinator-side phase clocks: tx_id -> {phase: started_at}.
        self._phase_started: dict[str, dict[str, float]] = {}
        # Remote prepared locks must be visible to this shard's own
        # validation path — the commit/lock hook the cluster exposes.
        cluster.add_spend_guard(self._spend_guard)
        cluster.failures.register_callbacks(
            COORDINATOR_NODE, on_crash=self.on_crash, on_recover=self.on_recover
        )

    # -- plumbing ---------------------------------------------------------------

    def _make_durable_database(self, journaled: bool = True) -> Database:
        """The agent's lock/outbox database, WAL-backed when durable.

        ``journaled=False`` builds the empty layout for recovery replay
        (which must not re-journal what it replays).
        """
        wal = (
            self.durability.log
            if journaled and self.durability is not None
            else None
        )
        database = Database(f"shard-agent-{self.shard_id}", wal=wal)
        for name in ("shard_locks", "shard_outbox", "shard_migrations"):
            collection = database.create_collection(name)
            for path, unique in SMARTCHAINDB_LAYOUT[name]:
                collection.create_index(path, unique=unique)
        return database

    def _checkpoint_state(self) -> list[bytes]:
        return checkpoint_state(self.durable)

    def _force(self) -> None:
        """2PC force-write point: flush the journal *now*.

        Presumed abort is only sound if certain records hit the disk
        before their messages hit the wire — a participant's prepared
        lock before its YES vote (a lock lost to a torn write after the
        vote escaped would let the UTXO be respent locally while the
        home chain commits the remote spend), and the coordinator's
        state transitions before the actions they license.  Everything
        else rides the normal group-commit cadence.
        """
        if self.durability is not None:
            self.durability.log.flush_now()

    @property
    def _outbox(self):
        return self.durable.collection("shard_outbox")

    @property
    def _locks(self):
        return self.durable.collection("shard_locks")

    def _notify(self, phase: str, tx_id: str) -> None:
        tel = self.telemetry
        if tel is not None and tel.enabled:
            self._observe_phase(tel, phase, tx_id)
        for listener in self.phase_listeners:
            listener(self.shard_id, phase, tx_id)

    def _observe_phase(self, tel, phase: str, tx_id: str) -> None:
        """Phase-latency histograms, flight-recorder and trace events.

        Coordinator-side phases bracket the protocol: ``begin`` opens the
        prepare clock, ``commit_pending`` closes it (2pc_prepare_ms) and
        opens the decision clock, ``decided:*`` closes that
        (2pc_decide_ms), ``done`` closes the end-to-end clock
        (2pc_total_ms).  Timeout aborts skip ``commit_pending``, so the
        decision clock falls back to the begin timestamp.
        """
        now = self._loop.clock.now
        tel.flight.record(now, f"2pc/{self.shard_id}", phase, tx_id=tx_id)
        if tel.tracer.sampled(tx_id):
            tel.tracer.event(tx_id, f"2pc_{phase}", node=self.shard_id)
        if phase == "begin":
            self._phase_started[tx_id] = {"begin": now}
            return
        clocks = self._phase_started.get(tx_id)
        if clocks is None:
            return  # participant-side phase, or a pre-telemetry record
        if phase == "commit_pending":
            tel.observe_ms(
                "2pc_prepare_ms", now - clocks["begin"], shard=self.shard_id
            )
            clocks["commit_pending"] = now
        elif phase.startswith("decided:"):
            opened = clocks.get("commit_pending", clocks["begin"])
            tel.observe_ms("2pc_decide_ms", now - opened, shard=self.shard_id)
            tel.counter(
                "2pc_decisions", shard=self.shard_id, outcome=phase.split(":", 1)[1]
            ).inc()
        elif phase == "done":
            tel.observe_ms(
                "2pc_total_ms", now - clocks["begin"], shard=self.shard_id
            )
            self._phase_started.pop(tx_id, None)

    def _send(self, target_shard: str, method: str, *args: Any) -> None:
        """Queue ``method(*args)`` for the target agent.

        Messages to the same peer enqueued within one event-loop tick are
        coalesced into a single wire delivery (PREPAREs for every ref of a
        batch of transactions, the decision fan-out after a block commit)
        — per-message cost becomes per-batch cost, and the receiver can
        group-apply what arrives together.  The batch leaves at the tick
        it was opened and arrives one inter-shard latency later; dropped
        if the target is down on arrival.
        """
        queue = self._outgoing.setdefault(target_shard, [])
        queue.append((method, args))
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.gauge(
                "2pc_outbox_depth", shard=self.shard_id, peer=target_shard
            ).set(len(queue))
        if len(queue) == 1:
            # First message this tick: close the batch once the current
            # event cascade (same simulated instant) has drained.
            self._loop.schedule_in(0.0, lambda: self._dispatch_batch(target_shard))

    def _dispatch_batch(self, target_shard: str) -> None:
        """Put one tick's worth of messages for a peer on the wire."""
        batch = self._outgoing.pop(target_shard, None)
        if not batch:
            return
        target = self._peer(target_shard)
        self._loop.schedule_in(
            INTER_SHARD_DELAY, lambda: target._deliver_batch(batch)
        )

    def _deliver_batch(self, batch: list[tuple[str, tuple]]) -> None:
        """Arrival of one coalesced wire delivery.

        Messages dispatch strictly in send order — a decision releasing a
        lock must land before a prepare contending for it, exactly as
        with unbatched delivery.  Only the decisions' UTXO retirements
        are deferred and group-committed in one pass at the end; that is
        order-safe because a later prepare's conflict check consults the
        lock table (already updated in order), not the UTXO documents.
        """
        if self.crashed:
            return  # the whole batch is lost at a crashed agent
        committed_refs: list[tuple[str, int]] = []
        for method, args in batch:
            if method == "handle_decision":
                self._apply_decision(*args, committed_refs=committed_refs)
            else:
                getattr(self, method)(*args)
        if committed_refs:
            self.cluster.consume_outputs(committed_refs)

    def _arm(self, kind: str, tx_id: str, delay: float, callback: Callable[[], None]) -> None:
        """Volatile named timer: dies with the arming epoch and must be
        cancelled (:meth:`_disarm`) once its protocol step resolves —
        a dangling timeout would otherwise stretch ``run_until_idle``
        past it and distort every simulated-time measurement."""
        self._disarm(kind, tx_id)
        epoch = self._epoch

        def fire() -> None:
            self._timers.pop((kind, tx_id), None)
            if self.crashed or self._epoch != epoch:
                return
            callback()

        self._timers[(kind, tx_id)] = self._loop.schedule_in(delay, fire)

    def _disarm(self, kind: str, tx_id: str) -> None:
        handle = self._timers.pop((kind, tx_id), None)
        if handle is not None:
            handle.cancel()

    def _spend_guard(self, ref: OutputRef) -> str | None:
        """Local validation oracle: who holds/spent this output remotely.

        Verdict precedence: an active migration fence (the output is
        draining toward a cutover), then the durable moved-out registry
        (the output's ownership left this shard at a past cutover), then
        the 2PC lock table.  Redirect verdicts start with the 8-char
        ``redirect`` marker so even the truncated spender rendering of a
        DoubleSpendError keeps enough for the driver's retry path.
        """
        for guard in self.migration_guards:
            verdict = guard(ref)
            if verdict is not None:
                return verdict
        moved = self.durable.collection("shard_migrations").find_one(
            {
                "transaction_id": ref.transaction_id,
                "output_index": ref.output_index,
                "direction": "out",
            },
            copy=False,
        )
        if moved is not None:
            return f"redirect:moved:{moved['peer']}"
        lock = self._locks.find_one(
            {"transaction_id": ref.transaction_id, "output_index": ref.output_index},
            copy=False,
        )
        if lock is None:
            return None
        return f"shard-lock:{lock['holder']}"

    def _any_server(self):
        try:
            return self.cluster.any_server()
        except ValidationError:
            return None

    # -- coordinator role -------------------------------------------------------

    def begin(self, payload: dict[str, Any], decision: RoutingDecision) -> None:
        """Start 2PC for a cross-shard transaction homed on this shard.

        Re-beginning after an abort is a legitimate client retry: the
        terminal outbox row is replaced.  A begin for a transaction that
        is still in flight (or already committed) is a no-op.
        """
        tx_id = payload["id"]
        existing = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if existing is not None:
            if existing["outcome"] != "aborted":
                return  # in flight or already committed: nothing to do
            self._outbox.delete_many({"tx_id": tx_id})
            # Round state from the aborted attempt must not leak into
            # the retry: a stale decision-broadcast timer seeing the old
            # round's complete ack set would mark the fresh record done
            # before any participant is even prepared (found by the
            # byzantine chaos sweep, seed 16).
            self._acks.pop(tx_id, None)
            self._disarm("retry", tx_id)
        participants = {
            shard: [[ref.transaction_id, ref.output_index] for ref in refs]
            for shard, refs in decision.input_shards.items()
            if shard != self.shard_id
        }
        self._outbox.insert_one(
            {
                "tx_id": tx_id,
                "payload": payload,
                "home": self.shard_id,
                "participants": participants,
                "state": "preparing",
                "outcome": None,
                "reason": None,
            }
        )
        self.stats["coordinated"] += 1
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.counter("2pc_begun", shard=self.shard_id).inc()
            tel.histogram("2pc_fanout", shard=self.shard_id).observe(
                len(participants)
            )
        self._notify("begin", tx_id)
        self._votes[tx_id] = {}
        self._vote_payloads[tx_id] = []
        for shard, refs in participants.items():
            self._send(shard, "handle_prepare", self.shard_id, tx_id, refs)
        self._arm(
            "prepare", tx_id, PREPARE_TIMEOUT,
            lambda: self._prepare_timed_out(tx_id),
        )

    def _prepare_timed_out(self, tx_id: str) -> None:
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is not None and doc["state"] == "preparing":
            self._decide(tx_id, "aborted", "prepare timeout")

    def handle_vote(
        self, tx_id: str, voter_shard: str, ok: bool, detail: Any
    ) -> None:
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is None or doc["state"] != "preparing":
            # Decision already taken (e.g. timeout abort, broadcast to
            # every participant) — a straggling vote changes nothing.
            return
        votes = self._votes.setdefault(tx_id, {})
        votes[voter_shard] = ok
        if not ok:
            self._decide(tx_id, "aborted", f"participant {voter_shard}: {detail}")
            return
        self._vote_payloads.setdefault(tx_id, []).extend(detail)
        if set(votes) == set(doc["participants"]):
            # Unanimous YES: ship the foreign payloads so home validation
            # can resolve the remote inputs, record intent durably, then
            # let the home chain be the commit point.
            self.cluster.import_reference_payloads(self._vote_payloads.pop(tx_id, []))
            self._outbox.update_many(
                {"tx_id": tx_id}, {"$set": {"state": "commit_pending"}}
            )
            # Forced: were the flip torn away after the home submit went
            # out, recovery would presume abort while the home chain
            # commits — the split-brain presumed abort cannot survive.
            self._force()
            self._notify("commit_pending", tx_id)
            self._submit_home(tx_id, doc["payload"])

    def _submit_home(self, tx_id: str, payload: dict[str, Any]) -> None:
        result = self.cluster.submit_payload(
            payload,
            callback=lambda status, detail: self._home_settled(tx_id, status, detail),
        )
        if not result.accepted:
            # Admission failed outright (e.g. every home validator is
            # down) — the callback will never fire, so abort here or the
            # participants' prepared locks would be held forever.
            self._home_settled(tx_id, "rejected", result.error or "home admission failed")

    def _home_settled(self, tx_id: str, status: str, detail: Any) -> None:
        if self.crashed:
            return  # recovery re-resolves from the home chain
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is None or doc["state"] != "commit_pending":
            return
        if status == "committed":
            self._decide(tx_id, "committed", None)
        else:
            self._decide(tx_id, "aborted", f"home rejection: {detail}")

    def _decide(self, tx_id: str, outcome: str, reason: str | None) -> None:
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is None or doc["state"] in ("committed", "aborted", "done"):
            return
        self._outbox.update_many(
            {"tx_id": tx_id},
            {"$set": {"state": outcome, "outcome": outcome, "reason": reason}},
        )
        self._force()  # decided-before-broadcast, the classic 2PC force point
        self._disarm("prepare", tx_id)
        self._votes.pop(tx_id, None)
        self._vote_payloads.pop(tx_id, None)
        self._acks.setdefault(tx_id, set())
        self.stats["committed" if outcome == "committed" else "aborted"] += 1
        self._notify(f"decided:{outcome}", tx_id)
        # Committed outcomes hand the payload to the facade callback so a
        # driver client sees the same ("committed", payload) contract a
        # single cluster gives it.
        self._on_outcome(
            tx_id, outcome, doc["payload"] if outcome == "committed" else reason
        )
        self._broadcast_decision(tx_id, outcome, attempt=0)

    def _broadcast_decision(self, tx_id: str, outcome: str, attempt: int) -> None:
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is None or doc["state"] == "done" or doc["outcome"] != outcome:
            # Gone, finished, or the record no longer carries the
            # decision this broadcast was armed for (a client re-begin
            # replaced an aborted row) — a stale retry must not touch
            # the new round.
            return
        acked = self._acks.setdefault(tx_id, set())
        pending = [shard for shard in doc["participants"] if shard not in acked]
        if not pending:
            self._outbox.update_many({"tx_id": tx_id}, {"$set": {"state": "done"}})
            self._disarm("retry", tx_id)
            self._notify("done", tx_id)
            return
        for shard in pending:
            self._send(shard, "handle_decision", self.shard_id, tx_id, outcome)
        if attempt < MAX_RETRIES:
            self._arm(
                "retry", tx_id, RETRY_INTERVAL,
                lambda: self._broadcast_decision(tx_id, outcome, attempt + 1),
            )
        # Retries exhausted: park; the participant's recovery inquiry or
        # this coordinator's own recovery re-broadcast finishes the job.

    def handle_ack(self, tx_id: str, participant_shard: str) -> None:
        acked = self._acks.setdefault(tx_id, set())
        acked.add(participant_shard)
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if (
            doc is not None
            and doc["state"] in ("committed", "aborted")
            and set(doc["participants"]) <= acked
        ):
            self._outbox.update_many({"tx_id": tx_id}, {"$set": {"state": "done"}})
            self._disarm("retry", tx_id)
            self._notify("done", tx_id)

    def handle_inquiry(self, participant_shard: str, tx_id: str) -> None:
        """Participant termination protocol: answer with any final outcome."""
        self.stats["inquiries"] += 1
        self._notify("inquiry", tx_id)
        doc = self._outbox.find_one({"tx_id": tx_id}, copy=False)
        if doc is None:
            # No durable intent: this coordinator never began (or the
            # record predates it) — presumed abort.
            self._send(participant_shard, "handle_decision", self.shard_id, tx_id, "aborted")
            return
        if doc["outcome"] is not None:
            self._send(
                participant_shard, "handle_decision", self.shard_id, tx_id, doc["outcome"]
            )
        # Still preparing / commit_pending: stay silent — the decision
        # broadcast will reach the participant when it is taken.

    # -- participant role -------------------------------------------------------

    def handle_prepare(
        self, coordinator_shard: str, tx_id: str, refs: list[list]
    ) -> None:
        """Lock locally-held UTXOs for a remote transaction, or vote no."""
        resolved = [OutputRef(item[0], int(item[1])) for item in refs]
        server = self._any_server()
        reason: str | None = None
        payloads: list[dict[str, Any]] = []
        if server is None:
            reason = "no live node to read shard state"
        else:
            utxos = server.database.collection("utxos")
            for ref in resolved:
                holder = self._spend_guard(ref)
                if holder is not None:
                    reason = f"{ref.transaction_id[:8]}:{ref.output_index} held by {holder}"
                    break
                prior = server.get_transaction(ref.transaction_id)
                if prior is None:
                    reason = f"{ref.transaction_id[:8]} not committed on {self.shard_id}"
                    break
                if (
                    utxos.find_one(
                        {
                            "transaction_id": ref.transaction_id,
                            "output_index": ref.output_index,
                        },
                        copy=False,
                    )
                    is None
                ):
                    reason = f"{ref.transaction_id[:8]}:{ref.output_index} already spent"
                    break
                rival = self.cluster.inflight_spender(ref)
                if rival == tx_id:
                    # A pooled copy of the *same* transaction (e.g. an
                    # adversarial double-submit of the cross-shard tx
                    # itself) is not a rival: granting the lock lets 2PC
                    # commit, and the pooled duplicate is then rejected
                    # deterministically against committed state.
                    rival = None
                if rival is not None:
                    # A pooled local spend is already racing for this
                    # output.  Delivery judges blocks on committed state
                    # alone (no lock-table reads), so granting the lock
                    # would not stop the rival's commit — vote no and
                    # let presumed abort release the coordinator.
                    reason = (
                        f"{ref.transaction_id[:8]}:{ref.output_index} contended "
                        f"by pooled rival {rival[:8]}"
                    )
                    break
                payloads.append(deep_copy_json(prior))
        if reason is not None:
            self.stats["locks_refused"] += 1
            self._notify("vote_refused", tx_id)
            self._send(coordinator_shard, "handle_vote", tx_id, self.shard_id, False, reason)
            return
        now = self._loop.clock.now
        # One group-committed write for the transaction's whole lock set.
        self._locks.insert_many(
            [
                {
                    "transaction_id": ref.transaction_id,
                    "output_index": ref.output_index,
                    "holder": tx_id,
                    "coordinator": coordinator_shard,
                    "status": "prepared",
                    "locked_at": now,
                }
                for ref in resolved
            ]
        )
        self.stats["locks_granted"] += len(resolved)
        self._force()  # the prepared lock must outlive any crash the YES vote outruns
        self._notify("prepared", tx_id)
        self._arm(
            "lock", tx_id, LOCK_TIMEOUT,
            lambda: self._inquire(tx_id, coordinator_shard, 0),
        )
        self._send(coordinator_shard, "handle_vote", tx_id, self.shard_id, True, payloads)

    def handle_decision(self, coordinator_shard: str, tx_id: str, outcome: str) -> None:
        """Apply a coordinator decision to this shard's locks (idempotent)."""
        committed_refs: list[tuple[str, int]] = []
        self._apply_decision(coordinator_shard, tx_id, outcome, committed_refs=committed_refs)
        if committed_refs:
            self.cluster.consume_outputs(committed_refs)

    def _apply_decision(
        self,
        coordinator_shard: str,
        tx_id: str,
        outcome: str,
        committed_refs: list[tuple[str, int]],
    ) -> None:
        """Apply one decision to the lock table, deferring UTXO retirement.

        Committed spends append their refs to ``committed_refs`` so the
        caller can retire a whole wire batch's UTXOs in one
        :meth:`~repro.core.cluster.SmartchainCluster.consume_outputs`
        pass (the group-commit write); the acks ride one return delivery
        per coordinator shard thanks to :meth:`_send`'s coalescing.
        """
        prepared = self._locks.find({"holder": tx_id, "status": "prepared"})
        if outcome == "committed":
            refs = [(lock["transaction_id"], lock["output_index"]) for lock in prepared]
            if refs:
                # The spend is decided on the home chain: retire the
                # UTXO and keep the lock as a permanent spent tombstone.
                committed_refs.extend(refs)
                self._locks.update_many(
                    {"holder": tx_id, "status": "prepared"},
                    {"$set": {"status": "committed"}},
                )
        else:
            self._locks.delete_many({"holder": tx_id, "status": "prepared"})
        self._disarm("lock", tx_id)
        self._notify("decision_applied", tx_id)
        self._send(coordinator_shard, "handle_ack", tx_id, self.shard_id)

    def _inquire(self, tx_id: str, coordinator_shard: str, attempt: int) -> None:
        still_held = self._locks.find_one(
            {"holder": tx_id, "status": "prepared"}, copy=False
        )
        if still_held is None:
            return  # decision arrived meanwhile
        self._send(coordinator_shard, "handle_inquiry", self.shard_id, tx_id)
        if attempt < MAX_RETRIES:
            self._arm(
                "lock", tx_id, RETRY_INTERVAL,
                lambda: self._inquire(tx_id, coordinator_shard, attempt + 1),
            )
        # Else park: resolved when either side recovers.

    # -- crash / recovery -------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile protocol state dies; durable outbox/locks survive."""
        self.crashed = True
        self._epoch += 1
        self._votes.clear()
        self._vote_payloads.clear()
        self._acks.clear()
        self._phase_started.clear()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    def on_recover(self) -> None:
        """Crash recovery: flip the liveness flag and resume from durable
        state."""
        self.crashed = False
        self._epoch += 1
        self.resume()

    def restart_from_disk(self, torn_bytes: int = 0) -> None:
        """Kill the agent, discard its memory, rebuild from its disk.

        The abstract model kept ``self.durable`` alive across crashes;
        here it is genuinely rebuilt from snapshot + WAL suffix after the
        device loses its unsynced tail (optionally keeping ``torn_bytes``
        as a torn write).

        Ordering is load-bearing — this is the restart bug the chaos
        harness's crash-restart family exists to catch: the recovered
        database must be swapped in *before* the recovery callback runs,
        and timers must be re-armed by ``resume()`` *after* the epoch
        advances.  Rebuilding the tables without re-running resume leaves
        every in-flight cross-shard transaction with prepared locks and
        no inquiry timer — presumed-abort then stalls until some other
        agent happens to poke this one
        (``tests/sharding/test_coordinator_timers.py`` pins the fix).

        Raises:
            ValidationError: if the agent was built without durability.
        """
        if self.durability is None:
            raise ValidationError(
                f"2PC agent for {self.shard_id} has no durability stack"
            )
        if not self.crashed:
            # Fires on_crash: epoch bump, volatile wipe, timer cancel.
            self.cluster.failures.crash_now(COORDINATOR_NODE)
        self.durability.power_fail(torn_bytes)
        recovered = recover(
            self.durability, lambda: self._make_durable_database(journaled=False)
        )
        recovered.database.attach_wal(self.durability.log)
        self.durable = recovered.database
        # recover_now -> on_recover: crashed=False, epoch++, resume() —
        # which re-broadcasts decided outcomes and re-arms the inquiry
        # timers for every lock the disk says is still prepared.
        self.cluster.failures.recover_now(COORDINATOR_NODE)

    def resume(self) -> None:
        """Drive every unfinished protocol instance from durable state.

        Safe to call on a live agent: decided states re-broadcast,
        prepared locks re-inquire, terminal ones are left alone, and a
        still-``preparing`` record is presumed-aborted — a safety-
        preserving choice, so only call this once in-flight votes have
        drained (recovery after a crash, or a quiesce after the loop
        idles).  Operators — and the chaos harness's quiesce step — use
        it directly when parked state must make progress without a
        crash, e.g. after a long partition exhausted the bounded retries.
        """
        # Coordinator side: drive each outbox record to completion.
        for doc in self._outbox.find({}):
            tx_id, state = doc["tx_id"], doc["state"]
            if state == "preparing":
                # No home submit happened yet — presumed abort releases
                # any remote locks granted before the crash.
                self._decide(tx_id, "aborted", "presumed abort: prepare unresolved at resume")
            elif state == "commit_pending":
                self._resolve_commit_pending(tx_id, doc)
            elif state in ("committed", "aborted"):
                self._broadcast_decision(tx_id, state, attempt=0)
        # Participant side: chase a decision for every lock still prepared.
        chased: set[tuple[str, str]] = set()
        for lock in self._locks.find({"status": "prepared"}, copy=False):
            chased.add((lock["holder"], lock["coordinator"]))
        for holder, coordinator_shard in sorted(chased):
            self._inquire(holder, coordinator_shard, 0)

    def _resolve_commit_pending(self, tx_id: str, doc: dict[str, Any]) -> None:
        """The home chain is the truth for an interrupted commit phase."""
        record = self.cluster.records.get(tx_id)
        if record is None:
            # Crashed between the outbox flip and the home submit; the
            # shipped payloads are already imported, so just resubmit.
            self._submit_home(tx_id, doc["payload"])
        elif record.committed_at is not None:
            self._decide(tx_id, "committed", None)
        elif record.rejected is not None:
            self._decide(tx_id, "aborted", f"home rejection: {record.rejected}")
        else:
            # Parked in flight.  Trusting the registered submit callback
            # is not enough: the envelope may have died with a crashed
            # mempool *after* admission (record accepted, gossip lost),
            # in which case no commit ever fires and presumed abort
            # stalls with the participants' locks held — found by the
            # crash-restart chaos family (seed 13).  Re-drive the home
            # submission; harmless if the transaction is still pooled
            # (mempools dedup, the callback slot is simply refreshed).
            result = self.cluster.submit_payload(
                doc["payload"],
                callback=lambda status, detail: self._home_settled(
                    tx_id, status, detail
                ),
                _retry=True,
            )
            if not result.accepted:
                # Same rule as _submit_home: a failed admission fires no
                # callback, and with every home validator down (their
                # mempools died with them) the transaction can never
                # commit — abort now, or the participants' prepared
                # locks park with no decision and no pending callback.
                self._home_settled(
                    tx_id, "rejected", result.error or "home admission failed"
                )

    # -- introspection ----------------------------------------------------------

    def active_locks(self) -> list[dict[str, Any]]:
        """Prepared (not yet decided) locks this shard currently holds."""
        return self._locks.find({"status": "prepared"})

    def outbox_record(self, tx_id: str) -> dict[str, Any] | None:
        """This coordinator's durable 2PC record for ``tx_id`` (or None).
        The sharded facade's ingress gate reads it to tell a legitimate
        commit-point home submission from a rogue injected copy."""
        return self._outbox.find_one({"tx_id": tx_id}, copy=False)

    def unfinished(self) -> list[dict[str, Any]]:
        """Outbox records not yet fully acknowledged."""
        return self._outbox.find({"state": {"$ne": "done"}})
