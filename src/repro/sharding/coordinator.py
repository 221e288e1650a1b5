"""Two-phase commit across shards.

One :class:`TwoPhaseCoordinator` agent runs per shard, playing both 2PC
roles:

* **coordinator** for cross-shard transactions *homed* on its shard —
  it prepares remote input locks, drives the home BFT commit, then
  broadcasts the commit/abort decision;
* **participant** (resource manager) for remote coordinators — it locks
  locally-held UTXOs at prepare, makes the lock visible to admission
  through the servers' spend guard, and consumes or releases the lock
  when the decision arrives.

The protocol per cross-shard transaction ``T`` homed on ``H``:

1. ``H`` durably records intent in its ``shard_outbox`` (state
   ``preparing``) and sends PREPARE for the refs each remote shard holds.
2. Each participant verifies the ref is unfenced, unlocked, committed
   and unspent — a ref its chain exported votes no with the chain's
   ``redirect:moved`` verdict, which the driver retries on — writes a
   durable ``prepared`` row in its ``shard_locks`` table (from that
   instant admission refuses competing spends), and votes YES with an
   *attachment* per referenced payload: the payload and the certified
   header of the block that committed it (:mod:`repro.core.entries`).
3. On unanimous YES, ``H`` flips the outbox to ``commit_pending``
   (keeping the attachments for a resubmit) and submits ``T`` with them
   in its envelope: DeliverTx stores them as reference copies in the
   block that delivers ``T``.  The home chain is the commit point.
4. When ``T`` is delivered (or refused) there, ``H`` records the outcome
   and broadcasts COMMIT, with ``T``'s certified home block, or ABORT.
   Participants delete aborted locks and acknowledge.  Committed locks
   stay as tombstones and go on the participant's own chain in
   ``SHARD_CONSUME`` entries its agent signs (one in flight at a time,
   carrying every decision queued meanwhile); a late replica gets them
   by catch-up.

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

from repro.common.errors import ValidationError
from repro.core.cluster import SmartchainCluster
from repro.core.context import REDIRECT_MARKER
from repro.core.entries import consume_entry
from repro.core.transaction import OutputRef
from repro.crypto.keys import keypair_from_string
from repro.durability.node import NodeDurability
from repro.durability.recovery import checkpoint_state, recover
from repro.sharding.router import RoutingDecision
from repro.sim.events import EventLoop
from repro.storage.database import Database
from repro.telemetry import INERT

#: Pseudo-node id the coordinator occupies in its shard's failure domain.
COORDINATOR_NODE = "coordinator"

#: The agent's tables and their hash indexes: 2PC locks and the outbox.
AGENT_LAYOUT: dict[str, list[tuple[str, bool]]] = {
    "shard_locks": [("transaction_id", False), ("holder", False), ("status", False)],
    "shard_outbox": [("tx_id", True), ("state", False)],
}

#: Outcome callback the owning facade registers:
#: (tx_id, "committed" | "aborted", reason_or_None).
OutcomeCallback = Callable[[str, str, "str | None"], None]

#: Phase listener: (shard_id, phase, tx_id).  Phases a listener observes,
#: in protocol order on the coordinator side — ``begin``,
#: ``commit_pending``, ``decided:committed`` / ``decided:aborted``,
#: ``done`` — and on the participant side — ``prepared``,
#: ``vote_refused``, ``decision_applied``, ``consumed``, ``inquiry``.  The chaos
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
        #: Signs this shard's ``SHARD_CONSUME`` entries; replicas take
        #: consumes only under this key (``ShardedCluster.entry_authors``).
        self.keypair = keypair_from_string(f"shard-agent:{shard_id}")
        #: Optional persistence stack: when set, the outbox/locks tables
        #: journal through its group-commit WAL and the agent can be
        #: rebuilt purely from disk (:meth:`restart_from_disk`).
        self.durability = durability
        #: Durable agent state: survives crashes, like any node database.
        self.durable = self._make_durable_database()
        if durability is not None:
            durability.state_provider = self._checkpoint_state
        # Volatile protocol state (lost on crash, rebuilt from durable).
        #: tx_id -> {participant: its YES vote's attachments}.
        self._votes: dict[str, dict[str, list]] = {}
        #: Committed decisions (holder -> refs, evidence) waiting for the
        #: next ``SHARD_CONSUME``, and the id of the one on its way to the
        #: chain: one at a time, so decisions that arrive meanwhile share
        #: the next entry.
        self._consume_queue: dict[str, tuple[list, dict]] = {}
        self._consume_in_flight: str | None = None
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
        #: The reshard controller's migration fence: maps an OutputRef to
        #: a ``redirect:migrating`` verdict while the ref is draining
        #: toward a cutover, or None.  Consulted before the lock table so
        #: migrating outputs refuse new spends — admissions, pool entries
        #: and 2PC prepares alike.
        self.migration_fence: Callable[[OutputRef], str | None] = lambda ref: None
        self.stats = {
            "coordinated": 0,
            "committed": 0,
            "aborted": 0,
            "locks_granted": 0,
            "locks_refused": 0,
            "inquiries": 0,
            "consumes": 0,
        }
        #: The deployment's :class:`~repro.telemetry.Telemetry` (set by
        #: the facade; a bare agent records into the inert one).
        self.telemetry = INERT
        #: Coordinator-side phase clocks: tx_id -> {phase: started_at}.
        self._phase_started: dict[str, dict[str, float]] = {}
        # Remote prepared locks must be visible to this shard's own
        # admission path — the lock hook the cluster exposes.
        cluster.set_spend_guard(self._spend_guard)
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
        for name, indexes in AGENT_LAYOUT.items():
            collection = database.create_collection(name)
            for path, unique in indexes:
                collection.create_index(path, unique=unique)
        return database

    def _checkpoint_state(self, full: bool) -> list[bytes]:
        return checkpoint_state(self.durable, full)

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
        self._observe_phase(self.telemetry, phase, tx_id)
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
        self.telemetry.gauge(
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
        with unbatched delivery.  Only the committed decisions' chain
        entry is deferred, to the ``SHARD_CONSUME`` that carries the
        batch.  That is order-safe because a later prepare's conflict
        check consults the lock table (already updated in order), not
        the UTXO documents.
        """
        if self.crashed:
            return  # the whole batch is lost at a crashed agent
        consumed: list[tuple[str, list, dict]] = []
        for method, args in batch:
            if method == "handle_decision":
                self._apply_decision(*args, consumed=consumed)
            else:
                getattr(self, method)(*args)
        self._submit_consume(consumed)

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
        """Admission oracle: who holds this output off the chain.

        Verdict precedence: an active migration fence (the output is
        draining toward a cutover, a ``redirect`` verdict), then the 2PC
        lock table.  An output a cutover already moved is the chain's
        to refuse (:meth:`~repro.core.context.ValidationContext.output_spender`).
        """
        verdict = self.migration_fence(ref)
        if verdict is not None:
            return verdict
        lock = self._locks.find_one(
            {"transaction_id": ref.transaction_id, "output_index": ref.output_index},
            copy=False,
        )
        return None if lock is None else f"shard-lock:{lock['holder']}"

    def _freshest_server(self):
        """The live server furthest along this shard's chain, or None: a
        replica behind it may still hold an output a later block spent
        or exported."""
        engine, network = self.cluster.engine, self.cluster.network
        live = [node for node in engine.validator_order if not network.is_crashed(node)]
        if not live:
            return None
        return self.cluster.servers[max(live, key=lambda node: engine.validator(node).state.h)]

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
        tel.counter("2pc_begun", shard=self.shard_id).inc()
        tel.histogram("2pc_fanout", shard=self.shard_id).observe(len(participants))
        self._notify("begin", tx_id)
        self._votes[tx_id] = {}
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
        if not ok:
            self._decide(tx_id, "aborted", f"participant {voter_shard}: {detail}")
            return
        votes = self._votes.setdefault(tx_id, {})
        votes[voter_shard] = detail
        if set(votes) == set(doc["participants"]):
            # Unanimous YES: record intent (with the certified foreign
            # payloads a resubmit must carry again) durably, then let the
            # home chain be the commit point.
            attachments = [item for shipped in self._votes.pop(tx_id).values() for item in shipped]
            self._outbox.update_many(
                {"tx_id": tx_id},
                {"$set": {"state": "commit_pending", "attachments": attachments}},
            )
            # Forced: were the flip torn away after the home submit went
            # out, recovery would presume abort while the home chain
            # commits — the split-brain presumed abort cannot survive.
            self._force()
            self._notify("commit_pending", tx_id)
            self._submit_home(tx_id, doc["payload"], attachments)

    def _submit_home(
        self, tx_id: str, payload: dict[str, Any], attachments: list, retry: bool = False
    ) -> None:
        result = self.cluster.submit_payload(
            payload,
            callback=lambda status, detail: self._home_settled(tx_id, status, detail),
            _retry=retry,
            attachments=tuple(attachments),
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
        evidence = self._decision_evidence(doc)
        for shard in pending:
            self._send(shard, "handle_decision", self.shard_id, tx_id, outcome, evidence)
        if attempt < MAX_RETRIES:
            self._arm(
                "retry", tx_id, RETRY_INTERVAL,
                lambda: self._broadcast_decision(tx_id, outcome, attempt + 1),
            )
        # Retries exhausted: park; the participant's recovery inquiry or
        # this coordinator's own recovery re-broadcast finishes the job.

    def _decision_evidence(self, doc: dict[str, Any]) -> dict | None:
        """A committed spend with the certified home block holding it
        (None for aborts, and while no live home node can show it)."""
        if doc["outcome"] != "committed":
            return None
        return self.cluster.commit_evidence(doc["tx_id"])

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
            evidence = self._decision_evidence(doc)
            self._send(participant_shard, "handle_decision", self.shard_id, tx_id, doc["outcome"], evidence)
        # Still preparing / commit_pending: stay silent — the decision
        # broadcast will reach the participant when it is taken.

    # -- participant role -------------------------------------------------------

    def handle_prepare(
        self, coordinator_shard: str, tx_id: str, refs: list[list]
    ) -> None:
        """Lock locally-held UTXOs for a remote transaction, or vote no."""
        resolved = [OutputRef(item[0], int(item[1])) for item in refs]
        server = self._freshest_server()
        reason: str | None = None
        attachments: dict[str, dict[str, Any]] = {}
        if server is None:
            reason = "no live node to read shard state"
        else:
            utxos = server.database.collection("utxos")
            for ref in resolved:
                holder = self._spend_guard(ref)
                if holder is not None:
                    reason = f"{ref.transaction_id[:8]}:{ref.output_index} held by {holder}"
                    break
                evidence = attachments.get(ref.transaction_id) or self.cluster.commit_evidence(
                    ref.transaction_id
                )
                if evidence is None:
                    reason = f"{ref.transaction_id[:8]} not committed (certified) on {self.shard_id}"
                    break
                attachments[ref.transaction_id] = evidence
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
                    # An exported ref votes no with its redirect (retried).
                    spender = server.context.output_spender(ref) or ""
                    moved = spender.startswith(REDIRECT_MARKER)
                    reason = f"{ref.transaction_id[:8]}:{ref.output_index} " + (
                        f"held by {spender}" if moved else "already spent"
                    )
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
        self._send(
            coordinator_shard, "handle_vote", tx_id, self.shard_id, True,
            list(attachments.values()),
        )

    def handle_decision(
        self, coordinator_shard: str, tx_id: str, outcome: str, evidence: dict | None = None
    ) -> None:
        """Apply a coordinator decision to this shard's locks (idempotent)."""
        consumed: list[tuple[str, list, dict]] = []
        self._apply_decision(coordinator_shard, tx_id, outcome, evidence, consumed=consumed)
        self._submit_consume(consumed)

    def _apply_decision(
        self,
        coordinator_shard: str,
        tx_id: str,
        outcome: str,
        evidence: dict | None,
        consumed: list[tuple[str, list, dict]],
    ) -> None:
        """Apply one decision to the lock table, deferring the chain entry:
        a committed spend appends ``(tx_id, refs, evidence)`` to
        ``consumed`` for :meth:`_submit_consume`.  A committed decision
        without evidence (no live home node could show the block yet) is
        not acknowledged: the coordinator's re-broadcast brings it."""
        if outcome == "committed":
            held = [lock for lock in self._locks.find({"holder": tx_id}) if not lock.get("consumed")]
            # Decided on the home chain: the locks stay as permanent
            # spent tombstones.
            self._locks.update_many(
                {"holder": tx_id, "status": "prepared"}, {"$set": {"status": "committed"}}
            )
            if held:
                # The prepare's inquiry timer stays armed until the
                # consume lands, so a lost entry is re-driven.
                if evidence is None:
                    return
                refs = [[lock["transaction_id"], lock["output_index"]] for lock in held]
                consumed.append((tx_id, refs, evidence))
        else:
            self._locks.delete_many({"holder": tx_id, "status": "prepared"})
            self._disarm("lock", tx_id)
        self._notify("decision_applied", tx_id)
        self._send(coordinator_shard, "handle_ack", tx_id, self.shard_id)

    def _submit_consume(self, consumed: list[tuple[str, list, dict]]) -> None:
        """Queue committed decisions for this shard's chain and, unless a
        ``SHARD_CONSUME`` is still on its way there, put everything queued
        on it as one entry; the tombstones are marked ``consumed`` once it
        lands.  An entry lost with a crashed node is neither landed nor
        pooled: the next call sends the queue, and the lost decisions
        return through their inquiry timers."""
        for holder, refs, evidence in consumed:
            self._consume_queue[holder] = (refs, evidence)
        flight = self._consume_in_flight
        if flight is not None and self.cluster.landed(flight) is None and self.cluster.pooled(flight):
            return
        self._consume_in_flight = None
        if not self._consume_queue:
            return
        batch, self._consume_queue = self._consume_queue, {}
        entry = consume_entry(
            (tuple(ref) for refs, _evidence in batch.values() for ref in refs),
            [evidence for _refs, evidence in batch.values()],
            self.keypair,
        )
        self.stats["consumes"] += 1
        holders = list(batch)
        if self.cluster.landed(entry["id"]):
            return self._consumed(holders, "committed")
        if self.cluster.submit_entry(
            entry, callback=lambda status, _detail: self._consumed(holders, status)
        ):
            self._consume_in_flight = entry["id"]

    def _consumed(self, holders: list[str], status: str) -> None:
        if self.crashed or status != "committed":
            return  # the inquiry timer (or recovery) re-drives it
        self._consume_in_flight = None
        for holder in holders:
            self._locks.update_many(
                {"holder": holder, "status": "committed"}, {"$set": {"consumed": True}}
            )
            self._disarm("lock", holder)
            self._notify("consumed", holder)
        self._submit_consume([])

    def _inquire(self, tx_id: str, coordinator_shard: str, attempt: int) -> None:
        held = self._locks.find({"holder": tx_id}, copy=False)
        if not any(
            lock["status"] == "prepared" or not lock.get("consumed") for lock in held
        ):
            return  # decision arrived (and its consume landed) meanwhile
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
        self._consume_queue.clear()
        self._consume_in_flight = None
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
        # Participant side: chase a decision for every lock still
        # prepared, or committed with its consume not yet on the chain.
        chased: set[tuple[str, str]] = set()
        for lock in self.active_locks():
            chased.add((lock["holder"], lock["coordinator"]))
        for holder, coordinator_shard in sorted(chased):
            self._inquire(holder, coordinator_shard, 0)

    def _resolve_commit_pending(self, tx_id: str, doc: dict[str, Any]) -> None:
        """The home chain is the truth for an interrupted commit phase."""
        record = self.cluster.records.get(tx_id)
        attachments = doc.get("attachments") or []
        if record is None:
            # Crashed between the outbox flip and the home submit: the
            # row kept the attachments, so just resubmit.
            self._submit_home(tx_id, doc["payload"], attachments)
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
            # (mempools dedup, the callback slot is simply refreshed).  A
            # failed admission aborts, as in _submit_home: with every home
            # validator down (their mempools died with them) the
            # transaction can never commit.
            self._submit_home(tx_id, doc["payload"], attachments, retry=True)

    # -- introspection ----------------------------------------------------------

    def active_locks(self) -> list[dict[str, Any]]:
        """Locks still in flight here: prepared (undecided), or committed
        with their ``SHARD_CONSUME`` not yet on this shard's chain."""
        return self._locks.find({"status": "prepared"}) + self._locks.find(
            {"status": "committed", "consumed": {"$ne": True}}
        )

    def outbox_record(self, tx_id: str) -> dict[str, Any] | None:
        """This coordinator's durable 2PC record for ``tx_id`` (or None).
        The sharded facade's ingress gate reads it to tell a legitimate
        commit-point home submission from a rogue injected copy."""
        return self._outbox.find_one({"tx_id": tx_id}, copy=False)

    def unfinished(self) -> list[dict[str, Any]]:
        """Outbox records not yet fully acknowledged."""
        return self._outbox.find({"state": {"$ne": "done"}})
