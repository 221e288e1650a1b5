"""Message-level BFT consensus engine.

One engine serves both consensus protocols the paper's evaluation uses:

* **Tendermint** (SmartchainDB side): proposer rotation, prevote/precommit
  phases with 2/3 quorums, and BigchainDB's *blockchain pipelining* — the
  storage commit of height H overlaps the round of H+1, whose proposer
  does not wait for it.
* **Istanbul BFT** (Quorum / ETH-SC side): the same two-phase quorum
  structure (PRE-PREPARE/PREPARE/COMMIT maps onto proposal/prevote/
  precommit), *no* pipelining, and a minimum block period.

The engine is crash-fault tolerant: crashed validators receive nothing,
lose volatile state (mempool, votes) and catch up from peers on recovery.
Liveness needs > 2/3 of validators online, matching the paper's BFT
threshold discussion in Section 4.2.1.

Every protocol decision — and the hardening against the byzantine fault
family of :mod:`repro.consensus.byzantine`: per-validator tallies,
vote-sender authentication, proposer legitimacy, the lock rule — is the
pure round machine of :mod:`repro.consensus.round`.  This module is its
driver: timers, the wire, validation and commit costs, WAL force points,
catch-up with commit certificates, telemetry, the ``evidence`` log.

A commit certificate is the signed precommits a node counted, stored
unverified; whoever relies on one checks it with :func:`certifies` (a
catch-up receiver, a shard shipping or admitting cross-shard evidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.encoding import array_pieces, canonical_bytes, splice_object
from repro.consensus.abci import Application, deliver_block
from repro.consensus.mempool import Mempool
from repro.consensus import round as machine
from repro.consensus.round import GENESIS_ID, RoundState, Send
from repro.consensus.types import PRECOMMIT, Block, TxEnvelope, Vote, precommit_message
from repro.crypto.keys import keypair_from_string, verify_signature
from repro.durability.recovery import block_record, encoded_block_record
from repro.sim.events import EventHandle, EventLoop
from repro.sim.network import Message, Network
from repro.telemetry import INERT

#: Cap on the per-validator misbehavior evidence log: a vote-spamming
#: byzantine peer must not grow honest memory without bound.
EVIDENCE_LIMIT = 512


def certifies(cert: Any, block_id: str, height: int, public_keys: dict[str, str]) -> bool:
    """Does ``cert`` hold valid precommits of ``block_id`` at ``height``,
    from one round, by more than two thirds of ``public_keys`` (voter ->
    key)?  The signature cache is keyed by the whole (key, message,
    signature) triple, so the verdict never rests on what it holds."""
    if not isinstance(cert, dict) or cert.get("id") != block_id:
        return False
    round_number, sigs = cert.get("r"), cert.get("sigs")
    if not isinstance(round_number, int) or not isinstance(sigs, dict):
        return False
    if not set(sigs) <= set(public_keys):
        return False
    message = precommit_message(height, round_number, block_id)
    valid = sum(
        isinstance(sig, str) and verify_signature(public_keys[voter], message, sig)
        for voter, sig in sigs.items()
    )
    return valid >= (2 * len(public_keys)) // 3 + 1


@dataclass
class BftConfig:
    """Protocol parameters.

    Attributes:
        max_block_txs: cap on transactions per block (None = unbounded).
        max_block_weight: cap on summed envelope weight per block — the
            block gas limit for the Ethereum baseline (None = unbounded).
        pipelining: BigchainDB-style overlap of voting and finalisation.
        propose_timeout: seconds before a round is skipped to the next
            proposer (crash liveness).
        min_block_interval: minimum spacing between a node's consecutive
            proposals (IBFT block period; 0 for Tendermint).
        vote_size_bytes: wire size of votes.
    """

    max_block_txs: int | None = 32
    max_block_weight: int | None = None
    pipelining: bool = True
    propose_timeout: float = 1.0
    min_block_interval: float = 0.0
    vote_size_bytes: int = 128


@dataclass
class CommitRecord:
    """Commit metadata exposed to metric collectors."""

    block: Block
    committed_at: float
    node_id: str
    #: The envelopes DeliverTx accepted, in block order (a block can carry
    #: transactions it then refuses; every replica refuses the same ones).
    delivered: list[TxEnvelope]


class Validator:
    """One consensus participant: mempool, application, and the driver of
    one round machine — network messages, mempool work and fired timers
    go in as events; the actions that come back are carried out in order.
    """

    def __init__(self, node_id: str, engine: "BftEngine", application: Application):
        self.node_id = node_id
        self.engine = engine
        self._loop: EventLoop = engine.loop
        self._network: Network = engine.network
        self.app = application
        self.mempool = Mempool()
        self.chain: list[Block] = []
        #: The round machine's state (height, round, lock, proposals,
        #: tally): anyone may read it, only ``round.step`` changes it.
        self.state = RoundState(node_id, tuple(engine.validator_order))
        self._committed_ids: set[str] = set()
        #: Optional :class:`~repro.durability.node.NodeDurability` (set
        #: by the cluster in durable deployments).  The lock rule's
        #: crash-survival then means what it says: lock adoptions and
        #: applied blocks are journaled through the WAL, and a node
        #: rebuilt purely from its disk restores them
        #: (:meth:`restore_durable`) instead of trusting process memory.
        self.persistence = None
        #: height -> (block, canonical bytes of its record) and height ->
        #: (certificate, canonical bytes): a durable node encodes each
        #: once, when it is first journaled, and the ``lock`` frame, the
        #: ``block`` frame and every checkpoint splice those bytes.  One
        #: entry per height (a different block or certificate at a height
        #: replaces it), so they hold about what the ``blocks`` and
        #: ``certs`` parts of a base checkpoint do; never filled while
        #: ``persistence`` is None.
        self._block_bytes: dict[int, tuple[Block, bytes]] = {}
        self._cert_bytes: dict[int, tuple[dict, bytes]] = {}
        #: Chain blocks the checkpoints hold, and id -> block of the blocks
        #: a ``lock`` frame since the last checkpoint (or its lock) carries
        #: (a block id excludes round and proposer: only that very block
        #: may leave its body to the lock frame).
        self._checkpointed = 0
        self._lock_frames: dict[str, Block] = {}
        self._timeout_handle: EventHandle | None = None
        self._last_propose_time = float("-inf")
        self._catchup_requested_at = float("-inf")
        #: CheckTx calls this node made (admission, gossip, block checks).
        self.check_stats = {"calls": 0}
        #: Optional :class:`~repro.consensus.byzantine.ByzantineBehavior`
        #: (installed by the fault plane's mark-byzantine control): when
        #: set, this node *lies* — the behavior rewrites its outbound
        #: proposals/votes and may swallow inbound traffic.  The round
        #: machine never sees it.
        self.byzantine = None
        #: Observed peer misbehavior (forged votes, double votes,
        #: equivocating proposals), bounded by ``EVIDENCE_LIMIT``.
        self.evidence: list[dict] = []
        #: Deterministic per-validator signing identity (public half
        #: derivable by every peer): precommits are signed, and a quorum
        #: of those signatures is the commit certificate catch-up serves
        #: alongside each block.
        self.keypair = keypair_from_string(f"validator:{node_id}")
        #: height -> commit certificate for every block this node
        #: committed (assembled unverified from its own tally, or adopted
        #: from verified catch-up); journaled with the block record, so a
        #: restarted node can keep serving catch-up.
        self.commit_certs: dict[int, dict] = {}
        #: The deployment's :class:`~repro.telemetry.Telemetry` (set by
        #: the cluster; a bare engine records into the inert one).
        self.telemetry = INERT
        self.telemetry_label = node_id
        #: Sim time this height's work window opened (first pending work
        #: after the previous commit) — the height-duration histogram's
        #: start point.
        self._height_started_at: float | None = None
        self._do = {
            Send: self._send,
            machine.GetValue: self._get_value,
            machine.CheckBlock: self._check_block,
            machine.JournalLock: self._adopt_lock,
            machine.ArmTimeout: self._schedule_round_timeout,
            machine.Commit: self._commit_block,
            machine.RequestCatchup: lambda action: self._request_catchup(action.peer),
            machine.Evidence: lambda action: self._record_evidence(action.kind, **action.fields),
        }

    # -- helpers ---------------------------------------------------------------

    def _step(self, event) -> None:
        self._execute(machine.step(self.state, event))

    def _execute(self, actions: list) -> None:
        for action in actions:
            self._do[type(action)](action)

    def _later(self, delay: float, run: Callable[[], Any]) -> None:
        """Call ``run`` in ``delay`` sim-seconds unless this node has crashed by then."""
        self._loop.schedule_in(delay, lambda: self._network.is_crashed(self.node_id) or run())

    # -- batched application checks ---------------------------------------------

    def _check_batch(self, envelopes: list[TxEnvelope]) -> list[bool]:
        """``app.check_tx`` of each envelope, asked afresh every time: what
        the ledger, a 2PC lock or a migration fence refuses changes, and
        the stateless half is the shared validation memo's to keep."""
        self.check_stats["calls"] += len(envelopes)
        return [bool(self.app.check_tx(envelope)) for envelope in envelopes]

    def _block_validation_cost(self, envelopes: list[TxEnvelope]) -> float:
        """Simulated block-validation seconds: lane-parallel when the
        application schedules conflict-free lanes, serial sum otherwise."""
        hook = getattr(self.app, "block_validation_cost", None)
        if hook is not None:
            return hook(envelopes)
        return sum(self.app.execution_cost(envelope) for envelope in envelopes)

    # -- transaction intake ------------------------------------------------------

    def submit_transaction(self, envelope: TxEnvelope, gossip: bool = True) -> bool:
        """Receiver-node intake: admit locally, then gossip to peers."""
        if not self._check_batch([envelope])[0]:
            return False
        if envelope.tx_id in self._committed_ids:
            return False
        added = self.mempool.add(envelope)
        if added and self._height_started_at is None:
            self._height_started_at = self._loop.clock.now
        if added and gossip:
            self._network.broadcast(self.node_id, "TX", envelope, envelope.size_bytes)
        self._kick_proposer()
        return added

    def _kick_proposer(self) -> None:
        # New work arrived: arm the liveness timeout and, if due, propose.
        self._schedule_round_timeout()
        if self.state.proposer(self.state.h, self.state.round) == self.node_id:
            self.maybe_propose()

    # -- proposing ----------------------------------------------------------------

    def maybe_propose(self) -> None:
        """Propose a block if this node is the due proposer and work exists."""
        if self._network.is_crashed(self.node_id):
            return
        self._step(machine.ProposeDue())

    def _get_value(self, _action: machine.GetValue) -> None:
        if len(self.mempool) == 0:
            return
        config = self.engine.config
        earliest = self._last_propose_time + config.min_block_interval
        if self._loop.clock.now < earliest:
            self._loop.schedule_at(earliest, self.maybe_propose)
            return
        # Non-destructive assembly: transactions leave the pool only when
        # a block containing them commits.
        batch = self.mempool.peek(
            max_txs=config.max_block_txs,
            max_weight=config.max_block_weight,
            exclude=self._committed_ids,
        )
        if not batch:
            return
        # Proposer pays block assembly/execution cost before the proposal
        # hits the wire (Quorum executes transactions while building);
        # conflict-free transactions execute in parallel lanes.
        [proposal] = machine.step(self.state, machine.ProposeDue(batch))
        self._send(proposal, assembly_cost=self._block_validation_cost(batch))

    def _send(self, send: Send, assembly_cost: float = 0.0) -> None:
        """A vote leaves now, a proposal once its assembly is paid for
        (a re-proposed locked value costs nothing to assemble)."""
        if send.kind == "VOTE":
            self._send_vote(send.payload)
        else:
            self._last_propose_time = self._loop.clock.now
            self._later(assembly_cost, lambda: self._publish_proposal(send.payload))

    def _publish_proposal(self, block: Block) -> None:
        self._wire(Send(None, "PROPOSAL", block))
        self._handle_proposal(block, self.node_id)

    def _send_vote(self, vote: Vote) -> None:
        """Broadcast one of this node's votes and tally it locally."""
        if vote.phase == PRECOMMIT:
            sig = self.keypair.sign(precommit_message(vote.height, vote.round, vote.block_id))
            vote = Vote(PRECOMMIT, vote.height, vote.round, vote.block_id, vote.voter, sig)
        self._wire(Send(None, "VOTE", vote))
        self._handle_vote(vote, self.node_id)

    def _wire(self, send: Send) -> None:
        """Put a send on the network — withheld, duplicated, paired with
        a conflicting vote or split between peers if a byzantine behavior
        is installed.  The caller delivers the honest original locally,
        so a lying node's own state machine stays coherent."""
        sends = [send] if self.byzantine is None else self.byzantine.outbound(self.state, send)
        for to, kind, payload in sends:
            size = self.engine.config.vote_size_bytes if kind == "VOTE" else payload.size_bytes
            if to is not None:
                self._network.send(self.node_id, to, kind, payload, size)
                continue
            if kind == "PROPOSAL":
                tel = self.telemetry
                block_txs = tel.histogram("consensus_block_txs", node=self.telemetry_label)
                block_txs.observe(len(payload.transactions))
                for envelope in payload.transactions:
                    if envelope.trace_flags & 1:
                        tel.tracer.event(
                            envelope.tx_id, "consensus_propose",
                            node=self.telemetry_label, height=payload.height, round=payload.round,
                        )
            self._network.broadcast(self.node_id, kind, payload, size)

    # -- message handling -----------------------------------------------------------

    def _record_evidence(self, kind: str, **fields: Any) -> None:
        """Log one observed misbehavior (bounded; diagnostics only —
        safety never depends on evidence, only on the checks that
        produced it)."""
        if len(self.evidence) < EVIDENCE_LIMIT:
            self.evidence.append({"kind": kind, **fields})

    def handle_message(self, message: Message) -> None:
        """Network entry point."""
        if self.byzantine is not None and self.byzantine.drop_inbound(self, message):
            return
        kind = message.kind
        if kind == "TX":
            envelope: TxEnvelope = message.payload
            if envelope.tx_id not in self._committed_ids:
                try:
                    if self._check_batch([envelope])[0]:
                        self.mempool.add(envelope)
                        self._kick_proposer()
                except Exception:
                    pass
        elif kind == "PROPOSAL":
            self._handle_proposal(message.payload, message.sender)
        elif kind == "VOTE":
            self._handle_vote(message.payload, message.sender)
        elif kind == "CATCHUP_REQUEST":
            self._handle_catchup_request(message.payload, message.sender)
        elif kind == "CATCHUP_BLOCKS":
            self._handle_catchup_blocks(message.payload, message.sender)

    def _handle_proposal(self, block: Block, sender: str | None = None) -> None:
        self._step(machine.ProposalReceived(block, sender))

    def _handle_vote(self, vote: Vote, sender: str) -> None:
        self._step(machine.VoteReceived(vote, sender))

    def _check_block(self, action: machine.CheckBlock) -> None:
        """The machine's ``valid(v)``: the verdict is taken now and the
        prevote it licenses leaves after the validation compute — every
        peer re-validates the block's transactions (the paper's second
        validation set), conflict-free ones in parallel lanes, and drops
        from its pool what CheckTx now refuses (Tendermint's Recheck),
        telling the drop listeners: only an envelope of that very payload
        object, so a forged body under an honest id evicts nothing."""
        block = action.block
        validation_cost = self._block_validation_cost(block.transactions)
        # A block must extend *this* node's chain: an honest proposer at
        # our height builds on the parent we hold, so only a liar trips it.
        verdicts = [block.previous_id == self.state.last_block_id]
        if verdicts[0]:
            verdicts = self._check_batch(block.transactions)
            dropped = self.mempool.drop(e for e, ok in zip(block.transactions, verdicts) if not ok)
            for listener in self.engine.drop_listeners:
                listener(self.node_id, dropped)
        prevote = machine.step(self.state, machine.BlockChecked(block, all(verdicts)))
        self._later(validation_cost, lambda: self._execute(prevote))

    def _adopt_lock(self, action: machine.JournalLock) -> None:
        tel = self.telemetry
        tel.counter("consensus_lock_adoptions", node=self.telemetry_label).inc()
        tel.flight_event(
            self.telemetry_label, "lock_adopt", height=action.block.height,
            round=action.round, block=action.block.block_id[:8],
        )
        if self.persistence is not None:
            self._journal_lock()

    # -- commit ------------------------------------------------------------------

    def _commit_block(self, action: machine.Commit) -> None:
        block = action.block
        pipelined = self.engine.config.pipelining

        def finalize() -> None:
            if block.height != self.state.h:
                return
            self._apply_block(block)
            self._cancel_round_timeout()
            # Next height: with pipelining the proposer overlaps storage
            # commit with proposal assembly; without it, it must wait.
            if pipelined:
                self.maybe_propose()
            else:
                self._loop.schedule_in(0.0, self.maybe_propose)
            self._schedule_round_timeout()

        if pipelined:
            # Storage write overlaps the next round: finalize logically
            # now; the disk time is off the critical path.
            finalize()
        else:
            self._later(self.app.commit_cost(block), finalize)

    def _apply_block(self, block: Block, cert: dict | None = None) -> None:
        # Assemble the commit certificate before the tally is reset
        # below: locally committed blocks draw on the tallied precommit
        # signatures, catch-up-applied blocks adopt the cert that was
        # verified on arrival.
        if cert is None:
            cert = self._build_commit_cert(block)
        if cert is not None:
            self.commit_certs[block.height] = cert
        tel = self.telemetry
        if self._height_started_at is not None:
            height_s = self._loop.clock.now - self._height_started_at
            tel.observe_ms("consensus_height_ms", height_s, node=self.telemetry_label)
        self._height_started_at = None
        tel.counter("consensus_rounds_used", node=self.telemetry_label).inc(block.round + 1)
        tel.flight_event(
            self.telemetry_label, "block_commit",
            height=block.height, round=block.round,
            block=block.block_id[:8], txs=len(block.transactions),
        )
        delivered = deliver_block(self.app, block, self._committed_ids)
        self.chain.append(block)
        machine.step(self.state, machine.Decided(block))
        self.mempool.remove([envelope.tx_id for envelope in block.transactions])
        if len(self.mempool) > 0:
            # Backlogged height: the next height's work window opens now,
            # not at the next submit.
            self._height_started_at = self._loop.clock.now
        if self.persistence is not None:
            self._journal_block(block, cert)
        self.engine.record_commit(self.node_id, block, delivered)

    def _build_commit_cert(self, block: Block) -> dict | None:
        """The counted precommit signatures for a committed block, or None
        short of a quorum of signed votes.  A certificate is verified by
        the node that adopts a block or ships evidence on its strength;
        assembling one verifies nothing (a lying voter's bad signature is
        stored and fails wherever the certificate is relied on)."""
        counted = self.state.voters(PRECOMMIT, block.round, block.block_id)
        sigs = {vote.voter: vote.sig for vote in counted if vote.sig}
        if len(sigs) < self.state.quorum:
            return None
        return {"h": block.height, "r": block.round, "id": block.block_id, "sigs": sigs}

    def _verify_commit_cert(self, block: Block, cert) -> bool:
        """Is ``cert`` a valid quorum commit certificate for ``block``?"""
        return certifies(cert, block.block_id, block.height, self.engine.public_keys)

    # -- timeouts & liveness --------------------------------------------------------

    def _schedule_round_timeout(self, _action: machine.ArmTimeout | None = None) -> None:
        if self._timeout_handle is not None and not self._timeout_handle.cancelled:
            return
        if len(self.mempool) == 0 and not self.state.undecided():
            # Nothing to decide: stay quiet instead of spinning rounds.
            return
        height, round_number = self.state.h, self.state.round
        timeout = self.engine.config.propose_timeout * machine.timeout_scale(round_number)
        self._timeout_handle = self._loop.schedule_in(
            timeout, lambda: self._on_round_timeout(height, round_number)
        )

    def _cancel_round_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def _on_round_timeout(self, height: int, round_number: int) -> None:
        self._timeout_handle = None
        if self._network.is_crashed(self.node_id):
            return
        self._step(machine.TimeoutFired(height, round_number, len(self.mempool) > 0))

    # -- catch-up ---------------------------------------------------------------------

    def _request_catchup(self, peer: str) -> None:
        if self.byzantine is not None and self.byzantine.suppress_catchup(self):
            return
        now = self._loop.clock.now
        if now - self._catchup_requested_at < 0.5:
            return
        self._catchup_requested_at = now
        self._network.send(self.node_id, peer, "CATCHUP_REQUEST", self.state.h, 64)

    def _handle_catchup_request(self, from_height: int, sender: str) -> None:
        liar = self.byzantine
        if liar is not None and liar.answer_catchup(self, from_height, sender):
            return
        items = [
            {"block": block, "cert": self.commit_certs.get(block.height)}
            for block in self.chain
            if block.height >= from_height
        ]
        if items:
            size = sum(item["block"].size_bytes for item in items)
            self._network.send(self.node_id, sender, "CATCHUP_BLOCKS", items, size)

    def _handle_catchup_blocks(self, items: list[dict], sender: str | None = None) -> None:
        """Adopt a served chain suffix — but only blocks that arrive with
        a valid quorum commit certificate, or a byzantine peer could feed
        a recovering node a forged chain (catch-up poisoning).

        Each block must prove that a precommit quorum committed *exactly
        this block id*; the first failure stops the walk (later heights
        cannot chain onto a rejected block), records ``forged_catchup``
        evidence against the sender, and retries from another live peer.
        """
        for item in sorted(items, key=lambda entry: entry["block"].height):
            block = item["block"]
            if block.height != self.state.h or block.previous_id != self.state.last_block_id:
                continue
            if not self._verify_commit_cert(block, item.get("cert")):
                self._record_evidence(
                    "forged_catchup",
                    sender=sender,
                    height=block.height,
                    block_id=block.block_id,
                )
                self._retry_catchup_elsewhere(sender)
                break
            self._apply_block(block, cert=item["cert"])
        self._kick_proposer()

    def _retry_catchup_elsewhere(self, bad_peer: str | None) -> None:
        """Re-request missed blocks from the next live peer that is not
        the one whose answer just failed verification."""
        for peer in self.engine.validator_order:
            if peer in (self.node_id, bad_peer) or self._network.is_crashed(peer):
                continue
            self._catchup_requested_at = float("-inf")
            self._request_catchup(peer)
            return

    # -- crash hooks ---------------------------------------------------------------

    def on_crash(self) -> None:
        """Volatile state is lost; durable chain/app state survives — and
        so does the round lock: it is write-ahead consensus state, and a
        validator that forgot it could join a second quorum at its locked
        height."""
        self.mempool.flush_volatile()
        self.state.forget_volatile()
        self.evidence.clear()
        self._cancel_round_timeout()

    def on_recover(self) -> None:
        """Rejoin: ask a live peer for missed blocks."""
        self._retry_catchup_elsewhere(None)
        self._schedule_round_timeout()

    # -- durable-state checkpoint / restore -----------------------------------

    def _journal_lock(self) -> None:
        """Write-ahead consensus state (Tendermint WAL): a
        restart-from-disk must see the lock or it could help a second
        quorum form at this height.  Forced past the group cadence — the
        precommit this lock licenses is broadcast next, and a vote that
        outran its lock's durability is the height-fork race with a
        crash in the middle.  The frame carries the locked block, so its
        ``block`` frame need not."""
        locked_round, locked = self.state.locked_round, self.state.locked_value
        self.persistence.journal(
            {"k": "lock", "r": locked_round, "b": block_record(locked)},
            body=splice_object(
                {"k": b'"lock"', "r": b"%d" % locked_round, "b": self._block_body(locked)}
            ),
        )
        self._lock_frames[locked.block_id] = locked
        self.persistence.log.flush_now()

    def _journal_block(self, block: Block, cert: dict | None) -> None:
        """An applied block's frame (see :mod:`repro.durability.recovery`);
        a decided lock needs no explicit clear — recovery drops any lock
        at or below the recovered chain height."""
        now = self._loop.clock.now
        record = {"h": block.height, "id": block.block_id, "k": "block", "t": now}
        parts = []  # a block id is a hex digest and ``repr`` is JSON's float form
        if self._lock_frames.pop(block.block_id, None) is not block:
            record["b"] = block_record(block)
            parts.append(b'"b":%s,' % self._block_body(block))
        if cert is not None:
            record["cert"] = cert
            parts.append(b'"cert":%s,' % self._cert_body(block.height, cert))
        body = b'{%s"h":%d,"id":"%s","k":"block","t":%r}' % (
            b"".join(parts), block.height, block.block_id.encode(), now
        )
        self.persistence.journal(record, body=body, block=True)

    def _block_body(self, block: Block) -> bytes:
        """Canonical bytes of ``block``'s record, made on first use per
        block — around the transactions' own bytes when ``frozen_bytes``
        holds them (:func:`~repro.durability.recovery.encoded_block_record`)
        — and shared with every validator of the engine that journals the
        same ``Block`` object (checked by ``is``), so a height's replicas
        hold one copy."""
        height = block.height
        entry = self._block_bytes.get(height)
        if entry is None or entry[0] is not block:
            for peer in self.engine.validators.values():
                entry = peer._block_bytes.get(height)
                if entry is not None and entry[0] is block:
                    break
            else:
                entry = (block, encoded_block_record(block))
            self._block_bytes[height] = entry
        return entry[1]

    def _cert_body(self, height: int, cert: dict) -> bytes:
        """Canonical bytes of the certificate held for ``height``."""
        entry = self._cert_bytes.get(height)
        if entry is None or entry[0] is not cert:
            entry = self._cert_bytes[height] = (cert, canonical_bytes(cert))
        return entry[1]

    def checkpoint_members(self, full: bool) -> dict[str, Any]:
        """Durable consensus state for the node's checkpoint provider —
        the chain's blocks and certificates (all, or those applied since
        the last checkpoint) and the lock — as
        :func:`~repro.common.encoding.object_pieces` values holding the
        per-block / per-certificate bytes by reference, so only a block
        or certificate never journaled here is encoded now."""
        fresh = self.chain if full else self.chain[self._checkpointed :]
        self._checkpointed = len(self.chain)
        lock: Any = b"null"
        locked = self.state.locked_value
        self._lock_frames = {}
        if locked is not None:
            lock = {"r": b"%d" % self.state.locked_round, "b": self._block_body(locked)}
            self._lock_frames[locked.block_id] = locked
        certs = [(block.height, self.commit_certs.get(block.height)) for block in fresh]
        return {
            "blocks": array_pieces(self._block_body(block) for block in fresh),
            "lock": lock,
            # [height, cert] pairs: canonical JSON requires string keys.
            "certs": array_pieces(
                array_pieces((b"%d" % height, self._cert_body(height, cert)))
                for height, cert in certs
                if cert is not None
            ),
        }

    def restore_durable(
        self,
        blocks: list[Block],
        locked_round: int = -1,
        locked_block: Block | None = None,
        certs: dict[int, dict] | None = None,
        checkpointed: int = 0,
    ) -> None:
        """Adopt disk-recovered chain and lock state after a restart
        (``checkpointed``: the leading blocks the checkpoints held).

        Volatile state (mempool, votes, proposals) is assumed
        already cleared by :meth:`on_crash`; this resets the durable
        half exactly as the WAL replay reconstructed it.
        """
        self.chain = list(blocks)
        self.state = RoundState(
            self.node_id,
            self.state.validators,
            h=blocks[-1].height + 1 if blocks else 1,
            last_block_id=blocks[-1].block_id if blocks else GENESIS_ID,
            locked_value=locked_block,
            locked_round=locked_round,
        )
        self._committed_ids = {
            envelope.tx_id for block in blocks for envelope in block.transactions
        }
        self.commit_certs = dict(certs or {})
        self._block_bytes.clear()
        self._cert_bytes.clear()
        self._checkpointed = checkpointed
        self._lock_frames = {locked_block.block_id: locked_block} if locked_block else {}
        self._last_propose_time = float("-inf")
        self._catchup_requested_at = float("-inf")


class BftEngine:
    """A cluster of validators over one simulated network."""

    def __init__(
        self,
        loop: EventLoop,
        network: Network,
        application_factory: Callable[[str], Application],
        validator_ids: list[str],
        config: BftConfig | None = None,
    ):
        if not validator_ids:
            raise ValueError("need at least one validator")
        self.loop = loop
        self.network = network
        self.config = config or BftConfig()
        self.validator_order = list(validator_ids)
        #: Every peer's signing identity is derivable from its id, so
        #: certificate verification needs no key distribution.
        self.public_keys = {
            node_id: keypair_from_string(f"validator:{node_id}").public_key
            for node_id in validator_ids
        }
        self.validators: dict[str, Validator] = {}
        self.commits: list[CommitRecord] = []
        self._first_commit_heights: set[int] = set()
        self.commit_listeners: list[Callable[[CommitRecord], None]] = []
        #: Told (node id, envelopes dropped from its pool) after each block check.
        self.drop_listeners: list[Callable[[str, list[TxEnvelope]], None]] = []
        for node_id in validator_ids:
            validator = Validator(node_id, self, application_factory(node_id))
            self.validators[node_id] = validator
            network.register(node_id, validator.handle_message)

    def validator(self, node_id: str) -> Validator:
        return self.validators[node_id]

    def record_commit(self, node_id: str, block: Block, delivered: list[TxEnvelope]) -> None:
        """Record the first commit of each height (cluster-level event)."""
        if block.height in self._first_commit_heights:
            return
        self._first_commit_heights.add(block.height)
        record = CommitRecord(
            block=block, committed_at=self.loop.clock.now, node_id=node_id, delivered=delivered
        )
        self.commits.append(record)
        for listener in self.commit_listeners:
            listener(record)
