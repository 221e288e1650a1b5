"""Message-level BFT consensus engine.

One engine serves both consensus protocols the paper's evaluation uses:

* **Tendermint** (SmartchainDB side): proposer rotation, prevote/precommit
  phases with 2/3 quorums, and BigchainDB's *blockchain pipelining* — the
  proposer of height H+1 may propose as soon as it observes a prevote
  quorum for H, without waiting for H to finalise.
* **Istanbul BFT** (Quorum / ETH-SC side): the same two-phase quorum
  structure (PRE-PREPARE/PREPARE/COMMIT maps onto proposal/prevote/
  precommit), *no* pipelining, and a minimum block period.

The engine is crash-fault tolerant: crashed validators receive nothing,
lose volatile state (mempool, votes) and catch up from peers on recovery.
Liveness needs > 2/3 of validators online, matching the paper's BFT
threshold discussion in Section 4.2.1.

It is also hardened against the byzantine fault family the chaos
harness injects (:mod:`repro.consensus.byzantine`): quorum tallies
count *validators*, never messages (a double-voter's first vote per
(phase, height, round) is the only one that counts); votes authenticate
their wire sender (``vote.voter`` must equal the sending node — votes
are not relayed in this protocol); proposals are accepted only from the
due proposer of their (height, round) and must extend this node's
chain; and an equivocating proposer's rival blocks are retained side by
side so whichever id earns an honest quorum can still commit, while the
misbehavior itself lands in the validator's ``evidence`` log.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.encoding import canonical_bytes, splice_array, splice_object
from repro.consensus.abci import Application
from repro.consensus.mempool import Mempool
from repro.consensus.types import (
    NIL,
    PRECOMMIT,
    PREVOTE,
    Block,
    TxEnvelope,
    Vote,
    precommit_message,
)
from repro.crypto.keys import keypair_from_string, verify_signature
from repro.durability.recovery import block_record, encoded_block_record
from repro.sim.events import EventHandle, EventLoop
from repro.sim.network import Message, Network

GENESIS_ID = "0" * 64

#: Cap on the per-validator misbehavior evidence log: a vote-spamming
#: byzantine peer must not grow honest memory without bound.
EVIDENCE_LIMIT = 512


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
    #: Bound on the per-validator CheckTx verdict memo (see
    #: ``Validator.check_tx_cached``).
    check_memo_size: int = 4096


@dataclass
class CommitRecord:
    """Commit metadata exposed to metric collectors."""

    block: Block
    committed_at: float
    node_id: str


class Validator:
    """One consensus participant: state machine + mempool + application."""

    def __init__(
        self,
        node_id: str,
        engine: "BftEngine",
        application: Application,
    ):
        self.node_id = node_id
        self.engine = engine
        self.app = application
        self.mempool = Mempool()
        self.height = 1
        self.round = 0
        self.chain: list[Block] = []
        self.last_block_id = GENESIS_ID
        # Volatile consensus state.  Proposals key (height, round) ->
        # {block_id -> Block}: under an equivocating proposer two rival
        # blocks legitimately coexist for one round, and commit must be
        # able to resolve whichever id a quorum lands on.
        self._proposals: dict[tuple[int, int], dict[str, Block]] = {}
        self._votes: dict[tuple[str, int, int, str], set[str]] = {}
        #: First vote seen per (phase, height, round) per voter — the
        #: per-validator half of quorum accounting.  A conflicting second
        #: vote is double-voting evidence and never counts.
        self._first_votes: dict[tuple[str, int, int], dict[str, str]] = {}
        self._prevoted: set[tuple[int, int]] = set()
        self._precommitted: set[tuple[int, int]] = set()
        self._committed_ids: set[str] = set()
        self._proposed_rounds: set[tuple[int, int]] = set()
        #: Tendermint lock rule: once this validator observes a prevote
        #: quorum (polka) for a block, it locks on it — later rounds at
        #: the same height prevote NIL against any *different* block, and
        #: the lock only moves to a block with a newer polka.  Without it,
        #: two rounds at one height can each assemble a quorum for a
        #: different block and fork the chain (found by the chaos harness
        #: once lane-parallel validation tightened the vote races).  Like
        #: Tendermint's write-ahead consensus state, the lock survives
        #: crashes — a recovering validator that forgot it could join a
        #: second quorum and recreate the fork.
        self._locked_round = -1
        self._locked_block: Block | None = None
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
        #: ``certs`` parts of one snapshot file do; never filled while
        #: ``persistence`` is None.
        self._block_bytes: dict[int, tuple[Block, bytes]] = {}
        self._cert_bytes: dict[int, tuple[dict, bytes]] = {}
        self._timeout_handle: EventHandle | None = None
        self._last_propose_time = float("-inf")
        self._catchup_requested_at = float("-inf")
        #: CheckTx verdict memo: tx_id -> (payload object, verdict).  A hit
        #: requires the memoised payload to be the *same object* (``is``)
        #: as the envelope's — the same identity guard the validation
        #: cache uses, so a forged body reusing a known id re-validates
        #: instead of riding a cached verdict.  Admission already ran
        #: CheckTx on every transaction, so proposal assembly and block
        #: validation become memo lookups.
        self._check_memo: "OrderedDict[str, tuple[Any, bool]]" = OrderedDict()
        self.check_stats = {"calls": 0, "memo_hits": 0, "app_checks": 0}
        #: Optional :class:`~repro.consensus.byzantine.ByzantineBehavior`
        #: (installed by the fault plane's mark-byzantine control): when
        #: set, this node *lies* — the behavior rewrites its outbound
        #: proposals/votes and may swallow inbound traffic.  The honest
        #: round machine below never consults it for its own decisions.
        self.byzantine = None
        #: Observed peer misbehavior (forged votes, double votes,
        #: equivocating proposals), bounded by ``EVIDENCE_LIMIT``.
        self.evidence: list[dict] = []
        #: Deterministic per-validator signing identity (public half
        #: derivable by every peer): non-nil precommits are signed, and a
        #: quorum of those signatures is the commit certificate catch-up
        #: serves alongside each block.
        self.keypair = keypair_from_string(f"validator:{node_id}")
        #: (height, round, block_id) -> {voter: precommit signature},
        #: harvested by the vote tally; volatile like the tally itself.
        self._precommit_sigs: dict[tuple[int, int, str], dict[str, str]] = {}
        #: height -> commit certificate for every block this node
        #: committed (assembled locally or adopted from verified
        #: catch-up); journaled with the block record, so a restarted
        #: node can keep serving verifiable catch-up.
        self.commit_certs: dict[int, dict] = {}
        #: Optional :class:`~repro.telemetry.Telemetry` (set by the
        #: cluster); None on bare engines, so consensus-only tests pay
        #: nothing.
        self.telemetry = None
        self.telemetry_label = node_id
        #: Sim time this height's work window opened (first pending work
        #: after the previous commit) — the height-duration histogram's
        #: start point.
        self._height_started_at: float | None = None

    # -- helpers ---------------------------------------------------------------

    @property
    def _loop(self) -> EventLoop:
        return self.engine.loop

    @property
    def _network(self) -> Network:
        return self.engine.network

    def _broadcast(self, kind: str, payload, size_bytes: int) -> None:
        self._network.broadcast(self.node_id, kind, payload, size_bytes)

    def _quorum(self) -> int:
        n = len(self.engine.validators)
        return (2 * n) // 3 + 1

    def is_proposer(self, height: int, round_number: int) -> bool:
        order = self.engine.validator_order
        return order[(height + round_number) % len(order)] == self.node_id

    # -- batched application checks ---------------------------------------------

    def check_tx_cached(self, envelope: TxEnvelope) -> bool:
        """``app.check_tx`` behind the bounded identity-guarded memo."""
        return self._check_batch([envelope])[0]

    def _check_batch(self, envelopes: list[TxEnvelope]) -> list[bool]:
        """Memoised verdicts for many envelopes, batch-checking the misses.

        Misses go through the application's optional ``check_block`` hook
        (batched signature verification) when it exists, else through
        per-envelope ``check_tx``.
        """
        self.check_stats["calls"] += len(envelopes)
        memo = self._check_memo
        verdicts: list[bool | None] = [None] * len(envelopes)
        misses: list[int] = []
        for index, envelope in enumerate(envelopes):
            entry = memo.get(envelope.tx_id)
            if entry is not None and entry[0] is envelope.payload:
                memo.move_to_end(envelope.tx_id)
                self.check_stats["memo_hits"] += 1
                verdicts[index] = entry[1]
            else:
                misses.append(index)
        if misses:
            self.check_stats["app_checks"] += len(misses)
            check_block = getattr(self.app, "check_block", None)
            if check_block is not None and len(misses) > 1:
                fresh = check_block([envelopes[index] for index in misses])
            else:
                fresh = [self.app.check_tx(envelopes[index]) for index in misses]
            limit = self.engine.config.check_memo_size
            for index, verdict in zip(misses, fresh):
                envelope = envelopes[index]
                verdicts[index] = verdict
                memo[envelope.tx_id] = (envelope.payload, verdict)
                memo.move_to_end(envelope.tx_id)
            while len(memo) > limit:
                memo.popitem(last=False)
        return [bool(verdict) for verdict in verdicts]

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
        if not self.check_tx_cached(envelope):
            return False
        if envelope.tx_id in self._committed_ids:
            return False
        added = self.mempool.add(envelope)
        if added and self._height_started_at is None:
            self._height_started_at = self._loop.clock.now
        if added and gossip:
            self._broadcast("TX", envelope, envelope.size_bytes)
        self._kick_proposer()
        return added

    def _kick_proposer(self) -> None:
        # New work arrived: arm the liveness timeout and, if due, propose.
        self._schedule_round_timeout()
        if self.is_proposer(self.height, self.round):
            self.maybe_propose()

    # -- proposing ----------------------------------------------------------------

    def maybe_propose(self) -> None:
        """Propose a block if this node is the due proposer and work exists."""
        if self.engine.network.is_crashed(self.node_id):
            return
        if (self.height, self.round) in self._proposed_rounds:
            return
        if not self.is_proposer(self.height, self.round):
            return
        if self._locked_block is not None and self._locked_block.height == self.height:
            # Locked proposer: re-propose the locked *value* at the
            # current round — same parent and transactions, hence the same
            # value-based block id, so peers locked on it prevote it and
            # a fresh round can finish what the interrupted one started.
            # Proposing new content here would deadlock against the lock.
            locked = self._locked_block
            block = Block.build(
                self.height,
                self.round,
                self.node_id,
                list(locked.transactions),
                locked.previous_id,
            )
            self._proposed_rounds.add((self.height, self.round))
            self._last_propose_time = self._loop.clock.now
            self._loop.schedule_in(0.0, lambda: self._publish_proposal(block))
            return
        if len(self.mempool) == 0:
            return
        now = self._loop.clock.now
        earliest = self._last_propose_time + self.engine.config.min_block_interval
        if now < earliest:
            self._loop.schedule_at(earliest, self.maybe_propose)
            return
        # Non-destructive assembly: transactions leave the pool only when
        # a block containing them commits.
        batch = self.mempool.peek(
            max_txs=self.engine.config.max_block_txs,
            max_weight=self.engine.config.max_block_weight,
            exclude=self._committed_ids,
        )
        if not batch:
            return
        block = Block.build(self.height, self.round, self.node_id, batch, self.last_block_id)
        self._proposed_rounds.add((self.height, self.round))
        self._last_propose_time = now
        # Proposer pays block assembly/execution cost before the proposal
        # hits the wire (Quorum executes transactions while building);
        # conflict-free transactions execute in parallel lanes.
        assembly_cost = self._block_validation_cost(batch)
        self._loop.schedule_in(
            assembly_cost,
            lambda: self._publish_proposal(block),
        )

    def _publish_proposal(self, block: Block) -> None:
        if self.engine.network.is_crashed(self.node_id):
            return
        if self.byzantine is not None and self.byzantine.publish_proposal(self, block):
            return
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.histogram("consensus_block_txs", node=self.telemetry_label).observe(
                len(block.transactions)
            )
            for envelope in block.transactions:
                if envelope.trace_flags & 1:
                    tel.tracer.event(
                        envelope.tx_id,
                        "consensus_propose",
                        node=self.telemetry_label,
                        height=block.height,
                        round=block.round,
                    )
        self._broadcast("PROPOSAL", block, block.size_bytes)
        self._handle_proposal(block, self.node_id)

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
                    if self.check_tx_cached(envelope):
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
        if block.height < self.height:
            return
        order = self.engine.validator_order
        due = order[(block.height + block.round) % len(order)]
        if block.proposer != due or (sender is not None and sender != block.proposer):
            # Proposer legitimacy: only the rotation's due proposer for
            # (height, round) may propose, and proposals are not relayed,
            # so the wire sender must *be* that proposer.  Anything else
            # is an impostor block — drop it and keep the evidence.
            self._record_evidence(
                "forged_proposal",
                height=block.height,
                round=block.round,
                proposer=block.proposer,
                sender=sender,
                block_id=block.block_id,
            )
            return
        slot = self._proposals.setdefault((block.height, block.round), {})
        if block.block_id not in slot:
            if slot:
                # Equivocation: a second, different block from the due
                # proposer at one (height, round).  Both are retained —
                # commit resolves whichever id earns a quorum — but this
                # node's single prevote (below) already went to the
                # first-seen sibling, so the proposer cannot mint extra
                # voting power by multiplying blocks.
                self._record_evidence(
                    "equivocation",
                    height=block.height,
                    round=block.round,
                    proposer=block.proposer,
                    block_ids=sorted([*slot, block.block_id]),
                )
            slot[block.block_id] = block
        if block.height > self.height:
            self._request_catchup(block.proposer)
            return
        if block.round > self.round:
            # Round join: a proposal from a later round is proof the
            # cluster moved on; vote there instead of splitting quorums
            # across rounds.
            self.round = block.round
        elif block.round < self.round and not (
            self._locked_block is not None
            and self._locked_block.block_id == block.block_id
        ):
            # Stale round: never prevote it (two live rounds at one height
            # is how a height forks), unless it is exactly our locked
            # block — those prevotes top up the bucket the lock came from.
            return
        self._schedule_round_timeout()
        key = (block.height, block.round)
        if key in self._prevoted:
            return
        self._prevoted.add(key)
        # Validation compute before prevoting: every peer re-validates the
        # block's transactions (the paper's second validation set).  The
        # simulated charge packs conflict-free transactions into parallel
        # lanes; the real compute runs signature checks batch-first and
        # memo-skips transactions this node already admitted.
        validation_cost = self._block_validation_cost(block.transactions)
        # A block must extend *this* node's chain: a proposal whose parent
        # is not our last committed block earns a NIL prevote (an honest
        # proposer at our height always builds on the same parent we hold,
        # so only a lying proposer trips this).
        valid = block.previous_id == self.last_block_id and all(
            self._check_batch(block.transactions)
        )
        block_id = block.block_id if valid else NIL
        if (
            block_id != NIL
            and self._locked_block is not None
            and self._locked_block.height == block.height
            and self._locked_block.block_id != block.block_id
        ):
            # Locked on a different block at this height: refuse to help a
            # second quorum form (the lock rule's safety half).
            block_id = NIL

        def send_prevote() -> None:
            if self.engine.network.is_crashed(self.node_id):
                return
            self._send_vote(Vote(PREVOTE, block.height, block.round, block_id, self.node_id))

        self._loop.schedule_in(validation_cost, send_prevote)

    def _send_vote(self, vote: Vote) -> None:
        """Broadcast one of this node's votes and tally it locally.

        The byzantine hook may rewrite the outbound set — withhold it,
        duplicate it, or pair it with a conflicting vote — but the local
        tally always counts the honest original, so a lying node's own
        state machine stays coherent."""
        outgoing = (
            [vote]
            if self.byzantine is None
            else self.byzantine.outgoing_votes(self, vote)
        )
        for item in outgoing:
            self._broadcast("VOTE", item, self.engine.config.vote_size_bytes)
        self._handle_vote(vote, self.node_id)

    def _handle_vote(self, vote: Vote, sender: str) -> None:
        if vote.voter != sender:
            # Vote-sender authentication: votes are never relayed in this
            # protocol, so a vote claiming a third validator's identity is
            # a forgery by the wire sender.  Without this check a single
            # byzantine node could mint a full quorum of phantom voters.
            self._record_evidence(
                "forged_vote",
                phase=vote.phase,
                height=vote.height,
                round=vote.round,
                voter=vote.voter,
                sender=sender,
            )
            return
        if vote.height < self.height:
            return
        if vote.height > self.height:
            self._request_catchup(sender)
            return
        if self._tally_vote(vote) < self._quorum() or vote.block_id == NIL:
            return
        if vote.phase == PREVOTE:
            self._on_prevote_quorum(vote)
        else:
            self._on_precommit_quorum(vote)

    def _tally_vote(self, vote: Vote) -> int:
        """Count a vote into its (phase, height, round, block) bucket.

        Quorum accounting is per *validator*, never per message: each
        validator contributes at most one vote per (phase, height,
        round) — the first one seen.  A conflicting second vote is
        double-voting evidence and counts for nothing; a re-delivered
        duplicate adds nothing to the bucket (sets dedupe it), so no
        flood of copies can assemble a quorum.  Returns the bucket's
        voter count after the vote (0 when it was discarded)."""
        slot = self._first_votes.setdefault((vote.phase, vote.height, vote.round), {})
        recorded = slot.get(vote.voter)
        if recorded is None:
            slot[vote.voter] = vote.block_id
            if vote.phase == PRECOMMIT and vote.block_id != NIL and vote.sig:
                self._precommit_sigs.setdefault(
                    (vote.height, vote.round, vote.block_id), {}
                )[vote.voter] = vote.sig
        elif recorded != vote.block_id:
            self._record_evidence(
                "double_vote",
                phase=vote.phase,
                height=vote.height,
                round=vote.round,
                voter=vote.voter,
                block_ids=sorted([recorded, vote.block_id]),
            )
            return 0
        key = (vote.phase, vote.height, vote.round, vote.block_id)
        voters = self._votes.setdefault(key, set())
        voters.add(vote.voter)
        return len(voters)

    def _on_prevote_quorum(self, vote: Vote) -> None:
        key = (vote.height, vote.round)
        if (
            vote.height == self.height
            and vote.round >= self._locked_round
            and (
                vote.round >= self.round
                or (
                    self._locked_block is not None
                    and self._locked_block.block_id == vote.block_id
                )
            )
        ):
            # A polka at (or refreshing) the current state: adopt the
            # lock.  Only a later polka may move it to a different block,
            # and a polka from an abandoned round never *creates* a lock —
            # adopting one would precommit a value the node already voted
            # past, the other entrance to the height-fork race.
            proposal = self._proposals.get(key, {}).get(vote.block_id)
            if proposal is not None and not (
                self._locked_block is proposal and self._locked_round == vote.round
            ):
                # Every prevote past the quorum lands here again (the
                # fourth of four, a topped-up bucket): the lock it would
                # adopt is the one already held and already durable, so
                # it is neither counted nor journaled a second time.
                self._locked_block = proposal
                self._locked_round = vote.round
                tel = self.telemetry
                if tel is not None and tel.enabled:
                    tel.counter(
                        "consensus_lock_adoptions", node=self.telemetry_label
                    ).inc()
                    tel.flight_event(
                        self.telemetry_label,
                        "lock_adopt",
                        height=vote.height,
                        round=vote.round,
                        block=vote.block_id[:8],
                    )
                if self.persistence is not None:
                    self._journal_lock()
        if (
            self._locked_block is None
            or self._locked_block.block_id != vote.block_id
        ):
            # Precommit only what this node is locked on: a stale polka
            # for an abandoned value, or one whose proposal never arrived
            # (so no lock could form), earns no precommit — an unlocked
            # precommitter is free to help a rival quorum later, which is
            # the height-fork race all over again.
            return
        if key not in self._precommitted:
            self._precommitted.add(key)
            self._send_vote(
                Vote(
                    PRECOMMIT,
                    vote.height,
                    vote.round,
                    vote.block_id,
                    self.node_id,
                    sig=self.keypair.sign(
                        precommit_message(vote.height, vote.round, vote.block_id)
                    ),
                )
            )
        # Blockchain pipelining: the next proposer may start assembling
        # height H+1 as soon as H has a prevote quorum.
        if self.engine.config.pipelining and self.is_proposer(vote.height + 1, 0):
            block = self._proposals.get((vote.height, vote.round), {}).get(vote.block_id)
            if block is not None:
                self._pipeline_next(block)

    def _pipeline_next(self, parent: Block) -> None:
        """Pre-assemble the next block optimistically (commit will publish)."""
        # Nothing to do eagerly beyond kicking the proposer once committed;
        # the speedup is modelled by skipping the post-commit storage wait.
        self._pipeline_ready = parent.height + 1

    def _on_precommit_quorum(self, vote: Vote) -> None:
        if vote.height != self.height:
            return
        block = self._proposals.get((vote.height, vote.round), {}).get(vote.block_id)
        if block is None:
            return
        self._commit_block(block)

    # -- commit ------------------------------------------------------------------

    def _commit_block(self, block: Block) -> None:
        commit_cost = self.app.commit_cost(block)
        pipelined = self.engine.config.pipelining

        def finalize() -> None:
            if self.engine.network.is_crashed(self.node_id):
                return
            if block.height != self.height:
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
            # Storage write overlaps the next round: finalize logically now,
            # charge the disk time to the background.
            finalize()
            self._loop.clock  # (storage happens off the critical path)
        else:
            self._loop.schedule_in(commit_cost, finalize)

    def _apply_block(self, block: Block, cert: dict | None = None) -> None:
        # Assemble the commit certificate before volatile vote state is
        # GC'd below: locally committed blocks draw on the tallied
        # precommit signatures, catch-up-applied blocks adopt the cert
        # that was verified on arrival.
        if cert is None:
            cert = self._build_commit_cert(block)
        if cert is not None:
            self.commit_certs[block.height] = cert
        tel = self.telemetry
        if tel is not None and tel.enabled:
            now = self._loop.clock.now
            if self._height_started_at is not None:
                tel.observe_ms(
                    "consensus_height_ms",
                    now - self._height_started_at,
                    node=self.telemetry_label,
                )
            self._height_started_at = None
            tel.counter("consensus_rounds_used", node=self.telemetry_label).inc(
                block.round + 1
            )
            tel.flight_event(
                self.telemetry_label,
                "block_commit",
                height=block.height,
                round=block.round,
                block=block.block_id[:8],
                txs=len(block.transactions),
            )
        delivered = [
            envelope
            for envelope in block.transactions
            if envelope.tx_id not in self._committed_ids and self.app.deliver_tx(envelope)
        ]
        self.app.commit_block(block, delivered)
        self.chain.append(block)
        self.last_block_id = block.block_id
        self.height = block.height + 1
        self.round = 0
        if self._locked_block is not None and self._locked_block.height <= block.height:
            # The locked height is decided (by this block or catch-up).
            self._locked_block = None
            self._locked_round = -1
        self._committed_ids.update(envelope.tx_id for envelope in block.transactions)
        self.mempool.remove([envelope.tx_id for envelope in block.transactions])
        if tel is not None and tel.enabled and len(self.mempool) > 0:
            # Backlogged height: the next height's work window opens now,
            # not at the next submit.
            self._height_started_at = self._loop.clock.now
        self._gc_consensus_state(block.height)
        if self.persistence is not None:
            # Full envelopes ride the record so a restarted node rebuilds
            # the exact chain (same value-based block ids) and can serve
            # catch-up; a decided lock needs no explicit clear — recovery
            # drops any lock at or below the recovered chain height.
            record = {"k": "block", "b": block_record(block)}
            body = {"k": b'"block"', "b": self._block_body(block)}
            if cert is not None:
                record["cert"] = cert
                body["cert"] = self._cert_body(block.height, cert)
            self.persistence.journal(record, body=splice_object(body))
        self.engine.record_commit(self.node_id, block)

    def _build_commit_cert(self, block: Block) -> dict | None:
        """Quorum of verified precommit signatures for a committed block.

        Signatures are verified (through the cluster's verdict cache) at
        assembly so a lying voter cannot smuggle an invalid signature
        into the certificate and poison honest catch-up service.
        """
        collected = self._precommit_sigs.get(
            (block.height, block.round, block.block_id), {}
        )
        message = precommit_message(block.height, block.round, block.block_id)
        sigs = {}
        for voter, sig in collected.items():
            public_key = self.engine.public_keys.get(voter)
            if public_key is not None and verify_signature(public_key, message, sig):
                sigs[voter] = sig
        if len(sigs) < self._quorum():
            return None
        return {"h": block.height, "r": block.round, "id": block.block_id, "sigs": sigs}

    def _verify_commit_cert(self, block: Block, cert) -> bool:
        """Is ``cert`` a valid quorum commit certificate for ``block``?"""
        if not isinstance(cert, dict) or cert.get("id") != block.block_id:
            return False
        round_number = cert.get("r")
        sigs = cert.get("sigs")
        if not isinstance(round_number, int) or not isinstance(sigs, dict):
            return False
        validators = set(self.engine.validator_order)
        if not set(sigs) <= validators:
            return False
        message = precommit_message(block.height, round_number, block.block_id)
        valid = sum(
            1
            for voter, sig in sigs.items()
            if verify_signature(self.engine.public_keys[voter], message, sig)
        )
        return valid >= self._quorum()

    def _gc_consensus_state(self, committed_height: int) -> None:
        self._precommit_sigs = {
            key: value
            for key, value in self._precommit_sigs.items()
            if key[0] > committed_height
        }
        self._proposals = {
            key: value for key, value in self._proposals.items() if key[0] > committed_height
        }
        self._votes = {
            key: value for key, value in self._votes.items() if key[1] > committed_height
        }
        self._first_votes = {
            key: value
            for key, value in self._first_votes.items()
            if key[1] > committed_height
        }
        self._prevoted = {key for key in self._prevoted if key[0] > committed_height}
        self._precommitted = {key for key in self._precommitted if key[0] > committed_height}
        self._proposed_rounds = {
            key for key in self._proposed_rounds if key[0] > committed_height
        }

    # -- timeouts & liveness --------------------------------------------------------

    def _has_pending_work(self) -> bool:
        """True if this height still has something to decide."""
        if len(self.mempool) > 0:
            return True
        return any(key[0] == self.height for key in self._proposals)

    def _schedule_round_timeout(self) -> None:
        if self._timeout_handle is not None and not self._timeout_handle.cancelled:
            return
        if not self._has_pending_work():
            # Nothing to decide: stay quiet instead of spinning rounds.
            return
        height, round_number = self.height, self.round
        # Exponential backoff per skipped round (IBFT-style) so that slow
        # block assembly at high gas loads is not perpetually outrun by
        # the round timer.
        timeout = self.engine.config.propose_timeout * (2 ** min(round_number, 6))
        self._timeout_handle = self._loop.schedule_in(
            timeout,
            lambda: self._on_round_timeout(height, round_number),
        )

    def _cancel_round_timeout(self) -> None:
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None

    def _on_round_timeout(self, height: int, round_number: int) -> None:
        self._timeout_handle = None
        if self.engine.network.is_crashed(self.node_id):
            return
        if self.height != height or self.round != round_number:
            # Stale timer from before a catch-up/commit.  While it was
            # armed it blocked fresh arming, so it must hand the liveness
            # chain back to the current height — otherwise a node that
            # caught up with a non-empty mempool starves its pending
            # transactions forever (found by the chaos harness).
            self._schedule_round_timeout()
            return
        if not self._has_pending_work():
            return
        # Skip to the next proposer at the same height.
        self.round += 1
        self._schedule_round_timeout()
        self.maybe_propose()

    # -- catch-up ---------------------------------------------------------------------

    def _request_catchup(self, peer: str) -> None:
        if self.byzantine is not None and self.byzantine.suppress_catchup(self):
            return
        now = self._loop.clock.now
        if now - self._catchup_requested_at < 0.5:
            return
        self._catchup_requested_at = now
        self._network.send(self.node_id, peer, "CATCHUP_REQUEST", self.height, 64)

    def _handle_catchup_request(self, from_height: int, sender: str) -> None:
        if self.byzantine is not None and self.byzantine.answer_catchup(
            self, from_height, sender
        ):
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
        a valid quorum commit certificate.

        The sync path used to trust whatever prefix its peer served,
        which let a byzantine peer feed a recovering node a forged
        chain (catch-up poisoning).  Now each block must prove that a
        precommit quorum committed *exactly this block id*; the first
        failure stops the walk (later heights cannot chain onto a
        rejected block), records ``forged_catchup`` evidence against
        the sender, and retries catch-up from a different live peer.
        """
        for item in sorted(items, key=lambda entry: entry["block"].height):
            block = item["block"]
            if block.height != self.height or block.previous_id != self.last_block_id:
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
        self._schedule_round_timeout()
        self.maybe_propose()

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
        """Volatile state is lost; durable chain/app state survives.

        The round lock (``_locked_block``/``_locked_round``) deliberately
        survives: it is write-ahead consensus state, and forgetting it on
        recovery would let this validator join a second quorum at its
        locked height.
        """
        self.mempool.flush_volatile()
        self._check_memo.clear()
        self._proposals.clear()
        self._votes.clear()
        self._first_votes.clear()
        self.evidence.clear()
        self._prevoted.clear()
        self._precommitted.clear()
        self._proposed_rounds.clear()
        self._precommit_sigs.clear()
        self._cancel_round_timeout()

    def on_recover(self) -> None:
        """Rejoin: ask a live peer for missed blocks."""
        peers = [node for node in self.engine.validator_order if node != self.node_id]
        for peer in peers:
            if not self._network.is_crashed(peer):
                self._catchup_requested_at = float("-inf")
                self._request_catchup(peer)
                break
        self._schedule_round_timeout()

    # -- durable-state checkpoint / restore -----------------------------------

    def _journal_lock(self) -> None:
        """Write-ahead consensus state (Tendermint WAL): a
        restart-from-disk must see the lock or it could help a second
        quorum form at this height.  Forced past the group cadence — the
        precommit this lock licenses is broadcast next, and a vote that
        outran its lock's durability is the height-fork race with a
        crash in the middle."""
        self.persistence.journal(
            {"k": "lock", "r": self._locked_round, "b": block_record(self._locked_block)},
            body=splice_object(
                {
                    "k": b'"lock"',
                    "r": b"%d" % self._locked_round,
                    "b": self._block_body(self._locked_block),
                }
            ),
        )
        self.persistence.log.flush_now()

    def _block_body(self, block: Block) -> bytes:
        """Canonical bytes of ``block``'s record, made on first use per
        block — around the transactions' own bytes when the application
        keeps them (its optional ``kept_payload`` hook)."""
        entry = self._block_bytes.get(block.height)
        if entry is None or entry[0] is not block:
            encoded = encoded_block_record(block, getattr(self.app, "kept_payload", None))
            entry = self._block_bytes[block.height] = (block, encoded)
        return entry[1]

    def _cert_body(self, height: int, cert: dict) -> bytes:
        """Canonical bytes of the certificate held for ``height``."""
        entry = self._cert_bytes.get(height)
        if entry is None or entry[0] is not cert:
            entry = self._cert_bytes[height] = (cert, canonical_bytes(cert))
        return entry[1]

    def consensus_snapshot(self) -> dict[str, bytes]:
        """Durable consensus state (chain, lock, certificates) for the
        node's checkpoint provider, each member canonically encoded —
        spliced from the per-block / per-certificate bytes, so only a
        block or certificate that was never journaled here (restored
        from disk) is encoded now."""
        lock = b"null"
        if self._locked_block is not None:
            lock = splice_object(
                {
                    "r": b"%d" % self._locked_round,
                    "b": self._block_body(self._locked_block),
                }
            )
        return {
            "blocks": splice_array(self._block_body(block) for block in self.chain),
            "lock": lock,
            # [height, cert] pairs: canonical JSON requires string keys.
            "certs": splice_array(
                b"[%d,%s]" % (height, self._cert_body(height, cert))
                for height, cert in sorted(self.commit_certs.items())
            ),
        }

    def restore_durable(
        self,
        blocks: list[Block],
        locked_round: int = -1,
        locked_block: Block | None = None,
        certs: dict[int, dict] | None = None,
    ) -> None:
        """Adopt disk-recovered chain and lock state after a restart.

        Volatile state (mempool, votes, proposals, memo) is assumed
        already cleared by :meth:`on_crash`; this resets the durable
        half exactly as the WAL replay reconstructed it.
        """
        self.chain = list(blocks)
        self.last_block_id = blocks[-1].block_id if blocks else GENESIS_ID
        self.height = blocks[-1].height + 1 if blocks else 1
        self.round = 0
        self._committed_ids = {
            envelope.tx_id for block in blocks for envelope in block.transactions
        }
        self._locked_block = locked_block
        self._locked_round = locked_round
        self.commit_certs = dict(certs or {})
        self._block_bytes.clear()
        self._cert_bytes.clear()
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
        for node_id in validator_ids:
            validator = Validator(node_id, self, application_factory(node_id))
            self.validators[node_id] = validator
            network.register(node_id, validator.handle_message)

    def validator(self, node_id: str) -> Validator:
        return self.validators[node_id]

    def record_commit(self, node_id: str, block: Block) -> None:
        """Record the first commit of each height (cluster-level event)."""
        if block.height in self._first_commit_heights:
            return
        self._first_commit_heights.add(block.height)
        record = CommitRecord(block=block, committed_at=self.loop.clock.now, node_id=node_id)
        self.commits.append(record)
        for listener in self.commit_listeners:
            listener(record)

    def committed_envelopes(self) -> list[tuple[TxEnvelope, float]]:
        """All committed transactions with their cluster commit times."""
        out: list[tuple[TxEnvelope, float]] = []
        for record in self.commits:
            for envelope in record.block.transactions:
                out.append((envelope, record.committed_at))
        return out

    def online_power_fraction(self) -> float:
        """Fraction of validators currently online."""
        online = sum(
            1 for node_id in self.validator_order if not self.network.is_crashed(node_id)
        )
        return online / len(self.validator_order)
