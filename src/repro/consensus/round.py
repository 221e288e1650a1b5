"""The consensus round machine: ``step(state, event) -> actions``, pure.

Everything a validator *decides* lives here — proposer rotation, which
proposals are legitimate, the per-validator vote tally, the lock rule,
when to prevote / precommit / commit and what a round timeout does — as
a function of one :class:`RoundState` and one event.  It performs no
I/O, keeps no clock and imports nothing but the consensus data types;
:class:`repro.consensus.bft.Validator` turns network messages, mempool
work and timers into events and carries the returned actions out in
order.  The same function is therefore what the simulator runs and what
``tests/consensus/test_round_explorer.py`` explores exhaustively.

The state uses the names of Tendermint's Algorithm 1 (Buchman, Kwon,
Milosevic, arXiv:1807.04938): ``h``, ``round``, ``locked_value``,
``locked_round``.  Handler by handler:

=====================  =====================================================
``_propose``           StartRound, lines 14-19 (``locked_value`` stands in
                       for ``validValue``; ``GetValue`` is ``getValue()``)
``_on_proposal``       line 22's guard: due proposer, current height; then
                       asks the driver for ``valid(v)`` (``CheckBlock``)
``_on_block_checked``  lines 23-27: prevote ``id(v)`` if valid and not
                       locked on another value, else nil
``_on_vote``           the ``2f+1`` counting every ``upon`` rule relies on;
                       lines 49-50 (``Commit``)
``_on_polka``          lines 36-41: lock, then precommit
``_on_decided``        lines 51-54
``_on_timeout``        lines 65-67: StartRound(round + 1)
=====================  =====================================================

Deliberate divergences, documented and unchanged here:

* **No** ``validValue`` / ``validRound``: a locked proposer re-proposes
  its locked value and the proof-of-lock rule (lines 28-33) does not
  exist — a lock moves only when this node itself sees a newer polka.
* **One timeout per round**, armed only while there is work, skipping
  straight to the next round (lines 65-67): no nil prevotes or
  precommits on timeout (lines 44-46, 57-64).
* **Round join**: one proposal from a later round moves the node there
  (line 55 waits for ``f+1`` messages); a stale-round proposal is
  prevoted only if it is the locked value.
* **Early polka**: a polka is acted on whenever it completes — before
  this node's own prevote left, or in a later round than its own — not
  only ``while step = prevote``.
* **Value identity and equivocation**: block ids hash height, parent and
  transactions, not round or proposer; an equivocating proposer's
  siblings are kept side by side so whichever earns a quorum commits.
* The driver's part: ``valid(v)`` is decided when the proposal arrives
  and the prevote leaves after the simulated validation time; with
  ``BftConfig.pipelining`` the next height is proposed the moment this
  one commits; lagging nodes adopt certified blocks through catch-up
  instead of line 49, so a message above ``h`` only asks for catch-up.
* **Catch-up on timeout**: a round timeout that moves to the next round
  also asks that round's proposer for catch-up (when it is another
  node), so a node behind idle peers, which send it nothing above
  ``h``, still learns the blocks it missed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from repro.consensus.types import NIL, PRECOMMIT, PREVOTE, Block, Vote

GENESIS_ID = "0" * 64
PROPOSE = "propose"


@dataclass
class RoundState:
    """One validator's consensus state.  ``locked_value`` /
    ``locked_round`` are write-ahead state (the driver journals them and
    they survive a crash); ``proposals``, ``votes`` and ``acted`` are
    volatile."""

    me: str
    validators: tuple[str, ...]
    h: int = 1
    round: int = 0
    #: id of the block decided at ``h - 1``: what a valid proposal extends.
    last_block_id: str = GENESIS_ID
    locked_value: Block | None = None
    locked_round: int = -1
    #: (height, round) -> {block id -> block}, heights >= ``h``.  Two
    #: rival blocks coexist for one round under an equivocating proposer.
    proposals: dict[tuple[int, int], dict[str, Block]] = field(default_factory=dict)
    #: (phase, round) -> {voter -> its *first* vote} at height ``h``.
    #: Quorums count validators, never messages: a conflicting second
    #: vote is evidence and counts for nothing, a copy adds nothing.
    votes: dict[tuple[str, int], dict[str, Vote]] = field(default_factory=dict)
    #: (step, round) pairs this node already took at height ``h``.
    acted: set[tuple[str, int]] = field(default_factory=set)

    @property
    def quorum(self) -> int:
        return (2 * len(self.validators)) // 3 + 1

    def proposer(self, height: int, round_number: int) -> str:
        return self.validators[(height + round_number) % len(self.validators)]

    def locked_on(self, block_id: str) -> bool:
        return self.locked_value is not None and self.locked_value.block_id == block_id

    def undecided(self) -> bool:
        """Is a proposal for the current height on the table?"""
        return any(key[0] == self.h for key in self.proposals)

    def voters(self, phase: str, round_number: int, block_id: str) -> list[Vote]:
        """The counted votes for ``block_id`` in one phase of one round."""
        slot = self.votes.get((phase, round_number), {})
        return [vote for vote in slot.values() if vote.block_id == block_id]

    def forget_volatile(self) -> None:
        """A crash: the message log is lost, the lock is not."""
        self.proposals.clear()
        self.votes.clear()
        self.acted.clear()


# -- events: what the driver tells the machine --------------------------------

#: There may be something to propose (new work, a new height, a new
#: round); with ``transactions`` it is the answer to :class:`GetValue`.
ProposeDue = namedtuple("ProposeDue", "transactions", defaults=(None,))
#: ``sender`` is the wire sender, None on the trusted local path.
ProposalReceived = namedtuple("ProposalReceived", "block sender")
#: The answer to :class:`CheckBlock`.
BlockChecked = namedtuple("BlockChecked", "block valid")
VoteReceived = namedtuple("VoteReceived", "vote sender")
#: The timer armed at (height, round) fired; is the mempool non-empty?
TimeoutFired = namedtuple("TimeoutFired", "height round mempool_work")
#: ``block`` was applied at height ``h`` (committed or caught up).
Decided = namedtuple("Decided", "block")

# -- actions: what the machine asks of the driver -------------------------------

#: Put a PROPOSAL or VOTE on the wire (``to`` None = broadcast) and
#: deliver it to this node itself.
Send = namedtuple("Send", "to kind payload")
#: Assemble a value from the mempool; answer with ``ProposeDue(value)``.
GetValue = namedtuple("GetValue", "")
#: Validate ``block``, charging the time it takes; answer with
#: :class:`BlockChecked`.
CheckBlock = namedtuple("CheckBlock", "block")
#: Make the new lock durable *before* the next action's precommit leaves:
#: a vote that outran its lock is a fork with a crash in the middle.
JournalLock = namedtuple("JournalLock", "block round")
#: Arm the round timeout unless one is armed or nothing is pending.
ArmTimeout = namedtuple("ArmTimeout", "")
Commit = namedtuple("Commit", "block")
RequestCatchup = namedtuple("RequestCatchup", "peer")
#: Observed misbehavior (diagnostics; safety never depends on it).
Evidence = namedtuple("Evidence", "kind fields")


def _evidence(actions: list, kind: str, about: Block | Vote, **fields) -> list:
    actions.append(Evidence(kind, {"height": about.height, "round": about.round, **fields}))
    return actions


def timeout_scale(round_number: int) -> int:
    """Exponential backoff per skipped round (IBFT-style), so slow block
    assembly is not perpetually outrun by the round timer."""
    return 2 ** min(round_number, 6)


# -- handlers -------------------------------------------------------------------


def _propose(state: RoundState, event: ProposeDue = ProposeDue()) -> list:
    if (PROPOSE, state.round) in state.acted or state.proposer(state.h, state.round) != state.me:
        return []
    locked = state.locked_value
    transactions, parent = event.transactions, state.last_block_id
    if locked is not None and locked.height == state.h:
        # Locked proposer: re-propose the locked *value* at the current
        # round — same parent and transactions, hence the same block id,
        # so peers locked on it prevote it and a fresh round can finish
        # what the interrupted one started.  New content would deadlock
        # against the lock.
        transactions, parent = list(locked.transactions), locked.previous_id
    elif transactions is None:
        return [GetValue()]
    block = Block.build(state.h, state.round, state.me, transactions, parent)
    state.acted.add((PROPOSE, state.round))
    return [Send(None, "PROPOSAL", block)]


def _on_proposal(state: RoundState, event: ProposalReceived) -> list:
    block, sender = event
    if block.height < state.h:
        return []
    if block.proposer != state.proposer(block.height, block.round) or (
        sender is not None and sender != block.proposer
    ):
        # Only the rotation's due proposer for (height, round) may
        # propose, and proposals are not relayed, so the wire sender
        # must *be* that proposer.  Anything else is an impostor block.
        named = {"proposer": block.proposer, "sender": sender, "block_id": block.block_id}
        return _evidence([], "forged_proposal", block, **named)
    actions: list = []
    slot = state.proposals.setdefault((block.height, block.round), {})
    if block.block_id not in slot:
        if slot:
            # Equivocation: both siblings are retained, but this node's
            # single prevote already went to the first one seen, so the
            # proposer cannot mint voting power by multiplying blocks.
            ids = sorted([*slot, block.block_id])
            _evidence(actions, "equivocation", block, proposer=block.proposer, block_ids=ids)
        slot[block.block_id] = block
    if block.height > state.h:
        return [*actions, RequestCatchup(block.proposer)]
    if block.round > state.round:
        # Round join: proof the cluster moved on; vote there instead of
        # splitting quorums across rounds.
        state.round = block.round
    elif block.round < state.round and not state.locked_on(block.block_id):
        # Stale round: never prevote it (two live rounds at one height is
        # how a height forks), unless it is exactly the locked block —
        # those prevotes top up the bucket the lock came from.
        return actions
    actions.append(ArmTimeout())
    if (PREVOTE, block.round) not in state.acted:
        state.acted.add((PREVOTE, block.round))
        actions.append(CheckBlock(block))
    return actions


def _locked_out(state: RoundState, block: Block) -> bool:
    """Locked on a different value at this height: prevoting ``block``
    would help a second quorum form (the lock rule's safety half)."""
    locked = state.locked_value
    if locked is None or locked.height != block.height:
        return False
    return locked.block_id != block.block_id


def _on_block_checked(state: RoundState, event: BlockChecked) -> list:
    block = event.block
    vote_for = block.block_id if event.valid and not _locked_out(state, block) else NIL
    return [Send(None, "VOTE", Vote(PREVOTE, block.height, block.round, vote_for, state.me))]


def _tally(state: RoundState, vote: Vote, actions: list) -> int:
    """Count ``vote``; returns how many validators now back its block
    in this (phase, round) — 0 if it conflicts with the voter's first."""
    slot = state.votes.setdefault((vote.phase, vote.round), {})
    first = slot.setdefault(vote.voter, vote)
    if first.block_id != vote.block_id:
        ids = sorted([first.block_id, vote.block_id])
        _evidence(actions, "double_vote", vote, phase=vote.phase, voter=vote.voter, block_ids=ids)
        return 0
    return [counted.block_id for counted in slot.values()].count(vote.block_id)


def _on_vote(state: RoundState, event: VoteReceived) -> list:
    vote, sender = event
    if vote.voter != sender:
        # Votes are never relayed, so a vote claiming a third validator's
        # identity is a forgery by the wire sender.  Without this check
        # one byzantine node could mint a full quorum of phantom voters.
        named = {"phase": vote.phase, "voter": vote.voter, "sender": sender}
        return _evidence([], "forged_vote", vote, **named)
    if vote.height < state.h:
        return []
    if vote.height > state.h:
        return [RequestCatchup(sender)]
    actions: list = []
    if _tally(state, vote, actions) >= state.quorum and vote.block_id != NIL:
        if vote.phase == PREVOTE:
            _on_polka(state, vote, actions)
        else:
            block = state.proposals.get((vote.height, vote.round), {}).get(vote.block_id)
            if block is not None:
                actions.append(Commit(block))
    return actions


def _on_polka(state: RoundState, vote: Vote, actions: list) -> None:
    if vote.round >= state.locked_round and (
        vote.round >= state.round or state.locked_on(vote.block_id)
    ):
        # A polka at (or refreshing) the current state: adopt the lock.
        # Only a later polka may move it to a different block, and a
        # polka from an abandoned round never *creates* one — that would
        # precommit a value the node already voted past.  Every prevote
        # past the quorum lands here again; the lock already held is
        # neither adopted nor journaled a second time.
        proposal = state.proposals.get((vote.height, vote.round), {}).get(vote.block_id)
        held = state.locked_value is proposal and state.locked_round == vote.round
        if proposal is not None and not held:
            state.locked_value, state.locked_round = proposal, vote.round
            actions.append(JournalLock(proposal, vote.round))
    if not state.locked_on(vote.block_id):
        # Precommit only the locked value: a stale polka, or one whose
        # proposal never arrived, earns nothing — an unlocked
        # precommitter is free to help a rival quorum later.
        return
    if (PRECOMMIT, vote.round) not in state.acted:
        state.acted.add((PRECOMMIT, vote.round))
        precommit = Vote(PRECOMMIT, vote.height, vote.round, vote.block_id, state.me)
        actions.append(Send(None, "VOTE", precommit))


def _on_timeout(state: RoundState, event: TimeoutFired) -> list:
    if (event.height, event.round) != (state.h, state.round):
        # Stale timer from before a catch-up or commit.  While armed it
        # blocked fresh arming, so it hands the liveness chain back —
        # otherwise a node that caught up with a non-empty mempool
        # starves its pending transactions forever.
        return [ArmTimeout()]
    if not (event.mempool_work or state.undecided()):
        return []
    state.round += 1
    proposer = state.proposer(state.h, state.round)
    if proposer == state.me:
        return [ArmTimeout(), *_propose(state)]
    # Idle peers send nothing above ``h``, so a node left behind would time
    # out alone forever: each round it skips, it asks the next proposer.
    return [ArmTimeout(), RequestCatchup(proposer)]


def _on_decided(state: RoundState, event: Decided) -> list:
    block = event.block
    state.last_block_id = block.block_id
    state.h = block.height + 1
    state.round = 0
    if state.locked_value is not None and state.locked_value.height <= block.height:
        state.locked_value = None
        state.locked_round = -1
    state.votes = {}
    state.acted = set()
    state.proposals = {key: slot for key, slot in state.proposals.items() if key[0] >= state.h}
    return []


_HANDLERS = {
    ProposeDue: _propose,
    ProposalReceived: _on_proposal,
    BlockChecked: _on_block_checked,
    VoteReceived: _on_vote,
    TimeoutFired: _on_timeout,
    Decided: _on_decided,
}


def step(state: RoundState, event) -> list:
    """Apply one event to ``state``; return the actions to carry out."""
    return _HANDLERS[type(event)](state, event)
