"""The Tendermint lock rule and value-based block identity.

Found by the chaos harness (seed 606) once lane-parallel validation
tightened the vote races: a round-0 proposal and a round-1 re-proposal of
the same single transaction each gathered a quorum, and one replica
committed the round-0 block while the rest committed the round-1 block —
a height fork.  Three mechanisms close it, each pinned here against the
pure round machine (``repro.consensus.round.step``; no event loop, no
network — the driver-level convergence test lives in ``test_bft.py``):

* **value identity** — a block's id hashes height/parent/transactions,
  not round or proposer, so cross-round re-proposals of one value cannot
  fork the id;
* **round discipline** — a validator joins the newest round it sees,
  never prevotes a stale-round proposal, and never precommits (or adopts
  a lock from) a stale polka, except for its own locked block;
* **the lock** — after observing a polka a validator prevotes NIL against
  conflicting proposals at that height, re-proposes the locked value when
  it is the proposer, and keeps the lock across crashes (consensus WAL).
"""

import hashlib

from repro.consensus.abci import envelope_for
from repro.consensus.round import (
    GENESIS_ID,
    BlockChecked,
    CheckBlock,
    Decided,
    JournalLock,
    ProposalReceived,
    ProposeDue,
    RoundState,
    Send,
    VoteReceived,
    step,
)
from repro.consensus.types import NIL, PRECOMMIT, PREVOTE, Block, Vote

ORDER = ("n0", "n1", "n2", "n3")


def envelope(tag: str):
    tx_id = hashlib.sha3_256(tag.encode()).hexdigest()
    return envelope_for({"tag": tag}, tx_id, 100)


def proposer_for(height, round_number):
    return ORDER[(height + round_number) % len(ORDER)]


def block_at(round_number, tag="x", height=1):
    return Block.build(
        height, round_number, proposer_for(height, round_number), [envelope(tag)], GENESIS_ID
    )


def of_type(actions, kind):
    return [action for action in actions if isinstance(action, kind)]


def prevote_for(state, block):
    """Deliver ``block`` and answer the machine's CheckBlock as a driver
    that found it valid would; returns the prevote it decides on (None
    if the machine does not prevote the proposal at all)."""
    checks = of_type(step(state, ProposalReceived(block, None)), CheckBlock)
    if not checks:
        return None
    [send] = step(state, BlockChecked(checks[0].block, True))
    step(state, VoteReceived(send.payload, state.me))  # the node's own copy
    return send.payload


def polka(state, block, voters):
    """Deliver prevotes for ``block`` from ``voters``; returns every action."""
    actions = []
    for voter in voters:
        vote = Vote(PREVOTE, block.height, block.round, block.block_id, voter)
        actions += step(state, VoteReceived(vote, voter))
    return actions


class TestValueIdentity:
    def test_round_and_proposer_do_not_change_the_id(self):
        txs = [envelope("a"), envelope("b")]
        first = Block.build(3, 0, "n0", txs, "p" * 64)
        re_proposed = Block.build(3, 4, "n2", txs, "p" * 64)
        assert first.block_id == re_proposed.block_id

    def test_content_still_changes_the_id(self):
        txs = [envelope("a")]
        base = Block.build(3, 0, "n0", txs, "p" * 64)
        assert base.block_id != Block.build(4, 0, "n0", txs, "p" * 64).block_id
        assert base.block_id != Block.build(3, 0, "n0", [envelope("b")], "p" * 64).block_id
        assert base.block_id != Block.build(3, 0, "n0", txs, "q" * 64).block_id


class TestRoundDiscipline:
    def test_future_round_proposal_joins_the_round(self):
        state = RoundState("n0", ORDER)
        vote = prevote_for(state, block_at(2))
        assert state.round == 2
        assert (vote.round, vote.phase) == (2, PREVOTE)

    def test_stale_round_proposal_is_not_prevoted(self):
        state = RoundState("n0", ORDER, round=1)
        block = block_at(0)
        assert prevote_for(state, block) is None
        # The proposal is still stored so a late commit can apply it.
        assert state.proposals[(1, 0)][block.block_id] is block

    def test_stale_polka_earns_no_precommit_and_no_lock(self):
        state = RoundState("n0", ORDER, round=1)  # moved on before the proposal lands
        block = block_at(0)
        step(state, ProposalReceived(block, None))
        assert polka(state, block, ORDER[1:]) == []
        assert state.locked_value is None


class TestLockRule:
    def locked_on(self, me, block):
        state = RoundState(me, ORDER)
        assert prevote_for(state, block).block_id == block.block_id
        peers = [node for node in ORDER if node != me][:2]
        actions = polka(state, block, peers)
        # Journal the lock, *then* precommit — in that order.
        assert [type(action) for action in actions] == [JournalLock, Send]
        assert actions[1].payload.phase == PRECOMMIT
        assert state.locked_value is block and state.locked_round == block.round
        return state

    def test_polka_locks_and_conflicting_proposal_gets_nil(self):
        state = self.locked_on("n0", block_at(0))
        # A different value at a later round: this node must prevote NIL.
        assert prevote_for(state, block_at(1, tag="y")).block_id == NIL

    def test_prevotes_past_the_quorum_adopt_nothing_twice(self):
        block = block_at(0)
        state = self.locked_on("n0", block)
        assert polka(state, block, ORDER[3:]) == []

    def test_locked_proposer_reproposes_the_locked_value(self):
        locked = block_at(0)
        state = self.locked_on(proposer_for(1, 1), locked)
        state.round = 1
        [send] = step(state, ProposeDue())
        # Same value id, fresh round: peers locked on it will prevote it.
        assert send.kind == "PROPOSAL"
        assert send.payload.block_id == locked.block_id
        assert send.payload.round == 1
        assert step(state, ProposeDue()) == [], "one proposal per round"

    def test_lock_survives_crash(self):
        state = self.locked_on("n0", block_at(0))
        state.forget_volatile()
        assert state.locked_value is not None, "the lock is consensus WAL state"
        assert not state.proposals and not state.votes and not state.acted

    def test_lock_clears_when_the_height_commits(self):
        block = block_at(0)
        state = self.locked_on("n0", block)
        step(state, Decided(block))
        assert state.locked_value is None and state.locked_round == -1
        assert (state.h, state.round, state.last_block_id) == (2, 0, block.block_id)
