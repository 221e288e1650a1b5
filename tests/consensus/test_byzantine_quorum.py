"""Quorum accounting under lying validators (ISSUE 6).

The f<n/3 safety argument leans on admission checks in the round machine,
each pinned here against ``repro.consensus.round.step`` itself — no event
loop, no network.  (The parent check, the byzantine behaviors end to end
and the round-race convergence run need the driver: ``test_bft.py``.)

* **per-validator tallies** — a quorum is counted over distinct voters,
  never messages, so no flood of copies (or conflicting pairs) from one
  validator assembles ``2f+1`` alone;
* **vote-sender authentication** — votes are never relayed, so a vote
  claiming another validator's identity is a forgery by the wire sender
  and counts for nothing;
* **proposer legitimacy** — only the rotation's due proposer for a
  (height, round) may propose, and the wire sender must be that proposer.
"""

import hashlib

from repro.consensus.abci import envelope_for
from repro.consensus.byzantine import conflicting_vote, make_behavior, sibling_block
from repro.consensus.round import (
    GENESIS_ID,
    BlockChecked,
    CheckBlock,
    Evidence,
    ProposalReceived,
    RoundState,
    Send,
    VoteReceived,
    step,
)
from repro.consensus.types import NIL, PREVOTE, Block, Vote

ORDER = ("n0", "n1", "n2", "n3")
DUE = ORDER[1]  # proposer of (height 1, round 0)


def envelope(tag: str):
    tx_id = hashlib.sha3_256(tag.encode()).hexdigest()
    return envelope_for({"tag": tag}, tx_id, 100)


def block_from(proposer, *tags, parent=GENESIS_ID):
    return Block.build(1, 0, proposer, [envelope(tag) for tag in tags], parent)


def evidence_kinds(actions):
    return [action.kind for action in actions if isinstance(action, Evidence)]


def prevote(block_id, voter):
    return Vote(PREVOTE, 1, 0, block_id, voter)


def propose_and_prevote(state, block):
    """Deliver ``block`` from its proposer, answer CheckBlock as valid and
    tally the node's own prevote, as the driver does."""
    actions = step(state, ProposalReceived(block, block.proposer))
    [check] = [action for action in actions if isinstance(action, CheckBlock)]
    [send] = step(state, BlockChecked(check.block, True))
    step(state, VoteReceived(send.payload, state.me))


class TestPerValidatorTally:
    def test_duplicate_copies_add_nothing(self):
        state = RoundState("n0", ORDER)
        vote = prevote("b" * 64, "n1")
        for _ in range(state.quorum + 2):
            assert step(state, VoteReceived(vote, "n1")) == []
        assert len(state.voters(PREVOTE, 0, "b" * 64)) == 1

    def test_conflicting_second_vote_counts_zero_with_evidence(self):
        state = RoundState("n0", ORDER)
        assert step(state, VoteReceived(prevote("b" * 64, "n1"), "n1")) == []
        actions = step(state, VoteReceived(prevote("c" * 64, "n1"), "n1"))
        assert evidence_kinds(actions) == ["double_vote"]
        # Neither bucket grew past the single first vote.
        assert len(state.voters(PREVOTE, 0, "b" * 64)) == 1
        assert state.voters(PREVOTE, 0, "c" * 64) == []

    def test_double_voter_alone_cannot_form_quorum(self):
        """The regression the per-validator dedupe exists for: one
        validator spamming quorum-many copies of two conflicting votes
        must not polka anything."""
        state = RoundState("n0", ORDER)
        block = block_from(DUE, "x")
        propose_and_prevote(state, block)
        for _ in range(state.quorum):
            step(state, VoteReceived(prevote(block.block_id, "n2"), "n2"))
            step(state, VoteReceived(prevote("d" * 64, "n2"), "n2"))
        # Two distinct voters (self + liar's first vote) < quorum of 3.
        assert state.locked_value is None
        assert len(state.voters(PREVOTE, 0, block.block_id)) == 2

    def test_honest_votes_still_reach_quorum(self):
        """Sanity for the test above: two honest peers + own prevote lock."""
        state = RoundState("n0", ORDER)
        block = block_from(DUE, "x")
        propose_and_prevote(state, block)
        for voter in ORDER[1:3]:
            step(state, VoteReceived(prevote(block.block_id, voter), voter))
        assert state.locked_value is block


class TestVoteSenderAuthentication:
    def test_forged_voter_identity_is_dropped(self):
        state = RoundState("n0", ORDER)
        actions = step(state, VoteReceived(prevote("b" * 64, "n2"), "n1"))
        assert evidence_kinds(actions) == ["forged_vote"]
        assert state.votes == {}

    def test_one_sender_cannot_mint_a_phantom_quorum(self):
        state = RoundState("n0", ORDER)
        block = block_from(DUE, "x")
        propose_and_prevote(state, block)
        for claimed in ORDER[1:]:
            step(state, VoteReceived(prevote(block.block_id, claimed), "n2"))
        # Only the forger's self-signed vote counted alongside our own.
        assert len(state.voters(PREVOTE, 0, block.block_id)) == 2
        assert state.locked_value is None


class TestProposerLegitimacy:
    def test_undue_proposer_is_dropped_with_evidence(self):
        state = RoundState("n0", ORDER)
        actions = step(state, ProposalReceived(block_from("n2", "x"), "n2"))
        assert evidence_kinds(actions) == ["forged_proposal"]
        assert state.proposals == {}

    def test_impostor_sender_is_dropped_with_evidence(self):
        """A block *naming* the due proposer but arriving from another
        node is an impostor proposal — proposals are never relayed."""
        state = RoundState("n0", ORDER)
        actions = step(state, ProposalReceived(block_from(DUE, "x"), "n2"))
        assert evidence_kinds(actions) == ["forged_proposal"]
        assert state.proposals == {}

    def test_trusted_local_path_skips_only_the_sender_check(self):
        state = RoundState("n0", ORDER)
        block = block_from(DUE, "x")
        step(state, ProposalReceived(block, None))  # sender=None: local/test path
        assert state.proposals[(1, 0)][block.block_id] is block
        assert evidence_kinds(step(state, ProposalReceived(block_from("n2", "y"), None))) == [
            "forged_proposal"
        ]


class TestEquivocationHandling:
    def siblings(self):
        block = block_from(DUE, "x", "y")
        sibling = sibling_block(block)
        assert sibling is not None and sibling.block_id != block.block_id
        return block, sibling

    def test_sibling_recorded_with_evidence_and_both_retained(self):
        state = RoundState("n0", ORDER)
        block, sibling = self.siblings()
        assert evidence_kinds(step(state, ProposalReceived(block, DUE))) == []
        assert evidence_kinds(step(state, ProposalReceived(sibling, DUE))) == ["equivocation"]
        assert set(state.proposals[(1, 0)]) == {block.block_id, sibling.block_id}

    def test_single_prevote_despite_two_siblings(self):
        state = RoundState("n0", ORDER)
        block, sibling = self.siblings()
        actions = step(state, ProposalReceived(block, DUE))
        actions += step(state, ProposalReceived(sibling, DUE))
        checks = [action for action in actions if isinstance(action, CheckBlock)]
        assert len(checks) == 1, "one prevote per (height, round), not per sibling"
        assert checks[0].block is block  # first-seen sibling

    def test_conflicting_vote_prefers_a_real_rival(self):
        state = RoundState("n0", ORDER)
        block, sibling = self.siblings()
        step(state, ProposalReceived(block, DUE))
        step(state, ProposalReceived(sibling, DUE))
        rival = conflicting_vote(state, prevote(block.block_id, "n0"))
        assert rival.block_id == sibling.block_id


class TestBehaviorsRewriteSends:
    """The shipped behaviors are pure rewrites of the machine's sends."""

    def test_double_voter_pairs_each_vote_with_a_rival_quorum_many_times(self):
        state = RoundState("n3", ORDER)
        send = Send(None, "VOTE", prevote("b" * 64, "n3"))
        out = make_behavior("double_vote").outbound(state, send)
        assert out[: state.quorum] == [send] * state.quorum
        rivals = {item.payload.block_id for item in out[state.quorum :]}
        assert len(out) == 2 * state.quorum and len(rivals) == 1 and "b" * 64 not in rivals
        nil = Send(None, "VOTE", prevote(NIL, "n3"))
        assert make_behavior("double_vote").outbound(state, nil) == [nil]

    def test_equivocator_splits_siblings_between_peer_halves(self):
        state = RoundState(DUE, ORDER)
        block = block_from(DUE, "x", "y")
        out = make_behavior("equivocate").outbound(state, Send(None, "PROPOSAL", block))
        assert [item.to for item in out] == ["n0", "n2", "n3"]
        assert out[0].payload is block
        assert {item.payload.block_id for item in out[1:]} == {sibling_block(block).block_id}

    def test_withholder_and_stale_replica_send_no_votes(self):
        state = RoundState("n3", ORDER)
        vote = Send(None, "VOTE", prevote("b" * 64, "n3"))
        proposal = Send(None, "PROPOSAL", block_from(DUE, "x"))
        for kind in ("withhold", "stale"):
            assert make_behavior(kind).outbound(state, vote) == []
            assert make_behavior(kind).outbound(state, proposal) == [proposal]
