"""Deterministic byzantine validator behaviors.

The crash-fault half of the chaos harness (ISSUE 3/5) never made a node
*lie* — it only made nodes disappear.  This module is the lying half: a
:class:`ByzantineBehavior` installed on a :class:`~repro.consensus.bft.
Validator` (``validator.byzantine = make_behavior(kind)``) intercepts
the node's outbound consensus traffic and, for the stale-replica kind,
its inbound traffic too.  The honest round machine keeps running
underneath; the behavior only rewrites the ``Send`` actions that leave
(or the messages that enter) the node, which keeps every attack a pure
function of state the simulation already determines — no new
randomness, so seeded replay stays byte-identical.

The four kinds mirror the classic BFT adversary taxonomy:

* ``equivocate`` — the due proposer builds *two* blocks for one
  (height, round) — same transactions, different order, hence different
  value ids — and sends each to a disjoint half of the peer set.  It
  also double-votes both siblings (an equivocating proposer that votes
  honestly would immediately out itself), spamming each vote
  quorum-many times to attack per-message tallies.
* ``double_vote`` — votes for two different block ids in one
  (phase, height, round), again with quorum-many copies of each.
* ``withhold`` — participates in rounds but broadcasts no votes
  (silent-but-alive; the cluster must reach quorum without it).
* ``stale`` — silently stops applying new blocks (drops inbound
  proposals/votes/catch-up and never requests catch-up itself) while
  still answering peers' catch-up requests from its stale chain — the
  lying replica that serves old reads as if they were current.
* ``poison`` — otherwise honest, but answers ``CATCHUP_REQUEST`` with a
  *forged* chain suffix: same heights, same parent linkage, reordered
  transactions (hence different value ids), dressed in the real blocks'
  commit certificates.  A recovering node that trusted its peer would
  adopt the fork; certificate verification rejects every forged block
  (the certificate names the honest block id) and retries elsewhere.

Safety claim under test: with at most ⌊(n−1)/3⌋ concurrently-byzantine
validators per shard, none of these behaviors may make two honest nodes
commit different blocks at one height (``honest_no_divergence``), and
the defenses they probe — per-validator quorum dedupe, vote-sender
authentication, proposer legitimacy, the lock rule — each have a
mutation test proving the invariant fires when they are removed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consensus.round import RoundState, Send
from repro.consensus.types import NIL, Block, Vote
from repro.crypto.hashing import hash_document

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.consensus.bft import Validator
    from repro.sim.network import Message

#: Behavior kinds installable through :func:`make_behavior`.
BEHAVIOR_KINDS = ("equivocate", "double_vote", "withhold", "stale", "poison")


class ByzantineBehavior:
    """Hook surface the validator consults; the base class is an honest
    passthrough so subclasses override only what they corrupt."""

    kind = "honest"

    def outbound(self, state: RoundState, send: Send) -> list[Send]:
        """What goes on the wire in place of the round machine's
        ``send`` (a PROPOSAL or VOTE broadcast); may be empty.  The
        node's own copy is always the honest original, so a lying node's
        state machine stays coherent."""
        return [send]

    def drop_inbound(self, validator: "Validator", message: "Message") -> bool:
        """True = silently swallow an inbound message."""
        return False

    def suppress_catchup(self, validator: "Validator") -> bool:
        """True = never ask peers for missed blocks."""
        return False

    def answer_catchup(
        self, validator: "Validator", from_height: int, sender: str
    ) -> bool:
        """Take over answering a peer's catch-up request; True = the
        behavior answered (honest service is skipped)."""
        return False


def sibling_block(block: Block) -> Block | None:
    """A second, different-id block with the same parent and transactions.

    Block ids hash the *ordered* transaction list, so reversing the
    order yields a block every honest validator finds valid — the
    sharpest possible equivocation, because both siblings can win
    honest prevotes.  With fewer than two transactions no distinct
    sibling exists (``None``)."""
    if len(block.transactions) < 2:
        return None
    return Block.build(
        block.height,
        block.round,
        block.proposer,
        list(reversed(block.transactions)),
        block.previous_id,
    )


def conflicting_vote(state: RoundState, vote: Vote) -> Vote:
    """A vote by the same voter for a *different* block id in the same
    (phase, height, round) — a real rival proposal when one is known,
    else a deterministic fabricated id."""
    slot = state.proposals.get((vote.height, vote.round), {})
    rival = next((bid for bid in sorted(slot) if bid != vote.block_id), None)
    if rival is None:
        rival = hash_document({"byzantine-rival-of": vote.block_id})
    return Vote(vote.phase, vote.height, vote.round, rival, vote.voter)


class DoubleVoter(ByzantineBehavior):
    """Votes twice per (phase, height, round), quorum-many copies each.

    Against per-validator tallies this is pure noise (plus double-vote
    evidence on every honest node); against a per-*message* tally a
    single double-voter assembles a full quorum alone — the mutation
    test that keeps the dedupe honest."""

    kind = "double_vote"

    def outbound(self, state: RoundState, send: Send) -> list[Send]:
        if send.kind != "VOTE" or send.payload.block_id == NIL:
            return [send]
        rival = send._replace(payload=conflicting_vote(state, send.payload))
        return [send] * state.quorum + [rival] * state.quorum


class EquivocatingProposer(DoubleVoter):
    """Sends two same-(height, round) blocks to disjoint peer halves.

    Inherits the double-voting vote stream: a proposer equivocating on
    blocks but voting for only one of them would contain itself."""

    kind = "equivocate"

    def outbound(self, state: RoundState, send: Send) -> list[Send]:
        if send.kind != "PROPOSAL":
            return super().outbound(state, send)
        block = send.payload
        peers = [node for node in state.validators if node != state.me]
        sibling = sibling_block(block)
        if sibling is None:
            # Not enough transactions for a distinct sibling: fall back to
            # selective disclosure — only half the peers learn the
            # proposal exists at all.
            return [Send(peer, "PROPOSAL", block) for peer in peers[: max(1, len(peers) // 2)]]
        mid = len(peers) // 2
        return [Send(peer, "PROPOSAL", block) for peer in peers[:mid]] + [
            Send(peer, "PROPOSAL", sibling) for peer in peers[mid:]
        ]


class VoteWithholder(ByzantineBehavior):
    """Broadcasts no votes at all (its own local tally still counts)."""

    kind = "withhold"

    def outbound(self, state: RoundState, send: Send) -> list[Send]:
        return [] if send.kind == "VOTE" else [send]


class StaleReplica(ByzantineBehavior):
    """Freezes its replica and serves stale reads.

    Drops every inbound message that could advance its chain, never
    requests catch-up, and goes silent on votes — but keeps answering
    ``CATCHUP_REQUEST`` from its (increasingly stale) chain, so lagging
    peers that ask *it* get old-but-honest prefixes."""

    kind = "stale"

    def outbound(self, state: RoundState, send: Send) -> list[Send]:
        return [] if send.kind == "VOTE" else [send]

    def drop_inbound(self, validator: "Validator", message: "Message") -> bool:
        return message.kind in ("TX", "PROPOSAL", "VOTE", "CATCHUP_BLOCKS")

    def suppress_catchup(self, validator: "Validator") -> bool:
        return True


class ChainPoisoner(ByzantineBehavior):
    """Serves forged chain suffixes to recovering peers.

    Votes and proposes honestly — its whole attack is the sync path:
    every ``CATCHUP_REQUEST`` is answered with blocks whose transaction
    order (hence value id) is flipped wherever possible, re-linked into
    a consistent forged suffix, and paired with the *real* blocks'
    commit certificates.  Without certificate verification the victim
    adopts the fork wholesale; with it, the very first forged block
    fails (no quorum ever precommitted that id) and the victim walks
    away with ``forged_catchup`` evidence against this node."""

    kind = "poison"

    def answer_catchup(
        self, validator: "Validator", from_height: int, sender: str
    ) -> bool:
        real = [block for block in validator.chain if block.height >= from_height]
        if not real:
            return True  # nothing to serve; swallow the request
        items = []
        previous = real[0].previous_id
        for block in real:
            transactions = (
                list(reversed(block.transactions))
                if len(block.transactions) > 1
                else list(block.transactions)
            )
            forged = Block.build(
                block.height, block.round, block.proposer, transactions, previous
            )
            previous = forged.block_id
            items.append(
                {"block": forged, "cert": validator.commit_certs.get(block.height)}
            )
        size = sum(item["block"].size_bytes for item in items)
        validator.engine.network.send(
            validator.node_id, sender, "CATCHUP_BLOCKS", items, size
        )
        return True


_REGISTRY = {
    "equivocate": EquivocatingProposer,
    "double_vote": DoubleVoter,
    "withhold": VoteWithholder,
    "stale": StaleReplica,
    "poison": ChainPoisoner,
}


def make_behavior(kind: str) -> ByzantineBehavior:
    """Instantiate one behavior by kind.

    Raises:
        ValueError: for unknown kinds.
    """
    try:
        return _REGISTRY[kind]()
    except KeyError:
        raise ValueError(
            f"unknown byzantine kind {kind!r}; expected one of {BEHAVIOR_KINDS}"
        ) from None
