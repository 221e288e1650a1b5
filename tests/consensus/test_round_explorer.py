"""Exhaustive small-scope exploration of the consensus round machine.

``repro.consensus.round.step`` is pure, so a test can be its driver: four
validators, one of them byzantine, one height, rounds 0 and 1, and a
network that is a FIFO queue the explorer may disturb.  The undisturbed
schedule delivers messages in the order they were sent and fires round
timers only when nothing is in flight; every *disturbance* costs one unit
of a budget — drop the next delivery, delay it behind everything else in
flight, or fire a timer early.  The search visits every schedule within
the budget (delay-bounded scheduling, Emmi / Qadeer / Rakamarić, POPL
2011), merging schedules that reach the same global state, and asserts on
every state it reaches:

* **agreement** — no two honest validators decide different blocks;
* **validity** — a decided block is one an honest validator checked valid.

The byzantine validator runs the honest machine with its sends rewritten
by the *shipped* behaviors (``repro.consensus.byzantine``): equivocating
proposer, double voter, vote withholder.  Its prevote's validation window
is modelled too: the vote a ``CheckBlock`` licenses is itself a queue
entry, so it can leave late (or never) relative to the votes around it.

The last test plants the mutation the whole exercise exists to catch:
with the prevote-side lock check removed the explorer must find a fork.
"""

import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import repro.consensus.round as round_machine
from repro.consensus.abci import envelope_for
from repro.consensus.byzantine import make_behavior, sibling_block
from repro.consensus.round import (
    GENESIS_ID,
    ArmTimeout,
    BlockChecked,
    CheckBlock,
    Commit,
    Decided,
    GetValue,
    ProposalReceived,
    ProposeDue,
    RoundState,
    Send,
    TimeoutFired,
    VoteReceived,
    step,
)
from repro.consensus.types import Block

ORDER = ("n0", "n1", "n2", "n3")
LAST_ROUND = 1  # rounds 0 and 1: a timer armed at round 1 never fires
TXS = [
    envelope_for({"tag": tag}, hashlib.sha3_256(tag.encode()).hexdigest(), 100)
    for tag in "abc"
]


def value_of(node: str) -> list:
    """Each validator's mempool holds the same transactions in its own
    order, so proposers of different rounds propose different values."""
    shift = ORDER.index(node) % len(TXS)
    return TXS[shift:] + TXS[:shift]


class Fork(AssertionError):
    pass


class World:
    """One global state: four round states, the in-flight queue, armed
    timers and decisions.  Transitions copy what they touch."""

    def __init__(self, byzantine: str, kind: str, invalid: frozenset = frozenset()):
        self.states = {node: RoundState(node, ORDER) for node in ORDER}
        #: in flight, oldest first: (identity, item) — identical copies merge.
        self.queue: tuple = ()
        self.timers: dict[str, tuple[int, int] | None] = dict.fromkeys(ORDER)
        self.decided: dict[str, str] = {}
        self.checked_valid: set[str] = set()
        self.byzantine = byzantine
        self.behavior = make_behavior(kind)
        self.invalid = invalid
        self.touched = set(ORDER)  # nodes whose state identity is stale
        self.state_keys: dict[str, tuple] = {}
        for node in ORDER:  # the driver's kick: new work in every mempool
            self.run(node, [ArmTimeout(), *step(self.states[node], ProposeDue())])

    def clone(self) -> "World":
        other = object.__new__(World)
        other.__dict__.update(self.__dict__)
        other.states = dict(self.states)
        other.timers = dict(self.timers)
        other.decided = dict(self.decided)
        other.checked_valid = set(self.checked_valid)
        other.touched = set()
        return other

    def touch(self, node: str) -> RoundState:
        """A private copy of ``node``'s state for this transition."""
        self.touched.add(node)
        state = self.states[node]
        state = self.states[node] = replace(
            state,
            proposals={key: dict(slot) for key, slot in state.proposals.items()},
            votes={key: dict(slot) for key, slot in state.votes.items()},
            acted=set(state.acted),
        )
        return state

    # -- the driver ------------------------------------------------------------

    def run(self, node: str, actions: list) -> None:
        state = self.states[node]
        for action in actions:
            if isinstance(action, Send):
                self.send(node, action)
            elif isinstance(action, GetValue):
                if state.h == 1:
                    self.run(node, step(state, ProposeDue(value_of(node))))
            elif isinstance(action, CheckBlock):
                block = action.block
                extends = block.previous_id == state.last_block_id
                valid = extends and block.block_id not in self.invalid
                if valid and node != self.byzantine:
                    self.checked_valid.add(block.block_id)
                [prevote] = step(state, BlockChecked(block, valid))
                self.enqueue(("act", node, prevote))
            elif isinstance(action, ArmTimeout):
                if self.timers[node] is None and node not in self.decided:
                    self.timers[node] = (state.h, state.round)
            elif isinstance(action, Commit):
                self.decide(node, action.block)
            # JournalLock, RequestCatchup, Evidence: nothing to explore.

    def send(self, node: str, send: Send) -> None:
        sends = [send]
        if node == self.byzantine:
            sends = self.behavior.outbound(self.states[node], send)
        for to, kind, payload in sends:
            for peer in [to] if to is not None else [p for p in ORDER if p != node]:
                self.enqueue(("msg", peer, kind, payload, node))
        received = VoteReceived if send.kind == "VOTE" else ProposalReceived
        self.run(node, step(self.states[node], received(send.payload, node)))

    def enqueue(self, item: tuple) -> None:
        entry = (item_key(item), item)
        if all(entry[0] != queued for queued, _ in self.queue):
            self.queue += (entry,)  # a copy in flight adds nothing a tally would count

    def decide(self, node: str, block) -> None:
        self.decided[node] = block.block_id
        self.timers[node] = None
        step(self.states[node], Decided(block))
        if node == self.byzantine:
            return
        honest = {bid for who, bid in self.decided.items() if who != self.byzantine}
        if len(honest) > 1:
            raise Fork(f"honest validators decided {sorted(bid[:8] for bid in honest)}")
        assert block.block_id in self.checked_valid, "decided a block nobody found valid"

    # -- moves -----------------------------------------------------------------

    def deliver(self, item: tuple) -> None:
        if item[0] == "act":
            self.touch(item[1])
            self.run(item[1], [item[2]])
            return
        _, to, kind, payload, sender = item
        received = VoteReceived if kind == "VOTE" else ProposalReceived
        self.run(to, step(self.touch(to), received(payload, sender)))

    def fire(self, node: str) -> None:
        height, round_number = self.timers[node]
        self.timers[node] = None
        fired = TimeoutFired(height, round_number, node not in self.decided)
        self.run(node, step(self.touch(node), fired))

    def ripe_timers(self) -> list[str]:
        return [
            node
            for node in ORDER
            if self.timers[node] is not None and self.timers[node][1] < LAST_ROUND
        ]

    def moves(self, disturbances: tuple) -> list[tuple[int, str, object]]:
        """(cost, name, argument) of every move allowed here; the first
        one is the undisturbed scheduler's."""
        if not self.queue:
            return [(0, "fire", node) for node in self.ripe_timers()[:1]]
        moves = [(0, "deliver", None)]
        if "drop" in disturbances:
            moves.append((1, "drop", None))
        if "delay" in disturbances and len(self.queue) > 1:
            moves.append((1, "delay", None))
        if "fire" in disturbances:
            moves += [(1, "fire", node) for node in self.ripe_timers()]
        return moves

    def apply(self, name: str, argument) -> "World":
        world = self.clone()
        if name == "fire":
            world.fire(argument)
            return world
        head, world.queue = world.queue[0], world.queue[1:]
        if name == "deliver":
            world.deliver(head[1])
        elif name == "delay":
            world.queue += (head,)
        return world

    # -- identity --------------------------------------------------------------

    def key(self) -> tuple:
        if self.touched:
            fresh = {node: state_key(self.states[node]) for node in ORDER if node in self.touched}
            self.state_keys = {**self.state_keys, **fresh}
            self.touched = set()
        return (
            tuple(self.state_keys.values()),
            tuple(identity for identity, _ in self.queue),
            tuple(self.timers.values()),
            tuple(sorted(self.decided.items())),
        )


def payload_key(payload) -> tuple:
    if hasattr(payload, "voter"):
        return (payload.phase, payload.round, payload.block_id, payload.voter)
    return (payload.round, payload.block_id)


def item_key(item: tuple) -> tuple:
    if item[0] == "act":
        return ("act", item[1], payload_key(item[2].payload))
    return (item[1], item[2], payload_key(item[3]), item[4])


def state_key(state: RoundState) -> tuple:
    return (
        state.h,
        state.round,
        state.locked_value and state.locked_value.block_id,
        state.locked_round,
        tuple(sorted((key, tuple(sorted(slot))) for key, slot in state.proposals.items())),
        tuple(
            sorted(
                (key, tuple(sorted((voter, vote.block_id) for voter, vote in slot.items())))
                for key, slot in state.votes.items()
            )
        ),
        tuple(sorted(state.acted)),
    )


EVERY = ("drop", "delay", "fire")


def explore(
    byzantine: str,
    kind: str,
    budget: int,
    disturbances: tuple = EVERY,
    invalid: frozenset = frozenset(),
) -> dict:
    """Visit every state reachable within ``budget`` disturbances.
    Agreement and validity are asserted as each decision is made, so
    returning at all means they held everywhere.  Raises :class:`Fork`
    with the offending schedule otherwise."""
    root = World(byzantine, kind, invalid)
    best: dict[tuple, int] = {root.key(): budget}
    stack = [(root, budget, ())]
    decisions = 0
    while stack:
        world, left, path = stack.pop()
        for cost, name, argument in world.moves(disturbances):
            if cost > left:
                continue
            try:
                after = world.apply(name, argument)
            except Fork as fork:
                raise Fork(f"{fork} after {[*path, (name, argument)]}") from None
            key = after.key()
            if best.get(key, -1) >= left - cost:
                continue
            best[key] = left - cost
            decisions += len(after.decided) > len(world.decided)
            stack.append((after, left - cost, (*path, (name, argument))))
    return {"states": len(best), "decisions": decisions}


LOSSY = ("drop",)
SCENARIOS = [
    # (byzantine node, behavior, disturbance budget, disturbances allowed)
    ("n1", "equivocate", 2, EVERY),  # the round-0 proposer lies
    ("n2", "equivocate", 2, EVERY),  # the round-1 proposer lies
    ("n3", "double_vote", 2, EVERY),
    ("n3", "withhold", 2, EVERY),
    ("n3", "double_vote", 3, LOSSY),  # one unit deeper on a lossy-only network
]


class TestExplorer:
    @pytest.mark.parametrize(
        "byzantine,kind,budget,disturbances",
        SCENARIOS,
        ids=[f"{who}-{kind}-{budget}-{'+'.join(moves)}" for who, kind, budget, moves in SCENARIOS],
    )
    def test_agreement_and_validity_hold_in_every_reachable_state(
        self, byzantine, kind, budget, disturbances
    ):
        report = explore(byzantine, kind, budget, disturbances)
        print(f"explorer {byzantine}/{kind}/{budget}/{'+'.join(disturbances)}: {report}")
        assert report["states"] > 10_000, "the search barely left the happy path"
        assert report["decisions"] > 0, "nobody ever decided: nothing was checked"

    def test_an_invalid_sibling_is_never_decided(self):
        """Validity with teeth: the equivocator's second block fails
        ``valid(v)`` on every honest validator."""
        honest_value = Block.build(1, 0, "n1", value_of("n1"), GENESIS_ID)
        invalid = frozenset({sibling_block(honest_value).block_id})
        assert explore("n1", "equivocate", 2, invalid=invalid)["decisions"] > 0

    def test_without_the_prevote_lock_check_the_explorer_finds_the_fork(self, monkeypatch):
        """Planted mutation, on a configuration that is safe above: a
        locked validator that prevotes a rival value lets two rounds each
        assemble a quorum.  Three lost messages are enough."""
        monkeypatch.setattr(round_machine, "_locked_out", lambda state, block: False)
        with pytest.raises(Fork, match="honest validators decided"):
            explore("n3", "double_vote", 3, LOSSY)


class TestPurity:
    def test_round_machine_imports_only_the_stdlib_and_consensus_types(self):
        source = Path(round_machine.__file__).read_text()
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert imported == {"__future__", "collections", "dataclasses", "repro.consensus.types"}
