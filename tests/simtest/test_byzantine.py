"""The byzantine fault family end-to-end (ISSUE 6).

Three layers of coverage:

* **planning** — byzantine marks respect the ⌊(n−1)/3⌋ cap, pair with
  heals, share the one-disruption-per-shard budget, and vanish entirely
  at ``byzantine_rate=0`` (pre-byzantine plans replay byte-for-byte);
* **detection** — each new invariant (``honest_no_divergence``,
  ``no_forged_admission``, ``equivocation_contained``) demonstrably
  fires on the corruption it exists for;
* **mutation proofs** — with a protection patched out (the lock rule,
  the per-validator vote dedupe, signature verification) the same
  byzantine pressure that a healthy cluster shrugs off turns the run
  red, deterministically.  The consensus-level proofs drive crafted
  vote floods that only the *mutated* protocol's honest nodes could
  emit, and the identical script stays green with the protection
  intact — falsifiability in both directions.
"""

import pytest

import repro.crypto.conditions as conditions_module
from repro.common.encoding import canonical_bytes
from repro.consensus.abci import envelope_for
import repro.consensus.round as round_machine
from repro.consensus.bft import GENESIS_ID
from repro.consensus.byzantine import sibling_block
from repro.consensus.types import PRECOMMIT, PREVOTE, Block, Vote
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.crypto.sigcache import SignatureCache, set_shared_cache
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sim.rng import SeededRng
from repro.simtest import SimHarness, SimtestConfig
from repro.simtest.invariants import (
    applied_transactions,
    equivocation_contained,
    honest_no_divergence,
    no_forged_admission,
)
from repro.simtest.plane import SINGLE_SHARD, FaultPlane
from repro.simtest.schedule import BYZANTINE_KINDS, ScheduleGenerator

#: The byzantine-heavy harness mix the mutation proofs and green runs use.
_BYZANTINE = dict(steps=80, byzantine_rate=0.25, adversarial_rate=0.25, fault_rate=0.05)


def _sharded_plane() -> FaultPlane:
    return FaultPlane(ShardedCluster(ShardedClusterConfig(n_shards=2, seed=9)))


class TestSchedulePlanning:
    def test_byzantine_kinds_appear_and_pair_with_heals(self):
        plane = _sharded_plane()
        schedule = ScheduleGenerator(
            SeededRng(9), plane, 0.05, byzantine_rate=0.5
        ).generate(400)
        marks = [a for a in schedule.actions if a.kind in BYZANTINE_KINDS]
        heals = [a for a in schedule.actions if a.kind == "byz_heal"]
        assert marks, "a byzantine-heavy plan must mark someone"
        assert len(marks) == len(heals)
        for mark in marks:
            assert any(
                heal.step > mark.step
                and heal.shard == mark.shard
                and heal.node == mark.node
                for heal in heals
            ), f"{mark.kind} at step {mark.step} never healed"

    def test_concurrent_marks_never_exceed_the_cap(self):
        plane = _sharded_plane()
        cap = plane.byzantine_cap("shard-0")
        assert cap == (4 - 1) // 3 == 1
        schedule = ScheduleGenerator(
            SeededRng(11), plane, 0.05, byzantine_rate=0.6
        ).generate(400)
        open_marks: dict[str, set[str]] = {}
        for action in sorted(schedule.actions, key=lambda a: a.step):
            if action.kind in BYZANTINE_KINDS:
                shard = open_marks.setdefault(action.shard, set())
                shard.add(action.node)
                assert len(shard) <= cap, f"step {action.step} over-corrupts"
            elif action.kind == "byz_heal":
                open_marks.get(action.shard, set()).discard(action.node)

    def test_byzantine_windows_share_the_disruption_budget(self):
        """A shard under a byzantine mark takes no concurrent crash or
        partition — the f<n/3 argument needs the other n−1 validators."""
        plane = _sharded_plane()
        schedule = ScheduleGenerator(
            SeededRng(13), plane, 0.4, byzantine_rate=0.4
        ).generate(400)
        disrupting = set(BYZANTINE_KINDS) | {"crash_node", "partition"}
        repairing = {"byz_heal", "recover_node", "heal"}
        open_disruption: dict[str, str] = {}
        for action in sorted(schedule.actions, key=lambda a: a.step):
            if action.kind in disrupting:
                assert action.shard not in open_disruption, (
                    f"{action.kind} stacks on {open_disruption[action.shard]}"
                )
                open_disruption[action.shard] = action.kind
            elif action.kind in repairing:
                open_disruption.pop(action.shard, None)

    def test_rate_zero_reproduces_pre_byzantine_plans(self):
        baseline = ScheduleGenerator(SeededRng(9), _sharded_plane(), 0.25).generate(300)
        explicit = ScheduleGenerator(
            SeededRng(9), _sharded_plane(), 0.25, byzantine_rate=0.0
        ).generate(300)
        assert baseline.to_json() == explicit.to_json()
        assert not any(
            a.kind in BYZANTINE_KINDS or a.kind == "byz_heal" for a in baseline.actions
        )


class TestPlaneControls:
    def test_cap_is_enforced_at_the_plane(self):
        plane = _sharded_plane()
        nodes = plane.nodes("shard-0")
        plane.mark_byzantine("shard-0", nodes[0], "withhold")
        with pytest.raises(ValueError):
            plane.mark_byzantine("shard-0", nodes[1], "equivocate")
        plane.heal_byzantine("shard-0", nodes[0])
        plane.mark_byzantine("shard-0", nodes[1], "equivocate")
        assert plane.byzantine_nodes("shard-0") == [nodes[1]]
        assert plane.byzantine_kind("shard-0", nodes[1]) == "equivocate"

    def test_heal_clears_the_behavior_and_quiesce_heals_everyone(self):
        plane = _sharded_plane()
        node = plane.nodes("shard-1")[2]
        plane.mark_byzantine("shard-1", node, "stale")
        assert plane.shard_cluster("shard-1").engine.validator(node).byzantine is not None
        plane.quiesce()
        assert plane.byzantine_nodes("shard-1") == []
        assert plane.shard_cluster("shard-1").engine.validator(node).byzantine is None


class TestInvariantDetectors:
    def test_no_forged_admission_fires_on_an_applied_forgery(self):
        plane = FaultPlane(SmartchainCluster(ClusterConfig(seed=5)))
        cluster = plane.cluster
        payload = cluster.driver.prepare_create(
            keypair_from_string("forger"), {"capabilities": ["x"]}
        ).to_dict()
        cluster.submit_payload(payload)
        cluster.run()
        assert payload["id"] in applied_transactions(plane)
        assert no_forged_admission(plane) == []
        # Pretend that applied transaction had been a forgery: the
        # invariant must name it the moment the two sets intersect.
        plane.forged_tx_ids.add(payload["id"])
        violations = no_forged_admission(plane)
        assert violations and payload["id"][:8] in violations[0]

    def test_equivocation_contained_fires_on_a_rollback(self):
        plane = FaultPlane(SmartchainCluster(ClusterConfig(seed=5)))
        cluster = plane.cluster
        payload = cluster.driver.prepare_create(
            keypair_from_string("roller"), {"capabilities": ["x"]}
        ).to_dict()
        cluster.submit_payload(payload)
        cluster.run()
        assert equivocation_contained(plane) == []  # baselines the watch
        victim = plane.nodes(SINGLE_SHARD)[0]
        chain = cluster.engine.validator(victim).chain
        assert chain, "nothing committed to roll back"
        chain.pop()
        violations = equivocation_contained(plane)
        assert violations and victim in violations[0]

    def test_honest_no_divergence_flags_an_over_corrupted_shard(self):
        plane = FaultPlane(SmartchainCluster(ClusterConfig(seed=5)))
        nodes = plane.nodes(SINGLE_SHARD)
        # Bypass the plane's cap to model a broken schedule: the invariant
        # must refuse to bless a vacuous safety claim.
        plane._byzantine[SINGLE_SHARD] = {nodes[0]: "withhold", nodes[1]: "stale"}
        violations = honest_no_divergence(plane)
        assert violations and "exceed" in violations[0]


def _crafted_cluster():
    """A 4-validator cluster with every node network-isolated, so the
    test injects every inter-node message by hand — crafted vote floods
    with no accidental gossip."""
    plane = FaultPlane(SmartchainCluster(ClusterConfig(n_validators=4, seed=21)))
    cluster = plane.cluster
    order = cluster.engine.validator_order
    cluster.network.partition([{node} for node in order])
    owner = keypair_from_string("crafted-owner")
    envelopes = []
    for index in range(2):
        payload = cluster.driver.prepare_create(
            owner, {"capabilities": [f"crafted-{index}"]}
        ).to_dict()
        envelopes.append(
            envelope_for(payload, payload["id"], len(canonical_bytes(payload)))
        )
    return plane, cluster, order, envelopes


def _run(cluster, dt=0.2):
    cluster.loop.run(until=cluster.loop.clock.now + dt)


class TestPerValidatorDedupeMutation:
    """Patch the per-validator tally down to per-*message* counting and a
    single double-voting proposer assembles quorums alone — the honest
    halves commit different siblings and ``honest_no_divergence`` goes
    red.  The identical flood is counted once per validator by the real
    tally and the run stays green."""

    def _drive(self, mutated: bool):
        plane, cluster, order, envelopes = _crafted_cluster()
        liar, h1, h2 = order[1], order[0], order[2]
        plane.mark_byzantine(SINGLE_SHARD, liar, "equivocate")
        block = Block.build(1, 0, liar, envelopes, GENESIS_ID)
        sibling = sibling_block(block)
        validators = {node: cluster.engine.validator(node) for node in order}
        # Disjoint disclosure: h1 sees one sibling, h2 the other.
        validators[h1]._handle_proposal(block, liar)
        validators[h2]._handle_proposal(sibling, liar)
        _run(cluster)  # local prevotes tally
        copies = 3 if mutated else 1
        for node, value in ((h1, block), (h2, sibling)):
            for _ in range(max(copies, 3)):
                validators[node]._handle_vote(
                    Vote(PREVOTE, 1, 0, value.block_id, liar), liar
                )
            _run(cluster)
            for _ in range(max(copies, 3)):
                validators[node]._handle_vote(
                    Vote(PRECOMMIT, 1, 0, value.block_id, liar), liar
                )
            _run(cluster)
        return plane, validators, h1, h2, block, sibling

    def test_per_message_tally_forks_and_the_invariant_fires(self, monkeypatch):
        def per_message(state, vote, actions):
            slot = state.votes.setdefault((vote.phase, vote.round), {})
            slot[(vote.voter, len(slot))] = vote
            return sum(1 for counted in slot.values() if counted.block_id == vote.block_id)

        monkeypatch.setattr(round_machine, "_tally", per_message)
        plane, validators, h1, h2, block, sibling = self._drive(mutated=True)
        assert [b.block_id for b in validators[h1].chain] == [block.block_id]
        assert [b.block_id for b in validators[h2].chain] == [sibling.block_id]
        violations = honest_no_divergence(plane)
        assert violations, "the fork must be detected"
        assert "diverge at height 1" in violations[0]

    def test_real_tally_shrugs_off_the_same_flood(self):
        plane, validators, h1, h2, _, _ = self._drive(mutated=False)
        assert validators[h1].chain == []
        assert validators[h2].chain == []
        assert honest_no_divergence(plane) == []


class TestLockRuleMutation:
    """Remove the lock rule (precommit any polka, adopt no lock) and the
    seed-606 height-fork race reopens: a node that already helped commit
    one value at a height freely prevotes and precommits a different
    value in a later round.  With the rule intact, the identical message
    sequence earns a NIL prevote and the rival quorum never closes."""

    def _drive(self):
        plane, cluster, order, envelopes = _crafted_cluster()
        h1, liar, h2, h3 = order  # liar is due for (1, 0); h3 due for (1, 2)
        plane.mark_byzantine(SINGLE_SHARD, liar, "equivocate")
        validators = {node: cluster.engine.validator(node) for node in order}
        block = Block.build(1, 0, liar, envelopes, GENESIS_ID)
        sibling = sibling_block(block)

        # Round 0: h1 and h2 see sibling A, prevote it, and receive
        # enough honest+byzantine votes for a polka.
        for node in (h1, h2):
            validators[node]._handle_proposal(block, liar)
        _run(cluster)
        for node, peer in ((h1, h2), (h2, h1)):
            for voter in (peer, liar):
                validators[node]._handle_vote(
                    Vote(PREVOTE, 1, 0, block.block_id, voter), voter
                )
        _run(cluster)
        # h1 alone also receives the precommit quorum and commits A.
        for voter in (h2, liar):
            validators[h1]._handle_vote(
                Vote(PRECOMMIT, 1, 0, block.block_id, voter), voter
            )
        _run(cluster)

        # Round 2: h3 (due proposer, saw only sibling B, never committed)
        # re-proposes B's value; h2 receives it plus a prevote/precommit
        # quorum.  Lockless, h2 prevotes B and commits it — locked, h2
        # prevotes NIL and the quorum dies at 2 of 3.
        nil_prevotes = []
        original = validators[h2]._wire

        def spy(send):
            if send.kind == "VOTE" and send.payload.phase == PREVOTE:
                nil_prevotes.append(send.payload.block_id)
            original(send)

        validators[h2]._wire = spy
        reproposal = Block.build(1, 2, h3, list(sibling.transactions), GENESIS_ID)
        assert reproposal.block_id == sibling.block_id  # value identity
        validators[h2]._handle_proposal(reproposal, h3)
        _run(cluster)
        for voter in (h3, liar):
            validators[h2]._handle_vote(
                Vote(PREVOTE, 1, 2, sibling.block_id, voter), voter
            )
        _run(cluster)
        for voter in (h3, liar):
            validators[h2]._handle_vote(
                Vote(PRECOMMIT, 1, 2, sibling.block_id, voter), voter
            )
        _run(cluster)
        return plane, validators, h1, h2, block, sibling, nil_prevotes

    def test_lockless_quorum_forks_and_the_invariant_fires(self, monkeypatch):
        def lockless(state, vote, actions):
            if (PRECOMMIT, vote.round) not in state.acted:
                state.acted.add((PRECOMMIT, vote.round))
                precommit = Vote(PRECOMMIT, vote.height, vote.round, vote.block_id, state.me)
                actions.append(round_machine.Send(None, "VOTE", precommit))

        monkeypatch.setattr(round_machine, "_on_polka", lockless)
        plane, validators, h1, h2, block, sibling, prevotes = self._drive()
        assert [b.block_id for b in validators[h1].chain] == [block.block_id]
        assert [b.block_id for b in validators[h2].chain] == [sibling.block_id]
        assert sibling.block_id in prevotes, "lockless node helps the rival"
        violations = honest_no_divergence(plane)
        assert violations and "diverge at height 1" in violations[0]

    def test_locked_node_prevotes_nil_and_no_fork_forms(self):
        from repro.consensus.types import NIL

        plane, validators, h1, h2, block, sibling, prevotes = self._drive()
        assert [b.block_id for b in validators[h1].chain] == [block.block_id]
        assert validators[h2].chain == [], "the lock rule starves the rival quorum"
        assert NIL in prevotes, "locked node must prevote NIL against the rival"
        assert honest_no_divergence(plane) == []


class TestSignatureMutation:
    """Disable signature verification (the single-verify path every
    condition check uses) and the adversarial workload's forged spends
    sail through semantic validation into committed blocks —
    ``no_forged_admission`` goes red on every probed seed."""

    @pytest.fixture()
    def signatures_disabled(self, monkeypatch):
        monkeypatch.setattr(
            conditions_module, "verify_signature", lambda *args, **kwargs: True
        )
        # The shared verdict cache must not leak forged-True entries into
        # other tests (nor serve honest verdicts that mask the mutation).
        previous = set_shared_cache(SignatureCache())
        yield
        set_shared_cache(previous)

    def test_forged_spend_commits_and_the_invariant_fires(self, signatures_disabled):
        report = SimHarness(SimtestConfig(seed=5, **_BYZANTINE)).run()
        assert not report.ok
        assert report.violations[0].invariant == "no_forged_admission"
        assert "forged-signature tx" in report.violations[0].detail

    def test_other_seeds_catch_it_too(self, signatures_disabled):
        report = SimHarness(SimtestConfig(seed=7, **_BYZANTINE)).run()
        assert not report.ok
        assert report.violations[0].invariant == "no_forged_admission"


class TestByzantineHarnessRuns:
    def test_byzantine_run_is_green_and_deterministic(self):
        first = SimHarness(SimtestConfig(seed=11, **_BYZANTINE)).run()
        second = SimHarness(SimtestConfig(seed=11, **_BYZANTINE)).run()
        assert first.ok, [v.describe() for v in first.violations[:3]]
        assert first.step_log == second.step_log
        assert first.schedule.to_json() == second.schedule.to_json()
        assert first.stats["workload"] == second.stats["workload"]
        # The run actually exercised the new machinery.
        assert first.stats["workload"]["forged"] > 0
        assert first.stats["workload"]["forged_admitted"] == 0

    def test_seed7_lock_release_race_stays_green(self):
        """Regression: this exact configuration caught delivery reading
        the live 2PC lock table — shard-2 replicas disagreed on a
        block's valid transactions when an aborted cross-shard lock was
        released mid-delivery (and, once delivery went lock-blind, an
        injected replay could double-spend a tombstoned output).  Both
        closures — guard-free DeliverTx, lock-aware CheckTx, rival-aware
        prepare — must hold under the full byzantine + adversarial mix."""
        report = SimHarness(
            SimtestConfig(
                seed=7, steps=150,
                byzantine_rate=0.25, adversarial_rate=0.25, fault_rate=0.05,
            )
        ).run()
        assert report.ok, [v.describe() for v in report.violations[:3]]

    def test_replay_command_carries_the_byzantine_knobs(self):
        config = SimtestConfig(seed=5, **_BYZANTINE)
        report = SimHarness(config).run()
        assert report.ok
        from repro.simtest.harness import ReproBundle

        bundle = ReproBundle(
            seed=5,
            failed_step=0,
            sim_time=0.0,
            invariant="x",
            detail="x",
            config=config.to_dict(),
            schedule_json=report.schedule.to_json(),
        )
        command = bundle.replay_command()
        assert "--byzantine-rate 0.25" in command
        assert "--adversarial-rate 0.25" in command
