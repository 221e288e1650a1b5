"""mv_consistency invariant + the byz_poison schedule kind.

Short runs only — the 25-seed × 300-step sweeps live in CI's chaos job.
"""

from repro.simtest import SimHarness, SimtestConfig
from repro.analytics.fraud import Finding
from repro.simtest.invariants import DEFAULT_INVARIANTS, custody_memo, mv_consistency
from repro.simtest.schedule import (
    BYZANTINE_BEHAVIORS,
    BYZANTINE_KINDS,
    ScheduleGenerator,
)
from repro.simtest.plane import FaultPlane
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.sim.rng import SeededRng
from repro.views import ViewManager

from tests.analytics.test_golden_parity import durable_cluster, rejected_in_block_spend


def _run(seed=7, steps=50, **kwargs):
    harness = SimHarness(SimtestConfig(seed=seed, steps=steps, **kwargs))
    return harness, harness.run()


class TestRegistration:
    def test_mv_consistency_is_a_quiesce_invariant(self):
        registered = {inv.name: inv for inv in DEFAULT_INVARIANTS}
        assert registered["mv_consistency"].scope == "quiesce"
        assert not registered["mv_consistency"].sharded_only

    def test_volatile_deployments_skip(self):
        plane = FaultPlane(SmartchainCluster(ClusterConfig(seed=5)))
        assert mv_consistency(plane) == []


class TestHarnessRuns:
    def test_mv_consistency_holds_through_a_faulty_run(self):
        harness, report = _run(seed=9, steps=60, fault_rate=0.2)
        assert report.ok
        assert harness.checker.checks_run.get("mv_consistency", 0) >= 1

    def test_mv_consistency_holds_single_cluster(self):
        harness, report = _run(seed=10, steps=40, single=True, fault_rate=0.2)
        assert report.ok
        assert harness.checker.checks_run.get("mv_consistency", 0) >= 1

    def test_detects_a_dropped_view_update(self):
        """Mutation: silently skip one applied block's view update — the
        quiesce check must flag the drift (otherwise it tests nothing)."""
        harness = SimHarness(SimtestConfig(seed=9, steps=30))
        plane = harness.plane
        report = harness.run()
        assert report.ok
        views = plane.cluster.views
        shard, height = next(iter(views.heights().items()))
        # Corrupt: pretend one more block was applied with no content.
        views._heights[shard] = height + 1
        assert any("drifted" in v for v in mv_consistency(plane))

    def test_detects_a_stale_custody_memo(self):
        """Mutation: a kept finding no walk would produce — both the
        per-step self-check and the quiesce rebuild must flag it."""
        harness = SimHarness(SimtestConfig(seed=9, steps=30))
        plane = harness.plane
        assert harness.run().ok
        assert custody_memo(plane) == [] == mv_consistency(plane)
        memo = plane.cluster.views.flip_memo(3)
        memo.ordered = memo.ordered + [Finding("ownership-loop", "x", "planted", ("ghost",))]
        assert any("rapid_flips drifted" in v for v in custody_memo(plane))
        assert any("rapid_flips drifted" in v for v in mv_consistency(plane))


class TestRejectedInBlockSpend:
    """The defect the byzantine sweep kept finding (seeds 7231 / 7262 /
    7324): a view that applies every envelope a block *contained*."""

    def test_views_fed_only_what_was_delivered_match_the_oracle(self):
        cluster = durable_cluster(seed=61)
        rejected_in_block_spend(cluster)
        assert mv_consistency(FaultPlane(cluster)) == []

    def test_applying_every_envelope_is_caught(self, monkeypatch):
        """Planted mutation: ignore the delivered ids.  The oracle reads
        the ``blocks`` / ``transactions`` collections, not the journal
        records the feed consumes, so it does not share the mistake."""
        apply = ViewManager._apply

        def apply_every_envelope(self, shard, record, delivered):
            apply(self, shard, record, None)

        monkeypatch.setattr(ViewManager, "_apply", apply_every_envelope)
        cluster = durable_cluster(seed=61)
        rejected_in_block_spend(cluster)
        drifted = mv_consistency(FaultPlane(cluster))
        assert any("'spenders' drifted" in violation for violation in drifted), drifted


class TestPoisonScheduling:
    def test_byz_poison_is_in_the_vocabulary(self):
        assert "byz_poison" in BYZANTINE_KINDS
        assert BYZANTINE_BEHAVIORS["byz_poison"] == "poison"

    def test_byzantine_heavy_plans_schedule_poisoners(self):
        harness = SimHarness(SimtestConfig(seed=11, steps=200))
        generator = ScheduleGenerator(
            SeededRng(11), harness.plane, 0.12, byzantine_rate=0.6
        )
        schedule = generator.generate(200)
        kinds = {action.kind for action in schedule.actions}
        assert "byz_poison" in kinds

    def test_poisoned_run_stays_green(self):
        _, report = _run(seed=12, steps=80, byzantine_rate=0.5)
        assert report.ok
