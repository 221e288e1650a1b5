"""Chaos-harness crash-restart family: seeded sweeps over real durability.

The ISSUE-5 acceptance scenario: nodes and 2PC agents killed at seeded
points — including between 2PC prepare and decision, and with mid-frame
torn writes — and restored purely from their SimDisks must pass every
invariant (the original ten plus ``wal_prefix_durability``), leave a
replayable :class:`ReproBundle` on failure, and log byte-identically
per seed.
"""

from repro.simtest import SimHarness, SimtestConfig
from repro.simtest.harness import ReproBundle
from repro.simtest.schedule import Schedule


def _run(seed: int = 7, steps: int = 60, **kwargs) -> tuple:
    harness = SimHarness(SimtestConfig(seed=seed, steps=steps, **kwargs))
    return harness, harness.run()


class TestScheduleGuarantees:
    def test_every_durable_schedule_includes_a_crash_restart(self):
        for seed in (1, 2, 3, 4, 5, 6, 7, 8):
            harness = SimHarness(SimtestConfig(seed=seed, steps=60))
            kinds = [action.kind for action in harness.schedule.actions]
            assert "crash_restart" in kinds, f"seed {seed} has no crash_restart"
            assert "restart_trap" in kinds, f"seed {seed} has no restart_trap"

    def test_restart_traps_cover_the_prepare_decision_window(self):
        # Across a small seed sweep, at least one plan arms the restart
        # trap on "prepared" — the participant dying between 2PC prepare
        # and decision, restored purely from disk.
        phases = set()
        for seed in range(1, 9):
            harness = SimHarness(SimtestConfig(seed=seed, steps=60))
            phases.update(
                str(action.arg)
                for action in harness.schedule.actions
                if action.kind == "restart_trap"
            )
        assert "prepared" in phases

    def test_volatile_runs_never_schedule_restarts(self):
        harness = SimHarness(SimtestConfig(seed=3, steps=60, durable=False))
        kinds = {action.kind for action in harness.schedule.actions}
        assert "crash_restart" not in kinds
        assert "restart_trap" not in kinds

    def test_schedule_roundtrips_through_json(self):
        harness = SimHarness(SimtestConfig(seed=5, steps=60))
        dumped = harness.schedule.to_json()
        assert Schedule.from_json(dumped).to_json() == dumped


class TestSweep:
    def test_seeded_sweep_passes_all_invariants(self):
        for seed in (11, 12, 13):
            harness, report = _run(seed=seed, steps=70, fault_rate=0.25)
            assert report.ok, report.violations
            ran = [a for a in report.schedule.actions if a.kind == "crash_restart"]
            assert ran, "sweep seed lost its crash_restart guarantee"
            assert harness.checker.checks_run.get("wal_prefix_durability", 0) > 0

    def test_a_validator_behind_idle_peers_catches_up_on_its_timeouts(self):
        """Seed 13 heals shard-0's ``scdb-3`` stuck two heights behind
        three idle peers with one pooled transaction.  Idle peers send
        nothing above its height, so catch-up must come from its own
        round timeouts; without that it spun rounds alone until quiesce
        hit its 2 000 000-event cap."""
        harness, report = _run(seed=13, steps=70, fault_rate=0.25)
        assert report.ok, report.violations
        assert harness.plane.loop.processed < 10_000

    def test_a_loop_that_never_drains_is_a_violation(self, monkeypatch):
        harness = SimHarness(SimtestConfig(seed=7, steps=10))
        monkeypatch.setattr(harness.plane, "quiesce", lambda: False)
        report = harness.run()
        assert [v.invariant for v in report.violations] == ["quiesce_drained"]

    def test_crash_restart_runs_are_byte_identical_per_seed(self):
        _, first = _run(seed=17, steps=60, fault_rate=0.3)
        _, second = _run(seed=17, steps=60, fault_rate=0.3)
        assert first.schedule.to_json() == second.schedule.to_json()
        assert first.step_log == second.step_log
        assert first.invariant_log == second.invariant_log
        assert first.stats == second.stats

    def test_single_cluster_crash_restart(self):
        harness, report = _run(seed=21, steps=60, single=True)
        assert report.ok
        assert any(
            action.kind == "crash_restart" for action in report.schedule.actions
        )


class TestSprungRestartTrap:
    def test_a_sprung_prepared_trap_leaves_invariants_green(self):
        # Hunt a small seed space for a run whose "prepared" restart trap
        # actually springs (needs cross-shard traffic inside the armed
        # window), then hold the full registry over it.
        sprung_seed = None
        for seed in range(1, 30):
            harness = SimHarness(
                SimtestConfig(seed=seed, steps=70, fault_rate=0.2, cross_rate=0.6)
            )
            report = harness.run()
            assert report.ok, (seed, report.violations)
            if any("restart trap sprung" in line for line in report.invariant_log):
                sprung_seed = seed
                break
        assert sprung_seed is not None, (
            "no seed in range sprang a restart trap — widen the hunt"
        )

    def test_repro_bundle_replays_durable_flag(self):
        harness, report = _run(seed=7, steps=40)
        assert report.ok
        bundle = ReproBundle(
            seed=7,
            failed_step=3,
            sim_time=0.5,
            invariant="wal_prefix_durability",
            detail="synthetic",
            config=harness.config.to_dict(),
            schedule_json=harness.schedule.to_json(),
        )
        # Durable is the default: the replay command must not need a flag.
        assert "--volatile" not in bundle.replay_command()
        volatile = dict(harness.config.to_dict(), durable=False)
        bundle_volatile = ReproBundle(
            seed=7, failed_step=3, sim_time=0.5, invariant="x", detail="d",
            config=volatile, schedule_json=harness.schedule.to_json(),
        )
        assert "--volatile" in bundle_volatile.replay_command()
