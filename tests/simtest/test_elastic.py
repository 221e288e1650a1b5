"""The elastic-resharding chaos family: plans, traps, and falsifiability.

Three contracts: (1) ``elastic_rate=0`` replays pre-elastic plans
byte-for-byte; (2) every elastic schedule carries at least one
migration *and* one migrate trap, so no nightly run silently skips the
crash matrix; (3) a seeded lost-key bug is caught by the registry with
a bundle that replays to the identical failure.
"""

import pytest

from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.migration import (
    MIGRATE_TRAP_PHASES,
    MIGRATE_TRAP_ROLES,
    ReshardController,
)
from repro.sim.rng import SeededRng
from repro.simtest import SimHarness, SimtestConfig
from repro.simtest.plane import FaultPlane
from repro.simtest.schedule import Schedule, ScheduleGenerator

_ELASTIC = dict(steps=80, fault_rate=0.05, elastic_rate=0.12, cross_rate=0.3)


def _durable_plane(n_shards: int = 2) -> FaultPlane:
    return FaultPlane(
        ShardedCluster(
            ShardedClusterConfig(
                n_shards=n_shards,
                seed=9,
                durability=DurabilityConfig(snapshot_interval=6),
            )
        )
    )


def _generate(
    seed: int = 9, steps: int = 200, elastic_rate: float = 0.1, **kwargs
) -> Schedule:
    plane = _durable_plane()
    return ScheduleGenerator(
        SeededRng(seed), plane, fault_rate=0.1, elastic_rate=elastic_rate, **kwargs
    ).generate(steps)


class TestElasticPlans:
    def test_rate_zero_plans_no_elastic_actions(self):
        schedule = _generate(elastic_rate=0.0)
        assert not any(
            a.kind in ("migrate", "migrate_trap") for a in schedule.actions
        )

    def test_rate_zero_is_byte_identical_to_pre_elastic(self):
        plane = _durable_plane()
        with_knob = ScheduleGenerator(
            SeededRng(9), plane, fault_rate=0.1, elastic_rate=0.0
        ).generate(200)
        without = ScheduleGenerator(SeededRng(9), plane, fault_rate=0.1).generate(200)
        assert with_knob.to_json() == without.to_json()

    def test_same_seed_same_elastic_plan(self):
        assert _generate(seed=11).to_json() == _generate(seed=11).to_json()

    def test_every_elastic_plan_carries_a_migrate_trap(self):
        for seed in range(20):
            schedule = _generate(seed=seed, steps=60, elastic_rate=0.02)
            traps = [a for a in schedule.actions if a.kind == "migrate_trap"]
            assert traps, f"seed {seed} planned no migrate_trap"
            migrations = [a for a in schedule.actions if a.kind == "migrate"]
            assert migrations, f"seed {seed} planned no migration"

    def test_trap_args_are_valid_phase_role_pairs(self):
        for seed in range(10):
            for action in _generate(seed=seed).actions:
                if action.kind != "migrate_trap":
                    continue
                phase, _, role = str(action.arg).partition(":")
                assert phase in MIGRATE_TRAP_PHASES, action.arg
                assert role in MIGRATE_TRAP_ROLES, action.arg

    def test_migrations_name_two_distinct_live_shards(self):
        plane = _durable_plane()
        for action in _generate(seed=13).actions:
            if action.kind == "migrate":
                assert action.shard in plane.shard_ids
                assert action.arg in plane.shard_ids
                assert action.shard != action.arg

    def test_one_trap_at_a_time(self):
        """migrate traps share the single-trap budget with phase and
        restart traps: armed windows never overlap."""
        schedule = _generate(seed=17, steps=400, elastic_rate=0.05)
        armed = False
        for action in sorted(schedule.actions, key=lambda a: a.step):
            if action.kind in ("phase_trap", "restart_trap", "migrate_trap"):
                assert not armed, f"trap stacked at step {action.step}"
                armed = True
            elif action.kind == "trap_clear":
                armed = False

    def test_single_cluster_plans_skip_elastic(self):
        from repro.core.cluster import ClusterConfig, SmartchainCluster

        plane = FaultPlane(SmartchainCluster(ClusterConfig(seed=9)))
        schedule = ScheduleGenerator(
            SeededRng(9), plane, fault_rate=0.1, elastic_rate=0.5
        ).generate(100)
        assert not any(
            a.kind in ("migrate", "migrate_trap") for a in schedule.actions
        )


class TestElasticHarness:
    def test_elastic_run_is_green_and_resharded(self):
        report = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        assert report.ok, report.violations
        assert report.stats["reshard"]["started"] >= 1

    def test_elastic_run_is_deterministic(self):
        first = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        again = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        assert first.stats["reshard"] == again.stats["reshard"]
        assert first.ok == again.ok


class TestLostKeyMutation:
    @pytest.fixture()
    def dropped_imports(self, monkeypatch):
        """Break the cutover's target half: the controller takes every
        import as landed without ever submitting one, so the export lets
        the outputs go on the source chain, the migration completes, and
        the target never mints them — a lost key.  Both chains stay
        self-consistent (each replica is still the replay of its chain),
        so the per-step replica checks stay blind and only the
        journal-driven ``no_key_lost`` sweep can see the hole."""
        landed = ReshardController._landed
        monkeypatch.setattr(
            ReshardController,
            "_landed",
            staticmethod(
                lambda cluster, entry: (
                    True
                    if entry["operation"] == "SHARD_IMPORT"
                    else landed(cluster, entry)
                )
            ),
        )

    def test_checker_catches_the_lost_key(self, dropped_imports):
        report = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        assert not report.ok
        assert any(v.invariant == "no_key_lost" for v in report.violations), [
            (v.invariant, v.detail) for v in report.violations
        ]

    def test_failure_ships_a_replayable_bundle(self, dropped_imports):
        first = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        again = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        assert first.bundle is not None
        assert (first.bundle.invariant, first.bundle.failed_step, first.bundle.detail) == (
            again.bundle.invariant,
            again.bundle.failed_step,
            again.bundle.detail,
        )
        assert "--elastic-rate" in first.bundle.to_json()
