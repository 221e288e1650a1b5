"""The elastic-resharding chaos family: plans, traps, and falsifiability.

Three contracts: (1) ``elastic_rate=0`` replays pre-elastic plans
byte-for-byte; (2) every elastic schedule carries at least one
migration *and* one migrate trap, so no nightly run silently skips the
crash matrix; (3) a seeded lost-key bug is caught by the registry with
a bundle that replays to the identical failure.
"""

import pytest

from repro.common.encoding import canonical_bytes
from repro.consensus.abci import envelope_for
from repro.core import server
from repro.core.cluster import SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding import migration
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.migration import MIGRATE_TRAP_PHASES, MIGRATE_TRAP_ROLES
from repro.sim.rng import SeededRng
from repro.simtest import SimHarness, SimtestConfig
from repro.simtest.invariants import InvariantChecker, pools_valid
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
        chain-driven ``no_key_lost`` sweep can see the hole."""
        imports: set[str] = set()
        make_import = migration.import_entry

        def recorded_import(*args, **kwargs):
            entry = make_import(*args, **kwargs)
            imports.add(entry["id"])
            return entry

        landed = SmartchainCluster.landed
        monkeypatch.setattr(migration, "import_entry", recorded_import)
        monkeypatch.setattr(
            SmartchainCluster,
            "landed",
            lambda cluster, tx_id: True if tx_id in imports else landed(cluster, tx_id),
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


def _migrated_with(n_shards: int = 2, on_export_landed=None) -> dict[str, list[str]]:
    """Mint on a durable deployment, migrate off shard-0, and return the
    quiesce violations by invariant name.  ``on_export_landed`` runs
    (through the loop) the moment shard-0's chain delivers the export."""
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=n_shards, seed=11, durability=DurabilityConfig(snapshot_interval=6)
        )
    )
    alice = keypair_from_string("alice")
    for index in range(8):
        cluster.submit_payload(
            cluster.driver.prepare_create(alice, {"capabilities": [f"c{index}"]}).to_dict()
        )
    cluster.run()

    def watch(record):
        if on_export_landed is not None and any(
            e.payload.get("operation") == "SHARD_EXPORT" for e in record.delivered
        ):
            cluster.loop.schedule_in(0.0, lambda: on_export_landed(cluster))

    cluster.shards["shard-0"].engine.commit_listeners.append(watch)
    cluster.reshard("shard-0", target="shard-1")
    cluster.run()
    plane = FaultPlane(cluster)
    checker = InvariantChecker(plane)
    plane.quiesce()
    failed: dict[str, list[str]] = {}
    for violation in checker.check_quiesce(step=0):
        failed.setdefault(violation.invariant, []).append(violation.detail)
    return failed


class TestCutoverEntryMutations:
    """The migration invariants read the chains' export and import
    entries; a controller that loses or misplaces one fails them by name."""

    def test_unmutated_migration_is_green(self):
        assert _migrated_with(on_export_landed=lambda c: c.migrator.restart()) == {}

    def test_a_restart_that_drops_a_landed_export_is_caught(self, monkeypatch):
        """The restart's fold skips the chains: the export the source just
        delivered is never imported, and ``migration_terminal`` sees a
        landed export with no import."""
        monkeypatch.setattr(migration.ReshardController, "_exports", lambda self: [])
        failed = _migrated_with(on_export_landed=lambda c: c.migrator.restart())
        assert "migration_terminal" in failed, failed

    def test_an_import_on_a_shard_its_export_did_not_name_is_caught(self, monkeypatch):
        """The controller's export names a third shard while its import
        goes to the migration's target, and replicas take an import
        whatever shard its export names: ``no_key_duplicated`` sees the
        import land where no export sent it."""
        make_export, verify = migration.export_entry, server.verify_entry

        def misnamed(migration_id, source, target, refs, author):
            return make_export(migration_id, source, "shard-2", refs, author)

        def lenient(entry, keyring, authors, check, shard_id):
            if entry["operation"] == "SHARD_IMPORT":
                shard_id = entry["export"]["target"]
            verify(entry, keyring, authors, check, shard_id)

        monkeypatch.setattr(migration, "export_entry", misnamed)
        monkeypatch.setattr(server, "verify_entry", lenient)
        failed = _migrated_with(n_shards=3)
        assert any(
            "landed on shard-1 but its export names shard-2" in detail
            for detail in failed.get("no_key_duplicated", [])
        ), failed


class TestPoolsValid:
    """``pools_valid`` at quiesce: a pooled transaction that an exported
    input made invalid must have left every pool (elastic seed 24 hung
    on one, its proposer re-proposing it every fourth round)."""

    def test_a_pooled_spend_of_an_exported_output_is_named_until_it_leaves(self):
        plane = FaultPlane(ShardedCluster(ShardedClusterConfig(n_shards=2, seed=7)))
        cluster = plane.cluster
        owner = keypair_from_string("pool-owner")
        create = cluster.driver.prepare_create(owner, {"capabilities": ["x"]})
        assert cluster.submit_and_settle(create.to_dict()).committed_at is not None
        source = cluster.router.home_of_tx(create.tx_id)
        target = next(shard for shard in cluster.shard_ids if shard != source)
        export = migration.export_entry(
            "m-0001", source, target, [(create.tx_id, 0)], cluster.migrator.keypair
        )
        shard = cluster.shards[source]
        shard.submit_entry(export)
        cluster.run()
        spend = cluster.driver.prepare_transfer(
            owner, [(create.tx_id, 0, 1)], create.tx_id, [(owner.public_key, 1)]
        ).to_dict()
        envelope = envelope_for(spend, spend["id"], len(canonical_bytes(spend)))
        validators = [shard.engine.validator(node) for node in plane.nodes(source)]
        for validator in validators:  # admitted before the export reached it
            assert validator.mempool.add(envelope)
        assert sorted(pools_valid(plane)) == [
            f"{source}/{node}: pooled tx {spend['id'][:8]} fails its CheckTx"
            for node in plane.nodes(source)
        ]
        for validator in validators:
            validator.maybe_propose()
        cluster.run(max_events=20_000)
        assert pools_valid(plane) == []
