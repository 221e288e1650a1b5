"""Mutation testing: a seeded bug must become a replayable red run.

The harness's value is falsifiability — if a deliberately broken
protocol survives the checker, the invariants are decorative.  Each test
monkeypatches one safety mechanism out of the coordinator (or the
reshard controller's chain entries) and asserts
the registry catches the resulting corruption deterministically, with a
bundle that replays to the identical failure.
"""

import pytest

from repro.core.cluster import SmartchainCluster
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.simtest import SimHarness, SimtestConfig

#: A conflict-heavy configuration so rival spends happen early.
_ADVERSARIAL = dict(steps=80, conflict_rate=0.3, cross_rate=0.6, fault_rate=0.05)
#: Live shard migrations from the first steps on.
_ELASTIC = dict(steps=80, elastic_rate=0.3, fault_rate=0.05)


class TestDoubleSpendMutation:
    @pytest.fixture()
    def blind_guard(self, monkeypatch):
        """Disable the remote-lock spend oracle: local validation stops
        seeing 2PC locks, so rival spends of a locked UTXO get through."""
        monkeypatch.setattr(TwoPhaseCoordinator, "_spend_guard", lambda self, ref: None)

    def test_checker_catches_the_double_spend(self, blind_guard):
        report = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        assert not report.ok
        first = report.violations[0]
        assert first.invariant == "no_double_spend"
        assert "spent by 2 committed txs" in first.detail

    def test_failure_ships_a_replayable_bundle(self, blind_guard):
        first = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        again = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        assert first.bundle is not None
        assert first.bundle.seed == 7
        assert (first.bundle.invariant, first.bundle.failed_step, first.bundle.detail) == (
            again.bundle.invariant,
            again.bundle.failed_step,
            again.bundle.detail,
        )
        assert "--seed 7" in first.bundle.to_json()

    def test_other_seeds_catch_it_too(self, blind_guard):
        report = SimHarness(SimtestConfig(seed=5, **_ADVERSARIAL)).run()
        assert not report.ok
        assert report.violations[0].invariant == "no_double_spend"


class TestReplicaDriftMutation:
    def test_unretired_utxo_is_caught(self, monkeypatch):
        """A participant that stops putting its commit decisions on its
        own chain (no ``SHARD_CONSUME``) leaves the spent output live in
        its ledger.  Every replica still equals the replay of its chain,
        so the replica checks stay green — but the decided locks never
        read consumed, and ``no_stuck_locks`` goes red at quiesce."""
        monkeypatch.setattr(
            TwoPhaseCoordinator, "_submit_consume", lambda self, consumed: None
        )
        report = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        assert not report.ok
        assert report.violations[0].invariant == "no_stuck_locks"


class TestDroppedExportMutation:
    def test_dropped_export_is_caught(self, monkeypatch):
        """Cutovers whose ``SHARD_EXPORT`` never reaches the source chain
        must not finish: the import needs the export block's certificate,
        so the migration parks in ``cutover`` with its fence up, and
        ``migration_terminal`` goes red at quiesce."""
        submit_entry = SmartchainCluster.submit_entry
        monkeypatch.setattr(
            SmartchainCluster,
            "submit_entry",
            lambda self, entry, callback=None: (
                entry["operation"] == "SHARD_EXPORT" or submit_entry(self, entry, callback)
            ),
        )
        report = SimHarness(SimtestConfig(seed=7, **_ELASTIC)).run()
        assert not report.ok
        assert report.violations[0].invariant == "migration_terminal"
        assert "parked in phase=cutover" in report.violations[0].detail


class TestHealthyBaseline:
    def test_unmutated_run_is_green(self):
        """The adversarial mix itself is clean — red needs a real bug."""
        report = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        assert report.ok
