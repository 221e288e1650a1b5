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
from repro.core.server import SmartchainServer
from repro.sharding.coordinator import TwoPhaseCoordinator
from repro.simtest import SimHarness, SimtestConfig

#: A conflict-heavy configuration so rival spends happen early.
_ADVERSARIAL = dict(steps=80, conflict_rate=0.3, cross_rate=0.6, fault_rate=0.05)
#: Live shard migrations from the first steps on.
_ELASTIC = dict(steps=80, elastic_rate=0.3, fault_rate=0.05)
#: First step each replica-state mutation was caught at by the checks the
#: chain replay replaced (a hand-rolled utxo replay, a per-height chain compare).
EARLIER_SPENT_OUTPUT_STEP = 5
EARLIER_BLOCK_IDS_STEP = 5


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


def _mutate_one_commit(monkeypatch, mutation):
    """Run ``mutation(server, block, delivered, spend)`` after the first
    ``commit_block`` of shard-0's ``scdb-1`` that delivers a ``spend``."""
    commit_block = SmartchainServer.commit_block
    done = []

    def commit_then_mutate(self, block, delivered):
        commit_block(self, block, delivered)
        spends = [
            envelope.payload
            for envelope in delivered
            if any(item.get("fulfills") for item in envelope.payload.get("inputs", []))
        ]
        if (self.shard_id, self.node_id) == ("shard-0", "scdb-1") and spends and not done:
            done.append(block.height)
            mutation(self, block, delivered, spends[0])

    monkeypatch.setattr(SmartchainServer, "commit_block", commit_then_mutate)
    return done


class TestReplicaStateMutation:
    """One replica's state stops being a function of its chain; the
    replay comparison names it no later than the checks it replaced did."""

    def test_a_spent_output_left_live_is_caught(self, monkeypatch):
        def resurrect(server, block, delivered, spend):
            fulfills = next(item["fulfills"] for item in spend["inputs"] if item.get("fulfills"))
            source = server.database.collection("transactions").find_one(
                {"id": fulfills["transaction_id"]}
            )
            output = source["outputs"][fulfills["output_index"]]
            server.database.collection("utxos").insert_one({
                "transaction_id": fulfills["transaction_id"],
                "output_index": fulfills["output_index"],
                "public_keys": output["public_keys"],
                "amount": output["amount"],
            })

        assert _mutate_one_commit(monkeypatch, resurrect) == []
        report = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        first = report.violations[0]
        assert first.invariant == "replica_utxo_consistency"
        assert first.detail.startswith("shard-0/scdb-1: state is not a replay of its chain")
        assert "utxos=(0, 1)" in first.detail
        assert first.step <= EARLIER_SPENT_OUTPUT_STEP

    def test_a_block_stored_with_other_transaction_ids_is_caught(self, monkeypatch):
        def forget_one(server, block, delivered, spend):
            server.database.collection("blocks").update_many(
                {"height": block.height},
                {"$set": {"transaction_ids": [env.tx_id for env in delivered][:-1]}},
            )

        _mutate_one_commit(monkeypatch, forget_one)
        report = SimHarness(SimtestConfig(seed=7, **_ADVERSARIAL)).run()
        first = report.violations[0]
        assert first.invariant == "replica_utxo_consistency"
        assert first.detail.startswith("shard-0/scdb-1: state is not a replay of its chain")
        assert "blocks=(1, 1)" in first.detail
        assert first.step <= EARLIER_BLOCK_IDS_STEP


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
