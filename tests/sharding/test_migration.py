"""Live shard migration: split under traffic, the crash matrix, repair.

The migration protocol's contract is two-sided: a *completed* cutover is
a point of no return (roll forward from the journal, whatever crashed),
and anything short of it is presumed abort (roll back, release the
fence, lose nothing).  These tests drive both sides deterministically —
the chaos harness covers the same matrix stochastically.
"""

import pytest

from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.migration import MigrationPolicy


def build(seed: int = 11, **kwargs) -> ShardedCluster:
    return ShardedCluster(
        ShardedClusterConfig(
            n_shards=2,
            seed=seed,
            durability=DurabilityConfig(snapshot_interval=6),
            **kwargs,
        )
    )


def mint(cluster: ShardedCluster, owner, n: int):
    creates = []
    for index in range(n):
        tx = cluster.driver.prepare_create(owner, {"capabilities": [f"c{index}"]})
        cluster.submit_payload(tx.to_dict())
        creates.append(tx)
    cluster.run()
    return creates


def utxo_on(cluster: ShardedCluster, shard_id: str, tx_id: str, index: int) -> bool:
    server = cluster.shards[shard_id].any_server()
    return (
        server.database.collection("utxos").find_one(
            {"transaction_id": tx_id, "output_index": index}, copy=False
        )
        is not None
    )


class TestBasicSplit:
    def test_moved_refs_live_only_on_target(self):
        cluster = build()
        alice = keypair_from_string("alice")
        mint(cluster, alice, 8)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done"
        assert doc["moved"], "split moved nothing"
        target = doc["target"]
        for tx_id, index, _doc in doc["moved"]:
            assert cluster.router.home_of_tx(tx_id) == target
            for shard_id in cluster.shard_ids:
                assert utxo_on(cluster, shard_id, tx_id, index) == (shard_id == target)

    def test_epoch_bumps_at_cutover(self):
        cluster = build()
        mint(cluster, keypair_from_string("alice"), 6)
        before = cluster.router.epoch
        cluster.reshard("shard-0")
        cluster.run()
        assert cluster.router.epoch > before

    def test_moved_output_spendable_after_cutover(self):
        cluster = build()
        alice = keypair_from_string("alice")
        creates = mint(cluster, alice, 8)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        moved_tx = doc["moved"][0][0]
        create = next(c for c in creates if c.tx_id == moved_tx)
        bob = keypair_from_string("bob")
        transfer = cluster.driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)]
        )
        record = cluster.submit_and_settle(transfer)
        assert record.committed_at is not None, record.rejected

    def test_merge_onto_existing_shard(self):
        cluster = build(seed=17)
        mint(cluster, keypair_from_string("alice"), 8)
        migration_id = cluster.reshard("shard-0", target="shard-1")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done"
        assert doc["target"] == "shard-1"
        assert len(cluster.shard_ids) == 2  # merge grows nothing


class TestControllerCrashMatrix:
    """restart_from_disk at each phase: pre-cutover rolls back, the
    forced cutover record rolls forward."""

    @pytest.mark.parametrize("phase", ["snapshot_ship", "wal_tail", "drain"])
    def test_pre_cutover_crash_rolls_back(self, phase):
        cluster = build(seed=12)
        mint(cluster, keypair_from_string("alice"), 8)

        def crash(mid, entered):
            if entered == phase:
                cluster.loop.schedule_in(
                    0.0, lambda: cluster.migrator.restart_from_disk()
                )

        cluster.migrator.phase_listeners.append(crash)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "rolled_back", (phase, doc["phase"])
        assert not cluster.migrator.unfinished()
        # Nothing may have leaked onto the target.
        target = doc["target"]
        for tx_id, index in doc.get("planned_refs") or []:
            assert not utxo_on(cluster, target, tx_id, index)

    def test_cutover_crash_rolls_forward(self):
        cluster = build(seed=13)
        mint(cluster, keypair_from_string("alice"), 8)

        def crash(mid, entered):
            if entered == "cutover":
                cluster.loop.schedule_in(
                    0.0, lambda: cluster.migrator.restart_from_disk()
                )

        cluster.migrator.phase_listeners.append(crash)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done"
        for tx_id, index, _doc in doc["moved"]:
            assert utxo_on(cluster, doc["target"], tx_id, index)

    def test_torn_journal_tail_still_recovers(self):
        cluster = build(seed=14)
        mint(cluster, keypair_from_string("alice"), 8)

        def crash(mid, entered):
            if entered == "wal_tail":
                cluster.loop.schedule_in(
                    0.0, lambda: cluster.migrator.restart_from_disk(torn_bytes=24)
                )

        cluster.migrator.phase_listeners.append(crash)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc is None or doc["phase"] in ("rolled_back", "done")
        assert not cluster.migrator.unfinished()


class TestNodeCrashDuringMigration:
    @pytest.mark.parametrize("role", ["source", "target"])
    def test_shard_node_restart_mid_migration(self, role):
        cluster = build(seed=15)
        mint(cluster, keypair_from_string("alice"), 8)
        sprung = []

        def crash(mid, entered):
            if entered == "wal_tail" and not sprung:
                sprung.append(mid)
                migration = cluster.migrator.migrations[mid]
                shard_id = migration.source if role == "source" else migration.target
                shard = cluster.shards[shard_id]
                node = shard.engine.validator_order[0]
                cluster.loop.schedule_in(
                    0.0, lambda: shard.restart_node_from_disk(node, torn_bytes=8)
                )

        cluster.migrator.phase_listeners.append(crash)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] in ("done", "rolled_back")
        if doc["phase"] == "done":
            for tx_id, index, _doc in doc["moved"]:
                assert utxo_on(cluster, doc["target"], tx_id, index)
                assert not utxo_on(cluster, doc["source"], tx_id, index)


class TestResumeIdempotence:
    def test_resume_after_done_changes_nothing(self):
        """A done migration is history on two chains: resuming the
        controller (recovery, the harness's quiesce kick) re-applies
        nothing."""
        cluster = build(seed=16)
        mint(cluster, keypair_from_string("alice"), 8)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done"
        for _ in range(2):
            cluster.migrator.resume()
            cluster.run()
        for tx_id, index, _d in doc["moved"]:
            holders = [
                sid for sid in cluster.shard_ids if utxo_on(cluster, sid, tx_id, index)
            ]
            assert holders == [doc["target"]]


class TestOwnershipIsOnTheChains:
    """What the old repair passes restored by hand now follows from each
    shard's chain: exports and imports are blocks like any other."""

    def test_round_tripped_refs_are_owned_and_spendable_at_home(self):
        """Refs that left shard-0 and came back (an export and an import
        on each chain) are live on shard-0 only, and spendable there."""
        cluster = build(seed=21)
        alice = keypair_from_string("alice")
        creates = mint(cluster, alice, 8)
        plan = [
            c.tx_id
            for c in creates
            if cluster.router.home_of_tx(c.tx_id) == "shard-0"
        ][:2]
        assert plan, "seeded placement put no mints on shard-0"
        out_id = cluster.reshard("shard-0", target="shard-1", plan_txs=plan)
        cluster.run()
        back_id = cluster.reshard("shard-1", target="shard-0", plan_txs=plan)
        cluster.run()
        out_doc = cluster.migrator.journal_record(out_id)
        back_doc = cluster.migrator.journal_record(back_id)
        assert out_doc["phase"] == "done" and back_doc["phase"] == "done"
        round_tripped = [
            (tx_id, index)
            for tx_id, index, _d in out_doc["moved"]
            if any(t == tx_id and i == index for t, i, _x in back_doc["moved"])
        ]
        assert round_tripped, "second hop moved none of the first hop's refs"
        for tx_id, index in round_tripped:
            assert utxo_on(cluster, "shard-0", tx_id, index)
            assert not utxo_on(cluster, "shard-1", tx_id, index)
            assert cluster.router.home_of_tx(tx_id) == "shard-0"
        tx_id, index = round_tripped[0]
        transfer = cluster.driver.prepare_transfer(
            alice, [(tx_id, index, 1)], tx_id, [(keypair_from_string("bob").public_key, 1)]
        )
        record = cluster.submit_and_settle(transfer)
        assert record.committed_at is not None, record.rejected

    def test_restarted_target_replica_keeps_a_spent_move_spent(self):
        """A target replica restarted from a torn disk after a moved
        output was spent replays its WAL and catches up: the output is
        gone on every replica, with no repair pass to run."""
        cluster = build(seed=22)
        alice = keypair_from_string("alice")
        mint(cluster, alice, 8)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done" and doc["moved"]
        target = doc["target"]
        moved_tx, moved_index = doc["moved"][0][0], doc["moved"][0][1]
        transfer = cluster.driver.prepare_transfer(
            alice, [(moved_tx, moved_index, 1)], moved_tx,
            [(keypair_from_string("bob").public_key, 1)],
        )
        record = cluster.submit_and_settle(transfer)
        assert record.committed_at is not None, record.rejected
        shard = cluster.shards[target]
        node = shard.engine.validator_order[0]
        shard.restart_node_from_disk(node, torn_bytes=8)
        cluster.run()
        for node_id in shard.engine.validator_order:
            utxos = shard.servers[node_id].database.collection("utxos")
            assert utxos.find_one(
                {"transaction_id": moved_tx, "output_index": moved_index}, copy=False
            ) is None, f"spent output resurrected on {node_id}"


class TestCatchupSuppressor:
    def test_lagging_replica_does_not_resurrect_migrated_outputs(self):
        """Regression: a minority node partitioned across a migration
        missed the minting block; post-heal catch-up re-delivers it
        *after* the cutover deletion ran, and without the registry
        suppressor the replica re-mints a UTXO the shard no longer owns."""
        cluster = build(seed=18)
        alice = keypair_from_string("alice")
        mint(cluster, alice, 6)
        shard = cluster.shards["shard-0"]
        laggard = shard.engine.validator_order[-1]
        majority = set(shard.engine.validator_order[:-1])
        shard.network.partition([majority, {laggard}])
        # Mint while the minority is deaf, then migrate the fresh outputs.
        fresh = mint(cluster, alice, 4)
        plan = [
            t.tx_id for t in fresh if cluster.router.home_of_tx(t.tx_id) == "shard-0"
        ]
        if not plan:
            pytest.skip("seeded placement put no fresh mints on shard-0")
        migration_id = cluster.reshard("shard-0", plan_txs=plan)
        cluster.run()
        doc = cluster.migrator.journal_record(migration_id)
        assert doc["phase"] == "done"
        shard.network.heal_partition()
        shard.resync_node(laggard)
        cluster.run()
        laggard_utxos = shard.servers[laggard].database.collection("utxos")
        for tx_id, index, _d in doc["moved"]:
            assert (
                laggard_utxos.find_one(
                    {"transaction_id": tx_id, "output_index": index}, copy=False
                )
                is None
            ), (tx_id, index)


class TestAutoSplit:
    def test_hot_shard_triggers_a_split(self):
        cluster = build(
            seed=19,
            auto_split=True,
            migration_policy=MigrationPolicy(
                hot_share_threshold=0.55, window=24, min_observations=12, cooldown=1.0
            ),
        )
        alice = keypair_from_string("alice")
        shards_before = len(cluster.shard_ids)
        # Zipf-ish: hammer whatever shard the first asset homed on.
        mint(cluster, alice, 24)
        cluster.run()
        assert cluster.migrator.stats["auto_splits"] >= 1
        assert len(cluster.shard_ids) > shards_before
        assert not cluster.migrator.unfinished()

    def test_cooldown_bounds_split_storms(self):
        cluster = build(
            seed=20,
            auto_split=True,
            migration_policy=MigrationPolicy(
                hot_share_threshold=0.5,
                window=24,
                min_observations=12,
                cooldown=1e9,
                max_shards=4,
            ),
        )
        mint(cluster, keypair_from_string("alice"), 30)
        cluster.run()
        assert cluster.migrator.stats["auto_splits"] <= 1
