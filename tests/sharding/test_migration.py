"""Live shard migration: split under traffic, the crash matrix, repair.

The migration protocol's contract is two-sided: an export pooled on the
source chain is a point of no return once a block delivers it (roll
forward from the chains, whatever crashed), and anything short of it is
presumed abort (roll back or forget, release the fence, lose nothing).
The controller keeps no disk: its restart re-derives every cutover from
the chains.  These tests drive both sides deterministically — the chaos
harness covers the same matrix stochastically.
"""

import pytest

from repro.common.errors import MigrationError
from repro.core.transaction import OutputRef
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.migration import MigrationPolicy
from repro.simtest.invariants import migration_terminal, no_key_duplicated, no_key_lost
from repro.simtest.plane import FaultPlane
from tests.sharding.test_chain_entries import _prepare_vote


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
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done"
        assert m.moved, "split moved nothing"
        target = m.target
        for tx_id, index in m.moved:
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
        moved_tx = cluster.migrator.migrations[migration_id].moved[0][0]
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
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done"
        assert m.target == "shard-1"
        assert len(cluster.shard_ids) == 2  # merge grows nothing


def restart_at(cluster: ShardedCluster, phase: str, then=None) -> dict:
    """Restart the controller as the first migration enters ``phase``
    (through the loop, like the harness's trap), then call ``then(seen)``
    in the same event.  ``seen`` keeps the forgotten migration's facts."""
    seen: dict = {}

    def listener(migration_id, entered):
        if entered != phase or seen:
            return
        m = cluster.migrator.migrations[migration_id]
        seen.update(id=migration_id, source=m.source, target=m.target,
                    live=sorted(m.live), export=m.export)

        def restart():
            cluster.migrator.restart()
            if then is not None:
                then(seen)

        cluster.loop.schedule_in(0.0, restart)

    cluster.migrator.phase_listeners.append(listener)
    return seen


class TestControllerCrashMatrix:
    """``restart()`` at each phase.  The controller keeps no disk: before
    its export is pooled a migration is forgotten, after it the chains and
    pools roll it forward."""

    @pytest.mark.parametrize("phase", ["snapshot_ship", "wal_tail", "drain"])
    def test_pre_cutover_restart_forgets_the_migration(self, phase):
        cluster = build(seed=12)
        mint(cluster, keypair_from_string("alice"), 8)
        seen = restart_at(cluster, phase)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        assert seen["id"] == migration_id
        assert migration_id not in cluster.migrator.migrations
        assert not cluster.migrator.unfinished()
        assert cluster.migrator.stats["done"] == 0
        # Nothing may have leaked onto the target.
        for tx_id, index in seen["live"]:
            assert not utxo_on(cluster, seen["target"], tx_id, index)

    def test_cutover_restart_rolls_forward(self):
        cluster = build(seed=13)
        mint(cluster, keypair_from_string("alice"), 8)
        restart_at(cluster, "cutover")
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done"
        for tx_id, index in m.moved:
            assert utxo_on(cluster, m.target, tx_id, index)
            assert not utxo_on(cluster, m.source, tx_id, index)

    def test_restart_with_the_export_pooled_imports_it_once_it_lands(self):
        """The export is pooled and not delivered when the controller
        restarts: the restarted controller takes the cutover back from the
        pool, a 2PC prepare on a moving ref votes no (the pooled export
        contends for it, and the cutover's fence is up again), and once a
        block delivers the export the controller imports it."""
        cluster = build(seed=13)
        mint(cluster, keypair_from_string("alice"), 8)
        window: dict = {}

        def in_the_window(seen):
            source = cluster.shards[seen["source"]]
            export_id = seen["export"]["id"]
            ref = OutputRef(*seen["live"][0])
            window.update(
                pooled=source.pooled(export_id),
                landed=source.landed(export_id),
                held={mid: m.phase for mid, m in cluster.migrator.migrations.items()},
                rival=source.inflight_spender(ref),
                vote=_prepare_vote(cluster.agents[seen["source"]], ref),
            )

        seen = restart_at(cluster, "cutover", then=in_the_window)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        export_id = seen["export"]["id"]
        assert window["pooled"] and window["landed"] is None
        assert window["held"] == {migration_id: "cutover"}
        assert window["rival"] == export_id and window["vote"] is not None
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done" and m.export["id"] == export_id
        assert cluster.shards[m.target].landed(m.import_["id"]) is True
        plane = FaultPlane(cluster)
        assert no_key_lost(plane) == [] and no_key_duplicated(plane) == []
        assert migration_terminal(plane) == []

    def test_restart_before_the_export_lifts_the_fence(self):
        """Restarted in drain, before its export was built: nothing of the
        migration is on either chain, its fence is gone with the memory,
        and a spend of a planned ref commits on the source."""
        cluster = build(seed=14)
        alice = keypair_from_string("alice")
        creates = {c.tx_id: c for c in mint(cluster, alice, 8)}
        seen = restart_at(cluster, "drain")
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        assert seen["export"] is None and migration_id not in cluster.migrator.migrations
        for shard in cluster.shards.values():
            chain = max((shard.engine.validator(n).chain for n in shard.engine.validator_order), key=len)
            operations = {e.payload.get("operation") for b in chain for e in b.transactions}
            assert not operations & {"SHARD_EXPORT", "SHARD_IMPORT"}
        tx_id, index = seen["live"][0]
        assert cluster.migrator.fence(seen["source"], OutputRef(tx_id, index)) is None
        transfer = cluster.driver.prepare_transfer(
            alice, [(tx_id, index, 1)], creates[tx_id].tx_id,
            [(keypair_from_string("bob").public_key, 1)],
        )
        record = cluster.submit_and_settle(transfer)
        assert record.committed_at is not None, record.rejected
        assert cluster.router.home_of_tx(transfer.tx_id) == seen["source"]

    def test_no_id_is_reused_while_an_older_export_is_pooled(self):
        """Right after a restart, with the forgotten migration's export
        still pooled, that migration is held again: its shards refuse a
        second migration, and one between two other shards takes a fresh
        id.  Both end terminal under their own ids."""
        cluster = ShardedCluster(
            ShardedClusterConfig(
                n_shards=4, seed=13, durability=DurabilityConfig(snapshot_interval=6)
            )
        )
        mint(cluster, keypair_from_string("alice"), 16)
        started: list = []

        def start_others(seen):
            assert cluster.shards[seen["source"]].pooled(seen["export"]["id"])
            with pytest.raises(MigrationError, match=seen["id"]):
                cluster.migrator.start_migration(seen["source"], seen["target"])
            started.append(cluster.migrator.start_migration("shard-2", "shard-3"))

        seen = restart_at(cluster, "cutover", then=start_others)
        first = cluster.reshard("shard-0", target="shard-1")
        cluster.run()
        assert first == seen["export"]["migration"] and started and started[0] != first
        migrations = cluster.migrator.migrations
        assert migrations[first].phase == "done"
        assert migrations[started[0]].terminal
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
        m = cluster.migrator.migrations[migration_id]
        assert m.phase in ("done", "rolled_back")
        if m.phase == "done":
            for tx_id, index in m.moved:
                assert utxo_on(cluster, m.target, tx_id, index)
                assert not utxo_on(cluster, m.source, tx_id, index)


class TestResumeIdempotence:
    def test_resume_after_done_changes_nothing(self):
        """A done migration is history on two chains: resuming the
        controller (recovery, the harness's quiesce kick) re-applies
        nothing."""
        cluster = build(seed=16)
        mint(cluster, keypair_from_string("alice"), 8)
        migration_id = cluster.reshard("shard-0")
        cluster.run()
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done"
        for _ in range(2):
            cluster.migrator.resume()
            cluster.run()
        for tx_id, index in m.moved:
            holders = [
                sid for sid in cluster.shard_ids if utxo_on(cluster, sid, tx_id, index)
            ]
            assert holders == [m.target]


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
        out, back = cluster.migrator.migrations[out_id], cluster.migrator.migrations[back_id]
        assert out.phase == "done" and back.phase == "done"
        round_tripped = [ref for ref in out.moved if ref in back.moved]
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
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done" and m.moved
        target = m.target
        moved_tx, moved_index = m.moved[0]
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
        m = cluster.migrator.migrations[migration_id]
        assert m.phase == "done"
        shard.network.heal_partition()
        shard.resync_node(laggard)
        cluster.run()
        laggard_utxos = shard.servers[laggard].database.collection("utxos")
        for tx_id, index in m.moved:
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
