"""Cross-shard atomicity under failure injection.

The invariants every scenario asserts, straight from the PR contract:
**no half-spent outputs** (an origin UTXO is consumed iff the cross-shard
transaction committed on its home chain), **no double-spends** (of two
conflicting spends at most one commits), and **no permanently locked
UTXO** (once both sides are back up, an undecided lock always resolves).
"""

import pytest

from repro.crypto.keys import keypair_from_string
from repro.sharding import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.simtest.plane import FaultPlane


def _sharded(n_shards: int = 2, **kwargs) -> ShardedCluster:
    return ShardedCluster(ShardedClusterConfig(n_shards=n_shards, seed=7, **kwargs))


def _migration_key(cluster: ShardedCluster, target_shard: str) -> str:
    return next(
        key
        for key in (f"mig-{index}" for index in range(512))
        if cluster.ring.shard_for(key) == target_shard
    )


@pytest.fixture()
def staged():
    """A committed asset plus a signed cross-shard transfer for it.

    Returns (cluster, owner, create_tx, transfer_tx, origin, target).
    """
    cluster = _sharded()
    owner = keypair_from_string("owner")
    recipient = keypair_from_string("recipient")
    create_tx = cluster.driver.prepare_create(owner, {"capabilities": ["cnc"]})
    cluster.submit_payload(create_tx.to_dict())
    cluster.run()
    origin = cluster.router.home_of_tx(create_tx.tx_id)
    target = next(shard for shard in cluster.shard_ids if shard != origin)
    transfer_tx = cluster.driver.prepare_transfer(
        owner,
        [(create_tx.tx_id, 0, 1)],
        create_tx.tx_id,
        [(recipient.public_key, 1)],
        metadata={SHARD_KEY_METADATA: _migration_key(cluster, target)},
    )
    return cluster, owner, create_tx, transfer_tx, origin, target


def _origin_utxo_present(cluster, create_tx, origin) -> bool:
    utxos = cluster.shards[origin].any_server().database.collection("utxos")
    return utxos.find_one({"transaction_id": create_tx.tx_id, "output_index": 0}) is not None


class TestHappyPath:
    def test_cross_shard_transfer_migrates_the_asset(self, staged):
        cluster, _, create_tx, transfer_tx, origin, target = staged
        record = cluster.submit_and_settle(transfer_tx)
        assert record.committed_at is not None
        # Origin: UTXO consumed, lock tombstoned as committed.
        assert not _origin_utxo_present(cluster, create_tx, origin)
        tombstones = cluster.agents[origin].durable.collection("shard_locks").find(
            {"holder": transfer_tx.tx_id}
        )
        assert [lock["status"] for lock in tombstones] == ["committed"]
        # Target: the new output exists; the asset now routes there.
        target_utxos = cluster.shards[target].any_server().database.collection("utxos")
        assert target_utxos.find_one({"transaction_id": transfer_tx.tx_id}) is not None
        assert cluster.router.home_of_tx(transfer_tx.tx_id) == target
        # Protocol fully drained: outbox done, no locks held anywhere.
        assert cluster.agents[target].unfinished() == []
        assert all(not agent.active_locks() for agent in cluster.agents.values())

    def test_callback_contract_matches_single_cluster(self, staged):
        cluster, _, _, transfer_tx, _, _ = staged
        outcomes = []
        cluster.submit_payload(
            transfer_tx.to_dict(), callback=lambda status, detail: outcomes.append(status)
        )
        cluster.run()
        assert outcomes == ["committed"]

    def test_migrated_asset_spendable_on_new_home_only(self, staged):
        cluster, _, create_tx, transfer_tx, origin, target = staged
        recipient = keypair_from_string("recipient")
        carol = keypair_from_string("carol")
        cluster.submit_and_settle(transfer_tx)
        onward = cluster.driver.prepare_transfer(
            recipient, [(transfer_tx.tx_id, 0, 1)], create_tx.tx_id, [(carol.public_key, 1)]
        )
        decision = cluster.router.route(onward.to_dict())
        assert decision.home == target and not decision.cross_shard
        assert cluster.submit_and_settle(onward).committed_at is not None


class TestDoubleSpendRaces:
    def test_cross_vs_local_spend_at_most_one_commits(self, staged):
        cluster, owner, create_tx, transfer_tx, origin, _ = staged
        carol = keypair_from_string("carol")
        local = cluster.driver.prepare_transfer(
            owner, [(create_tx.tx_id, 0, 1)], create_tx.tx_id, [(carol.public_key, 1)]
        )
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.submit_payload(local.to_dict())
        cluster.run()
        committed = [
            record
            for record in (cluster.records[transfer_tx.tx_id], cluster.records[local.tx_id])
            if record.committed_at is not None
        ]
        assert len(committed) <= 1
        assert all(not agent.active_locks() for agent in cluster.agents.values())

    def test_two_cross_shard_spends_of_one_output(self, staged):
        cluster, owner, create_tx, transfer_tx, origin, target = staged
        carol = keypair_from_string("carol")
        rival = cluster.driver.prepare_transfer(
            owner,
            [(create_tx.tx_id, 0, 1)],
            create_tx.tx_id,
            [(carol.public_key, 1)],
            metadata={SHARD_KEY_METADATA: _migration_key(cluster, target)},
        )
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.submit_payload(rival.to_dict())
        cluster.run()
        committed = [
            record
            for record in (cluster.records[transfer_tx.tx_id], cluster.records[rival.tx_id])
            if record.committed_at is not None
        ]
        assert len(committed) == 1
        # Exactly one committed tombstone holds the output.
        locks = cluster.agents[origin].durable.collection("shard_locks").find(
            {"transaction_id": create_tx.tx_id}
        )
        assert [lock["status"] for lock in locks] == ["committed"]


class TestCoordinatorCrash:
    def test_crash_between_prepare_and_commit_aborts_cleanly(self, staged):
        """The headline recovery case: intent is durable but undecided."""
        cluster, owner, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        # Stop just after PREPARE went out, before the vote returns.
        cluster.loop.run(until=start + 0.007)
        plane.crash_coordinator(target)
        cluster.run()
        # While the coordinator is down the origin lock is held...
        assert len(cluster.agents[origin].active_locks()) == 1
        assert _origin_utxo_present(cluster, create_tx, origin)
        plane.recover_coordinator(target)
        cluster.run()
        # ...and recovery presumed-aborts: no half-spent state anywhere.
        record = cluster.records[transfer_tx.tx_id]
        assert record.committed_at is None and record.rejected is not None
        assert cluster.agents[origin].active_locks() == []
        assert _origin_utxo_present(cluster, create_tx, origin)
        # The asset is spendable again — exactly once.
        carol = keypair_from_string("carol")
        respend = cluster.driver.prepare_transfer(
            owner, [(create_tx.tx_id, 0, 1)], create_tx.tx_id, [(carol.public_key, 1)]
        )
        assert cluster.submit_and_settle(respend).committed_at is not None

    def test_crash_after_home_commit_still_consumes_origin(self, staged):
        """Commit-pending recovery: the home chain is the source of truth."""
        cluster, _, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        # Let prepare + vote + home submit happen, then kill the
        # coordinator while the home BFT is still ordering the block.
        cluster.loop.run(until=start + 0.02)
        plane.crash_coordinator(target)
        cluster.run()
        plane.recover_coordinator(target)
        cluster.run()
        record = cluster.records[transfer_tx.tx_id]
        if record.committed_at is not None:
            # Atomic: origin consumed, tombstone committed.
            assert not _origin_utxo_present(cluster, create_tx, origin)
            locks = cluster.agents[origin].durable.collection("shard_locks").find(
                {"holder": transfer_tx.tx_id}
            )
            assert [lock["status"] for lock in locks] == ["committed"]
        else:
            # Atomic the other way: nothing consumed, nothing locked.
            assert _origin_utxo_present(cluster, create_tx, origin)
            assert cluster.agents[origin].active_locks() == []
        assert all(not agent.active_locks() for agent in cluster.agents.values())


class TestParticipantFailure:
    def test_participant_down_at_prepare_times_out_to_abort(self, staged):
        cluster, _, create_tx, transfer_tx, origin, _ = staged
        plane = FaultPlane(cluster)
        plane.crash_coordinator(origin)  # participant agent for this 2PC
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.run()
        record = cluster.records[transfer_tx.tx_id]
        assert record.committed_at is None and record.rejected is not None
        assert "timeout" in record.rejected
        # Nothing was consumed or locked on the origin shard.
        assert _origin_utxo_present(cluster, create_tx, origin)
        plane.recover_coordinator(origin)
        cluster.run()
        assert cluster.agents[origin].active_locks() == []

    def test_participant_crash_after_lock_recovers_and_releases(self, staged):
        """Participant timeout case: the lock must not outlive the abort."""
        cluster, _, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        # Participant locks at ~0.01 (prepare delivery); crash right after
        # so its YES vote is sent but the later decision finds it down.
        cluster.loop.run(until=start + 0.012)
        plane.crash_coordinator(origin)
        cluster.run()
        plane.recover_coordinator(origin)
        cluster.run()
        # Whatever the outcome, the lock resolved after recovery.
        assert cluster.agents[origin].active_locks() == []
        record = cluster.records[transfer_tx.tx_id]
        consumed = not _origin_utxo_present(cluster, create_tx, origin)
        assert consumed == (record.committed_at is not None)


class TestRetryAfterAbort:
    def test_rejected_cross_shard_tx_can_be_resubmitted(self, staged):
        """A client retry of an aborted 2PC replaces the terminal outbox
        row instead of tripping its unique index (regression)."""
        cluster, owner, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.loop.run(until=start + 0.007)
        plane.crash_coordinator(target)
        cluster.run()
        plane.recover_coordinator(target)
        cluster.run()
        assert cluster.records[transfer_tx.tx_id].rejected is not None
        # Same payload, second attempt: must commit cleanly this time.
        record = cluster.submit_and_settle(transfer_tx.to_dict())
        assert record.committed_at is not None

    def test_rebegin_clears_the_aborted_rounds_volatile_state(self, staged):
        """A re-begin must drop the aborted round's ack set and its
        armed decision-broadcast retry: a stale timer replaying into the
        fresh round could mark it done before any participant prepared
        (byzantine chaos sweep, seed 16)."""
        cluster, owner, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        tx_id = transfer_tx.tx_id
        agent = cluster.agents[target]  # the transfer's home coordinator
        plane.crash_coordinator(origin)  # participant down: prepare lost
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        # Past the 1.0s prepare timeout: round 1 is aborted, the decision
        # broadcast to the dead participant is unacked, the retry armed.
        cluster.loop.run(until=start + 1.1)
        assert agent.outbox_record(tx_id)["outcome"] == "aborted"
        assert ("retry", tx_id) in agent._timers
        assert tx_id in agent._acks
        cluster.submit_payload(transfer_tx.to_dict())  # client retry
        assert agent.outbox_record(tx_id)["state"] == "preparing"
        assert ("retry", tx_id) not in agent._timers
        assert tx_id not in agent._acks
        plane.recover_coordinator(origin)
        cluster.run()
        assert cluster.records[tx_id].committed_at is not None
        assert not _origin_utxo_present(cluster, create_tx, origin)
        assert cluster.agents[origin].active_locks() == []

    def test_stale_abort_broadcast_cannot_finish_a_fresh_round(self, staged):
        """Defense in depth for the same race: even if a stale timer
        fires, a broadcast armed for an outcome the outbox no longer
        carries must be a no-op — not zombify the new round as
        ``done`` with no outcome."""
        cluster, owner, create_tx, transfer_tx, origin, target = staged
        plane = FaultPlane(cluster)
        tx_id = transfer_tx.tx_id
        agent = cluster.agents[target]
        plane.crash_coordinator(origin)
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.loop.run(until=start + 1.1)
        cluster.submit_payload(transfer_tx.to_dict())  # re-begin: preparing
        # Replay the aborted round's broadcast with its ack set complete,
        # exactly what the leaked timer + late acks produced in the wild.
        agent._acks[tx_id] = set(agent.outbox_record(tx_id)["participants"])
        agent._broadcast_decision(tx_id, "aborted", attempt=0)
        doc = agent.outbox_record(tx_id)
        assert doc["state"] == "preparing" and doc["outcome"] is None
        del agent._acks[tx_id]
        plane.recover_coordinator(origin)
        cluster.run()
        assert cluster.records[tx_id].committed_at is not None


class TestAdversarialInjection:
    def test_cross_shard_payload_cannot_bypass_2pc_via_direct_injection(self, staged):
        """The ingress gate: a cross-shard payload pushed straight into a
        home-shard validator mempool (adversarial double-submit) must be
        refused at admission.  Committing it intra-shard would bypass the
        prepare phase entirely — the remote input is never locked or
        consumed, and the coordinator's own home submission would later
        be deduplicated against the rogue copy, parking the round in
        ``commit_pending`` with the participant's locks held forever."""
        from repro.common.encoding import canonical_bytes
        from repro.consensus.abci import envelope_for

        cluster, owner, create_tx, transfer_tx, origin, target = staged
        payload = transfer_tx.to_dict()
        envelope = envelope_for(payload, payload["id"], len(canonical_bytes(payload)))
        home = cluster.shards[target]  # router homes the transfer on target
        for node in home.engine.validator_order:
            server = home.servers[node]
            assert server.check_tx(envelope) is False
            assert not home.engine.validator(node).submit_transaction(envelope)
            assert payload["id"] not in home.engine.validator(node).mempool
        # The legitimate 2PC path through the facade still commits it.
        record = cluster.submit_and_settle(payload)
        assert record.committed_at is not None
        assert not _origin_utxo_present(cluster, create_tx, origin)
        assert not _origin_utxo_present(cluster, create_tx, origin)


class TestHomeShardDown:
    def test_all_home_validators_down_aborts_and_releases_locks(self, staged):
        """If the home BFT group cannot admit the transaction at all, the
        prepared locks must still resolve (regression: the admission
        failure fired no callback and parked the locks forever)."""
        cluster, _, create_tx, transfer_tx, origin, target = staged
        for node_id in list(cluster.shards[target].servers):
            cluster.shards[target].failures.crash_now(node_id)
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.run()
        record = cluster.record_for(transfer_tx.tx_id)
        assert record.committed_at is None and record.rejected is not None
        assert cluster.agents[origin].active_locks() == []
        assert _origin_utxo_present(cluster, create_tx, origin)


class TestLateApplyingReplica:
    def test_late_participant_replica_converges_by_catchup_alone(self):
        """A participant replica is down when the commit decision lands
        and comes back from disk with a torn WAL tail.  The decision is a
        ``SHARD_CONSUME`` entry on the participant's own chain, so WAL
        replay plus ordinary catch-up bring the replica to exactly the
        replay of its chain — spent output gone, no scrub window to
        outlive."""
        from repro.durability.node import DurabilityConfig
        from repro.simtest.invariants import REPLAY_KEYS, replay_determinism

        cluster = _sharded(durability=DurabilityConfig(snapshot_interval=4))
        owner = keypair_from_string("late-owner")
        fresh = cluster.driver.prepare_create(owner, {"capabilities": ["late"]})
        cluster.submit_and_settle(fresh.to_dict())
        origin = cluster.router.home_of_tx(fresh.tx_id)
        target = next(shard for shard in cluster.shard_ids if shard != origin)
        shard = cluster.shards[origin]
        lagging = shard.engine.validator_order[-1]
        shard.failures.crash_now(lagging)
        spend = cluster.driver.prepare_transfer(
            owner,
            [(fresh.tx_id, 0, 1)],
            fresh.tx_id,
            [(keypair_from_string("late-recipient").public_key, 1)],
            metadata={SHARD_KEY_METADATA: _migration_key(cluster, target)},
        )
        assert cluster.submit_and_settle(spend.to_dict()).committed_at is not None
        assert cluster.agents[origin].active_locks() == []
        shard.restart_node_from_disk(lagging, torn_bytes=8)
        cluster.run()

        server = shard.servers[lagging]
        chain = shard.engine.validator(lagging).chain
        assert len(chain) == max(len(shard.engine.validator(n).chain) for n in shard.servers)
        report = replay_determinism(FaultPlane(cluster))
        assert report[f"{origin}/{lagging}"] == {name: (0, 0) for name in REPLAY_KEYS}
        consumes = server.database.collection("transactions").find(
            {"operation": "SHARD_CONSUME"}, copy=False
        )
        assert [c["inputs"][0]["fulfills"]["transaction_id"] for c in consumes] == [fresh.tx_id]
        utxos = server.database.collection("utxos")
        assert utxos.find_one({"transaction_id": fresh.tx_id, "output_index": 0}) is None


class TestValidatorNodeCrash:
    def test_bft_node_crash_mid_protocol_is_tolerated(self, staged):
        """Killing a *validator* (not the agent) mid-2PC must not break
        atomicity — the shard's BFT quorum keeps going."""
        cluster, _, create_tx, transfer_tx, origin, target = staged
        start = cluster.loop.clock.now
        cluster.submit_payload(transfer_tx.to_dict())
        cluster.loop.run(until=start + 0.01)
        cluster.shards[target].failures.crash_now("scdb-0")
        cluster.run()
        record = cluster.records[transfer_tx.tx_id]
        assert record.committed_at is not None
        assert not _origin_utxo_present(cluster, create_tx, origin)
        assert all(not agent.active_locks() for agent in cluster.agents.values())
