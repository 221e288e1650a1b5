"""Epoch-guarded coordinator timers: fire-after-cancel races are no-ops.

The 2PC agent arms volatile named timers (prepare timeout, lock-inquiry
cadence, decision-retry spacing).  Three races must all be harmless:

* a timer cancelled by :meth:`_disarm` must never fire;
* a timer armed before a crash must not fire after it, even if the
  cancellation itself were lost — the epoch guard is the backstop;
* re-arming a (kind, tx) pair replaces the previous timer instead of
  stacking a duplicate.

And one restart obligation (the ISSUE-5 latent bug): an agent rebuilt
*from disk* mid-protocol must re-arm inquiry timers for every lock its
recovered tables say is still prepared — rebuilding the tables without
resuming leaves presumed-abort stalled forever.
"""

import pytest

from repro.crypto import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.simtest.plane import FaultPlane


@pytest.fixture()
def agent_and_loop():
    cluster = ShardedCluster(ShardedClusterConfig(n_shards=2, seed=3))
    return cluster.agents["shard-0"], cluster.loop


class TestDisarm:
    def test_disarmed_timer_never_fires(self, agent_and_loop):
        agent, loop = agent_and_loop
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("boom"))
        agent._disarm("probe", "tx-1")
        loop.run(until=1.0)
        assert fired == []

    def test_disarm_of_unknown_timer_is_a_noop(self, agent_and_loop):
        agent, _ = agent_and_loop
        agent._disarm("probe", "never-armed")  # must not raise

    def test_rearm_replaces_instead_of_stacking(self, agent_and_loop):
        agent, loop = agent_and_loop
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("first"))
        agent._arm("probe", "tx-1", 0.2, lambda: fired.append("second"))
        loop.run(until=1.0)
        assert fired == ["second"]


class TestEpochGuard:
    def test_crash_cancels_pending_timers(self, agent_and_loop):
        agent, loop = agent_and_loop
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("boom"))
        agent.on_crash()
        loop.run(until=1.0)
        assert fired == []

    def test_stale_epoch_fire_is_a_noop_even_without_cancel(self, agent_and_loop):
        """The fire-after-cancel race distilled: if the handle's cancel
        were lost, the epoch check alone must suppress the callback."""
        agent, loop = agent_and_loop
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("boom"))
        # Simulate the lost-cancellation race: the epoch moves on but the
        # scheduled event survives in the loop.
        agent._epoch += 1
        agent._timers.clear()
        loop.run(until=1.0)
        assert fired == []

    def test_crashed_agent_suppresses_inflight_fire(self, agent_and_loop):
        agent, loop = agent_and_loop
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("boom"))
        # Crash without the callback bookkeeping (flag only): the fire
        # path itself checks the flag.
        agent._timers.clear()  # lose the handles, keep the events
        agent.crashed = True
        loop.run(until=1.0)
        assert fired == []

    def test_fresh_epoch_timers_fire_normally(self, agent_and_loop):
        agent, loop = agent_and_loop
        agent.on_crash()
        agent.on_recover()
        fired = []
        agent._arm("probe", "tx-1", 0.1, lambda: fired.append("ok"))
        loop.run(until=1.0)
        assert fired == ["ok"]


class TestRestartFromDiskRearmsInquiryTimers:
    """Regression: a participant rebuilt from disk with an in-flight
    prepared lock must leave restart with a live inquiry timer, so that
    presumed abort can terminate the transaction once the coordinator is
    reachable again — instead of the lock parking silently forever."""

    def _cross_shard_prepare(self, cluster):
        """Drive a cross-shard transfer to its prepare phase and return
        (participant_shard, coordinator_shard, tx_id) via a phase hook."""
        driver = cluster.driver
        alice = keypair_from_string("alice")
        bob = keypair_from_string("bob")
        create = driver.prepare_create(alice, {"capabilities": ["x"]})
        cluster.submit_and_settle(create)
        home = cluster.router.home_of_tx(create.tx_id)
        target = next(s for s in cluster.shard_ids if s != home)
        transfer = driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)],
            metadata={
                SHARD_KEY_METADATA: cluster.ring.key_landing_on(target, prefix="mig")
            },
        )
        return transfer

    def test_restarted_participant_has_live_inquiry_timer_and_resolves(self):
        cluster = ShardedCluster(
            ShardedClusterConfig(n_shards=2, seed=11, durability=DurabilityConfig())
        )
        plane = FaultPlane(cluster)
        transfer = self._cross_shard_prepare(cluster)
        observed = {}
        timer_checks = []

        def on_phase(shard_id, phase, tx_id):
            if phase == "prepared" and "participant" not in observed:
                observed["participant"] = shard_id
                observed["tx"] = tx_id
                coordinator = next(s for s in cluster.shard_ids if s != shard_id)
                observed["coordinator"] = coordinator
                # Kill the coordinator agent (no decision will come),
                # then rebuild the participant purely from its disk.
                cluster.loop.schedule_in(
                    0.0, lambda: plane.crash_coordinator(coordinator)
                )
                cluster.loop.schedule_in(
                    0.0,
                    lambda: cluster.agents[shard_id].restart_from_disk(torn_bytes=3),
                )
                # Shortly after the restart, the recovered lock must have
                # a re-armed inquiry timer — the regression under test.
                cluster.loop.schedule_in(
                    0.01,
                    lambda: timer_checks.append(
                        [
                            kind
                            for (kind, holder) in cluster.agents[shard_id]._timers
                            if holder == tx_id
                        ]
                    ),
                )

        for agent in cluster.agents.values():
            agent.phase_listeners.append(on_phase)
        cluster.submit_payload(transfer.to_dict())
        cluster.run()

        assert observed, "prepare phase never reached"
        participant = cluster.agents[observed["participant"]]
        assert timer_checks and "lock" in timer_checks[0], (
            "restart-from-disk failed to re-arm the inquiry timer for the "
            f"recovered prepared lock (timers seen: {timer_checks})"
        )
        # With the coordinator down, bounded retries park the lock
        # durably instead of spinning the loop.
        assert [lock["holder"] for lock in participant.active_locks()] == [
            observed["tx"]
        ]
        # Once the coordinator recovers, presumed abort terminates it.
        plane.recover_coordinator(observed["coordinator"])
        cluster.run()
        assert participant.active_locks() == []
        assert participant.unfinished() == []
