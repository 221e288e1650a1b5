"""Driver-side redirect retry: placement rejections are not failures.

A payload refused because its home shard is mid-migration (or the
caller routed under a pre-cutover epoch) is still valid — the driver
absorbs those rejections and resubmits against fresh routing state with
bounded deterministic backoff.  Validity rejections must still reach
the caller untouched, and first time.
"""

from types import SimpleNamespace

import pytest

from repro.core.driver import Driver, is_redirect_rejection
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sim.events import EventLoop


class TestRedirectClassifier:
    def test_markers_match(self):
        assert is_redirect_rejection("redirect:migrating:m-0001->shard-2")
        assert is_redirect_rejection("redirect:moved:shard-1")
        assert is_redirect_rejection(
            "routing epoch advanced to 4 (caller stamped 2); re-route and retry"
        )
        assert is_redirect_rejection("stale epoch 3")
        assert is_redirect_rejection("wrong shard for tx")

    def test_validity_errors_do_not_match(self):
        assert not is_redirect_rejection("input already spent")
        assert not is_redirect_rejection("invalid signature")
        assert not is_redirect_rejection("")
        assert not is_redirect_rejection(None)

    def test_exceptions_classify_via_str(self):
        assert is_redirect_rejection(ValueError("redirect:moved:shard-0"))
        assert not is_redirect_rejection(ValueError("schema violation"))


class ScriptedCluster:
    """Stub cluster: replies to each submit from a scripted outcome list."""

    def __init__(self, outcomes):
        self.loop = EventLoop()
        self.reserved = SimpleNamespace(
            escrow=SimpleNamespace(public_key="escrow-pk")
        )
        self.outcomes = list(outcomes)
        self.submits = []  # (sim_time, shard_hint)

    def submit_payload(self, payload, callback=None, shard_hint=None):
        self.submits.append((self.loop.clock.now, shard_hint))
        status, detail = self.outcomes.pop(0)
        if callback is not None:
            callback(status, detail)
        return SimpleNamespace(
            tx_id=payload.get("id", ""), accepted=True, error=None
        )


def scripted_driver(outcomes):
    cluster = ScriptedCluster(outcomes)
    return Driver(cluster), cluster


PAYLOAD = {"id": "tx-under-test", "operation": "TRANSFER"}


class TestRetryLoop:
    def test_redirect_then_commit(self):
        driver, cluster = scripted_driver(
            [("rejected", "redirect:moved:shard-1"), ("committed", PAYLOAD)]
        )
        seen = []
        driver.submit(PAYLOAD, callback=lambda s, d: seen.append(s))
        cluster.loop.run_until_idle()
        assert seen == ["committed"]
        assert len(cluster.submits) == 2
        assert driver.retry_log[PAYLOAD["id"]] == 1

    def test_backoff_doubles_and_hint_is_dropped(self):
        driver, cluster = scripted_driver(
            [
                ("rejected", "redirect:moved:a"),
                ("rejected", "stale epoch"),
                ("committed", PAYLOAD),
            ]
        )
        driver.submit(PAYLOAD, callback=lambda s, d: None, shard_hint="shard-9")
        cluster.loop.run_until_idle()
        times = [t for t, _hint in cluster.submits]
        hints = [hint for _t, hint in cluster.submits]
        base = driver.redirect_backoff
        assert times[1] - times[0] == pytest.approx(base)
        assert times[2] - times[1] == pytest.approx(base * 2)
        assert hints == ["shard-9", None, None]

    def test_retries_are_bounded(self):
        endless = [("rejected", "redirect:moved:x")] * 10
        driver, cluster = scripted_driver(endless)
        seen = []
        driver.submit(PAYLOAD, callback=lambda s, d: seen.append((s, d)))
        cluster.loop.run_until_idle()
        assert len(cluster.submits) == 1 + driver.redirect_retries
        assert seen == [("rejected", "redirect:moved:x")]
        assert driver.retry_log[PAYLOAD["id"]] == driver.redirect_retries

    def test_validity_rejection_is_not_retried(self):
        driver, cluster = scripted_driver([("rejected", "input already spent")])
        seen = []
        driver.submit(PAYLOAD, callback=lambda s, d: seen.append((s, d)))
        cluster.loop.run_until_idle()
        assert len(cluster.submits) == 1
        assert seen == [("rejected", "input already spent")]
        assert PAYLOAD["id"] not in driver.retry_log

    def test_zero_retries_disables_the_wrapper(self):
        driver, cluster = scripted_driver([("rejected", "redirect:moved:x")])
        driver.redirect_retries = 0
        seen = []
        driver.submit(PAYLOAD, callback=lambda s, d: seen.append(s))
        cluster.loop.run_until_idle()
        assert len(cluster.submits) == 1
        assert seen == ["rejected"]

    def test_sync_mode_never_retries(self):
        driver, cluster = scripted_driver([("rejected", "redirect:moved:x")])
        driver.submit(PAYLOAD, mode="sync")
        cluster.loop.run_until_idle()
        assert len(cluster.submits) == 1


class TestAgainstARealMigration:
    def test_spend_fenced_mid_drain_lands_after_cutover(self):
        """End to end: a spend refused by the migration fence retries
        itself past the cutover and commits on the new home shard."""
        cluster = ShardedCluster(
            ShardedClusterConfig(
                n_shards=2,
                seed=23,
                durability=DurabilityConfig(snapshot_interval=6),
            )
        )
        alice = keypair_from_string("alice")
        bob = keypair_from_string("bob")
        creates = []
        for index in range(8):
            tx = cluster.driver.prepare_create(alice, {"capabilities": [f"c{index}"]})
            cluster.submit_payload(tx.to_dict())
            creates.append(tx)
        cluster.run()
        outcomes = []

        def fenced_spend(mid, phase):
            if phase != "drain" or outcomes:
                return
            live = sorted(tx_id for tx_id, _i in cluster.migrator.migrations[mid].live)
            if not live:
                return
            create = next(c for c in creates if c.tx_id == live[0])
            transfer = cluster.driver.prepare_transfer(
                alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)]
            )
            cluster.driver.submit(
                transfer, callback=lambda s, d: outcomes.append((s, d))
            )

        cluster.migrator.phase_listeners.append(fenced_spend)
        cluster.reshard("shard-0")
        cluster.run()
        assert outcomes, "no planned ref was spendable during drain"
        status, detail = outcomes[-1]
        assert status == "committed", detail
