"""The chain is the WAL: crash windows of block-replay recovery.

A validator journals its ``lock`` and ``block`` frames and checkpoints
(a base plus deltas); its collections are rebuilt by re-delivering the
blocks above the newest whole checkpoint chain.  Each case below crashes
a node in one window of that design and restarts it from its disk: the
rebuilt database must equal the one it had in memory, every replica must
read ``(0, 0)`` against a pure replay of its chain, and the durability
invariant must hold once the cluster has settled.
"""

from repro.consensus import abci
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.durability.recovery import diff_databases
from repro.durability.wal import frame_pieces
from repro.simtest.invariants import InvariantChecker, replay_determinism, wal_prefix_durability
from repro.simtest.plane import FaultPlane

ALICE = keypair_from_string("chain-log-alice")
BOB = keypair_from_string("chain-log-bob")


def durable_cluster(snapshot_interval=3, segment_max_bytes=4096) -> SmartchainCluster:
    return SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=9,
            durability=DurabilityConfig(
                snapshot_interval=snapshot_interval, segment_max_bytes=segment_max_bytes
            ),
        )
    )


def traffic(cluster, n: int, tag: str) -> None:
    creates = [cluster.driver.prepare_create(ALICE, {"tag": tag, "n": i}) for i in range(n)]
    for create in creates:
        cluster.submit_payload(create.to_dict())
    cluster.run()
    for create in creates[: n // 2]:
        transfer = cluster.driver.prepare_transfer(
            ALICE, [(create.tx_id, 0, 1)], create.tx_id, [(BOB.public_key, 1)]
        )
        cluster.submit_payload(transfer.to_dict())
    cluster.run()


def wal_records(cluster, node_id) -> list[dict]:
    return [record for _, record in cluster.node_durability[node_id].wal.scan()]


def restart_and_check(cluster, node_id) -> None:
    """Restart ``node_id`` from its disk: nothing it held is lost, and
    once settled every replica is a replay of its chain."""
    before = cluster.servers[node_id].database
    cluster.restart_node_from_disk(node_id)
    assert diff_databases(before, cluster.servers[node_id].database) == []
    traffic(cluster, 4, f"after-{node_id}")
    plane = FaultPlane(cluster)
    assert all(
        cells == (0, 0) for diff in replay_determinism(plane).values() for cells in diff.values()
    )
    assert wal_prefix_durability(plane) == []


def test_a_block_frame_carries_no_body_its_lock_frame_carries():
    cluster = durable_cluster(snapshot_interval=10**9)
    traffic(cluster, 6, "bodies")
    node = cluster.engine.validator_order[0]
    records = wal_records(cluster, node)
    locked = {record["b"]["id"] for record in records if record["k"] == "lock"}
    blocks = [record for record in records if record["k"] == "block"]
    assert blocks and all(("b" in record) == (record["id"] not in locked) for record in blocks)
    assert not any(record["k"] == "db" for record in records)
    restart_and_check(cluster, node)


def test_torn_delta_frame_falls_back_to_the_previous_checkpoint():
    """Power fails while a delta is written: the torn file is skipped,
    the chain before it loads and the WAL (not yet retired) replays."""
    cluster = durable_cluster(snapshot_interval=1)
    traffic(cluster, 12, "torn")
    node = cluster.engine.validator_order[1]
    durability = cluster.node_durability[node]
    assert durability.snapshots.stats["taken"] > durability.snapshots.stats["bases"] >= 1
    durability.config.snapshot_interval = 10**9  # the tail stays in the WAL
    head = durability.snapshots.head
    traffic(cluster, 4, "torn-tail")
    durability.log.flush_now()
    cutoff = durability.wal.last_lsn
    assert cutoff > head
    pieces = frame_pieces(
        b'{"lsn":%d,"prev":%d,"state":' % (cutoff, head), *durability.state_provider(False), b"}"
    )
    whole = b"".join(pieces)
    name = durability.snapshots._name(cutoff)
    durability.disk.append(name, whole[: len(whole) // 2])
    durability.disk.sync(name)
    assert durability.snapshots.chain()[-1][0] == head
    restart_and_check(cluster, node)


def test_block_frame_whose_lock_frame_a_checkpoint_retired():
    """The lock frame is retired by a checkpoint taken between lock and
    commit: the block frame still omits the body, and recovery reads it
    from the lock the checkpoint carries."""
    cluster = durable_cluster(snapshot_interval=10**9, segment_max_bytes=1)
    node = cluster.engine.validator_order[2]
    validator = cluster.engine.validator(node)
    durability = cluster.node_durability[node]
    apply_block = validator._apply_block

    def checkpoint_then_apply(block, cert=None):
        if validator.state.locked_value is block:
            durability.checkpoint()
        apply_block(block, cert)

    validator._apply_block = checkpoint_then_apply
    traffic(cluster, 6, "retired")
    validator._apply_block = apply_block
    # What recovery reads: the records past the newest checkpoint.
    tail = [
        record
        for lsn, record in durability.wal.scan()
        if lsn > durability.snapshots.head
    ]
    locked = {record["b"]["id"] for record in tail if record["k"] == "lock"}
    orphans = [
        record
        for record in tail
        if record["k"] == "block" and "b" not in record and record["id"] not in locked
    ]
    assert orphans
    restart_and_check(cluster, node)


def test_restart_of_a_node_that_applied_heights_by_catch_up():
    """Blocks adopted by catch-up were never locked here: their frames
    carry the bodies, and recovery re-delivers them."""
    cluster = durable_cluster(snapshot_interval=10**9)
    traffic(cluster, 4, "before")
    node = cluster.engine.validator_order[3]
    cluster.failures.crash_now(node)
    traffic(cluster, 8, "while-down")
    cluster.failures.recover_now(node)
    cluster.run()
    reference = cluster.engine.validator(cluster.engine.validator_order[0])
    assert len(cluster.engine.validator(node).chain) == len(reference.chain)
    caught_up = [
        record for record in wal_records(cluster, node) if record["k"] == "block" and "b" in record
    ]
    assert len(caught_up) >= 2
    restart_and_check(cluster, node)


def test_replay_judges_a_deadline_at_the_delivery_time():
    """A REQUEST whose deadline passes before the restart still replays:
    its ``block`` frame names the time the block was delivered."""
    cluster = durable_cluster(snapshot_interval=10**9)
    deadline = cluster.loop.clock.now + 5.0
    request = cluster.driver.prepare_request(
        keypair_from_string("chain-log-sally"), ["cap"], metadata={"deadline": deadline}
    )
    cluster.submit_payload(request.to_dict())
    cluster.run()
    assert cluster.any_server().get_transaction(request.tx_id) is not None
    cluster.loop.clock.advance(10.0)
    assert cluster.loop.clock.now > deadline
    restart_and_check(cluster, cluster.engine.validator_order[0])


def test_replay_that_skips_a_commit_fails_wal_prefix_durability(monkeypatch):
    """A planted replay bug — one block's ``commit_block`` skipped —
    fails the durability invariant by name."""
    cluster = durable_cluster()
    traffic(cluster, 8, "mutant")
    plane = FaultPlane(cluster)
    assert wal_prefix_durability(plane) == []
    skipped = []
    deliver_block = abci.deliver_block

    def skip_one_commit(app, block, committed):
        if skipped:
            return deliver_block(app, block, committed)
        skipped.append(block.height)
        committed.update(envelope.tx_id for envelope in block.transactions)
        return []

    monkeypatch.setattr("repro.core.cluster.deliver_block", skip_one_commit)
    violations = InvariantChecker(plane).check_quiesce(step=0)
    assert skipped
    assert {violation.invariant for violation in violations} == {"wal_prefix_durability"}
    assert any("disk replay diverges from live state" in v.detail for v in violations)
