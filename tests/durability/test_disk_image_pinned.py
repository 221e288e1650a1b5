"""The on-disk bytes of a fixed durable run are pinned.

Checkpoints and the ``lock`` / ``block`` WAL frames are spliced from
bytes encoded once per document, block and certificate.
The contract is that nothing on the device changes: this 200-transaction
run on four durable validators — several checkpoints each, one validator
rebuilt from its disk half way (its documents and chain then have no kept
bytes and are encoded at the next checkpoint) — must leave exactly the
``*.seg`` and ``snap-*`` bytes that encoding every record and every state
dict from scratch left at the commit before the splice (PR 14, e430423).

The digest first moved on purpose in PR 18: a validator used to
journal and force-sync its ``lock`` frame twice per height — the fourth
prevote re-adopted the lock the third had just made durable — and no
longer does.  Measured on this run with a spy on ``SegmentedWal.append``:
each of the five WALs (four validators and the one rebuilt from disk)
receives exactly the record stream it received before minus every
``lock`` record equal to the ``lock`` record before it (1 020 -> 915
records per validator, 105 repeats of ~1.9 kB), forced syncs go
315 -> 210 per validator, and the 150-record checkpoint cadence fires
6 times instead of 7; nothing else is added, dropped or reordered, and
no record's bytes change (LSNs are smaller, so 4 bytes of digits go).
The read-path reorder of the same PR passed this test with the PR 14
digest before the lock fix was applied.

It moved again, on purpose, when the chain became the log of a
validator's collections.  Measured on this run with the same spy: each
validator's WAL receives 210 records instead of 915 — its 105 ``lock``
and 105 ``block`` frames; the 705 ``db`` records (``transactions`` /
``utxos`` / ``blocks`` / ``assets`` inserts and deletes) are gone, since
recovery re-delivers the blocks above the checkpoints.  A ``block``
frame carries its body only when no ``lock`` frame does, and names its
delivery time.  Checkpoints are incremental: with the cadence re-stated
in blocks (15 here, the 150 records it was) each validator takes 7
instead of 6, 2 of them bases, and every checkpoint lists document ids.
Bytes appended per validator fall from 2.34 MB to 0.98 MB; the final
image (a base, two deltas and the active segment, where it was one
snapshot and the segment) grows from 457.6 kB to 478.1 kB.
"""

import hashlib

from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto import keypair_from_string
from repro.durability.node import DurabilityConfig

#: sha256 over every validator's durable files: the image with the chain
#: as its collections' log (before: ``faa23127...1da3``, the PR 14 image
#: without its repeated ``lock`` frames).
PINNED_DIGEST = "c23c29b4478fd4c8f603f941d2cdf308393451c318bb845de196cdd6a7432f43"


def disk_image_digest(cluster) -> str:
    digest = hashlib.sha256()
    for node_id in cluster.engine.validator_order:
        disk = cluster.node_durability[node_id].disk
        for name in disk.list():
            data = disk.read(name)
            digest.update(f"{node_id}/{name}/{len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest()


def run_fixed_history() -> SmartchainCluster:
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=15,
            durability=DurabilityConfig(snapshot_interval=15, segment_max_bytes=8192),
        )
    )
    driver = cluster.driver
    owners = [keypair_from_string(f"pinned-owner-{i}") for i in range(4)]

    def wave(prepared):
        for index, transaction in enumerate(prepared):
            cluster.loop.schedule_in(
                index / 100.0,
                lambda tx=transaction: cluster.submit_payload(tx.to_dict()),
            )
        cluster.run()

    creates = [
        driver.prepare_create(
            owners[i % 4],
            {"name": f"pièce-{i}", "capabilities": ["3d-print", "✓"], "rank": i},
            metadata={"weight": i / 7.0, "tags": [], "note": {"z": 1, "a": {}}},
        )
        for i in range(120)
    ]
    wave(creates[:60])
    cluster.restart_node_from_disk(cluster.engine.validator_order[2], torn_bytes=11)
    cluster.run()
    wave(creates[60:])
    wave(
        [
            driver.prepare_transfer(
                owners[i % 4],
                [(create.tx_id, 0, 1)],
                create.tx_id,
                [(owners[(i + 1) % 4].public_key, 1)],
            )
            for i, create in enumerate(creates[:80])
        ]
    )
    assert len(cluster.committed_records()) == 200
    for durability in cluster.node_durability.values():
        durability.checkpoint()
    return cluster


def test_disk_image_of_fixed_run_matches_the_pinned_digest():
    cluster = run_fixed_history()
    for durability in cluster.node_durability.values():
        assert durability.snapshots.stats["taken"] >= 3
    assert disk_image_digest(cluster) == PINNED_DIGEST


if __name__ == "__main__":
    print(disk_image_digest(run_fixed_history()))
