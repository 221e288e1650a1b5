"""Snapshot + WAL replay rebuilds databases, chains and lock state."""

import json

import pytest

from repro.common.encoding import canonical_bytes
from repro.consensus.types import Block, TxEnvelope
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.durability.recovery import (
    apply_db_op,
    block_record,
    checkpoint_state,
    diff_databases,
    encoded_block_record,
    load_collections,
    rebuild_block,
    recover,
)
from repro.durability.wal import encode_frame
from repro.sim.events import EventLoop
from repro.storage.database import Database


def make_durable_db(loop, name="test-db", **config):
    durability = NodeDurability(name, loop, DurabilityConfig(**config))
    database = Database(name, wal=durability.log)
    return durability, database


def factory():
    return Database("rebuilt")


class TestDbOpReplay:
    def test_insert_delete_update_roundtrip(self):
        loop = EventLoop()
        durability, database = make_durable_db(loop)
        people = database.create_collection("people")
        people.insert_one({"id": "a", "rank": 1})
        people.insert_one({"id": "b", "rank": 2})
        people.update_many({"id": "a"}, {"$set": {"rank": 10}})
        people.update_many({"id": "b"}, {"$inc": {"rank": 5}})
        people.delete_many({"id": "b"})
        loop.run_until_idle()
        recovered = recover(durability, factory, repair=False)
        assert diff_databases(database, recovered.database) == []
        assert recovered.database.collection("people").find_one({"id": "a"})["rank"] == 10

    def test_callable_update_replays_via_replacements(self):
        loop = EventLoop()
        durability, database = make_durable_db(loop)
        rows = database.create_collection("rows")
        rows.insert_one({"id": "x", "children": [{"s": "p"}]})
        record = {"id": "x", "children": [{"s": "done"}]}
        rows.update_many({"id": "x"}, lambda _: record)
        loop.run_until_idle()
        recovered = recover(durability, factory, repair=False)
        assert diff_databases(database, recovered.database) == []
        assert (
            recovered.database.collection("rows").find_one({"id": "x"})["children"]
            == [{"s": "done"}]
        )

    def test_unknown_op_raises(self):
        import pytest

        with pytest.raises(ValueError):
            apply_db_op(Database("d"), {"op": "upsert", "c": "x"})


class TestSnapshots:
    def test_snapshot_bounds_replay(self):
        loop = EventLoop()
        durability, database = make_durable_db(loop, snapshot_interval=10)
        durability.state_provider = lambda: checkpoint_state(database)
        items = database.create_collection("items")
        for i in range(35):
            items.insert_one({"n": i})
            loop.run_until_idle()  # one record per flush: cadence is exact
        assert durability.snapshots.latest() is not None
        recovered = recover(durability, factory, repair=False)
        assert recovered.replayed < 35
        assert diff_databases(database, recovered.database) == []

    def test_snapshot_retires_covered_segments(self):
        loop = EventLoop()
        durability, database = make_durable_db(
            loop, snapshot_interval=20, segment_max_bytes=512
        )
        durability.state_provider = lambda: checkpoint_state(database)
        items = database.create_collection("items")
        for i in range(120):
            items.insert_one({"n": i, "pad": "x" * 40})
            loop.run_until_idle()
        assert durability.wal.stats["retired_segments"] > 0
        recovered = recover(durability, factory, repair=False)
        assert diff_databases(database, recovered.database) == []

    def test_checkpoint_at_unchanged_cutoff_is_idempotent(self):
        """Regression: re-taking a snapshot at the same LSN must not
        append a second frame to the file (which ``latest`` would reject,
        destroying the only checkpoint after its segments retired)."""
        loop = EventLoop()
        durability, database = make_durable_db(
            loop, snapshot_interval=50, segment_max_bytes=256
        )
        durability.state_provider = lambda: checkpoint_state(database)
        items = database.create_collection("items")
        for i in range(100):
            items.insert_one({"n": i, "pad": "x" * 16})
            loop.run_until_idle()
        durability.checkpoint()
        durability.checkpoint()  # no records in between: same cutoff
        assert durability.snapshots.latest() is not None
        durability.power_fail()
        recovered = recover(durability, factory, repair=False)
        assert recovered.database.collection("items").count({}) == 100
        assert diff_databases(database, recovered.database) == []

    def test_torn_same_lsn_snapshot_is_rewritten(self):
        loop = EventLoop()
        durability, database = make_durable_db(loop)
        durability.state_provider = lambda: checkpoint_state(database)
        items = database.create_collection("items")
        for i in range(8):
            items.insert_one({"n": i})
        loop.run_until_idle()
        cutoff = durability.checkpoint()
        snap_name = next(n for n in durability.disk.list() if n.endswith(".snap"))
        durability.disk.corrupt(snap_name, 12)
        assert durability.snapshots.latest() is None
        durability.checkpoint()  # same cutoff, but the torn file must be rewritten
        latest = durability.snapshots.latest()
        assert latest is not None and latest[0] == cutoff

    def test_same_name_snapshot_of_another_lsn_is_rewritten(self):
        """The guard reads the ``{"lsn":N,`` opening: a whole frame whose
        LSN merely starts with the same digits does not count as taken."""
        loop = EventLoop()
        durability, _ = make_durable_db(loop)
        snapshots = durability.snapshots
        durability.disk.append(snapshots._name(5), encode_frame({"lsn": 50, "state": {}}))
        durability.disk.sync(snapshots._name(5))
        snapshots.take([b'{"blocks":[]}'], 5)
        assert snapshots.latest() == (5, {"blocks": []})

    def test_torn_snapshot_falls_back_to_wal(self):
        loop = EventLoop()
        durability, database = make_durable_db(loop)
        items = database.create_collection("items")
        for i in range(6):
            items.insert_one({"n": i})
        loop.run_until_idle()
        durability.checkpoint()
        # Corrupt the snapshot: recovery must ignore it and replay the
        # retained WAL (retire keeps the active segment).
        snap_name = next(n for n in durability.disk.list() if n.endswith(".snap"))
        durability.disk.corrupt(snap_name, 10)
        recovered = recover(durability, factory, repair=False)
        assert diff_databases(database, recovered.database) == []

    def test_load_collections_preserves_insertion_order(self):
        source = Database("s")
        col = source.create_collection("c")
        for i in range(5):
            col.insert_one({"n": i})
        target = Database("t")
        load_collections(
            target, json.loads(b"".join(checkpoint_state(source)))["collections"]
        )
        assert [d["n"] for d in target.collection("c").find({})] == [0, 1, 2, 3, 4]


class TestBlockRecords:
    def test_block_roundtrip_preserves_id_and_envelopes(self):
        envelope = TxEnvelope("tx-1", {"id": "tx-1", "operation": "CREATE"}, 99, 2, 0.5)
        block = Block.build(3, 1, "scdb-0", [envelope], "f" * 64)
        rebuilt = rebuild_block(block_record(block))
        assert rebuilt.block_id == block.block_id
        assert rebuilt.transactions[0].payload == envelope.payload
        assert rebuilt.transactions[0].size_bytes == 99

    # The spliced encoding is what goes to disk and ``block_record`` is what
    # ``rebuild_block`` reads back: they must never drift apart.
    ENVELOPES = [
        TxEnvelope("tx-1", {"id": "tx-1", "operation": "CREATE"}, 99, 2, 0.5),
        TxEnvelope('a,"b",c\\', {"z": [1, {"é": None}], "a": {}, "m": 'x,"y"'}, 7, 1, 3),
        TxEnvelope("ünï,cøde", {"nested": {"b": 2.50, "a": [True, False]}}, 0, 10**12, 1e-9),
        TxEnvelope("", {}, 1, 0, 12345.678),
    ]

    @pytest.mark.parametrize("count", range(len(ENVELOPES) + 1))
    def test_spliced_record_equals_the_encoded_dict(self, count):
        block = Block.build(4, 2, 'scdb-"0",x', self.ENVELOPES[:count], "e" * 64)
        whole = canonical_bytes(block_record(block))
        calls = []

        def kept(payload):
            calls.append(payload)
            return canonical_bytes(payload)

        assert encoded_block_record(block, kept) == whole
        assert [id(p) for p in calls] == [id(e.payload) for e in block.transactions]
        assert encoded_block_record(block) == whole
        assert rebuild_block(json.loads(encoded_block_record(block, kept))) == block

    def test_a_block_with_any_payload_not_kept_is_encoded_in_one_call(self, monkeypatch):
        from repro.common import encoding

        block = Block.build(4, 0, "scdb-1", self.ENVELOPES, "e" * 64)
        whole = canonical_bytes(block_record(block))
        missing = self.ENVELOPES[2].payload
        calls = []
        real = encoding.canonical_serialize
        monkeypatch.setattr(
            encoding, "canonical_serialize", lambda value: calls.append(1) or real(value)
        )
        spliced = encoded_block_record(
            block, lambda payload: None if payload is missing else b"never spliced"
        )
        assert len(calls) == 1 and spliced == whole

    def test_lock_cleared_once_height_commits(self):
        loop = EventLoop()
        durability, _ = make_durable_db(loop)
        envelope = TxEnvelope("tx-1", {"id": "tx-1"}, 10, 1, 0.0)
        b1 = Block.build(1, 0, "n0", [envelope], "0" * 64)
        durability.journal({"k": "lock", "r": 0, "b": block_record(b1)})
        durability.journal({"k": "block", "b": block_record(b1)})
        loop.run_until_idle()
        recovered = recover(durability, factory, repair=False)
        assert recovered.locked() == (-1, None)

    def test_live_lock_survives_recovery(self):
        loop = EventLoop()
        durability, _ = make_durable_db(loop)
        envelope = TxEnvelope("tx-2", {"id": "tx-2"}, 10, 1, 0.0)
        b2 = Block.build(2, 1, "n0", [envelope], "a" * 64)
        durability.journal({"k": "lock", "r": 1, "b": block_record(b2)})
        loop.run_until_idle()
        recovered = recover(durability, factory, repair=False)
        locked_round, locked_block = recovered.locked()
        assert locked_round == 1
        assert locked_block.block_id == b2.block_id
