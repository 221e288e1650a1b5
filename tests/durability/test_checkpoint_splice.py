"""Spliced frames and checkpoints are byte-identical to encoding from scratch.

A durable node encodes each document, block and certificate once and
splices every ``insert`` / ``lock`` / ``block`` WAL frame and every
checkpoint from those bytes.  The oracle is the encoding the splice
replaced, kept here only: every frame the device receives must equal
``encode_frame`` of what it decodes to, and the checkpoint chain on the
device — a base and the deltas since it, folded as recovery folds them —
must equal :func:`dict_state`, the whole state built as dicts
(``find({}, copy=True)`` dumps under their ids, a fresh ``block_record``
per block).  The state machine drives random storage mutations,
committed blocks, locks, certificates, flushes, checkpoints and restarts
from disk.  The count gates at the bottom pin what a checkpoint may cost.
"""

import re
import sys
from collections import Counter
from contextlib import contextmanager

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common import encoding
from repro.consensus.abci import NullApplication
from repro.consensus.bft import BftEngine
from repro.consensus.types import Block, TxEnvelope
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto import keypair_from_string
from repro.durability.node import DurabilityConfig, NodeDurability
from repro.common.encoding import canonical_bytes
from repro.durability.recovery import block_record, checkpoint_state, load_collections, recover
from repro.durability.wal import SimDisk, encode_frame, iter_frames
from repro.sim.events import EventLoop
from repro.sim.network import Network
from repro.sim.rng import SeededRng
from repro.storage.database import Database

COLLECTIONS = ("rows", "ledger")


def dict_state(database, validator) -> dict:
    """The whole checkpoint state, as dicts: each collection's documents
    under their ids, in insertion order."""
    lock = None
    if validator.state.locked_value is not None:
        lock = {"r": validator.state.locked_round, "b": block_record(validator.state.locked_value)}
    return {
        "collections": {
            name: [
                [doc_id, document]
                for doc_id, document in zip(
                    database.collection(name)._documents,
                    database.collection(name).find({}, copy=True),
                )
            ]
            for name in database.collection_names()
        },
        "blocks": [block_record(block) for block in validator.chain],
        "lock": lock,
        "certs": [list(item) for item in sorted(validator.commit_certs.items())],
    }


def folded_state(durability) -> dict:
    """The device's checkpoint chain folded base-first, as recovery
    loads it, in :func:`dict_state`'s shape."""
    database = empty_database()
    blocks, certs, lock = [], {}, None
    for _, state, _ in durability.snapshots.chain():
        load_collections(database, state["collections"])
        blocks += state["blocks"]
        certs.update((height, cert) for height, cert in state["certs"])
        lock = state["lock"]
    return {
        "collections": {
            name: [[doc_id, doc] for doc_id, doc in database.collection(name)._documents.items()]
            for name in database.collection_names()
        },
        "blocks": blocks,
        "lock": lock,
        "certs": [list(item) for item in sorted(certs.items())],
    }


class RecordingDisk(SimDisk):
    """A SimDisk that remembers every append, in order."""

    def __init__(self):
        super().__init__()
        self.appended: list[tuple[str, bytes]] = []

    def append(self, name, *pieces):
        self.appended.append((name, b"".join(pieces)))
        super().append(name, *pieces)


def empty_database(wal=None) -> Database:
    database = Database("splice", wal=wal)
    database.create_collection("rows").create_index("key", unique=True)
    database.create_collection("ledger")
    return database


# Non-ASCII text, floats, empty containers and nested objects whose keys
# sort differently from their insertion order all come out of these.
text = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    text,
    st.sampled_from(["zoë", "✓ done", "", "日本語"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(text, inner, max_size=3)
    ),
    max_leaves=8,
)
bodies = st.dictionaries(st.one_of(text, st.sampled_from(["z", "a", "m"])), values, max_size=4)
keys = st.integers(0, 40)
collections = st.sampled_from(COLLECTIONS)
payload_lists = st.lists(bodies, min_size=0, max_size=3)
certs = st.one_of(
    st.none(),
    st.fixed_dictionaries({"sigs": st.dictionaries(text, text, max_size=3), "r": st.integers(0, 3)}),
)


class SpliceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = EventLoop()
        self.disk = RecordingDisk()
        self.durability = NodeDurability(
            "n0",
            self.loop,
            DurabilityConfig(snapshot_interval=10**9, segment_max_bytes=2048),
            disk=self.disk,
        )
        self.database = empty_database(self.durability.log)
        engine = BftEngine(
            self.loop, Network(self.loop, SeededRng(1)), lambda _: NullApplication(), ["n0"]
        )
        self.validator = engine.validator("n0")
        self.validator.persistence = self.durability
        self.durability.state_provider = lambda full: checkpoint_state(
            self.database, full, **self.validator.checkpoint_members(full)
        )
        self.cursor = 0  # appends of self.disk already compared
        self.capture_flushed_frames()
        self.next_key = 0
        self.tx_serial = 0

    # -- the comparisons --------------------------------------------------------

    def new_appends(self) -> list[tuple[str, bytes]]:
        fresh = self.disk.appended[self.cursor :]
        self.cursor = len(self.disk.appended)
        return fresh

    def capture_flushed_frames(self) -> None:
        """Wrap the WAL's append so every flushed record is captured as
        ``(lsn, record)`` and its frame compared once the batch is synced.
        Recovery hands the log a new WAL, so a restart re-installs this."""
        wal = self.durability.wal
        append, sync = wal.append, wal.sync
        batch = []

        def capture(record, body=None):
            lsn = append(record, body)
            batch.append((lsn, record))
            return lsn

        def check():
            sync()
            self.check_flushed_frames(batch)
            batch.clear()

        wal.append, wal.sync = capture, check

    def check_flushed_frames(self, batch) -> None:
        """Every frame of a flushed batch == encode_frame of its record."""
        fresh = self.new_appends()
        assert all(name.endswith(".seg") for name, _ in fresh)
        assert [data for _, data in fresh] == [
            encode_frame({"lsn": lsn, "rec": record}) for lsn, record in batch
        ]

    # -- storage ----------------------------------------------------------------

    def document(self, body: dict) -> dict:
        self.next_key += 1
        return {**body, "key": self.next_key, "parity": self.next_key % 2}

    @rule(name=collections, body=bodies)
    def insert_one(self, name, body):
        self.database.collection(name).insert_one(self.document(body))

    @rule(name=collections, many=st.lists(bodies, max_size=4))
    def insert_many(self, name, many):
        self.database.collection(name).insert_many([self.document(body) for body in many])

    @rule(name=collections, key=keys, value=values, nested=st.booleans())
    def update_set(self, name, key, value, nested):
        path = "slot.inner" if nested else "slot"
        document = self.database.collection(name).find_one({"key": key}, copy=False)
        if nested and document is not None and not isinstance(document.get("slot", {}), dict):
            return  # $set refuses to cross a non-object
        self.database.collection(name).update_many({"key": key}, {"$set": {path: value}})

    @rule(name=collections, parity=st.integers(0, 1), value=values)
    def update_matching(self, name, parity, value):
        self.database.collection(name).update_many(
            {"parity": parity, "key": {"$lte": 6}}, {"$set": {"touched": value}}
        )

    @rule(name=collections, key=keys)
    def delete_one(self, name, key):
        self.database.collection(name).delete_many({"key": key})

    @rule(name=collections, low=keys)
    def delete_range(self, name, low):
        self.database.collection(name).delete_many({"key": {"$gte": low, "$lte": low + 2}})

    # -- consensus --------------------------------------------------------------

    def block(self, payloads, round_number) -> Block:
        envelopes = []
        for payload in payloads:
            self.tx_serial += 1
            envelopes.append(
                TxEnvelope(
                    tx_id=f"tx-{self.tx_serial}",
                    payload=payload,
                    size_bytes=100 + self.tx_serial,
                    weight=1 + self.tx_serial % 3,
                )
            )
        return Block.build(
            self.validator.state.h,
            round_number,
            "n0",
            envelopes,
            self.validator.state.last_block_id,
        )

    @rule(payloads=payload_lists, round_number=st.integers(0, 2), cert=certs)
    def commit_block(self, payloads, round_number, cert):
        self.validator._apply_block(self.block(payloads, round_number), cert=cert)

    @rule(payloads=payload_lists, round_number=st.integers(0, 2))
    def lock(self, payloads, round_number):
        self.validator.state.locked_value = self.block(payloads, round_number)
        self.validator.state.locked_round = round_number
        self.validator._journal_lock()

    @rule(cert=certs)
    def commit_locked_block(self, cert):
        if self.validator.state.locked_value is not None:
            self.validator._apply_block(self.validator.state.locked_value, cert=cert)

    # -- durability -------------------------------------------------------------

    @rule()
    def flush(self):
        self.loop.run_until_idle()

    @rule()
    def checkpoint(self):
        before = self.durability.snapshots.stats["taken"]
        cutoff = self.durability.checkpoint()
        fresh = self.new_appends()
        if self.durability.snapshots.stats["taken"] == before:
            assert fresh == []  # same LSN as the last checkpoint: a no-op
            return
        ((name, data),) = fresh
        assert name.endswith(".snap")
        (frame,) = iter_frames(data)
        assert frame["lsn"] == cutoff and data == encode_frame(frame)
        assert canonical_bytes(folded_state(self.durability)) == canonical_bytes(
            dict_state(self.database, self.validator)
        )
        if "prev" not in frame:  # a base: every live document's bytes are kept
            for collection_name in COLLECTIONS:
                collection = self.database.collection(collection_name)
                assert set(collection._fragments) == set(collection._documents)

    @rule(torn_bytes=st.integers(0, 9))
    def restart_from_disk(self, torn_bytes):
        """Memory is discarded: nothing rebuilt from disk has kept bytes,
        so the next checkpoint encodes it — and must still match."""
        self.durability.power_fail(torn_bytes)
        recovered = recover(self.durability, empty_database)
        recovered.database.attach_wal(self.durability.log)
        self.database = recovered.database
        locked_round, locked_block = recovered.locked()
        self.validator.restore_durable(
            recovered.blocks(),
            locked_round,
            locked_block,
            certs=recovered.certs,
            checkpointed=recovered.checkpointed,
        )
        self.cursor = len(self.disk.appended)
        self.capture_flushed_frames()

    @invariant()
    def kept_bytes_only_for_live_documents(self):
        for name in COLLECTIONS:
            collection = self.database.collection(name)
            assert set(collection._fragments) <= set(collection._documents)
        memo = self.validator._block_bytes
        assert len(memo) <= len(self.validator.chain) + 1
        assert len(self.validator._cert_bytes) <= len(self.validator.commit_certs)


SpliceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSpliceMachine = SpliceMachine.TestCase


# -- count gates ---------------------------------------------------------------


@contextmanager
def counted(*names):
    """Count calls of ``repro.common.encoding`` functions, wherever imported."""
    counts: Counter = Counter()
    restore = []
    for name in names:
        original = getattr(encoding, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                restore.append((module, name, original))
                setattr(module, name, counting)
    try:
        yield counts
    finally:
        for module, name, original in restore:
            setattr(module, name, original)


def durable_cluster() -> SmartchainCluster:
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=4, seed=4, durability=DurabilityConfig(snapshot_interval=10**9)
        )
    )
    alice = keypair_from_string("alice")
    for i in range(24):
        create = cluster.driver.prepare_create(alice, {"rank": i, "name": f"n-{i}"})
        cluster.submit_payload(create.to_dict())
    cluster.run()
    return cluster


def state_items(cluster, node_id) -> int:
    """Documents + blocks + certificates in one node's checkpoint state."""
    database = cluster.servers[node_id].database
    validator = cluster.engine.validator(node_id)
    return (
        sum(len(database.collection(name)) for name in database.collection_names())
        + len(validator.chain)
        + len(validator.commit_certs)
    )


class TestCheckpointCost:
    def test_checkpoint_of_journaled_state_copies_and_encodes_nothing(self):
        cluster = durable_cluster()
        node_id = cluster.engine.validator_order[0]
        assert state_items(cluster, node_id) > 50
        with counted("deep_copy_json", "canonical_serialize") as counts:
            cluster.node_durability[node_id].checkpoint()
        assert counts["deep_copy_json"] == 0
        assert counts["canonical_serialize"] == 0

    def test_only_what_changed_is_encoded(self):
        cluster = durable_cluster()
        node_id = cluster.engine.validator_order[1]
        durability = cluster.node_durability[node_id]
        durability.checkpoint()
        transactions = cluster.servers[node_id].database.collection("transactions")
        touched = transactions.update_many(
            {"operation": "CREATE"}, {"$set": {"reviewed": True}}
        )
        assert touched == 24
        # A new block moves the cutoff: with no record since the last
        # checkpoint, taking one again is a no-op.
        create = cluster.driver.prepare_create(keypair_from_string("bob"), {"rank": -1})
        cluster.submit_payload(create.to_dict())
        cluster.run()
        with counted("deep_copy_json", "canonical_serialize") as counts:
            durability.checkpoint()
        assert counts["deep_copy_json"] == 0
        assert counts["canonical_serialize"] == touched

    def test_state_rebuilt_from_disk_is_encoded_once_then_never_again(self):
        cluster = durable_cluster()
        node_id = cluster.engine.validator_order[2]
        cluster.restart_node_from_disk(node_id)
        cluster.run()
        durability = cluster.node_durability[node_id]
        with counted("deep_copy_json", "canonical_serialize") as counts:
            durability.checkpoint()
        assert counts["deep_copy_json"] == 0
        assert 0 < counts["canonical_serialize"] <= state_items(cluster, node_id)
        with counted("deep_copy_json", "canonical_serialize") as counts:
            durability.state_provider(False)  # nothing new since: pure splice
        assert sum(counts.values()) == 0

    def test_a_block_is_encoded_once_for_lock_commit_and_snapshots(self):
        cluster = durable_cluster()
        node_id = cluster.engine.validator_order[0]
        validator = cluster.engine.validator(node_id)
        assert len(validator._block_bytes) == len(validator.chain)
        assert all(
            validator._block_bytes[block.height][0] is block for block in validator.chain
        )

    def test_a_block_is_encoded_once_per_engine_not_once_per_validator(self, monkeypatch):
        import repro.consensus.bft as bft

        encoded = []
        real = bft.encoded_block_record
        monkeypatch.setattr(
            bft, "encoded_block_record", lambda block: encoded.append(block) or real(block)
        )
        cluster = durable_cluster()
        first, *others = (cluster.engine.validator(n) for n in cluster.engine.validator_order)
        assert first.chain and len({id(block) for block in encoded}) == len(encoded)
        for validator in others:
            for block in first.chain:
                assert validator._block_bytes[block.height][1] is first._block_bytes[block.height][1]

    def test_snapshot_pieces_are_the_kept_bytes_themselves(self):
        """Identity, not timing: every piece of 64 B or more in the
        base checkpoint is a document's, block's or certificate's kept
        bytes, or a collection's list of document ids."""
        cluster = durable_cluster()
        node_id = cluster.engine.validator_order[3]
        durability = cluster.node_durability[node_id]
        durability.checkpoint()
        database = cluster.servers[node_id].database
        validator = cluster.engine.validator(node_id)
        kept = {
            id(fragment)
            for name in database.collection_names()
            for fragment in database.collection(name)._fragments.values()
        }
        kept |= {id(body) for _, body in validator._block_bytes.values()}
        kept |= {id(body) for _, body in validator._cert_bytes.values()}
        (snap,) = [name for name in durability.disk.list() if name.endswith(".snap")]
        big = [piece for piece in durability.disk._durable[snap] if len(piece) >= 64]
        ids = [piece for piece in big if re.fullmatch(rb"\[[0-9,]*\]", piece)]
        assert big and all(id(piece) in kept for piece in big if piece not in ids)
        assert sum(map(len, big)) > 0.9 * durability.disk.durable_size(snap)

    def test_volatile_cluster_keeps_no_bytes(self):
        cluster = SmartchainCluster(ClusterConfig(n_validators=4, seed=4))
        alice = keypair_from_string("alice")
        create = cluster.driver.prepare_create(alice, {"rank": 1})
        cluster.submit_payload(create.to_dict())
        cluster.run()
        for node_id, server in cluster.servers.items():
            assert len(server.database.collection("transactions")) == 1
            for name in server.database.collection_names():
                assert server.database.collection(name)._fragments == {}
            validator = cluster.engine.validator(node_id)
            assert validator._block_bytes == {} and validator._cert_bytes == {}
