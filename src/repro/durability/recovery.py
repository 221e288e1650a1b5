"""Crash-restart recovery: checkpoint chain + WAL suffix -> rebuilt node state.

The chain is the log of what it determines: a validator journals its
consensus state and blocks, never the collections DeliverTx derives from
them, and a restart re-delivers the blocks above its checkpoints, as
Tendermint's handshake replays its block store (arXiv:1807.04938).  The
journal vocabulary (every record is a small canonical-JSON dict):

* ``{"k": "db", "op": ..., "c": <collection>, ...}`` — one logical
  mutation of a journaled agent table (2PC, migrations):
  ``insert`` (the frozen stored document), ``delete`` / ``update``
  (query + update document, replayed through the same code path), or
  ``replace`` (the computed replacement documents of a callable update,
  in match order — callables cannot be serialised, their *effects* can).
* ``{"k": "lock", "r": <round>, "b": <block record>}`` — the Tendermint
  lock the consensus engine must not forget across a crash (the
  write-ahead consensus state), with the locked block; cleared
  implicitly once a block at or past the locked height commits.
* ``{"k": "block", "h": ..., "id": ..., "t": <delivery time>, "cert":
  ...}`` — one committed block (``cert`` absent if none was assembled);
  its record rides along as ``"b"`` only if no ``lock`` frame recovery
  reads has it (a block got by catch-up, or whose lock frame a checkpoint
  retired — the head checkpoint's lock counts).  Replay judges deadlines
  at ``t``, as the live node did.

Recovery is *scan to torn tail*: repair the WAL (truncate the torn
suffix), load the newest whole checkpoint chain, then replay every
journal record with an LSN past its head.  The result is exactly the
state whose records were durably synced — the longest valid prefix of
the node's history, never a partial frame.

Writers splice frames from bytes encoded once (an ``insert``'s document,
a ``lock`` / ``block`` record's block and certificate, a checkpoint's
documents — :func:`checkpoint_state`); every frame on the device is
byte-identical to ``encode_frame`` of the record dict, so this module
reads them back with plain ``json.loads`` and knows nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.encoding import (
    canonical_bytes,
    canonical_serialize,
    object_pieces,
    splice_array,
)
from repro.consensus.types import Block, TxEnvelope
from repro.storage.database import Database
from repro.durability.wal import SegmentedWal


# -- block (de)serialisation --------------------------------------------------


def _block_header(block: Block) -> dict[str, Any]:
    return {
        "h": block.height,
        "r": block.round,
        "p": block.proposer,
        "prev": block.previous_id,
        "id": block.block_id,
    }


def _envelope_item(envelope: TxEnvelope) -> list[Any]:
    """An envelope's entry in its block's record; slot 1 is the payload,
    slot 5 (present only when there are any) its attachments."""
    item = [
        envelope.tx_id,
        envelope.payload,
        envelope.size_bytes,
        envelope.weight,
        envelope.submitted_at,
    ]
    if envelope.attachments:
        item.append(list(envelope.attachments))
    return item


def block_record(block: Block) -> dict[str, Any]:
    """Serialise a consensus block, envelopes included."""
    record = _block_header(block)
    record["txs"] = [_envelope_item(envelope) for envelope in block.transactions]
    return record


def encoded_block_record(
    block: Block, kept_payload: Callable[[Any], bytes | None] | None = None
) -> bytes:
    """``canonical_bytes(block_record(block))``, byte for byte.

    ``kept_payload(payload)`` returns the canonical bytes somebody
    already holds for that payload object, or None.  When every
    transaction of the block has them they are spliced in by reference
    and only the header and the envelopes' scalars are encoded; a block
    with nothing to splice (empty, no ``kept_payload``, or read back
    from disk so nothing of it was ever admitted here) is encoded whole,
    in one call.
    """
    kept = (
        [kept_payload(envelope.payload) for envelope in block.transactions]
        if kept_payload is not None
        else []
    )
    if not kept or None in kept:
        return canonical_bytes(block_record(block))

    def item(envelope: TxEnvelope, payload: bytes) -> bytes:
        fields = _envelope_item(envelope)
        before, after = canonical_bytes(fields[:1]), canonical_bytes(fields[2:])
        return b"%s,%s,%s" % (before[:-1], payload, after[1:])

    # "txs" sorts after every header key, so it closes the object (the
    # parity with ``block_record`` is pinned in tests/durability).
    header = canonical_bytes(_block_header(block))
    return b'%s,"txs":%s}' % (header[:-1], splice_array(map(item, block.transactions, kept)))


def rebuild_block(record: dict[str, Any]) -> Block:
    """Inverse of :func:`block_record` (block id preserved verbatim)."""
    return Block(
        height=record["h"],
        round=record["r"],
        proposer=record["p"],
        transactions=tuple(
            TxEnvelope(
                tx_id=item[0],
                payload=item[1],
                size_bytes=item[2],
                weight=item[3],
                submitted_at=item[4],
                attachments=tuple(item[5]) if len(item) > 5 else (),
            )
            for item in record["txs"]
        ),
        previous_id=record["prev"],
        block_id=record["id"],
    )


# -- database journal replay --------------------------------------------------


def apply_db_op(database: Database, op: dict[str, Any]) -> None:
    """Replay one journaled mutation against a (journal-free) database."""
    collection = database.create_collection(op["c"])
    kind = op["op"]
    if kind == "insert":
        collection.insert_one(op["d"])
    elif kind == "delete":
        collection.delete_many(op["q"])
    elif kind == "update":
        collection.update_many(op["q"], op["u"])
    elif kind == "replace":
        replacements = iter(op["r"])
        collection.update_many(op["q"], lambda _: next(replacements))
    else:
        raise ValueError(f"unknown journaled db op {kind!r}")


def checkpoint_state(database: Database, full: bool = True, **members: Any) -> list[bytes]:
    """A checkpoint's state object, canonically encoded, as byte pieces.

    ``{"collections": {name: entry}, **members}``: every collection's
    :meth:`~repro.storage.collection.Collection.checkpoint_entry` if
    ``full``, else those of the collections that changed since the last
    checkpoint; ``members`` (a validator's new blocks, certificates and
    lock) are already encoded, as :func:`object_pieces` values.  Nothing
    is copied or re-encoded: each collection contributes the bytes it
    kept per document, by reference.  Joined the pieces are
    byte-identical to ``canonical_bytes`` of the equivalent dict state.
    """
    collections = {}
    for name in database.collection_names():
        collection = database.collection(name)
        if full or collection.changed:
            collections[name] = collection.checkpoint_entry(full)
    return object_pieces({"collections": collections, **members})


def load_collections(database: Database, state: dict[str, dict[str, Any]]) -> None:
    """Apply one checkpoint's collection entries, in id order."""
    for name, entry in state.items():
        database.create_collection(name).load_checkpoint(entry)


def diff_databases(live: Database, recovered: Database) -> list[str]:
    """Human-readable differences between two databases' contents."""
    problems = []
    names = sorted(set(live.collection_names()) | set(recovered.collection_names()))
    for name in names:
        live_docs = sorted(
            canonical_serialize(doc)
            for doc in (live.collection(name).find({}, copy=False) if name in live else [])
        )
        rec_docs = sorted(
            canonical_serialize(doc)
            for doc in (
                recovered.collection(name).find({}, copy=False)
                if name in recovered
                else []
            )
        )
        if live_docs != rec_docs:
            missing = len([doc for doc in live_docs if doc not in rec_docs])
            ghost = len([doc for doc in rec_docs if doc not in live_docs])
            problems.append(
                f"collection {name!r}: disk replay diverges from live state "
                f"(missing={missing} ghost={ghost})"
            )
    return problems


# -- full node recovery -------------------------------------------------------


@dataclass
class RecoveredState:
    """Everything a restart-from-disk rebuilds."""

    database: Database
    block_records: list[dict[str, Any]] = field(default_factory=list)
    lock: dict[str, Any] | None = None
    last_lsn: int = 0
    snapshot_lsn: int = 0
    #: WAL records read past the checkpoint chain's head.
    replayed: int = 0
    #: height -> commit certificate (quorum precommit signatures) for
    #: every recovered block that journaled one; a restarted node must
    #: be able to *serve* verifiable catch-up, not just follow it.
    certs: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: Leading blocks the checkpoint chain held (their effects are in
    #: ``database``), and the delivery time of each later block.
    checkpointed: int = 0
    times: list[float] = field(default_factory=list)

    def blocks(self) -> list[Block]:
        return [rebuild_block(record) for record in self.block_records]

    def locked(self) -> tuple[int, Block | None]:
        """(locked_round, locked_block) after clearing decided locks."""
        if self.lock is None:
            return -1, None
        block = rebuild_block(self.lock["b"])
        chain_height = self.block_records[-1]["h"] if self.block_records else 0
        if block.height <= chain_height:
            # The locked height committed (this block or another): the
            # live node would have dropped the lock at apply time.
            return -1, None
        return self.lock["r"], block


def recover(durability: Any, database_factory: Callable[[], Database], repair: bool = True) -> RecoveredState:
    """Rebuild one node's durable state from its device.

    Args:
        durability: the node's :class:`~repro.durability.node.NodeDurability`.
        database_factory: builds the empty, *journal-free* database with
            the right collection layout/indexes; the journal reattaches
            only after replay (replaying must not re-journal).
        repair: truncate the torn tail and rebind the live WAL (and
            checkpoint chain) so that post-recovery writes extend them.
            Pass False for pure-read verification.

    Returns:
        The rebuilt state — a validator's collections as of the chain's
        checkpoints: the caller re-delivers the later blocks.  When
        ``repair`` is True the ``durability`` handle's WAL is reopened on
        the repaired device and its append counter continues after the
        last surviving record.
    """
    wal = SegmentedWal(
        durability.disk,
        prefix=durability.wal.prefix,
        segment_max_bytes=durability.wal.segment_max_bytes,
    )
    if repair:
        wal.repair()
    database = database_factory()
    database.make_durable()  # what replay changes goes in the next checkpoint
    state = RecoveredState(database=database)
    chain = durability.snapshots.chain()
    for lsn, snap_state, _ in chain:  # decoded for this call: by reference
        state.snapshot_lsn = lsn
        load_collections(database, snap_state.get("collections", {}))
        state.block_records.extend(snap_state.get("blocks", []))
        state.lock = snap_state.get("lock")
        # Certificates snapshot as [height, cert] pairs (canonical JSON
        # keys must be strings; heights are ints).
        for height, cert in snap_state.get("certs", []):
            state.certs[height] = cert
    state.checkpointed = len(state.block_records)
    bodies = {state.lock["b"]["id"]: state.lock["b"]} if state.lock else {}
    for lsn, record in wal.scan():
        if lsn <= state.snapshot_lsn:
            continue
        kind = record.get("k")
        if kind == "db":
            apply_db_op(database, record)
        elif kind == "block":
            body = record.get("b") or bodies[record["id"]]
            state.block_records.append(body)
            state.times.append(record.get("t", 0.0))
            if record.get("cert") is not None:
                state.certs[body["h"]] = record["cert"]
        elif kind == "lock":
            state.lock = {"r": record["r"], "b": record["b"]}
            bodies[record["b"]["id"]] = record["b"]
        state.last_lsn = max(state.last_lsn, lsn)
        state.replayed += 1
    state.last_lsn = max(state.last_lsn, state.snapshot_lsn)
    if repair:
        wal.next_lsn = state.last_lsn + 1
        wal.snapshot_lsn = state.snapshot_lsn
        durability.reopen(wal)
        durability.snapshots.adopt(chain)
        if durability.blocks_since_checkpoint is not None or state.times:
            durability.blocks_since_checkpoint = len(state.times)
    return state
