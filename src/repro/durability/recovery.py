"""Crash-restart recovery: snapshot + WAL suffix -> rebuilt node state.

The journal vocabulary (every record is a small canonical-JSON dict):

* ``{"k": "db", "op": ..., "c": <collection>, ...}`` — one logical
  mutation of a journaled :class:`~repro.storage.database.Database`:
  ``insert`` (the frozen stored document), ``delete`` / ``update``
  (query + update document, replayed through the same code path), or
  ``replace`` (the computed replacement documents of a callable update,
  in match order — callables cannot be serialised, their *effects* can).
* ``{"k": "block", "b": <block record>}`` — one committed block with
  its full envelopes, so a restarted validator can rebuild its chain
  (and serve catch-up) with byte-identical block ids.
* ``{"k": "lock", "r": <round>, "b": <block record>}`` — the Tendermint
  lock the consensus engine must not forget across a crash
  (arXiv:1807.04938's write-ahead consensus state); cleared implicitly
  once a block at or past the locked height commits.

Recovery is *scan to torn tail*: repair the WAL (truncate the torn
suffix), load the newest valid snapshot, then replay every journal
record with an LSN past the snapshot.  The result is exactly the state
whose journal records were durably synced — the longest valid prefix of
the node's history, never a partial frame.

Writers splice frames from bytes encoded once (an ``insert``'s document,
a ``lock`` / ``block`` record's block and certificate, a checkpoint's
whole state — :func:`checkpoint_state`); every frame on the device is
byte-identical to ``encode_frame`` of the record dict, so this module
reads them back with plain ``json.loads`` and knows nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.encoding import (
    canonical_bytes,
    canonical_serialize,
    deep_copy_json,
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
    """An envelope's entry in its block's record; slot 1 is the payload."""
    return [
        envelope.tx_id,
        envelope.payload,
        envelope.size_bytes,
        envelope.weight,
        envelope.submitted_at,
    ]


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


def checkpoint_state(database: Database, **members: bytes) -> list[bytes]:
    """A checkpoint's state object, canonically encoded, as byte pieces.

    ``{"collections": {name: [documents in insertion order]}, **members}``
    where ``members`` (a validator's chain, lock and certificates) are
    already encoded.  Nothing is copied or re-encoded: each collection
    splices the bytes it kept per document, and the pieces are joined
    only once, into the snapshot frame.  Joined they are byte-identical
    to ``canonical_bytes`` of the equivalent dict state — the form
    :func:`recover` decodes and :func:`load_collections` loads.
    """
    collections = {
        name: database.collection(name).encoded_documents()
        for name in database.collection_names()
    }
    return object_pieces({"collections": collections, **members})


def load_collections(
    database: Database, state: dict[str, list[dict[str, Any]]]
) -> None:
    """Insert a snapshot dump back, preserving insertion order."""
    for name, documents in state.items():
        collection = database.create_collection(name)
        for document in documents:
            collection.insert_one(document)


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
    replayed: int = 0
    #: height -> commit certificate (quorum precommit signatures) for
    #: every recovered block that journaled one; a restarted node must
    #: be able to *serve* verifiable catch-up, not just follow it.
    certs: dict[int, dict[str, Any]] = field(default_factory=dict)

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
        repair: truncate the torn tail and rebind the live WAL so that
            post-recovery appends extend the valid prefix.  Pass False
            for pure-read verification (the durability invariant).

    Returns:
        The rebuilt state; when ``repair`` is True the ``durability``
        handle's WAL is reopened on the repaired device and its append
        counter continues after the last surviving record.
    """
    wal = SegmentedWal(
        durability.disk,
        prefix=durability.wal.prefix,
        segment_max_bytes=durability.wal.segment_max_bytes,
    )
    if repair:
        wal.repair()
    database = database_factory()
    state = RecoveredState(database=database)
    snapshot = durability.snapshots.latest()
    if snapshot is not None:
        state.snapshot_lsn, snap_state = snapshot
        # ``latest`` decoded the frame for this call alone, so its parts
        # are taken by reference.
        load_collections(database, snap_state.get("collections", {}))
        state.block_records = snap_state.get("blocks", [])
        state.lock = snap_state.get("lock")
        # Certificates snapshot as [height, cert] pairs (canonical JSON
        # keys must be strings; heights are ints).
        for height, cert in snap_state.get("certs", []):
            state.certs[height] = cert
    for lsn, record in wal.scan():
        if lsn <= state.snapshot_lsn:
            continue
        kind = record.get("k")
        if kind == "db":
            apply_db_op(database, record)
        elif kind == "block":
            state.block_records.append(record["b"])
            if record.get("cert") is not None:
                state.certs[record["b"]["h"]] = record["cert"]
        elif kind == "lock":
            state.lock = {"r": record["r"], "b": record["b"]}
        state.last_lsn = max(state.last_lsn, lsn)
        state.replayed += 1
    state.last_lsn = max(state.last_lsn, state.snapshot_lsn)
    if repair:
        wal.next_lsn = state.last_lsn + 1
        wal.snapshot_lsn = state.snapshot_lsn
        durability.reopen(wal)
    return state


def scan_block_records(durability: Any, from_height: int = 0):
    """Yield the journal's block records above ``from_height``, in order.

    Read-only replay-to-height for change-feed bootstrap: reads the
    newest snapshot's block list plus the WAL suffix through a fresh
    (unrepaired) scanner, touching none of the node's live recovery
    state.  Heights arrive ascending, so a consumer's height cursor can
    tail straight from the last yielded record into live flushes.
    """
    for record, _ in scan_delivered_blocks(durability, from_height):
        yield record


def scan_delivered_blocks(durability: Any, from_height: int = 0):
    """:func:`scan_block_records`, each record paired with the ids of
    the transactions its block *delivered* on this node — a block record
    carries every envelope the block contained, the ``blocks``
    collection's document (snapshotted, then journaled just ahead of the
    block record) lists the ones DeliverTx accepted.  ``None`` when the
    journal holds no such document (a consensus-only journal)."""
    snapshot_lsn = 0
    delivered: dict[int, list[str]] = {}
    snapshot = durability.snapshots.latest()
    if snapshot is not None:
        snapshot_lsn, snap_state = snapshot
        for document in snap_state.get("collections", {}).get("blocks", []):
            delivered[document["height"]] = document["transaction_ids"]
        for record in snap_state.get("blocks", []):
            if record["h"] > from_height:
                yield deep_copy_json(record), delivered.get(record["h"])
    wal = SegmentedWal(
        durability.disk,
        prefix=durability.wal.prefix,
        segment_max_bytes=durability.wal.segment_max_bytes,
    )
    for lsn, record in wal.scan():
        if lsn <= snapshot_lsn:
            continue
        if is_blocks_insert(record):
            delivered[record["d"]["height"]] = record["d"]["transaction_ids"]
        elif record.get("k") == "block" and record["b"]["h"] > from_height:
            yield deep_copy_json(record["b"]), delivered.get(record["b"]["h"])


def is_blocks_insert(record: dict[str, Any]) -> bool:
    """Is this journal record the ``blocks`` collection's document for a
    committed block (height, block id, delivered ``transaction_ids``)?"""
    return (
        record.get("k") == "db" and record.get("c") == "blocks" and record.get("op") == "insert"
    )
