"""The node-local database: named collections with the SmartchainDB layout.

Mirrors the MongoDB database each BigchainDB node runs, including the new
``accept_tx_recovery`` collection the paper introduces for nested
transaction recovery (Section 4.2).
"""

from __future__ import annotations

from typing import Any

from repro.common.encoding import canonical_bytes
from repro.common.errors import CollectionNotFoundError
from repro.storage.collection import Collection

#: Collections a SmartchainDB node provisions, with their hash indexes.
SMARTCHAINDB_LAYOUT: dict[str, list[tuple[str, bool]]] = {
    # (index path, unique)
    "transactions": [
        ("id", True),
        ("operation", False),
        ("asset.id", False),
        ("outputs.public_keys", False),
        ("references", False),
        ("inputs.fulfills.transaction_id", False),
    ],
    "assets": [("id", True)],
    "metadata": [("id", True)],
    "blocks": [("height", True)],
    "utxos": [("transaction_id", False), ("public_keys", False)],
    "accept_tx_recovery": [("accept_id", True), ("rfq_id", False), ("status", False)],
}


class Database:
    """A named set of collections, creatable on demand.

    Args:
        name: database name.
        wal: optional journal sink — anything with an ``append(record)``
            method, normally a
            :class:`~repro.durability.commitlog.GroupCommitLog`.  When
            set, every collection mutation (insert/delete/update) emits
            one logical-op record, so the database can be rebuilt from
            checkpoints + journal after a crash
            (:mod:`repro.durability.recovery`).  A journaled database is
            durable.  The 2PC agent's tables journal; a validator's
            collections do not — its chain is their log
            (:meth:`make_durable`).
    """

    def __init__(self, name: str = "smartchaindb", wal: Any = None):
        self.name = name
        self.wal = wal
        self.durable = wal is not None
        self._collections: dict[str, Collection] = {}
        #: Collection name -> its canonical bytes (insert record bodies).
        self._encoded_names: dict[str, bytes] = {}

    def create_collection(self, name: str) -> Collection:
        """Create (or fetch) a collection by name."""
        collection = self._collections.get(name)
        if collection is None:
            collection = Collection(name)
            self._collections[name] = collection
            self._encoded_names[name] = canonical_bytes(name)
            collection.durable = self.durable
            if self.wal is not None:
                collection.journal = self._journal
        return collection

    def attach_wal(self, wal: Any) -> None:
        """Journal all further mutations (existing collections included);
        the database becomes durable.

        Recovery uses this: the database is rebuilt journal-free (replay
        must not re-journal), then reattached so post-restart mutations
        extend the log.
        """
        self.wal = wal
        self.make_durable()
        for collection in self._collections.values():
            collection.journal = self._journal

    def make_durable(self) -> None:
        """Keep per-document bytes and track changes for incremental
        checkpoints, journaled or not (see
        :class:`~repro.storage.collection.Collection`)."""
        self.durable = True
        for collection in self._collections.values():
            collection.durable = True

    def _journal(self, op: dict[str, Any], document: bytes | None = None) -> None:
        """Emit one ``db`` record; an insert arrives with the stored
        document's canonical bytes, so the record body is spliced around
        them (sorted keys ``c`` < ``d`` < ``k`` < ``op``) instead of
        encoding the document a second time at flush."""
        record = {"k": "db", **op}
        if document is None:
            self.wal.append(record)
        else:
            self.wal.append(
                record,
                body=b'{"c":%s,"d":%s,"k":"db","op":"insert"}'
                % (self._encoded_names[op["c"]], document),
            )

    def collection(self, name: str) -> Collection:
        """Fetch an existing collection.

        Raises:
            CollectionNotFoundError: if it was never created.
        """
        collection = self._collections.get(name)
        if collection is None:
            raise CollectionNotFoundError(f"no collection named {name!r} in {self.name!r}")
        return collection

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-collection operation counters (benchmark instrumentation)."""
        return {
            name: {"size": len(collection), **collection.stats}
            for name, collection in self._collections.items()
        }


def make_smartchaindb_database(
    name: str = "smartchaindb", indexed: bool = True, wal: Any = None
) -> Database:
    """Provision the standard SmartchainDB collection layout.

    Args:
        name: database name.
        indexed: when False, collections are created *without* their hash
            indexes — used by the indexing ablation benchmark to show why
            BigchainDB's latency stays flat.
        wal: optional journal sink (see :class:`Database`).
    """
    database = Database(name, wal=wal)
    for collection_name, indexes in SMARTCHAINDB_LAYOUT.items():
        collection = database.create_collection(collection_name)
        if indexed:
            for path, unique in indexes:
                collection.create_index(path, unique=unique)
            collection.create_sorted_index("height") if collection_name == "blocks" else None
    return database
