"""A single document collection with indexes and update support."""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.encoding import (
    array_pieces,
    collector_paused,
    decode_plain,
    deep_copy_json,
    frozen_bytes,
    known_plain,
    object_pieces,
)
from repro.common.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage.compiler import DocMatcher, compile_query, compile_resolver, scalar_equal
from repro.storage.indexes import HashIndex, SortedIndex
from repro.storage.query import QueryPlan, QueryPlanner

#: Operand types of the equalities a residual checks uncompiled.
_SCALARS = (str, int, float)

#: A stored document and its internal id.
Match = tuple[int, dict[str, Any]]


class Collection:
    """An in-process MongoDB-style collection.

    Documents are stored by internal integer id.  Copy discipline is
    *freeze-on-insert*: a document is deep-copied exactly once when it
    crosses the insert boundary and is treated as immutable from then on
    (updates replace the stored document wholesale, they never mutate it).
    Reads therefore only pay for a copy when the caller may mutate the
    result: ``find(...)`` defaults to copying, while internal read-only
    consumers (validation, analytics) pass ``copy=False`` and receive the
    frozen stored documents directly — the zero-copy hot path.  Its
    mirror on the write side is ``insert_one(..., copy=False)``: a caller
    whose document is *already* frozen (a transaction payload past the
    submit boundary) hands it over by reference, so every replica of a
    process stores the same dict — sound for the same reason zero-copy
    reads are: nothing ever mutates a stored document in place.

    Queries are *planned first and compiled last*.  The hash indexes are
    probed straight from the query's top-level equalities, and the probe
    alone answers the ledger's point queries: an empty bucket is the
    answer (the usual fate of a spend check or a "not yet present"
    lookup), the buckets of every probed string equality intersect into
    the candidates, and a query of such equalities alone (``{"id": x}``)
    is answered by them as they stand.  Scalar equalities left to check
    (a UTXO retirement's ``output_index``) run the compiler's equality
    rule uncompiled.  Everything else — a scan, or any other clause left
    — is compiled (:mod:`repro.storage.compiler`), once, and the closure
    is evaluated per candidate instead of re-interpreting the query.

    One consequence: the clauses of a query whose probe comes back empty
    are never read, so a malformed one returns nothing there instead of
    raising :class:`QueryError`; with a candidate or on a scan it is
    rejected eagerly, before any document is touched.

    A *durable* collection (journaled, or derived from a durable chain)
    also keeps the canonical bytes of each frozen document, made once at
    insert: the ``insert`` journal record and every later checkpoint
    splice those bytes in (:meth:`checkpoint_entry`) instead of
    re-encoding the document, and a checkpoint on the simulated disk
    holds them by reference rather than a copy.  They exist only for live
    documents: an update or delete drops them, a volatile collection
    never makes any.  It also keeps its change set, the one record of
    what its writes changed: the ids inserted or replaced and the ids
    deleted since the last :meth:`take_changes`.  A checkpoint takes it
    and writes only that; so does the chain replay after each block.

    The same bytes make a durable collection's caller-owned copies:
    ``find(copy=True)`` decodes its whole answer in one call over the
    spliced kept bytes (a document without them is encoded and kept
    first) instead of deep-copying each document.  The call is orjson's
    when every document of the answer was known plain when its bytes
    were made (:func:`~repro.common.encoding.known_plain`, recorded per
    document), else ``json.loads``: orjson would read an integer of
    2**64 or more back as a float.  Values and JSON types are those of
    the stored documents; keys come back in canonical (sorted) order —
    what a replica recovered from its disk serves anyway.  A volatile
    collection copies with ``deep_copy_json``.

    Args:
        name: collection name (used in error messages / stats).
    """

    def __init__(self, name: str):
        self.name = name
        #: Optional journal sink (set by a WAL-backed Database, which
        #: makes the collection durable): called with one logical-op
        #: record per successful mutation, *after* the in-memory apply —
        #: write-ahead ordering is provided by the group-commit layer,
        #: which makes the record durable before any externally visible
        #: acknowledgement leaves the node.  An ``insert`` record comes
        #: with the document's canonical bytes as second argument.
        self.journal: Callable[..., None] | None = None
        #: Keeps document bytes and a change set (see the class docstring).
        self.durable = False
        self._documents: dict[int, dict[str, Any]] = {}
        #: doc id -> canonical bytes of the stored document (see class doc).
        self._fragments: dict[int, bytes] = {}
        #: Doc ids whose kept bytes were not known plain when made: an
        #: answer holding one decodes through ``json.loads``.
        self._mixed: set[int] = set()
        self._last_id = 0
        #: Since the last take: ids inserted or replaced, ids it knew
        #: that are deleted, and the last id it knew.
        self._changed: set[int] = set()
        self._gone: set[int] = set()
        self._taken_id = 0
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        self._planner = QueryPlanner(self._hash_indexes, self._sorted_indexes)
        #: path -> resolver of the residual equalities checked uncompiled.
        self._resolvers: dict[str, Callable[[Any], list[Any]]] = {}
        #: Running counters, inspected by benchmarks and the cost model.
        self.stats: dict[str, int] = {
            "inserts": 0,
            "deletes": 0,
            "updates": 0,
            "queries": 0,
            "index_probes": 0,
            "full_scans": 0,
            "documents_examined": 0,
        }

    def __len__(self) -> int:
        return len(self._documents)

    # -- index management ----------------------------------------------------

    def create_index(self, path: str, unique: bool = False) -> None:
        """Create (and backfill) a hash index on ``path``."""
        if path in self._hash_indexes:
            return
        index = HashIndex(path, unique=unique)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._hash_indexes[path] = index

    def create_sorted_index(self, path: str) -> None:
        """Create (and backfill) an ordered index on ``path``."""
        if path in self._sorted_indexes:
            return
        index = SortedIndex(path)
        for doc_id, document in self._documents.items():
            index.add(doc_id, document)
        self._sorted_indexes[path] = index

    def index_paths(self) -> list[str]:
        """Dotted paths of the hash indexes on this collection."""
        return sorted(self._hash_indexes)

    # -- writes ---------------------------------------------------------------

    def insert_one(self, document: dict[str, Any], *, copy: bool = True) -> int:
        """Insert a document; returns its internal id.

        The document is deep-copied here — the single freeze-on-insert
        copy — so later caller mutation cannot corrupt stored state.

        Args:
            copy: ``copy=False`` stores the caller's object itself.  The
                caller vouches that it is frozen: no reference that could
                mutate it exists outside code honouring the stored-document
                contract (internal callers only — the counterpart of
                ``find(copy=False)``).

        Raises:
            DuplicateKeyError: if a unique index is violated (the insert is
                rolled back from any indexes already updated).
            StorageError: if the document is not a mapping.
        """
        if not isinstance(document, dict):
            raise StorageError(f"{self.name}: documents must be mappings")
        stored = deep_copy_json(document) if copy else document
        self._last_id += 1
        doc_id = self._last_id
        added: list[HashIndex] = []
        try:
            for index in self._hash_indexes.values():
                index.add(doc_id, stored)
                added.append(index)
        except DuplicateKeyError:
            for index in added:
                index.remove(doc_id, stored)
            raise
        for sorted_index in self._sorted_indexes.values():
            sorted_index.add(doc_id, stored)
        self._documents[doc_id] = stored
        self.stats["inserts"] += 1
        if self.durable:
            # ``stored`` is frozen from here on, so the journal record
            # may hold it by reference and its encoding never goes stale.
            fragment = self._keep(doc_id, stored, frozen_bytes(stored))
            self._changed.add(doc_id)
            if self.journal is not None:
                self.journal({"op": "insert", "c": self.name, "d": stored}, fragment)
        return doc_id

    def insert_many(self, documents: list[dict[str, Any]], *, copy: bool = True) -> list[int]:
        """Insert several documents; stops (and raises) at the first failure.
        ``copy`` as in :meth:`insert_one`."""
        return [self.insert_one(document, copy=copy) for document in documents]

    def delete_many(self, query: dict[str, Any]) -> int:
        """Delete all matching documents; returns the count removed."""
        doomed = [doc_id for doc_id, _ in self._match_ids(query)]
        for doc_id in doomed:
            self._unindex(doc_id, self._documents.pop(doc_id))
            self._drop_kept(doc_id)
            self._changed.discard(doc_id)
            if doc_id <= self._taken_id:
                self._gone.add(doc_id)
        self.stats["deletes"] += len(doomed)
        if doomed and self.journal is not None:
            self.journal(
                {"op": "delete", "c": self.name, "q": deep_copy_json(query)}
            )
        return len(doomed)

    def update_many(
        self,
        query: dict[str, Any],
        update: dict[str, Any] | Callable[[dict[str, Any]], dict[str, Any]],
    ) -> int:
        """Update all matching documents.

        ``update`` is either a ``{"$set": {...}}`` document (dotted paths
        supported) or, on a collection without a journal, a callable
        mapping the frozen stored document (which it must not mutate) to
        a fresh replacement the collection keeps.  Stored documents are
        frozen: updates build a fresh replacement and swap it in,
        re-indexing the document.

        Raises:
            QueryError: if the update document uses unsupported operators.
            StorageError: if ``update`` is a callable and the collection
                journals (a callable has no record to replay).
        """
        if callable(update) and self.journal is not None:
            raise StorageError(f"{self.name}: a journaled collection takes no callable update")
        updated = 0
        for doc_id, document in self._match_ids(query):
            if callable(update):
                replacement = update(document)
            else:
                replacement = self._apply_update(document, update)
            self._replace(doc_id, document, replacement)
            self._drop_kept(doc_id)
            if self.durable:
                self._changed.add(doc_id)
            updated += 1
        self.stats["updates"] += updated
        if updated and self.journal is not None:
            self.journal(
                {
                    "op": "update",
                    "c": self.name,
                    "q": deep_copy_json(query),
                    "u": deep_copy_json(update),
                }
            )
        return updated

    def _unindex(self, doc_id: int, document: dict[str, Any]) -> None:
        for index in self._hash_indexes.values():
            index.remove(doc_id, document)
        for sorted_index in self._sorted_indexes.values():
            sorted_index.remove(doc_id, document)

    def _replace(self, doc_id: int, document: dict | None, replacement: dict[str, Any]) -> None:
        """Swap ``replacement`` in for ``document`` (None: a new id)."""
        if document is not None:
            self._unindex(doc_id, document)
        self._documents[doc_id] = replacement
        for index in self._hash_indexes.values():
            index.add(doc_id, replacement)
        for sorted_index in self._sorted_indexes.values():
            sorted_index.add(doc_id, replacement)

    @staticmethod
    def _apply_update(document: dict[str, Any], update: dict[str, Any]) -> dict[str, Any]:
        """A fresh replacement for the frozen ``document``: only the
        objects on an updated path are copied, every other value is
        shared with the document (both stay frozen)."""
        replacement = dict(document)
        owned = {id(replacement)}

        def descend(target: dict[str, Any], segment: str) -> Any:
            child = target.setdefault(segment, {})
            if isinstance(child, dict) and id(child) not in owned:
                child = target[segment] = dict(child)
                owned.add(id(child))
            return child

        for operator, fields in update.items():
            if operator == "$set":
                for path, value in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = descend(target, segment)
                        if not isinstance(target, dict):
                            raise QueryError(f"$set path {path!r} crosses a non-object")
                    target[segments[-1]] = deep_copy_json(value)
            elif operator == "$inc":
                for path, delta in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = descend(target, segment)
                    target[segments[-1]] = target.get(segments[-1], 0) + delta
            elif operator == "$push":
                for path, value in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = descend(target, segment)
                    items = target.setdefault(segments[-1], [])
                    if isinstance(items, list) and id(items) not in owned:
                        items = target[segments[-1]] = list(items)
                        owned.add(id(items))
                    items.append(deep_copy_json(value))
            else:
                raise QueryError(f"unsupported update operator: {operator!r}")
        return replacement

    # -- reads ----------------------------------------------------------------

    def _match_ids(self, query: dict[str, Any]) -> Iterator[Match]:
        """Every ``(doc id, stored document)`` matching ``query``, by id."""
        yield from self._walk(*self._plan(query))

    def _plan(self, query: dict[str, Any]) -> tuple[Sequence[int], DocMatcher | None]:
        """The candidates of ``query``, in id order, and the check each still
        needs (None: none): planned first, compiled last (class docstring)."""
        stats = self.stats
        stats["queries"] += 1
        if not isinstance(query, dict):
            raise QueryError("query must be a mapping")
        probed = self._planner.probe(query)
        if probed is None:
            stats["full_scans"] += 1
            return list(self._documents), compile_query(query)
        stats["index_probes"] += 1
        path, key, candidates, strings = probed
        # Index-covered clause elimination: a string equality's bucket
        # holds exactly the documents meeting it, so the buckets of every
        # probed one intersect into the candidates and only the other
        # clauses run per document.  String keys only — for bool/int keys
        # hash equality is coarser than query equality (``True == 1 ==
        # 1.0`` share a bucket).
        others = [ids for other, ids in strings if other != path]
        if candidates and others:
            candidates = set(candidates).intersection(*others)
        if type(candidates) is set:
            # The index's live bucket, of any size down to one id, or an
            # intersection: fixed here, before a writer's first mutation
            # changes it.
            candidates = sorted(candidates)
        if not candidates:
            # No document can match: the other clauses are never read.
            return (), None
        if len(strings) == len(query):
            # The query *is* the probed equalities: no clause is left.
            return candidates, None
        return candidates, self._residual(query, [other for other, _ in strings])

    def _residual(self, query: dict[str, Any], covered: list[str]) -> DocMatcher:
        """The check of ``query``'s clauses outside ``covered``: compiled
        unless they are all equalities with a :data:`_SCALARS` operand."""
        checks = []
        for path, condition in query.items():
            if path in covered:
                continue
            if type(condition) not in _SCALARS or path.startswith("$"):
                return compile_query(query).residual_for(*covered)
            resolve = self._resolvers.get(path)
            if resolve is None:
                resolve = self._resolvers[path] = compile_resolver(path)
            checks.append((condition, resolve))
        return lambda document: all(scalar_equal(c, resolve(document)) for c, resolve in checks)

    def _walk(self, candidates: Sequence[int], matcher: DocMatcher | None) -> Iterator[Match]:
        """Each live candidate ``matcher`` accepts (None: every one)."""
        documents = self._documents
        stats = self.stats
        for doc_id in candidates:
            document = documents.get(doc_id)
            if document is None:
                continue
            stats["documents_examined"] += 1
            if matcher is None or matcher(document):
                yield doc_id, document

    def find(
        self,
        query: dict[str, Any] | None = None,
        limit: int | None = None,
        *,
        copy: bool = True,
    ) -> list[dict[str, Any]]:
        """Return all documents matching ``query``.

        Args:
            copy: when True (the default) each result is a deep copy the
                caller owns; ``copy=False`` returns the frozen stored
                documents directly — the zero-copy fast path for internal
                read-only consumers, which must not mutate them.
        """
        candidates, matcher = self._plan(query or {})
        if matcher is None and not copy:
            # The candidates are the answer: each is read, none checked.
            candidates = candidates[:limit]
            self.stats["documents_examined"] += len(candidates)
            return list(map(self._documents.__getitem__, candidates))
        matches = itertools.islice(self._walk(candidates, matcher), limit)
        if not copy:
            return [document for _, document in matches]
        with collector_paused():
            if not self.durable:
                return [deep_copy_json(document) for _, document in matches]
            # One decode of the spliced kept bytes builds every copy at once.
            matched = list(matches)
            data = b"".join(array_pieces(map(self._kept_bytes, matched)))
            mixed = self._mixed
            if mixed and not mixed.isdisjoint([doc_id for doc_id, _ in matched]):
                return json.loads(data)
            return decode_plain(data)

    def find_one(
        self,
        query: dict[str, Any] | None = None,
        *,
        copy: bool = True,
    ) -> dict[str, Any] | None:
        """First matching document, or None (``copy`` as in :meth:`find`)."""
        found = self.find(query, limit=1, copy=copy)
        return found[0] if found else None

    def count(self, query: dict[str, Any] | None = None) -> int:
        """Number of matching documents."""
        if not query:
            return len(self._documents)
        return sum(1 for _ in self._match_ids(query))

    def take_changes(self) -> tuple[list[int], list[int]]:
        """The change set since the last take, each in id order: the ids
        inserted or replaced, and the ids the last take knew that are
        deleted (an id inserted and deleted in between is in neither).
        Starts the next one empty.  Only a durable collection tracks
        inserts and updates."""
        changes = sorted(self._changed), sorted(self._gone)
        self._changed, self._gone = set(), set()
        self._taken_id = self._last_id
        return changes

    def document(self, doc_id: int) -> dict[str, Any]:
        """The frozen stored document with internal id ``doc_id`` (the
        caller must not mutate it)."""
        return self._documents[doc_id]

    def checkpoint_entry(self, full: bool) -> list[bytes]:
        """This collection's part of a checkpoint, ``{"docs": [...],
        "gone": [ids], "ids": [ids]}``, as canonical byte pieces holding
        the kept per-document bytes by reference: every live document
        (``full``), or the change set (:meth:`take_changes`), which it
        takes either way.  A document without kept bytes is encoded here
        and kept."""
        documents = self._documents
        ids, gone = self.take_changes()
        if full:
            ids, gone, docs = list(documents), [], self.encoded_documents()
        else:
            docs = array_pieces(self._kept_bytes((i, documents[i])) for i in ids)
        return object_pieces({"docs": docs, "gone": _id_array(gone), "ids": _id_array(ids)})

    def encoded_documents(self) -> list[bytes]:
        """Canonical JSON array of every stored document, in insertion
        order, as byte pieces holding the kept per-document bytes (joined,
        ``canonical_bytes(self.find({}))``)."""
        fragments = self._fragments
        # Kept bytes belong to live documents only, so equal counts mean
        # every document has them and the fill pass can be skipped.
        if len(fragments) != len(self._documents):
            for match in self._documents.items():
                self._kept_bytes(match)
        return array_pieces(map(fragments.__getitem__, self._documents))

    @property
    def changed(self) -> bool:
        return bool(self._changed or self._gone)

    def load_checkpoint(self, entry: dict[str, Any]) -> None:
        """Apply one decoded :meth:`checkpoint_entry` (recovery), keeping
        document ids; nothing loaded counts as changed."""
        for doc_id in entry["gone"]:
            self._unindex(doc_id, self._documents.pop(doc_id))
            self._drop_kept(doc_id)
        for doc_id, document in zip(entry["ids"], entry["docs"]):
            self._drop_kept(doc_id)
            self._replace(doc_id, self._documents.get(doc_id), document)
        self._last_id = max([self._last_id, *entry["ids"], *entry["gone"]])
        self._taken_id = self._last_id

    def _kept_bytes(self, match: Match) -> bytes:
        """The kept canonical bytes of one ``(doc id, stored document)``,
        encoded and kept first if it has none."""
        doc_id, document = match
        fragment = self._fragments.get(doc_id)
        if fragment is None:
            fragment = self._keep(doc_id, document, frozen_bytes(document))
        return fragment

    def _keep(self, doc_id: int, document: dict[str, Any], fragment: bytes) -> bytes:
        """Keep ``fragment`` as the document's bytes, noting whether it is
        known plain (see the class docstring)."""
        self._fragments[doc_id] = fragment
        if known_plain(document):
            self._mixed.discard(doc_id)
        else:
            self._mixed.add(doc_id)
        return fragment

    def _drop_kept(self, doc_id: int) -> None:
        self._fragments.pop(doc_id, None)
        self._mixed.discard(doc_id)

    def explain(self, query: dict[str, Any]) -> QueryPlan:
        """Expose the access path the planner would pick (for ablations)."""
        return self._planner.plan(query, len(self._documents))


def _id_array(ids: list[int]) -> bytes:
    """Canonical bytes of a list of ints (no JSON encoder call)."""
    return b"[%s]" % b",".join(b"%d" % doc_id for doc_id in ids)
