"""A single document collection with indexes and update support."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.common.encoding import canonical_bytes, deep_copy_json, splice_array
from repro.common.errors import DuplicateKeyError, QueryError, StorageError
from repro.storage.compiler import compile_query
from repro.storage.documents import resolve_path
from repro.storage.indexes import HashIndex, SortedIndex
from repro.storage.query import QueryPlan, QueryPlanner


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
    alone answers the write path's usual lookups: an empty bucket is the
    answer (the usual fate of a spend check or a "not yet present"
    lookup), and a query that *is* the probed string equality
    (``{"id": x}``) yields its bucket as it stands.  Everything else — a
    scan, or a bucket that the query's other clauses still have to
    filter — is compiled (:mod:`repro.storage.compiler`), once, and the
    closure is evaluated per candidate instead of re-interpreting the
    query dictionary.

    One consequence: the clauses of a query whose probe comes back empty
    are never read, so a malformed one returns nothing there instead of
    raising :class:`QueryError`; with a candidate or on a scan it is
    rejected eagerly, before any document is touched.

    A *journaled* collection also keeps the canonical bytes of each
    frozen document, made once when its ``insert`` journal record is
    built: the WAL frame and every later checkpoint splice those bytes
    in (:meth:`encoded_documents`) instead of re-encoding the document.
    They cost what the collections part of one snapshot file does
    (measured 1.8 MB per validator at 4 100 documents of the e2e
    marketplace state; 3.5 MB with the validator's block and certificate
    bytes) and exist only for live documents: an update or delete drops
    them, a collection without a journal never makes any.

    Args:
        name: collection name (used in error messages / stats).
    """

    def __init__(self, name: str):
        self.name = name
        #: Optional journal sink (set by a WAL-backed Database): called
        #: with one logical-op record per successful mutation, *after*
        #: the in-memory apply — write-ahead ordering is provided by the
        #: group-commit layer, which makes the record durable before any
        #: externally visible acknowledgement leaves the node.
        #: An ``insert`` record comes with the document's canonical bytes
        #: as second argument.
        self.journal: Callable[..., None] | None = None
        self._documents: dict[int, dict[str, Any]] = {}
        #: doc id -> canonical bytes of the stored document (see class doc).
        self._fragments: dict[int, bytes] = {}
        self._next_id = itertools.count(1)
        self._hash_indexes: dict[str, HashIndex] = {}
        self._sorted_indexes: dict[str, SortedIndex] = {}
        self._planner = QueryPlanner(self._hash_indexes, self._sorted_indexes)
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

    def insert_one(
        self,
        document: dict[str, Any],
        *,
        copy: bool = True,
        encode: Callable[[dict[str, Any]], bytes] = canonical_bytes,
    ) -> int:
        """Insert a document; returns its internal id.

        The document is deep-copied here — the single freeze-on-insert
        copy — so later caller mutation cannot corrupt stored state.

        Args:
            copy: ``copy=False`` stores the caller's object itself.  The
                caller vouches that it is frozen: no reference that could
                mutate it exists outside code honouring the stored-document
                contract (internal callers only — the counterpart of
                ``find(copy=False)``).
            encode: how a journaled collection gets the stored document's
                canonical bytes; a caller that already holds them passes
                a lookup returning exactly ``canonical_bytes(document)``.

        Raises:
            DuplicateKeyError: if a unique index is violated (the insert is
                rolled back from any indexes already updated).
            StorageError: if the document is not a mapping.
        """
        if not isinstance(document, dict):
            raise StorageError(f"{self.name}: documents must be mappings")
        stored = deep_copy_json(document) if copy else document
        doc_id = next(self._next_id)
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
        if self.journal is not None:
            # ``stored`` is frozen from here on, so the journal record
            # may hold it by reference and its encoding never goes stale.
            fragment = self._fragments[doc_id] = encode(stored)
            self.journal({"op": "insert", "c": self.name, "d": stored}, fragment)
        return doc_id

    def insert_many(self, documents: list[dict[str, Any]]) -> list[int]:
        """Insert several documents; stops (and raises) at the first failure."""
        return [self.insert_one(document) for document in documents]

    def delete_many(self, query: dict[str, Any]) -> int:
        """Delete all matching documents; returns the count removed."""
        doomed = [doc_id for doc_id, _ in self._match_ids(query)]
        for doc_id in doomed:
            document = self._documents.pop(doc_id)
            self._fragments.pop(doc_id, None)
            for index in self._hash_indexes.values():
                index.remove(doc_id, document)
            for sorted_index in self._sorted_indexes.values():
                sorted_index.remove(doc_id, document)
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
        supported) or a callable returning the replacement document.
        Stored documents are frozen: updates build a fresh replacement and
        swap it in, re-indexing the document.

        Raises:
            QueryError: if the update document uses unsupported operators.
        """
        updated = 0
        replacements: list[dict[str, Any]] = []
        for doc_id, document in self._match_ids(query):
            if callable(update):
                replacement = deep_copy_json(update(deep_copy_json(document)))
            else:
                replacement = self._apply_update(document, update)
            for index in self._hash_indexes.values():
                index.remove(doc_id, document)
            for sorted_index in self._sorted_indexes.values():
                sorted_index.remove(doc_id, document)
            self._documents[doc_id] = replacement
            self._fragments.pop(doc_id, None)
            for index in self._hash_indexes.values():
                index.add(doc_id, replacement)
            for sorted_index in self._sorted_indexes.values():
                sorted_index.add(doc_id, replacement)
            replacements.append(replacement)
            updated += 1
        self.stats["updates"] += updated
        if updated and self.journal is not None:
            if callable(update):
                # A callable cannot be serialised; its *effects* can.
                # Replay swaps these replacements back in match order.
                self.journal(
                    {
                        "op": "replace",
                        "c": self.name,
                        "q": deep_copy_json(query),
                        "r": replacements,
                    }
                )
            else:
                self.journal(
                    {
                        "op": "update",
                        "c": self.name,
                        "q": deep_copy_json(query),
                        "u": deep_copy_json(update),
                    }
                )
        return updated

    @staticmethod
    def _apply_update(document: dict[str, Any], update: dict[str, Any]) -> dict[str, Any]:
        replacement = deep_copy_json(document)
        for operator, fields in update.items():
            if operator == "$set":
                for path, value in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = target.setdefault(segment, {})
                        if not isinstance(target, dict):
                            raise QueryError(f"$set path {path!r} crosses a non-object")
                    target[segments[-1]] = deep_copy_json(value)
            elif operator == "$inc":
                for path, delta in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = target.setdefault(segment, {})
                    target[segments[-1]] = target.get(segments[-1], 0) + delta
            elif operator == "$push":
                for path, value in fields.items():
                    target = replacement
                    segments = path.split(".")
                    for segment in segments[:-1]:
                        target = target.setdefault(segment, {})
                    target.setdefault(segments[-1], []).append(deep_copy_json(value))
            else:
                raise QueryError(f"unsupported update operator: {operator!r}")
        return replacement

    # -- reads ----------------------------------------------------------------

    def _match_ids(self, query: dict[str, Any]) -> Iterator[tuple[int, dict[str, Any]]]:
        """Every ``(doc id, stored document)`` matching ``query``, by id.

        Planned first, compiled last (see the class docstring): the hash
        indexes are probed straight from the query's top-level
        equalities, and the compiler only runs when the probe leaves
        clauses to check.
        """
        stats = self.stats
        stats["queries"] += 1
        if not isinstance(query, dict):
            raise QueryError("query must be a mapping")
        documents = self._documents
        probed = self._planner.probe(query)
        matcher: Callable[[Any], bool] | None
        if probed is None:
            stats["full_scans"] += 1
            candidates: Iterable[int] = list(documents)
            matcher = compile_query(query)
        else:
            stats["index_probes"] += 1
            path, key, candidates = probed
            if not candidates:
                # Nothing under the probed key: no document can match,
                # whatever the other clauses say (they are never read).
                return
            if type(candidates) is set:
                # The index's live bucket, of any size down to one id:
                # fixed here, before a writer's first mutation changes it.
                candidates = sorted(candidates)
            # Index-covered clause elimination: every candidate already
            # satisfies the probed equality, so only the other clauses
            # run per document.  String keys only — for bool/int keys
            # hash equality is coarser than query equality
            # (``True == 1 == 1.0`` share a bucket).
            if type(key) is not str:
                matcher = compile_query(query)
            elif len(query) == 1:
                # The query *is* the probed equality: the bucket is the answer.
                matcher = None
            else:
                matcher = compile_query(query).residual_for(path)
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
        query = query or {}
        results: list[dict[str, Any]] = []
        for _, document in self._match_ids(query):
            results.append(deep_copy_json(document) if copy else document)
            if limit is not None and len(results) >= limit:
                break
        return results

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

    def distinct(self, path: str, query: dict[str, Any] | None = None) -> list[Any]:
        """Distinct values at ``path`` over matching documents.

        First-seen order is preserved.  Hashable values dedupe through a
        set; unhashable values (dicts/lists) fall back to an ordered
        linear scan and are copied before being returned.
        """
        seen_hashable: set[Any] = set()
        seen_unhashable: list[Any] = []
        distinct_values: list[Any] = []
        for document in self.find(query or {}, copy=False):
            for value in resolve_path(document, path):
                candidates = value if isinstance(value, list) else [value]
                for candidate in candidates:
                    try:
                        if candidate in seen_hashable:
                            continue
                        seen_hashable.add(candidate)
                        distinct_values.append(candidate)
                    except TypeError:
                        if candidate in seen_unhashable:
                            continue
                        seen_unhashable.append(candidate)
                        distinct_values.append(deep_copy_json(candidate))
        return distinct_values

    def encoded_documents(self) -> bytes:
        """Canonical JSON array of every stored document, in insertion order.

        Byte-identical to ``canonical_bytes(self.find({}))`` but spliced
        from the kept per-document bytes; a document that has none (loaded
        by recovery replay, or swapped in by an update since the last
        call) is encoded here and kept.
        """
        fragments = self._fragments
        # Kept bytes belong to live documents only, so equal counts mean
        # every document has them and the fill pass can be skipped.
        if len(fragments) != len(self._documents):
            for doc_id, document in self._documents.items():
                if doc_id not in fragments:
                    fragments[doc_id] = canonical_bytes(document)
        return splice_array(map(fragments.__getitem__, self._documents))

    def explain(self, query: dict[str, Any]) -> QueryPlan:
        """Expose the access path the planner would pick (for ablations)."""
        return self._planner.plan(query, len(self._documents))
