"""Query planning: choose an index probe or fall back to a scan.

BigchainDB's flat latency under growing payloads (paper Section 5.2.1
analysis) comes from "efficient indexing for database queries".  The
planner here reproduces that behaviour: if a query carries a top-level
equality on an indexed path, candidate documents come from the hash index
and only those are fully matched; otherwise the collection is scanned.

Planning comes *first*: :meth:`QueryPlanner.probe` needs nothing but the
query dictionary and the index buckets, so ``Collection`` asks it before
deciding whether the query is worth compiling at all.

The plan is surfaced (``QueryPlan``) so the ablation benchmark can compare
indexed vs scan execution explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.storage.documents import extract_equality_paths
from repro.storage.indexes import HashIndex, SortedIndex


@dataclass(frozen=True)
class QueryPlan:
    """Chosen access path for one query.

    Attributes:
        kind: ``"index"`` or ``"scan"``.
        index_path: dotted path of the probed index (index plans only).
        key: the equality key probed (index plans only).
        candidates: number of documents the plan will fully match.
    """

    kind: str
    index_path: str | None
    key: Any
    candidates: int


class QueryPlanner:
    """Picks the cheapest access path among available hash indexes."""

    def __init__(self, indexes: dict[str, HashIndex], sorted_indexes: dict[str, SortedIndex]):
        self._indexes = indexes
        self._sorted_indexes = sorted_indexes

    def probe(
        self, query: dict[str, Any]
    ) -> tuple[str, Any, tuple[int, ...] | set[int], list[tuple[str, Any]]] | None:
        """Probe the hash indexes for ``query``'s top-level equalities.

        Returns ``(path, key, ids, strings)``: ``path``, ``key`` and
        ``ids`` of the most selective indexed equality — the smallest
        bucket, the first one found empty ending the search — and
        ``(path, ids)`` of every *string* equality probed on the way
        (the ones whose buckets hold exactly the documents meeting them),
        or None when no equality path is indexed (scan).  Reads nothing
        but the query dictionary and the index buckets: it runs *before*
        any compilation, so a query whose answer the probe already holds
        (an empty bucket, string equalities alone) never reaches the
        compiler.

        Each bucket is a *read-only view* of the index (sized and
        iterable: a 1-tuple, a set or the shared empty tuple) — callers
        must materialise a set (``sorted(...)``) before mutating the
        collection.
        """
        indexes = self._indexes
        best: tuple[str, Any, tuple[int, ...] | set[int]] | None = None
        strings: list[tuple[str, Any]] = []
        for path, key in extract_equality_paths(query).items():
            index = indexes.get(path)
            if index is None:
                continue
            ids = index.lookup(key)
            if type(key) is str:
                strings.append((path, ids))
            if best is None or len(ids) < len(best[2]):
                best = (path, key, ids)
                if not ids:
                    break
        return None if best is None else (*best, strings)

    def plan(self, query: dict[str, Any], collection_size: int) -> QueryPlan:
        """The access path :meth:`probe` picks, as a :class:`QueryPlan`.

        Only ``Collection.explain`` (and the ablation benchmarks) want the
        plan object; the read path calls :meth:`probe` and allocates none.
        """
        probed = self.probe(query)
        if probed is None:
            return QueryPlan(kind="scan", index_path=None, key=None, candidates=collection_size)
        path, key, ids, _ = probed
        return QueryPlan(kind="index", index_path=path, key=key, candidates=len(ids))
