"""Query planning: choose an index probe or fall back to a scan.

BigchainDB's flat latency under growing payloads (paper Section 5.2.1
analysis) comes from "efficient indexing for database queries".  The
planner here reproduces that behaviour: if a query carries a top-level
equality on an indexed path, candidate documents come from the hash index
and only those are fully matched; otherwise the collection is scanned.

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

    def plan(
        self,
        query: dict[str, Any],
        collection_size: int,
        equalities: dict[str, Any] | None = None,
    ) -> tuple[QueryPlan, tuple[int, ...] | set[int] | None]:
        """Plan ``query``; returns the plan and candidate ids (None = scan).

        Strategy: among all indexed equality paths, pick the one with the
        smallest bucket (most selective).  A probe that finds no bucket
        short-circuits to an empty candidate set.

        Args:
            equalities: the query's top-level exact-equality constraints,
                if the caller already has them (compiled predicates carry
                them pre-extracted); recomputed from ``query`` otherwise.

        The returned candidate ids are a *read-only view* of the chosen
        index bucket (sized and iterable: a 1-tuple or a set) — callers
        must materialise it (``sorted(...)``) before mutating the
        collection.
        """
        if equalities is None:
            equalities = extract_equality_paths(query)
        best_path: str | None = None
        best_ids: tuple[int, ...] | set[int] | None = None
        for path, key in equalities.items():
            index = self._indexes.get(path)
            if index is None:
                continue
            ids = index.lookup(key)
            if best_ids is None or len(ids) < len(best_ids):
                best_path = path
                best_ids = ids
                if not ids:
                    break
        if best_ids is not None:
            plan = QueryPlan(
                kind="index",
                index_path=best_path,
                key=equalities.get(best_path) if best_path else None,
                candidates=len(best_ids),
            )
            return plan, best_ids
        plan = QueryPlan(kind="scan", index_path=None, key=None, candidates=collection_size)
        return plan, None
