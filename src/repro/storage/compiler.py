"""Query compilation: interpret a query once, evaluate it many times.

:func:`repro.storage.documents.matches` walks the query dictionary for
*every* candidate document — re-splitting dotted paths, re-dispatching on
operator names, re-compiling regexes.  On the hot path (the planner
narrows a query to an index bucket and then fully matches each candidate)
that per-tuple interpretation dominates, the same way interpreted
predicates dominate naive query evaluation in relational engines.

:func:`compile_query` lifts all of that out of the inner loop: the query
dictionary is translated *once* into a tree of nested closures — paths
pre-split, operands pre-bound, regexes pre-compiled — and the resulting
:class:`Predicate` is a plain callable ``doc -> bool``.  Compiled
predicates are cached in a small LRU keyed on the query's structure *and
operand values* (its scalar clauses, or its canonical JSON when nested),
so a query issued again — ``{"operation": "BID"}``, a per-owner wallet
find, the analytics mixes — compiles exactly once.

``Collection._match_ids`` probes the indexes first and comes here only
when the probe leaves clauses to check: a scan, or a non-empty bucket
under a query with more clauses than the probed equality.  An empty
bucket and a lone string equality (``{"id": x}``) are answered by the
probe, so most one-shot ids of the write path never reach the LRU.

``matches()`` is kept untouched as the parity oracle; the property suite
in ``tests/storage/test_compiler.py`` asserts ``compile_query(q)(doc) ==
matches(doc, q)`` across a generated corpus.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Callable

from repro.common.encoding import SCALAR_TYPES, canonical_serialize, deep_copy_json
from repro.common.errors import EncodingError, QueryError
from repro.storage.documents import (
    _TYPE_NAMES,
    _is_operator_doc,
    _match_operator_doc,
    _values_equal,
    extract_equality_paths,
)

#: A compiled condition over the list of values a path resolved to.
ValuesMatcher = Callable[[list[Any]], bool]

#: A compiled condition over a whole document.
DocMatcher = Callable[[Any], bool]

_EMPTY: list[Any] = []


#: Sentinel distinguishing "not yet computed" from "fully covered" (None).
_MISSING = object()


def _may_raise_at_runtime(condition: Any) -> bool:
    """True if evaluating ``condition`` can raise for *some* document.

    Every compiled operator is runtime-error-free except ``$elemMatch``,
    whose oracle semantics raise lazily per element (dict elements under
    an operator-doc operand; non-dict elements under a plain operand).
    Conservative: any nested ``$elemMatch`` key counts.
    """
    if isinstance(condition, dict):
        return any(
            key == "$elemMatch" or _may_raise_at_runtime(value)
            for key, value in condition.items()
        )
    if isinstance(condition, list):
        return any(_may_raise_at_runtime(value) for value in condition)
    return False


class Predicate:
    """A compiled query: ``predicate(document) -> bool``.

    Attributes:
        query: the original query dictionary (for explain/debugging).
        equalities: the top-level exact-equality constraints — the
            clauses an index probe can cover (:meth:`residual_for`) and
            the cheap ones the conjunction tries first.
    """

    __slots__ = ("query", "equalities", "_matcher", "_clauses", "_residuals")

    def __init__(
        self,
        query: dict[str, Any],
        clauses: tuple[tuple[str, DocMatcher], ...],
    ):
        self.query = query
        self.equalities = extract_equality_paths(query)
        # Selectivity ordering: cheap exact-equality clauses short-circuit
        # the conjunction before expensive operator clauses run.  Only
        # when every clause is runtime-error-free — reordering must not
        # change which lazy QueryError (if any) a pathological
        # $elemMatch surfaces.
        if len(clauses) > 1 and not any(
            _may_raise_at_runtime(condition) for condition in query.values()
        ):
            clauses = tuple(
                sorted(clauses, key=lambda pair: 0 if pair[0] in self.equalities else 1)
            )
        self._matcher = _conjoin(clauses)
        self._clauses = clauses
        self._residuals: dict[str, DocMatcher | None] = {}

    def __call__(self, document: Any) -> bool:
        return self._matcher(document)

    def residual_for(self, covered_path: str) -> DocMatcher | None:
        """The predicate minus the equality clause an index probe covers.

        When the planner probes a hash index on ``covered_path`` for a
        *string* key, every candidate in the bucket is already known to
        satisfy that clause (string hash-equality coincides with query
        equality; the caller must enforce the string-key guard — for
        bool/int keys hash collisions like ``True == 1`` break the
        equivalence).  Only the residual clauses need evaluating, and a
        single-equality query needs no per-document work at all — in
        which case this returns None.
        """
        cached = self._residuals.get(covered_path, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        if covered_path not in self.equalities:
            result: DocMatcher | None = self._matcher
        else:
            rest = tuple(
                matcher for key, matcher in self._clauses if key != covered_path
            )
            if not rest:
                result = None
            elif len(rest) == 1:
                result = rest[0]
            else:
                matchers = rest

                def match(document: Any) -> bool:
                    for matcher in matchers:
                        if not matcher(document):
                            return False
                    return True

                result = match
        self._residuals[covered_path] = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Predicate {self.query!r}>"


# -- path resolution ----------------------------------------------------------


def _compile_resolver(path: str) -> Callable[[Any], list[Any]]:
    """Pre-split a dotted path into a resolver closure.

    Mirrors :func:`repro.storage.documents.resolve_path` exactly (array
    fan-out, numeric segments indexing), but the split and the per-segment
    ``isdigit`` decisions happen at compile time.
    """
    segments = path.split(".")
    compiled = [(segment, int(segment) if segment.isdigit() else None) for segment in segments]

    if len(compiled) == 1:
        segment, index = compiled[0]

        def resolve_single(document: Any) -> list[Any]:
            if isinstance(document, dict):
                if segment in document:
                    return [document[segment]]
                return _EMPTY
            if isinstance(document, list):
                if index is not None:
                    if index < len(document):
                        return [document[index]]
                    return _EMPTY
                return [
                    element[segment]
                    for element in document
                    if isinstance(element, dict) and segment in element
                ]
            return _EMPTY

        return resolve_single

    total = len(compiled)

    def resolve_tail(values: list[Any], start: int) -> list[Any]:
        """Generic array-fanning walk from segment ``start`` onwards."""
        for position in range(start, total):
            segment, index = compiled[position]
            next_values: list[Any] = []
            for value in values:
                if isinstance(value, dict):
                    if segment in value:
                        next_values.append(value[segment])
                elif isinstance(value, list):
                    if index is not None:
                        if index < len(value):
                            next_values.append(value[index])
                    else:
                        for element in value:
                            if isinstance(element, dict) and segment in element:
                                next_values.append(element[segment])
            if not next_values:
                return _EMPTY
            values = next_values
        return values

    def resolve(document: Any) -> list[Any]:
        # Fast chain: most documents are dict→dict→…→value along the
        # path, which needs no intermediate fan-out lists at all.  The
        # first non-dict hop falls back to the generic walk.
        value = document
        for position in range(total):
            if isinstance(value, dict):
                segment = compiled[position][0]
                if segment in value:
                    value = value[segment]
                else:
                    return _EMPTY
            else:
                return resolve_tail([value], position)
        return [value]

    return resolve


def _each_candidate(values: list[Any]):
    """Every resolved value and, for arrays, every element (Mongo rules)."""
    for value in values:
        yield value
        if isinstance(value, list):
            yield from value


# -- operator compilation -----------------------------------------------------


def _compile_comparison(operator: str, operand: Any) -> ValuesMatcher:
    """``$gt/$gte/$lt/$lte`` with the oracle's type-compatibility rules.

    The operand's comparability class is decided at compile time; the
    per-candidate loop is inlined (no generator) with the bool exclusion
    and the number/string compatibility check folded in.
    """
    operand_is_bool = isinstance(operand, bool)
    operand_is_number = isinstance(operand, (int, float)) and not operand_is_bool
    operand_is_str = isinstance(operand, str)

    if operand_is_bool or not (operand_is_number or operand_is_str):
        def match_never(values: list[Any]) -> bool:
            return False

        return match_never

    if operator == "$gt":
        def compare(left: Any) -> bool:
            return left > operand
    elif operator == "$gte":
        def compare(left: Any) -> bool:
            return left >= operand
    elif operator == "$lt":
        def compare(left: Any) -> bool:
            return left < operand
    else:
        def compare(left: Any) -> bool:
            return left <= operand

    comparable = (int, float) if operand_is_number else str

    def match(values: list[Any]) -> bool:
        for value in values:
            if isinstance(value, comparable):
                if not isinstance(value, bool) and compare(value):
                    return True
            elif isinstance(value, list):
                for element in value:
                    if (
                        isinstance(element, comparable)
                        and not isinstance(element, bool)
                        and compare(element)
                    ):
                        return True
        return False

    return match


def _compile_operator(operator: str, operand: Any) -> ValuesMatcher:
    """Compile one ``$op: operand`` pair into a values matcher.

    Raises:
        QueryError: for unknown operators or malformed operands — the same
            errors the interpreter raises, surfaced at compile time.
    """
    if operator == "$exists":
        expected = bool(operand)

        def match_exists(values: list[Any]) -> bool:
            return bool(values) == expected

        return match_exists

    if operator == "$eq":
        def match_eq(values: list[Any]) -> bool:
            return any(_values_equal(candidate, operand) for candidate in _each_candidate(values))

        return match_eq

    if operator == "$ne":
        def match_ne(values: list[Any]) -> bool:
            return not any(
                _values_equal(candidate, operand) for candidate in _each_candidate(values)
            )

        return match_ne

    if operator in ("$gt", "$gte", "$lt", "$lte"):
        return _compile_comparison(operator, operand)

    if operator == "$in":
        if not isinstance(operand, list):
            raise QueryError("$in requires an array operand")
        items = list(operand)

        def match_in(values: list[Any]) -> bool:
            return any(
                _values_equal(candidate, item)
                for candidate in _each_candidate(values)
                for item in items
            )

        return match_in

    if operator == "$nin":
        if not isinstance(operand, list):
            raise QueryError("$nin requires an array operand")
        items = list(operand)

        def match_nin(values: list[Any]) -> bool:
            return not any(
                _values_equal(candidate, item)
                for candidate in _each_candidate(values)
                for item in items
            )

        return match_nin

    if operator == "$all":
        if not isinstance(operand, list):
            raise QueryError("$all requires an array operand")
        items = list(operand)

        def match_all(values: list[Any]) -> bool:
            for value in values:
                if not isinstance(value, list):
                    continue
                if all(
                    any(_values_equal(element, item) for element in value) for item in items
                ):
                    return True
            return False

        return match_all

    if operator == "$size":
        def match_size(values: list[Any]) -> bool:
            return any(isinstance(value, list) and len(value) == operand for value in values)

        return match_size

    if operator == "$elemMatch":
        if not isinstance(operand, dict):
            raise QueryError("$elemMatch requires a query document")
        if _is_operator_doc(operand):
            # Operator-doc operand: non-dict elements are evaluated against
            # it; the interpreter routes dict elements through full
            # ``matches``, which rejects $-prefixed top-level keys — and it
            # does so lazily, only when such an element is reached.
            element_operators = _compile_operator_doc(operand)
            first_key = next(iter(operand))

            def match_elem_operators(values: list[Any]) -> bool:
                for value in values:
                    if not isinstance(value, list):
                        continue
                    for element in value:
                        if isinstance(element, dict):
                            raise QueryError(f"unknown top-level operator: {first_key!r}")
                        if element_operators([element]):
                            return True
                return False

            return match_elem_operators

        # Plain (or empty) query operand: dict elements run the compiled
        # sub-predicate; non-dict elements go through the interpreter's
        # operator-doc evaluator, whose lazy per-element errors cannot be
        # pre-compiled — that cold branch stays interpreted.
        element_predicate = _compile_matcher(operand)

        def match_elem(values: list[Any]) -> bool:
            for value in values:
                if not isinstance(value, list):
                    continue
                for element in value:
                    if isinstance(element, dict):
                        if element_predicate(element):
                            return True
                    elif _match_operator_doc([element], operand, None):
                        return True
            return False

        return match_elem

    if operator == "$regex":
        pattern = re.compile(operand)
        search = pattern.search

        def match_regex(values: list[Any]) -> bool:
            return any(
                isinstance(candidate, str) and search(candidate)
                for candidate in _each_candidate(values)
            )

        return match_regex

    if operator == "$type":
        expected = _TYPE_NAMES.get(operand)
        if expected is None:
            raise QueryError(f"unknown $type name: {operand!r}")

        def match_type(values: list[Any]) -> bool:
            return any(isinstance(value, expected) for value in values)

        return match_type

    if operator == "$not":
        if not isinstance(operand, dict):
            raise QueryError("$not requires an operator document")
        inner = _compile_operator_doc(operand)

        def match_not(values: list[Any]) -> bool:
            return not inner(values)

        return match_not

    raise QueryError(f"unknown query operator: {operator!r}")


def _compile_operator_doc(operators: dict[str, Any]) -> ValuesMatcher:
    """Compile ``{"$gt": 3, "$lt": 9}`` into a conjunction over values."""
    matchers = tuple(
        _compile_operator(operator, operand) for operator, operand in operators.items()
    )
    if len(matchers) == 1:
        return matchers[0]

    def match(values: list[Any]) -> bool:
        for matcher in matchers:
            if not matcher(values):
                return False
        return True

    return match


def _compile_equality(condition: Any) -> ValuesMatcher:
    """Direct-equality condition (``{"operation": "BID"}``).

    Scalars are by far the most common case, so they get a branch with no
    helper-function dispatch at all.
    """
    if not isinstance(condition, (dict, list, bool)) and condition is not None:
        def match_scalar(values: list[Any]) -> bool:
            for value in values:
                if not isinstance(value, bool) and value == condition:
                    return True
                if isinstance(value, list):
                    for element in value:
                        if not isinstance(element, bool) and element == condition:
                            return True
            return False

        return match_scalar

    def match(values: list[Any]) -> bool:
        return any(_values_equal(candidate, condition) for candidate in _each_candidate(values))

    return match


# -- whole-query compilation --------------------------------------------------


def _compile_clause(key: str, condition: Any) -> DocMatcher:
    """Compile one top-level ``key: condition`` entry."""
    if key == "$and":
        if not isinstance(condition, list):
            raise QueryError("$and requires an array of queries")
        branches = tuple(_compile_matcher(sub) for sub in condition)

        def match_and(document: Any) -> bool:
            for branch in branches:
                if not branch(document):
                    return False
            return True

        return match_and

    if key == "$or":
        if not isinstance(condition, list):
            raise QueryError("$or requires an array of queries")
        branches = tuple(_compile_matcher(sub) for sub in condition)

        def match_or(document: Any) -> bool:
            for branch in branches:
                if branch(document):
                    return True
            return False

        return match_or

    if key == "$nor":
        if not isinstance(condition, list):
            raise QueryError("$nor requires an array of queries")
        branches = tuple(_compile_matcher(sub) for sub in condition)

        def match_nor(document: Any) -> bool:
            for branch in branches:
                if branch(document):
                    return False
            return True

        return match_nor

    if key.startswith("$"):
        raise QueryError(f"unknown top-level operator: {key!r}")

    resolve = _compile_resolver(key)
    if _is_operator_doc(condition):
        values_matcher = _compile_operator_doc(condition)
    else:
        values_matcher = _compile_equality(condition)

    def match_path(document: Any) -> bool:
        return values_matcher(resolve(document))

    return match_path


def _compile_clauses(query: dict[str, Any]) -> tuple[tuple[str, DocMatcher], ...]:
    """Compile every top-level entry, keyed so covered clauses can drop."""
    if not isinstance(query, dict):
        raise QueryError("query must be a mapping")
    return tuple(
        (key, _compile_clause(key, condition)) for key, condition in query.items()
    )


def _conjoin(clauses: tuple[tuple[str, DocMatcher], ...]) -> DocMatcher:
    if not clauses:
        return lambda document: True
    if len(clauses) == 1:
        return clauses[0][1]
    matchers = tuple(matcher for _, matcher in clauses)

    def match(document: Any) -> bool:
        for matcher in matchers:
            if not matcher(document):
                return False
        return True

    return match


def _compile_matcher(query: dict[str, Any]) -> DocMatcher:
    """Compile a whole (sub)query into a document matcher."""
    return _conjoin(_compile_clauses(query))


# -- the LRU-cached entry point -----------------------------------------------

_CACHE_MAX = 1024
_cache: "OrderedDict[Any, Predicate]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def _cache_key(query: dict[str, Any]) -> Any:
    """LRU key of a query, or None when it cannot be cached.

    The key holds the operand *values*, so it only hits for a query
    issued again with the same operands.  A flat query of string paths
    and scalar operands is keyed on its sorted ``(path, operand type,
    operand)`` triples.  The type is part of the key because ``True ==
    1 == 1.0`` and they hash alike, while their predicates differ (the
    canonical JSON key told them apart as ``true`` / ``1`` / ``1.0``).
    Anything nested (operator documents, ``$elemMatch``, ``$or`` lists)
    is keyed on its canonical JSON text.
    """
    triples = []
    for path, operand in query.items():
        if type(path) is not str or type(operand) not in SCALAR_TYPES:
            try:
                return canonical_serialize(query)
            except EncodingError:
                return None
        triples.append((path, type(operand), operand))
    if len(triples) > 1:
        triples.sort(key=itemgetter(0))
    return tuple(triples)


def compile_query(query: dict[str, Any]) -> Predicate:
    """Compile ``query`` into a reusable :class:`Predicate`.

    Compiled predicates are cached in an LRU keyed on the query's
    structure and operands (:func:`_cache_key`), so a query issued twice
    — by the same caller or by another validator of the process — shares
    one compilation; a miss costs a deep copy of the query plus the
    closure build.  Queries containing non-JSON values (e.g. compiled
    pattern objects) are compiled uncached.

    Raises:
        QueryError: on malformed queries — the same class (and in general
            the same message) the interpreter would raise lazily.
    """
    global _cache_hits, _cache_misses
    if not isinstance(query, dict):
        raise QueryError("query must be a mapping")
    key = _cache_key(query)
    if key is not None:
        cached = _cache.get(key)
        if cached is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
            return cached
    _cache_misses += 1
    # Compile from a private deep copy: closures bind operand objects by
    # reference, and a cached predicate must not change behaviour when
    # the caller later mutates their query dict (the interpreter, which
    # re-reads the live dict, was immune to this by construction).
    query = deep_copy_json(query)
    predicate = Predicate(query, _compile_clauses(query))
    if key is not None:
        _cache[key] = predicate
        if len(_cache) > _CACHE_MAX:
            _cache.popitem(last=False)
    return predicate


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the compilation cache (benchmarks)."""
    return {"hits": _cache_hits, "misses": _cache_misses, "size": len(_cache)}


def clear_cache() -> None:
    """Drop every cached predicate (tests and benchmarks)."""
    global _cache_hits, _cache_misses
    _cache.clear()
    _cache_hits = 0
    _cache_misses = 0
