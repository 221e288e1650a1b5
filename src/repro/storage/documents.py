"""Document matching: MongoDB-style query evaluation.

The SmartchainDB server queries MongoDB with operator documents
(``getTxFromDB``, ``getLockedBids``, ``getAcceptTxForRFQ`` in Algorithms
2-3 all compile to such queries).  This module evaluates a faithful subset
of that query language against plain Python dictionaries:

* equality on dotted paths (``"asset.id": "..."``)
* comparison operators ``$eq $ne $gt $gte $lt $lte``
* membership ``$in $nin``
* existence/type ``$exists $type``
* arrays ``$all $size $elemMatch``
* logic ``$and $or $nor $not``
* regex ``$regex``

Array-traversal semantics follow MongoDB: a dotted path that crosses an
array matches if *any* element matches.
"""

from __future__ import annotations

import re
from typing import Any, Iterator

from repro.common.errors import QueryError

_TYPE_NAMES = {
    "string": str,
    "int": int,
    "double": float,
    "bool": bool,
    "object": dict,
    "array": list,
    "null": type(None),
}

_COMPARABLE = (int, float, str)


def resolve_path(document: Any, path: str) -> list[Any]:
    """Resolve a dotted path, fanning out across arrays.

    Returns every value reachable by the path (possibly none).  Numeric
    path segments index into arrays; non-numeric segments applied to an
    array fan out over its elements, like MongoDB.
    """
    values = [document]
    for segment in path.split("."):
        next_values: list[Any] = []
        for value in values:
            if isinstance(value, dict):
                if segment in value:
                    next_values.append(value[segment])
            elif isinstance(value, list):
                if segment.isdigit():
                    index = int(segment)
                    if index < len(value):
                        next_values.append(value[index])
                else:
                    for element in value:
                        if isinstance(element, dict) and segment in element:
                            next_values.append(element[segment])
        values = next_values
    return values


def _candidates(value: Any) -> Iterator[Any]:
    """A resolved value and, if it is an array, its elements (Mongo rules)."""
    yield value
    if isinstance(value, list):
        yield from value


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def _compare(left: Any, right: Any, operator: str) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        return False
    if operator == "$gt":
        return left > right
    if operator == "$gte":
        return left >= right
    if operator == "$lt":
        return left < right
    return left <= right


def _match_operator_doc(values: list[Any], operators: dict[str, Any], document: Any) -> bool:
    """Evaluate an operator document (``{"$gt": 3, "$lt": 9}``) over values."""
    for operator, operand in operators.items():
        if operator == "$exists":
            present = bool(values)
            if bool(operand) != present:
                return False
            continue
        if operator == "$eq":
            if not any(_values_equal(candidate, operand)
                       for value in values for candidate in _candidates(value)):
                return False
            continue
        if operator == "$ne":
            if any(_values_equal(candidate, operand)
                   for value in values for candidate in _candidates(value)):
                return False
            continue
        if operator in ("$gt", "$gte", "$lt", "$lte"):
            if not any(_compare(candidate, operand, operator)
                       for value in values for candidate in _candidates(value)):
                return False
            continue
        if operator == "$in":
            if not isinstance(operand, list):
                raise QueryError("$in requires an array operand")
            if not any(_values_equal(candidate, item)
                       for value in values for candidate in _candidates(value)
                       for item in operand):
                return False
            continue
        if operator == "$nin":
            if not isinstance(operand, list):
                raise QueryError("$nin requires an array operand")
            if any(_values_equal(candidate, item)
                   for value in values for candidate in _candidates(value)
                   for item in operand):
                return False
            continue
        if operator == "$all":
            if not isinstance(operand, list):
                raise QueryError("$all requires an array operand")
            arrays = [value for value in values if isinstance(value, list)]
            if not any(all(any(_values_equal(element, item) for element in array)
                           for item in operand)
                       for array in arrays):
                return False
            continue
        if operator == "$size":
            if not any(isinstance(value, list) and len(value) == operand for value in values):
                return False
            continue
        if operator == "$elemMatch":
            if not isinstance(operand, dict):
                raise QueryError("$elemMatch requires a query document")
            matched = False
            for value in values:
                if not isinstance(value, list):
                    continue
                for element in value:
                    if isinstance(element, dict) and matches(element, operand):
                        matched = True
                        break
                    if not isinstance(element, dict) and _match_operator_doc([element], operand, document):
                        matched = True
                        break
                if matched:
                    break
            if not matched:
                return False
            continue
        if operator == "$regex":
            pattern = re.compile(operand)
            if not any(isinstance(candidate, str) and pattern.search(candidate)
                       for value in values for candidate in _candidates(value)):
                return False
            continue
        if operator == "$type":
            expected = _TYPE_NAMES.get(operand)
            if expected is None:
                raise QueryError(f"unknown $type name: {operand!r}")
            if not any(isinstance(value, expected) for value in values):
                return False
            continue
        if operator == "$not":
            if not isinstance(operand, dict):
                raise QueryError("$not requires an operator document")
            if _match_operator_doc(values, operand, document):
                return False
            continue
        raise QueryError(f"unknown query operator: {operator!r}")
    return True


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, dict) and value and all(key.startswith("$") for key in value)


def matches(document: Any, query: dict[str, Any]) -> bool:
    """True if ``document`` satisfies ``query``.

    Raises:
        QueryError: on malformed queries (unknown operators, bad operands).
    """
    if not isinstance(query, dict):
        raise QueryError("query must be a mapping")
    for key, condition in query.items():
        if key == "$and":
            if not isinstance(condition, list):
                raise QueryError("$and requires an array of queries")
            if not all(matches(document, sub) for sub in condition):
                return False
            continue
        if key == "$or":
            if not isinstance(condition, list):
                raise QueryError("$or requires an array of queries")
            if not any(matches(document, sub) for sub in condition):
                return False
            continue
        if key == "$nor":
            if not isinstance(condition, list):
                raise QueryError("$nor requires an array of queries")
            if any(matches(document, sub) for sub in condition):
                return False
            continue
        if key.startswith("$"):
            raise QueryError(f"unknown top-level operator: {key!r}")

        values = resolve_path(document, key)
        if _is_operator_doc(condition):
            if not _match_operator_doc(values, condition, document):
                return False
        else:
            found = False
            for value in values:
                for candidate in _candidates(value):
                    if _values_equal(candidate, condition):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def extract_equality_paths(query: dict[str, Any]) -> dict[str, Any]:
    """Pull out the top-level exact-equality constraints of a query.

    The query planner uses these to probe hash indexes.  Operator documents
    containing only ``$eq`` count as equality.  Only scalar operands
    qualify either way: an array or object operand is neither hashable
    nor what an index bucket is keyed on.
    """
    equalities: dict[str, Any] = {}
    for key, condition in query.items():
        if key.startswith("$"):
            continue
        if _is_operator_doc(condition):
            if len(condition) != 1 or "$eq" not in condition:
                continue
            condition = condition["$eq"]
        if not isinstance(condition, (dict, list)):
            equalities[key] = condition
    return equalities
