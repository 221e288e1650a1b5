"""JSON-Schema-subset validator for transaction payloads (Algorithm 1).

SmartchainDB's first validation phase checks the *structure* of the JSON
transaction payload against the YAML schema of its type.  This module
implements the schema dialect those definitions use:

``type``, ``properties``, ``required``, ``additionalProperties``,
``items``, ``minItems``/``maxItems``, ``enum``, ``const``, ``pattern``,
``minLength``/``maxLength``, ``minimum``/``maximum``, ``anyOf``,
``allOf``, ``$ref`` into a shared ``definitions`` table, and ``nullable``.

Each schema node is compiled once into a check.  Errors carry a
JSON-path-like location (e.g. ``$.outputs[0].amount: 0 is below minimum
1``), built only when a check fails: each enclosing property or item
adds its segment as the failure unwinds.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import repeat
from typing import Any, Callable

from repro.common.errors import SchemaValidationError

Check = Callable[[Any], None]

#: type name -> the classes it admits (``integer`` and ``number`` never bool).
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "boolean": bool, "null": type(None)}

#: The keywords each kind of value is checked against.
_KEYWORDS = {"string": ("pattern", "minLength", "maxLength"), "number": ("minimum", "maximum"),
             "object": ("required", "properties", "additionalProperties"),
             "array": ("minItems", "maxItems", "items")}


class _Invalid(Exception):
    """A check's failure: its message (for ``anyOf``, a function of the
    failure's path) and the path segments, innermost first."""

    def __init__(self, message: str | Callable[[str], str]):
        self.message = message
        self.segments: list[str] = []

    def located(self, base: str) -> tuple[str, str]:
        """``(path, message)`` of this failure under the path ``base``."""
        path = base + "".join(reversed(self.segments))
        return path, self.message(path) if callable(self.message) else self.message


class SchemaValidator:
    """Validates documents against one root schema with shared definitions.

    Args:
        schema: the root schema dictionary (typically parsed from YAML).
        definitions: optional ``$ref`` target table; defaults to the root
            schema's own ``definitions`` key.
    """

    def __init__(self, schema: dict[str, Any], definitions: dict[str, Any] | None = None):
        if not isinstance(schema, dict):
            raise SchemaValidationError("schema must be a mapping")
        self._definitions = definitions if definitions is not None else schema.get("definitions", {})
        #: id(schema node after its $ref chain) -> its check.
        self._compiled: dict[int, Check] = {}
        self._check = self._compile(schema)

    # -- public API ---------------------------------------------------------

    def validate(self, document: Any) -> None:
        """Raise :class:`SchemaValidationError` if ``document`` is invalid."""
        try:
            self._check(document)
        except _Invalid as failure:
            path, message = failure.located("$")
            raise SchemaValidationError(message, path) from None

    def is_valid(self, document: Any) -> bool:
        """Boolean variant of :meth:`validate`."""
        try:
            self.validate(document)
        except SchemaValidationError:
            return False
        return True

    # -- compiler -----------------------------------------------------------

    def _compile(self, schema: dict[str, Any]) -> Check:
        """The check of ``schema``; a broken ``$ref`` chain compiles to a
        check that fails wherever it is reached."""
        seen: set[str] = set()
        while "$ref" in schema:
            ref = schema["$ref"]
            if ref in seen:
                return partial(_fail, f"circular $ref: {ref}")
            seen.add(ref)
            schema = self._definitions.get(ref.rsplit("/", 1)[-1])
            if schema is None:
                return partial(_fail, f"unresolvable $ref: {ref}")
        check = self._compiled.get(id(schema))
        if check is None:
            # A recursive schema's inner reference forwards to this check.
            built: list[Check] = []
            self._compiled[id(schema)] = lambda value: built[0](value)
            check = self._compiled[id(schema)] = self._build(schema)
            built.append(check)
        return check

    def _build(self, schema: dict[str, Any]) -> Check:
        """One node's checks in the order the module lists the keywords
        (the first failure wins).  One declared type of a checked kind and
        no combinator: that kind's check tests the type as well, and is
        the node's whole check when no other keyword is present."""
        declared = schema.get("type")
        combined = "anyOf" in schema or "allOf" in schema
        kind = {"integer": "number"}.get(declared, declared) if isinstance(declared, str) else None
        names = None
        if kind in _KEYWORDS and not combined:
            kinds = [self._kind(schema, kind, _TYPES[declared], declared)]
        else:
            names = declared if isinstance(declared, list) or declared is None else [declared]
            kinds = [
                self._kind(schema, kind, _TYPES[kind], None)
                for kind, keywords in _KEYWORDS.items()
                if any(keyword in schema for keyword in keywords)
            ]
        nullable = bool(schema.get("nullable"))
        has_const, has_enum = "const" in schema, "enum" in schema
        if len(kinds) == 1 and names is None and not (nullable or has_const or has_enum or combined):
            return kinds[0]
        const, options = schema.get("const"), schema.get("enum")
        any_of = [self._compile(branch) for branch in schema["anyOf"]] if "anyOf" in schema else None
        steps = [self._compile(branch) for branch in schema.get("allOf", ())] + kinds

        def check(value: Any) -> None:
            if value is None and nullable:
                return
            if has_const and value != const:
                raise _Invalid(f"expected constant {const!r}, got {value!r}")
            if has_enum and value not in options:
                raise _Invalid(f"{value!r} is not one of {options!r}")
            if names is not None:
                _check_type(names, value)
            if any_of is not None:
                failures = []
                for branch in any_of:
                    try:
                        branch(value)
                        break
                    except _Invalid as failure:
                        failures.append(failure)
                else:
                    raise _Invalid(lambda path: "no anyOf branch matched: " + " | ".join(
                        "%s: %s" % failure.located(path) for failure in failures))
            for step in steps:
                step(value)

        return check

    def _kind(self, schema: dict[str, Any], kind: str, classes: Any, declared: str | None) -> Check:
        """The check of one kind's keywords; a value of another kind is a
        type error if ``declared``, else passes."""
        other_kind = partial(_check_type, [declared]) if declared else (lambda value: None)
        get = schema.get
        if kind == "string":
            pattern, min_length, max_length = get("pattern"), get("minLength"), get("maxLength")
            search = None if pattern is None else re.compile(pattern).search

            def check(value: Any) -> None:
                if not isinstance(value, str):
                    return other_kind(value)
                if search is not None and not search(value):
                    raise _Invalid(f"string does not match pattern {pattern!r}")
                if min_length is not None and len(value) < min_length:
                    raise _Invalid(f"string shorter than minLength {min_length}")
                if max_length is not None and len(value) > max_length:
                    raise _Invalid(f"string longer than maxLength {max_length}")

        elif kind == "number":
            minimum, maximum = get("minimum"), get("maximum")

            def check(value: Any) -> None:
                if not isinstance(value, classes) or isinstance(value, bool):
                    return other_kind(value)
                if minimum is not None and value < minimum:
                    raise _Invalid(f"{value} is below minimum {minimum}")
                if maximum is not None and value > maximum:
                    raise _Invalid(f"{value} is above maximum {maximum}")

        elif kind == "object":
            required = get("required", [])
            required_set = frozenset(required)
            properties = {name: self._compile(item) for name, item in get("properties", {}).items()}
            extra = get("additionalProperties")
            # What an undeclared property gets: rejected (False), a check or none.
            other = False if extra is False else self._compile(extra) if isinstance(extra, dict) else None
            walk = bool(properties) or other is not None

            def check(value: Any) -> None:
                if not isinstance(value, dict):
                    return other_kind(value)
                if not value.keys() >= required_set:
                    name = next(name for name in required if name not in value)
                    raise _Invalid(f"missing required property {name!r}")
                for name, item in value.items() if walk else ():
                    item_check = properties.get(name, other)
                    if item_check is False:
                        raise _Invalid(f"unexpected property {name!r}")
                    try:
                        item_check and item_check(item)
                    except _Invalid as failure:
                        failure.segments.append(f".{name}")
                        raise

        else:
            min_items, max_items, items = get("minItems"), get("maxItems"), get("items")
            branches: Any = repeat(self._compile(items)) if isinstance(items, dict) else (
                [self._compile(branch) for branch in items] if isinstance(items, list) else ()
            )

            def check(value: Any) -> None:
                if not isinstance(value, list):
                    return other_kind(value)
                if min_items is not None and len(value) < min_items:
                    raise _Invalid(f"array has fewer than minItems {min_items}")
                if max_items is not None and len(value) > max_items:
                    raise _Invalid(f"array has more than maxItems {max_items}")
                for index, (item, item_check) in enumerate(zip(value, branches)):
                    try:
                        item_check(item)
                    except _Invalid as failure:
                        failure.segments.append(f"[{index}]")
                        raise

        return check


def _fail(message: str, value: Any) -> None:
    raise _Invalid(message)


def _check_type(names: list[Any], value: Any) -> None:
    for name in names:
        if name not in _TYPES:
            raise _Invalid(f"unknown schema type {name!r}")
        if isinstance(value, _TYPES[name]) and not (
            isinstance(value, bool) and name in ("integer", "number")
        ):
            return
    raise _Invalid(f"expected {' or '.join(names)}, got {type(value).__name__}")


def validate_language_key(document: dict[str, Any], section: str) -> None:
    """Reject MongoDB-reserved keys inside asset/metadata payloads.

    BigchainDB forbids keys that collide with MongoDB text-index language
    configuration or operator syntax (``$``-prefixed keys, dotted keys, and
    a bare ``language`` key holding a non-string).  Algorithm 1 calls this
    ``validateLanguageKey``.

    Raises:
        SchemaValidationError: naming the offending key.
    """
    payload = document.get(section)
    if isinstance(payload, (dict, list)):
        try:
            _walk_language_keys(payload)
        except _Invalid as failure:
            path, message = failure.located(f"$.{section}")
            raise SchemaValidationError(message, path) from None


def _walk_language_keys(value: dict[str, Any] | list[Any]) -> None:
    """Scalars hold no keys, so only containers are descended into."""
    keyed = isinstance(value, dict)
    for key, item in value.items() if keyed else enumerate(value):
        if keyed:
            if not isinstance(key, str):
                raise _Invalid(f"non-string key {key!r}")
            if key.startswith("$"):
                raise _Invalid(f"operator-like key {key!r} is forbidden")
            if "." in key:
                raise _Invalid(f"dotted key {key!r} is forbidden")
            if key == "language" and not isinstance(item, str):
                raise _Invalid("'language' key must hold a string")
        if isinstance(item, (dict, list)):
            try:
                _walk_language_keys(item)
            except _Invalid as failure:
                failure.segments.append(f".{key}" if keyed else f"[{key}]")
                raise
