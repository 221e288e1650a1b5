"""The reference for the compiled schema validator: the interpreter
:mod:`repro.schema.validator` replaced, kept verbatim (renamed only).

It walks the schema dictionary for every value and formats every path
eagerly.  ``test_compiled_parity.py`` holds the compiled validator to its
verdicts, exception classes, messages and paths.
"""

from __future__ import annotations

import re
from typing import Any

from repro.common.errors import SchemaValidationError

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


class ReferenceValidator:
    """The schema interpreter: re-walks the schema dictionary per value.

    Args:
        schema: the root schema dictionary (typically parsed from YAML).
        definitions: optional ``$ref`` target table; defaults to the root
            schema's own ``definitions`` key.
    """

    def __init__(self, schema: dict[str, Any], definitions: dict[str, Any] | None = None):
        if not isinstance(schema, dict):
            raise SchemaValidationError("schema must be a mapping")
        self._schema = schema
        self._definitions = definitions if definitions is not None else schema.get("definitions", {})
        self._pattern_cache: dict[str, re.Pattern[str]] = {}

    # -- public API ---------------------------------------------------------

    def validate(self, document: Any) -> None:
        """Raise :class:`SchemaValidationError` if ``document`` is invalid."""
        self._validate(document, self._schema, "$")

    def is_valid(self, document: Any) -> bool:
        """Boolean variant of :meth:`validate`."""
        try:
            self.validate(document)
        except SchemaValidationError:
            return False
        return True

    # -- internals ----------------------------------------------------------

    def _resolve(self, schema: dict[str, Any], path: str) -> dict[str, Any]:
        """Follow a ``$ref`` chain to the concrete schema."""
        seen: set[str] = set()
        while "$ref" in schema:
            ref = schema["$ref"]
            if ref in seen:
                raise SchemaValidationError(f"circular $ref: {ref}", path)
            seen.add(ref)
            name = ref.rsplit("/", 1)[-1]
            target = self._definitions.get(name)
            if target is None:
                raise SchemaValidationError(f"unresolvable $ref: {ref}", path)
            schema = target
        return schema

    def _compiled_pattern(self, pattern: str) -> re.Pattern[str]:
        compiled = self._pattern_cache.get(pattern)
        if compiled is None:
            compiled = re.compile(pattern)
            self._pattern_cache[pattern] = compiled
        return compiled

    def _validate(self, value: Any, schema: dict[str, Any], path: str) -> None:
        schema = self._resolve(schema, path)

        if value is None and schema.get("nullable"):
            return

        if "const" in schema and value != schema["const"]:
            raise SchemaValidationError(f"expected constant {schema['const']!r}, got {value!r}", path)

        if "enum" in schema and value not in schema["enum"]:
            raise SchemaValidationError(f"{value!r} is not one of {schema['enum']!r}", path)

        declared = schema.get("type")
        if declared is not None:
            self._check_type(value, declared, path)

        if "anyOf" in schema:
            self._check_any_of(value, schema["anyOf"], path)
        if "allOf" in schema:
            for index, branch in enumerate(schema["allOf"]):
                self._validate(value, branch, path)

        if isinstance(value, str):
            self._check_string(value, schema, path)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._check_number(value, schema, path)
        if isinstance(value, dict):
            self._check_object(value, schema, path)
        if isinstance(value, list):
            self._check_array(value, schema, path)

    def _check_type(self, value: Any, declared: Any, path: str) -> None:
        types = declared if isinstance(declared, list) else [declared]
        for type_name in types:
            check = _TYPE_CHECKS.get(type_name)
            if check is None:
                raise SchemaValidationError(f"unknown schema type {type_name!r}", path)
            if check(value):
                return
        raise SchemaValidationError(
            f"expected {' or '.join(types)}, got {type(value).__name__}", path
        )

    def _check_any_of(self, value: Any, branches: list[dict[str, Any]], path: str) -> None:
        failures = []
        for branch in branches:
            try:
                self._validate(value, branch, path)
                return
            except SchemaValidationError as exc:
                failures.append(str(exc))
        raise SchemaValidationError(
            "no anyOf branch matched: " + " | ".join(failures), path
        )

    def _check_string(self, value: str, schema: dict[str, Any], path: str) -> None:
        pattern = schema.get("pattern")
        if pattern is not None and not self._compiled_pattern(pattern).search(value):
            raise SchemaValidationError(f"string does not match pattern {pattern!r}", path)
        min_length = schema.get("minLength")
        if min_length is not None and len(value) < min_length:
            raise SchemaValidationError(f"string shorter than minLength {min_length}", path)
        max_length = schema.get("maxLength")
        if max_length is not None and len(value) > max_length:
            raise SchemaValidationError(f"string longer than maxLength {max_length}", path)

    def _check_number(self, value: float, schema: dict[str, Any], path: str) -> None:
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            raise SchemaValidationError(f"{value} is below minimum {minimum}", path)
        maximum = schema.get("maximum")
        if maximum is not None and value > maximum:
            raise SchemaValidationError(f"{value} is above maximum {maximum}", path)

    def _check_object(self, value: dict[str, Any], schema: dict[str, Any], path: str) -> None:
        for name in schema.get("required", []):
            if name not in value:
                raise SchemaValidationError(f"missing required property {name!r}", path)
        properties = schema.get("properties", {})
        for name, item in value.items():
            child_path = f"{path}.{name}"
            if name in properties:
                self._validate(item, properties[name], child_path)
            elif schema.get("additionalProperties") is False:
                raise SchemaValidationError(f"unexpected property {name!r}", path)
            elif isinstance(schema.get("additionalProperties"), dict):
                self._validate(item, schema["additionalProperties"], child_path)

    def _check_array(self, value: list[Any], schema: dict[str, Any], path: str) -> None:
        min_items = schema.get("minItems")
        if min_items is not None and len(value) < min_items:
            raise SchemaValidationError(f"array has fewer than minItems {min_items}", path)
        max_items = schema.get("maxItems")
        if max_items is not None and len(value) > max_items:
            raise SchemaValidationError(f"array has more than maxItems {max_items}", path)
        items = schema.get("items")
        if isinstance(items, dict):
            for index, item in enumerate(value):
                self._validate(item, items, f"{path}[{index}]")
        elif isinstance(items, list):
            for index, (item, branch) in enumerate(zip(value, items)):
                self._validate(item, branch, f"{path}[{index}]")


def reference_language_key(document: dict[str, Any], section: str) -> None:
    """Reject MongoDB-reserved keys inside asset/metadata payloads.

    BigchainDB forbids keys that collide with MongoDB text-index language
    configuration or operator syntax (``$``-prefixed keys, dotted keys, and
    a bare ``language`` key holding a non-string).  Algorithm 1 calls this
    ``validateLanguageKey``.

    Raises:
        SchemaValidationError: naming the offending key.
    """
    payload = document.get(section)
    if payload is None:
        return
    _walk_language_keys(payload, f"$.{section}")


def _walk_language_keys(value: Any, path: str) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SchemaValidationError(f"non-string key {key!r}", path)
            if key.startswith("$"):
                raise SchemaValidationError(f"operator-like key {key!r} is forbidden", path)
            if "." in key:
                raise SchemaValidationError(f"dotted key {key!r} is forbidden", path)
            if key == "language" and not isinstance(item, str):
                raise SchemaValidationError("'language' key must hold a string", path)
            _walk_language_keys(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _walk_language_keys(item, f"{path}[{index}]")
