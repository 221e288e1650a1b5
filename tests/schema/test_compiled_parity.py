"""Differential test: the compiled schema validator against the interpreter.

For every shipped operation schema, and for synthetic schemas that reach
the keywords no shipped schema uses (``anyOf`` nested in ``anyOf``,
``maxItems``, a circular and an unresolvable ``$ref``, a recursive
definition), the compiled :class:`~repro.schema.validator.SchemaValidator`
and the reference interpreter (``schema_reference.py``) must give the
same outcome on the same document: both accept, or both raise the same
exception class with the same message and ``path``.

Documents are the payloads each end-to-end workload commits (smoke size)
plus a mutation corpus derived from them: every field removed, replaced by
values of every JSON type, strings and arrays shrunk and grown, extra
properties added.  The corpus must hit every failure family.
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

from repro.schema.registry import OPERATION_SCHEMAS, _read_definition
from repro.schema.validator import SchemaValidator, validate_language_key
from schema_reference import ReferenceValidator, reference_language_key

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOAD_NAMES = ("transfer_1shard", "auction_1kb", "xshard_durable", "market_reads")

DEFINITIONS = _read_definition("base")["definitions"]
OPERATION_SCHEMA = {operation: _read_definition(stem) for operation, stem in OPERATION_SCHEMAS.items()}

#: Synthetic schemas over the shipped definitions (their own table, so the
#: broken references below cannot leak into the shipped ones).
SYNTHETIC_DEFINITIONS = {
    **DEFINITIONS,
    "loop_a": {"$ref": "#/definitions/loop_b"},
    "loop_b": {"$ref": "#/definitions/loop_a"},
    "tree": {
        "type": "object",
        "properties": {"id": {"$ref": "#/definitions/sha3_hexdigest"},
                       "children": {"type": "array", "items": {"$ref": "#/definitions/tree"}}},
    },
}
SYNTHETIC = {
    "nested_any_of": {
        "anyOf": [
            {
                "type": "object",
                "properties": {
                    "outputs": {"anyOf": [{"$ref": "#/definitions/outputs"}, {"type": "null"}]},
                    "version": {"anyOf": [{"$ref": "#/definitions/version"}, {"type": "integer"}]},
                    "references": {"maxItems": 3, "allOf": [{"minItems": 2}]},
                },
            },
            {"type": "array", "maxItems": 2},
        ]
    },
    "bounded_outputs": {
        "type": "object",
        "properties": {
            "outputs": {"allOf": [{"$ref": "#/definitions/outputs"}, {"maxItems": 1}]},
            "inputs": {"type": "array", "items": [{"$ref": "#/definitions/input_genesis"}]},
            "asset": {"type": ["object", "null"], "nullable": True},
            "metadata": {"type": ["integer", "null"]},
            "references": {"type": ["boolean", "widget"]},
            "id": {"type": "string", "anyOf": [{"minLength": 64}, {"type": "number"}]},
        },
    },
    "broken_refs": {
        "type": "object",
        "properties": {
            "metadata": {"$ref": "#/definitions/loop_a"},
            "references": {"$ref": "#/definitions/missing"},
            "asset": {"$ref": "#/definitions/tree"},
        },
    },
}

FAMILIES = (
    "missing required property",
    "unexpected property",
    "expected object",
    "expected integer",
    "expected string",
    "expected array",
    "expected integer or null",
    "unknown schema type",
    "expected constant",
    "is not one of",
    "does not match pattern",
    "shorter than minLength",
    "longer than maxLength",
    "below minimum",
    "fewer than minItems",
    "more than maxItems",
    "no anyOf branch matched",
    "circular $ref",
    "unresolvable $ref",
)

#: Replacement values: every JSON type, and strings that pass the shipped
#: patterns but break a length bound.
VALUES = [None, True, 0, -1, 2.5, "", "x", "1" * 12, "1" * 200, "f" * 64, [], [1], {}, {"a": 1}]


def committed_payloads(name: str) -> list[dict]:
    sys.path[:0] = [os.path.join(ROOT, "benchmarks", "e2e")]
    try:
        from workloads import WORKLOADS
    finally:
        del sys.path[0]
    workload = WORKLOADS[name](7, smoke=True)
    workload.setup()
    workload.run_cycle(0)
    server = workload.cluster.any_server()
    return [
        payload
        for payload in server.database.collection("transactions").find({})
        if payload.get("operation") in OPERATION_SCHEMAS
    ]


@pytest.fixture(scope="module")
def corpus() -> dict[str, list[dict]]:
    return {name: committed_payloads(name) for name in WORKLOAD_NAMES}


def outcome(check, document) -> tuple:
    try:
        check(document)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc), getattr(exc, "path", None)
    return ("accepted",)


def locations(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from locations(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from locations(item, prefix + (index,))


def mutants(document):
    """Every single-site mutation of ``document`` (fresh copies)."""
    for location in locations(document):
        if not location:
            continue

        def mutated(change):
            clone = copy.deepcopy(document)
            parent = clone
            for step in location[:-1]:
                parent = parent[step]
            change(parent, location[-1])
            return clone

        for value in VALUES:
            yield mutated(lambda parent, key, value=value: parent.__setitem__(key, value))
        yield mutated(lambda parent, key: parent.pop(key))
        current = document
        for step in location:
            current = current[step]
        if isinstance(current, dict):
            yield mutated(lambda parent, key: parent[key].__setitem__("extra_field", 1))
        elif isinstance(current, list):
            yield mutated(lambda parent, key: parent.__setitem__(key, parent[key] * 3))
        elif isinstance(current, str):
            yield mutated(lambda parent, key: parent.__setitem__(key, parent[key].upper()))
            yield mutated(lambda parent, key: parent.__setitem__(key, parent[key][:5]))


def samples(corpus) -> list[dict]:
    """One committed payload per (workload, operation)."""
    chosen = {}
    for name, payloads in corpus.items():
        for payload in payloads:
            chosen.setdefault((name, payload["operation"]), payload)
    return list(chosen.values())


def assert_same(compiled, reference, documents, seen: list[str]) -> int:
    count = 0
    for document in documents:
        expected = outcome(reference, document)
        assert outcome(compiled, document) == expected, document
        if expected[0] != "accepted":
            seen.append(expected[1])
        count += 1
    return count


def test_every_workload_commits_schema_checked_payloads(corpus):
    for name, payloads in corpus.items():
        assert payloads, name
    operations = {payload["operation"] for payloads in corpus.values() for payload in payloads}
    assert {"CREATE", "TRANSFER", "REQUEST", "BID", "ACCEPT_BID", "RETURN"} <= operations


def test_committed_payloads_agree(corpus):
    for payloads in corpus.values():
        for payload in payloads:
            schema = OPERATION_SCHEMA[payload["operation"]]
            compiled = SchemaValidator(schema, definitions=DEFINITIONS)
            reference = ReferenceValidator(schema, definitions=DEFINITIONS)
            assert outcome(compiled.validate, payload) == outcome(reference.validate, payload)
            assert outcome(compiled.validate, payload) == ("accepted",)


def test_mutation_corpus_agrees_on_every_schema(corpus):
    documents = samples(corpus)
    mutated = {id(document): list(mutants(document)) for document in documents}
    messages: list[str] = []
    checked = 0
    for schema, definitions in [
        *[(schema, DEFINITIONS) for schema in OPERATION_SCHEMA.values()],
        *[(schema, SYNTHETIC_DEFINITIONS) for schema in SYNTHETIC.values()],
    ]:
        compiled = SchemaValidator(schema, definitions=definitions)
        reference = ReferenceValidator(schema, definitions=definitions)
        for document in documents:
            if schema.get("properties", {}).get("operation", {}).get("const") not in (
                None, document["operation"]
            ):
                continue  # another operation's payload fails on its first field only
            checked += assert_same(
                compiled.validate, reference.validate, [document, *mutated[id(document)]], messages
            )
    assert checked > 5_000
    for family in FAMILIES:
        assert any(family in message for message in messages), family


def test_recursive_definition_agrees():
    schema = {"$ref": "#/definitions/tree"}
    compiled = SchemaValidator(schema, definitions=SYNTHETIC_DEFINITIONS)
    reference = ReferenceValidator(schema, definitions=SYNTHETIC_DEFINITIONS)
    leaf = {"id": "a" * 64}
    documents = [
        {"children": [leaf, {"children": [leaf, {"id": "bad"}]}]},
        {"children": [leaf, {"children": [leaf, leaf]}]},
        {"children": [{"children": "no"}]},
    ]
    outcomes = [outcome(compiled.validate, document) for document in documents]
    assert outcomes == [outcome(reference.validate, document) for document in documents]
    assert outcomes[0][2] == "$.children[1].children[1].id"
    assert outcomes[1] == ("accepted",)


def test_nullable_and_none():
    schema = {"type": "object", "nullable": True, "required": ["a"]}
    for document in (None, {}, {"a": None}, 0):
        assert outcome(SchemaValidator(schema).validate, document) == outcome(
            ReferenceValidator(schema).validate, document
        )


def test_language_keys_agree(corpus):
    documents = samples(corpus)
    poisoned = []
    for document in documents:
        for bad in ({"$where": 1}, {"a.b": 1}, {"language": 5}, {7: "x"},
                    {"ok": [{"deep": [1, {"$bad": 2}]}]}, {"language": "en"}):
            for section in ("metadata", "asset"):
                clone = copy.deepcopy(document)
                target = clone.get(section)
                if section == "asset":
                    target = (target or {}).get("data")
                if isinstance(target, dict):
                    target.update(bad)
                    poisoned.append(clone)
    failures = 0
    for document in [*documents, *poisoned]:
        for section in ("metadata", "asset"):
            holder = (document.get("asset") or {}) if section == "asset" else document
            key = "data" if section == "asset" else "metadata"
            expected = outcome(lambda doc: reference_language_key(doc, key), holder)
            assert outcome(lambda doc: validate_language_key(doc, key), holder) == expected
            failures += expected[0] != "accepted"
    assert failures >= len(poisoned) * 5 // 6
