"""Hot-path microbenchmark: compiled queries + zero-copy vs the interpreter.

Measures the three storage/transaction hot paths the compiled-query PR
rewired, each against a faithful re-implementation of the previous
(interpreted / deep-copy / flat-index / uncached) behaviour:

* **query throughput** on a 10k-document indexed workload —
  per-candidate ``matches()`` interpretation plus a deep copy per result
  vs compiled predicates on the ``copy=False`` read path;
* **insert throughput** into an ordered index — the previous flat
  ``list.insert`` O(n) sorted index vs the blocked two-level structure;
* **end-to-end commit latency** through the validation pipeline
  (receiver validate + 4x CheckTx + DeliverTx) — the cache-free seed
  configuration (no verification cache, no cluster-wide signature cache)
  against the production path with both caches on;
* **mempool reaping** — the seed head-pop loop (fresh ``items()`` view
  iterator + key re-hash per transaction, per-transaction dedup-window
  trims) against the ``popitem``-based reap with batched window upkeep;
* **point queries** — the write path's lookups by an id that never
  repeats (``getTxFromDB``, the spend check, the spend-guard probe of an
  empty collection, the two-field utxo query) and a block commit's UTXO
  retirement (``delete_many`` of one outpoint): the previous compile-first
  read path against the probe-first one;
* **schema validation** — the auction payload mix (what ``auction_1kb``
  commits) through each operation's schema: the previous interpreter,
  which re-walks the schema dictionary and formats a path per value,
  against the compiled validator;
* **canonical encoding** — the same mix through ``canonical_bytes``
  (the guard's walk on every call, then orjson when it is bound) and
  through ``vouched_bytes`` (the verdict already known, as for a parse
  of a plain payload) against the stdlib encoder the kernel falls back
  to, bytes compared first.

Under pytest (tier-1) the file gates what repeats exactly — both sides of
every comparison return the same answers, and the cached pipeline does
each stateless check once per transaction — and only prints the
speedups.  Run as a script (CI ``hotpath-smoke``) it also asserts the
perf-regression floors (query >= 4x, commit >= 4x; ISSUE 4; spend check
>= 3x, id lookup >= 2x; ISSUE 18) and then writes ``BENCH_hotpath.json``
at the repo root so the perf trajectory is tracked across PRs.  The
UTXO retirement's floor is >= 1.5x, the schema row's >= 2x; the
encoding row's, with orjson bound, is >= 3x for an encode whose verdict
is known and >= 1.5x for one that walks first.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import sys
import time
from typing import Any

from repro.consensus.mempool import Mempool
from repro.consensus.types import TxEnvelope
from repro.core.builders import build_create
from repro.core.context import ValidationContext
from repro.core.validation import TransactionValidator
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.crypto.sigcache import SignatureCache, set_shared_cache
from repro.common.encoding import canonical_bytes, deep_copy_json, json_kernel, vouched_bytes
from repro.common.errors import SchemaValidationError
from repro.schema.registry import OPERATION_SCHEMAS, _read_definition
from repro.schema.validator import SchemaValidator
from repro.storage.collection import Collection
from repro.storage.compiler import cache_info, clear_cache, compile_query
from repro.storage.documents import matches
from repro.storage.database import make_smartchaindb_database
from repro.storage.query import QueryPlan
from repro.telemetry.registry import exact_percentile

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_hotpath.json")

N_DOCUMENTS = 10_000
N_QUERIES = 2_000
N_INDEX_INSERTS = 30_000
N_COMMIT_TXS = 60
N_MEMPOOL_TXS = 24_000
MEMPOOL_BLOCK_TXS = 32
MEMPOOL_BLOCK_WEIGHT = 64
N_POINT_QUERIES = 1_500
SCHEMA_ROUNDS = 40
ENCODE_ROUNDS = 40


# -- baselines: the previous implementations, verbatim ------------------------


def interpreted_find(collection: Collection, query: dict[str, Any]) -> list[dict[str, Any]]:
    """The seed read path: plan, then per-candidate ``matches`` + deep copy."""
    probed = collection._planner.probe(query)
    candidates = sorted(probed[2]) if probed else list(collection._documents)
    results = []
    for doc_id in candidates:
        document = collection._documents.get(doc_id)
        if document is None:
            continue
        if matches(document, query):
            results.append(deep_copy_json(document))
    return results


def compile_first_matches(collection: Collection, query: dict[str, Any]):
    """The previous point read: compile (or find in the LRU) first, plan
    second (a ``QueryPlan`` per query, as the old planner allocated),
    then the residual over a freshly built candidate list; yields every
    ``(doc id, document)`` match."""
    predicate = compile_query(query)
    best_path, best_ids = None, None
    for path, key in predicate.equalities.items():
        index = collection._hash_indexes.get(path)
        if index is None:
            continue
        ids = index.lookup(key)
        if best_ids is None or len(ids) < len(best_ids):
            best_path, best_ids = path, ids
            if not ids:
                break
    matcher = predicate
    if best_ids is not None:
        plan = QueryPlan("index", best_path, predicate.equalities[best_path], len(best_ids))
        candidates = sorted(best_ids)
        if isinstance(plan.key, str):
            matcher = predicate.residual_for(plan.index_path)
    else:
        plan = QueryPlan("scan", None, None, len(collection))
        candidates = list(collection._documents)
    for doc_id in candidates:
        document = collection._documents[doc_id]
        if matcher is None or matcher(document):
            yield doc_id, document


def compile_first_find_one(collection: Collection, query: dict[str, Any]):
    return next((document for _, document in compile_first_matches(collection, query)), None)


def compile_first_delete(collection: Collection, query: dict[str, Any]) -> int:
    """The previous UTXO retirement: compile-first matching, then what
    ``delete_many`` does to a volatile collection."""
    doomed = [doc_id for doc_id, _ in compile_first_matches(collection, query)]
    for doc_id in doomed:
        collection._unindex(doc_id, collection._documents.pop(doc_id))
        collection._drop_kept(doc_id)
    collection.stats["deletes"] += len(doomed)
    return len(doomed)


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


class InterpretedSchemaValidator:
    """The previous schema validator: walks the schema dictionary for
    every value and formats every value's path, failing or not."""

    def __init__(self, schema: dict[str, Any], definitions: dict[str, Any]):
        self._schema = schema
        self._definitions = definitions
        self._pattern_cache: dict[str, re.Pattern[str]] = {}

    def validate(self, document: Any) -> None:
        self._validate(document, self._schema, "$")

    def _resolve(self, schema: dict[str, Any], path: str) -> dict[str, Any]:
        seen: set[str] = set()
        while "$ref" in schema:
            ref = schema["$ref"]
            if ref in seen:
                raise SchemaValidationError(f"circular $ref: {ref}", path)
            seen.add(ref)
            target = self._definitions.get(ref.rsplit("/", 1)[-1])
            if target is None:
                raise SchemaValidationError(f"unresolvable $ref: {ref}", path)
            schema = target
        return schema

    def _compiled_pattern(self, pattern: str) -> re.Pattern[str]:
        compiled = self._pattern_cache.get(pattern)
        if compiled is None:
            compiled = self._pattern_cache[pattern] = re.compile(pattern)
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
            for branch in schema["allOf"]:
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
        raise SchemaValidationError("no anyOf branch matched: " + " | ".join(failures), path)

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


class FlatSortedIndex:
    """The seed ordered index: one flat list, O(n) memmove per insert."""

    def __init__(self) -> None:
        self._keys: list[Any] = []
        self._ids: list[int] = []

    def add(self, key: Any, doc_id: int) -> None:
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._ids.insert(position, doc_id)


# -- workload -----------------------------------------------------------------


def build_collection() -> Collection:
    collection = Collection("transactions")
    collection.create_index("id", unique=True)
    collection.create_index("operation")
    collection.create_index("references")
    operations = ("CREATE", "BID", "TRANSFER", "REQUEST")
    for number in range(N_DOCUMENTS):
        collection.insert_one(
            {
                "id": f"{number:064d}",
                "operation": operations[number % len(operations)],
                "references": [f"r{number % 500}"],
                "outputs": [
                    {
                        "public_keys": [f"K{number % 200}"],
                        "amount": 1 + number % 7,
                        "condition": {"type": "ed25519-sha-256", "threshold": 1},
                    }
                ],
                "metadata": {"payload": "x" * 64, "window": number % 37},
            }
        )
    return collection


def query_workload() -> list[dict[str, Any]]:
    """The repeated query shapes validation and analytics actually issue."""
    shapes = []
    for number in range(N_QUERIES):
        bucket = number % 4
        if bucket == 0:
            shapes.append({"id": f"{(number * 7) % N_DOCUMENTS:064d}"})
        elif bucket == 1:
            shapes.append({"references": f"r{number % 500}"})
        elif bucket == 2:
            shapes.append({"operation": "BID", "references": f"r{number % 500}"})
        else:
            shapes.append(
                {"operation": "TRANSFER", "outputs.amount": {"$gte": 4}, "metadata.window": number % 37}
            )
    return shapes


def timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


# -- the benchmark ------------------------------------------------------------


def measure_query_throughput() -> dict[str, float]:
    collection = build_collection()
    queries = query_workload()

    def run_interpreted() -> None:
        for query in queries:
            interpreted_find(collection, query)

    def run_compiled() -> None:
        for query in queries:
            collection.find(query, copy=False)

    # Warm-up: let the compiler cache fill so the measured pass reflects
    # steady state (the same query shapes repeat on the real hot path).
    clear_cache()
    collection.find(queries[0], copy=False)

    interpreted_s = timed(run_interpreted)
    compiled_s = timed(run_compiled)
    matched = 0
    for query in queries[::7]:  # odd stride: every query shape
        expected = interpreted_find(collection, query)
        assert collection.find(query, copy=False) == expected, query
        matched += len(expected)
    return {
        "documents": N_DOCUMENTS,
        "queries": N_QUERIES,
        "documents_matched_in_parity_sample": matched,
        "interpreted_qps": round(N_QUERIES / interpreted_s, 1),
        "compiled_qps": round(N_QUERIES / compiled_s, 1),
        "speedup": round(interpreted_s / compiled_s, 2),
    }


def measure_insert_throughput() -> dict[str, float]:
    keys = [(number * 2_654_435_761) % 1_000_003 for number in range(N_INDEX_INSERTS)]

    from repro.storage.indexes import SortedIndex

    flat, blocked = FlatSortedIndex(), SortedIndex("height")

    def run_flat() -> None:
        for doc_id, key in enumerate(keys):
            flat.add(key, doc_id)

    def run_blocked() -> None:
        for doc_id, key in enumerate(keys):
            blocked._insert(key, doc_id)

    flat_s = timed(run_flat)
    blocked_s = timed(run_blocked)
    # Same ordered contents: a range over everything returns the flat order.
    assert list(blocked.range()) == flat._ids
    return {
        "inserts": N_INDEX_INSERTS,
        "flat_ips": round(N_INDEX_INSERTS / flat_s, 1),
        "blocked_ips": round(N_INDEX_INSERTS / blocked_s, 1),
        "speedup": round(flat_s / blocked_s, 2),
    }


def measure_commit_latency() -> dict[str, float]:
    alice = keypair_from_string("alice")
    payloads = [
        build_create(alice, {"name": f"asset-{number}", "blob": "y" * 256})
        .sign([alice])
        .to_dict()
        for number in range(N_COMMIT_TXS)
    ]

    def pipeline(verification_cache: bool, signature_cache: bool) -> list[float]:
        database = make_smartchaindb_database("bench")
        reserved = ReservedAccounts(escrow=keypair_from_string("escrow"))
        ctx = ValidationContext(database, reserved)
        validator = TransactionValidator()
        if not verification_cache:
            # The uncached reference: every stateless check on every call.
            validator.verification_cache = None
        # The cluster-wide signature cache is process-global; pin it to a
        # known state per phase so neither the seed baseline nor earlier
        # tests in the session leak verdicts into the measurement.
        signatures = SignatureCache() if signature_cache else None
        previous = set_shared_cache(signatures)
        durations = []
        try:
            for payload in payloads:
                start = time.perf_counter()
                validator.validate(ctx, payload)          # receiver node
                for _ in range(4):
                    assert validator.check_tx(payload)    # validator CheckTx
                validator.validate_semantics(ctx, payload)  # DeliverTx
                durations.append(time.perf_counter() - start)
            if verification_cache:
                # Admitted once: one miss, then five hits, and one real
                # signature verification per transaction.
                probe = validator.verification_cache
                assert (probe.misses, probe.hits) == (N_COMMIT_TXS, 5 * N_COMMIT_TXS)
                assert (signatures.misses, signatures.hits) == (N_COMMIT_TXS, 0)
            return durations
        finally:
            set_shared_cache(previous)

    uncached = pipeline(verification_cache=False, signature_cache=False)
    cached = pipeline(verification_cache=True, signature_cache=True)
    uncached_s, cached_s = sum(uncached), sum(cached)
    ordered = sorted(cached)
    return {
        "transactions": N_COMMIT_TXS,
        "uncached_ms_per_tx": round(1000 * uncached_s / N_COMMIT_TXS, 3),
        "cached_ms_per_tx": round(1000 * cached_s / N_COMMIT_TXS, 3),
        # Nearest-rank tail percentiles of the cached path (same
        # extraction the telemetry registry uses everywhere else).
        "cached_p50_ms": round(1000 * exact_percentile(ordered, 0.50), 3),
        "cached_p99_ms": round(1000 * exact_percentile(ordered, 0.99), 3),
        "cached_p999_ms": round(1000 * exact_percentile(ordered, 0.999), 3),
        "speedup": round(uncached_s / cached_s, 2),
    }


def measure_mempool_reap() -> dict[str, float]:
    def envelope(number: int) -> TxEnvelope:
        # ~2% of transactions are heavier than the block weight limit, so
        # both implementations exercise their oversized-skip path.
        weight = 100 if number % 50 == 0 else 1
        return TxEnvelope(
            tx_id=f"{number:032d}", payload={}, size_bytes=100, weight=weight
        )

    def fill() -> Mempool:
        pool = Mempool(capacity=N_MEMPOOL_TXS + 10)
        for number in range(N_MEMPOOL_TXS):
            pool.add(envelope(number))
        return pool

    def seed_reap(pool: Mempool, max_txs: int, max_weight: int) -> list[TxEnvelope]:
        """The previous reap, verbatim: fresh items() iterator and key
        re-hash per transaction, dedup-window trim per reaped id."""
        batch: list[TxEnvelope] = []
        weight = 0
        skipped: list[TxEnvelope] = []
        while pool._pool:
            if len(batch) >= max_txs:
                break
            tx_id, item = next(iter(pool._pool.items()))
            if weight + item.weight > max_weight:
                if item.weight > max_weight:
                    pool._pool.pop(tx_id)
                    skipped.append(item)
                    continue
                break
            pool._pool.pop(tx_id)
            batch.append(item)
            weight += item.weight
        for item in skipped:
            pool._pool[item.tx_id] = item
        for item in batch:
            pool._seen[item.tx_id] = None
            pool._seen.move_to_end(item.tx_id)
            while len(pool._seen) > pool.seen_capacity:
                pool._seen.popitem(last=False)
        return batch

    def drain(pool: Mempool, reap) -> int:
        total = 0
        while True:
            batch = reap(pool, MEMPOOL_BLOCK_TXS, MEMPOOL_BLOCK_WEIGHT)
            if not batch:
                return total
            total += len(batch)

    # Best-of-3 per implementation: a full drain is tens of milliseconds,
    # where scheduler noise would otherwise dominate a CI gate.
    seed_s = new_s = float("inf")
    for _ in range(3):
        seed_pool, new_pool = fill(), fill()
        seed_s = min(seed_s, timed(lambda: drain(seed_pool, seed_reap)))
        new_s = min(
            new_s,
            timed(
                lambda: drain(
                    new_pool, lambda pool, txs, wt: pool.reap(max_txs=txs, max_weight=wt)
                )
            ),
        )
        # Both implementations must reap the same transactions — the fix
        # is pure mechanics, not policy.
        assert seed_pool.pending_ids() == new_pool.pending_ids()
    return {
        "transactions": N_MEMPOOL_TXS,
        "seed_reap_ms": round(seed_s * 1000, 2),
        "reap_ms": round(new_s * 1000, 2),
        "speedup": round(seed_s / new_s, 2),
    }


def fill_utxos(utxos: Collection, ids: list[str]) -> None:
    """Two unspent outputs per transaction id."""
    for number, tx_id in enumerate(ids):
        for output_index in (0, 1):
            utxos.insert_one(
                {
                    "transaction_id": tx_id,
                    "output_index": output_index,
                    "public_keys": [f"K{(number + output_index) % 20}"],
                    "amount": 1,
                }
            )


def measure_utxo_retire(ids: list[str]) -> dict[str, Any]:
    """A block commit's UTXO retirement, ``delete_many`` of one outpoint
    whose id no other retirement names: compile-first (a compiled residual
    per outpoint) against the uncompiled residual check."""
    queries = [{"transaction_id": tx_id, "output_index": 1} for tx_id in ids]

    def retire(delete) -> tuple[float, int, list[dict[str, Any]]]:
        utxos = make_smartchaindb_database("retire").collection("utxos")
        fill_utxos(utxos, ids)
        clear_cache()
        started = time.perf_counter()
        removed = sum(delete(utxos, query) for query in queries)
        elapsed = time.perf_counter() - started
        assert removed == len(queries)
        compiled = cache_info()["misses"]
        return elapsed, compiled, utxos.find({}, copy=False)

    before_s = now_s = float("inf")
    for _ in range(3):
        elapsed, compiled, before_left = retire(compile_first_delete)
        assert compiled == len(queries)
        before_s = min(before_s, elapsed)
        elapsed, compiled, now_left = retire(Collection.delete_many)
        # The gate that repeats exactly: a retirement compiles nothing.
        assert compiled == 0
        now_s = min(now_s, elapsed)
        assert now_left == before_left and len(now_left) == len(ids)
    count = len(queries)
    return {
        "compile_first_us": round(1e6 * before_s / count, 2),
        "probe_first_us": round(1e6 * now_s / count, 2),
        "speedup": round(before_s / now_s, 2),
    }


def measure_point_queries() -> dict[str, Any]:
    database = make_smartchaindb_database("bench")
    transactions = database.collection("transactions")
    utxos = database.collection("utxos")
    # An empty indexed table, as the old per-shard redirect registry was
    # on most shards: the probe answers without compiling anything.
    migrations = database.create_collection("empty_guard")
    for path in ("migration_id", "transaction_id", "direction"):
        migrations.create_index(path)
    count = N_POINT_QUERIES
    ids = [f"{number:064x}" for number in range(count)]
    for number, tx_id in enumerate(ids):
        # A chain of transfers: each spends output 0 of the one before and
        # leaves its own two outputs unspent until the next one.
        transactions.insert_one(
            {
                "id": tx_id,
                "operation": "TRANSFER",
                "asset": {"id": ids[0]},
                "inputs": [
                    {
                        "fulfills": {"transaction_id": ids[number - 1], "output_index": 0},
                        "owners_before": [f"K{number % 20}"],
                    }
                ],
                "outputs": [
                    {"public_keys": [f"K{number % 20}"], "amount": 1},
                    {"public_keys": [f"K{(number + 1) % 20}"], "amount": 1},
                ],
            }
        )
    fill_utxos(utxos, ids)
    unknown = [f"f{number:063x}" for number in range(count)]

    def spend_check(tx_id: str, output_index: int) -> dict[str, Any]:
        return {
            "inputs.fulfills.transaction_id": tx_id,
            "inputs": {
                "$elemMatch": {
                    "fulfills.transaction_id": tx_id,
                    "fulfills.output_index": output_index,
                }
            },
        }

    # Every query names an id no other query of its row names: the
    # write path's case, where a compiled predicate is never reused.
    rows = {
        "id_lookup": (transactions, [{"id": tx_id} for tx_id in ids]),
        "spend_check_unspent": (transactions, [spend_check(tx_id, 0) for tx_id in unknown]),
        "empty_guard": (
            migrations,
            [{"transaction_id": tx_id, "output_index": 0, "direction": "out"} for tx_id in ids],
        ),
        "utxo_absent": (utxos, [{"transaction_id": tx_id, "output_index": 1} for tx_id in unknown]),
        # A candidate an ``$elemMatch`` must still check: compiled, as before.
        "spend_check_sibling_spent": (transactions, [spend_check(tx_id, 1) for tx_id in ids]),
        # A candidate scalar equalities still check: nothing compiled.
        "utxo": (utxos, [{"transaction_id": tx_id, "output_index": 1} for tx_id in ids]),
    }
    compiled_rows = {"spend_check_sibling_spent"}
    report: dict[str, Any] = {"queries_per_row": count}
    for name, (collection, queries) in rows.items():
        def run_before() -> None:
            for query in queries:
                compile_first_find_one(collection, query)

        def run_now() -> None:
            for query in queries:
                collection.find_one(query, copy=False)

        before_s = now_s = float("inf")
        for _ in range(3):
            clear_cache()
            before_s = min(before_s, timed(run_before))
            clear_cache()
            now_s = min(now_s, timed(run_now))
            # The gate that repeats exactly: what the probe answers never
            # compiles, what it cannot compiles once per distinct query.
            info = cache_info()
            assert (info["hits"], info["misses"]) == (0, count if name in compiled_rows else 0), name
        for query in queries[::97]:
            assert collection.find_one(query, copy=False) is compile_first_find_one(
                collection, query
            ), query
        found = sum(collection.find_one(query, copy=False) is not None for query in queries)
        assert found == (count if name in ("id_lookup", "utxo") else 0), name
        report[name] = {
            "compile_first_us": round(1e6 * before_s / count, 2),
            "probe_first_us": round(1e6 * now_s / count, 2),
            "speedup": round(before_s / now_s, 2),
        }
    report["utxo_retire"] = measure_utxo_retire(ids)
    return report


def auction_payloads() -> list[dict[str, Any]]:
    """What one smoke-size ``auction_1kb`` cycle commits: CREATEs, REQUESTs,
    BIDs, ACCEPT_BIDs and their RETURNs at 1 115 B."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))
    try:
        from workloads import Auction1kb
    finally:
        del sys.path[0]
    workload = Auction1kb(seed=5, smoke=True)
    workload.setup()
    workload.run_cycle(0)
    return workload.cluster.any_server().database.collection("transactions").find({})


def schema_outcome(validator, document: Any) -> tuple:
    try:
        validator.validate(document)
    except SchemaValidationError as exc:
        return str(exc), exc.path
    return ("accepted",)


def measure_schema() -> dict[str, Any]:
    payloads = auction_payloads()
    definitions = _read_definition("base")["definitions"]
    schemas = {operation: _read_definition(stem) for operation, stem in OPERATION_SCHEMAS.items()}
    compiled = {op: SchemaValidator(schema, definitions) for op, schema in schemas.items()}
    interpreted = {
        op: InterpretedSchemaValidator(schema, definitions) for op, schema in schemas.items()
    }
    mix = [(compiled[p["operation"]], interpreted[p["operation"]], p) for p in payloads]
    # Parity on the mix and on one broken copy of each payload (an output
    # amount of zero: the deepest path the schemas check).
    for compiled_validator, interpreted_validator, payload in mix:
        broken = deep_copy_json(payload)
        broken["outputs"][-1]["amount"] = 0
        for document in (payload, broken):
            assert schema_outcome(compiled_validator, document) == schema_outcome(
                interpreted_validator, document
            )

    def run(side: int) -> None:
        for _ in range(SCHEMA_ROUNDS):
            for entry in mix:
                entry[side].validate(entry[2])

    interpreted_s = compiled_s = float("inf")
    for _ in range(3):
        interpreted_s = min(interpreted_s, timed(lambda: run(1)))
        compiled_s = min(compiled_s, timed(lambda: run(0)))
    count = SCHEMA_ROUNDS * len(mix)
    return {
        "payloads": len(mix),
        "operations": sorted({payload["operation"] for payload in payloads}),
        "interpreted_us": round(1e6 * interpreted_s / count, 2),
        "compiled_us": round(1e6 * compiled_s / count, 2),
        "speedup": round(interpreted_s / compiled_s, 2),
    }


def measure_encoding() -> dict[str, Any]:
    payloads = auction_payloads()

    def stdlib(value: Any) -> bytes:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()

    for payload in payloads:
        assert canonical_bytes(payload) == vouched_bytes(payload, True) == stdlib(payload)

    def run(encode) -> None:
        for _ in range(ENCODE_ROUNDS):
            for payload in payloads:
                encode(payload)

    stdlib_s = guarded_s = vouched_s = float("inf")
    for _ in range(3):
        stdlib_s = min(stdlib_s, timed(lambda: run(stdlib)))
        guarded_s = min(guarded_s, timed(lambda: run(canonical_bytes)))
        vouched_s = min(vouched_s, timed(lambda: run(lambda value: vouched_bytes(value, True))))
    count = ENCODE_ROUNDS * len(payloads)
    return {
        "kernel": json_kernel(),
        "payloads": len(payloads),
        "stdlib_us": round(1e6 * stdlib_s / count, 2),
        "guarded_us": round(1e6 * guarded_s / count, 2),
        "vouched_us": round(1e6 * vouched_s / count, 2),
        "guarded_speedup": round(stdlib_s / guarded_s, 2),
        "vouched_speedup": round(stdlib_s / vouched_s, 2),
    }


def run_report() -> dict:
    """Measure every section (their parity and count gates run inside)
    and print the report; the speedups are reported, not judged."""
    report = {
        "query_throughput": measure_query_throughput(),
        "insert_throughput": measure_insert_throughput(),
        "commit_latency": measure_commit_latency(),
        "mempool_reap": measure_mempool_reap(),
        "point_query": measure_point_queries(),
        "schema": measure_schema(),
        "encoding": measure_encoding(),
    }
    lines = ["hot-path microbenchmark"]
    for section, numbers in report.items():
        lines.append(f"  {section}: " + ", ".join(f"{k}={v}" for k, v in numbers.items()))
    print("\n".join(lines))
    return report


def test_hotpath_micro():
    run_report()


if __name__ == "__main__":
    report = run_report()
    # Perf-regression floors (ISSUE 4): the CI perf smoke job fails when
    # these drop, so a PR cannot silently give the speedups back.
    # Gates first: a red run leaves the tracked file alone.
    assert report["query_throughput"]["speedup"] >= 4.0, report["query_throughput"]
    assert report["commit_latency"]["speedup"] >= 4.0, report["commit_latency"]
    # Conservative bounds for the remaining paths (typical measurements
    # are far higher; reap is a micro-fix, so the floor only guards
    # against regressing below the seed implementation).
    assert report["insert_throughput"]["speedup"] >= 1.5, report["insert_throughput"]
    assert report["mempool_reap"]["speedup"] >= 1.0, report["mempool_reap"]
    # ISSUE 18: point queries answered by the probe (typical: 5-20x).
    points = report["point_query"]
    assert points["spend_check_unspent"]["speedup"] >= 3.0, points
    assert points["id_lookup"]["speedup"] >= 2.0, points
    # A UTXO retirement checks its residual uncompiled (typical: ~2x).
    assert points["utxo_retire"]["speedup"] >= 1.5, points
    # Schemas compiled once (typical: 3-4x on the auction mix).
    assert report["schema"]["speedup"] >= 2.0, report["schema"]
    # Canonical JSON through orjson behind its exactness guard (typical on
    # a 2-core container: 8-10x vouched, 2-2.5x walking first).
    encoding = report["encoding"]
    assert encoding["kernel"].startswith("orjson"), encoding
    assert encoding["vouched_speedup"] >= 3.0, encoding
    assert encoding["guarded_speedup"] >= 1.5, encoding
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
