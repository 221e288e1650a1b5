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
  empty collection, the two-field utxo query): the previous compile-first
  read path against the probe-first one.

Under pytest (tier-1) the file gates what repeats exactly — both sides of
every comparison return the same answers, and the cached pipeline does
each stateless check once per transaction — and only prints the
speedups.  Run as a script (CI ``hotpath-smoke``) it also asserts the
perf-regression floors (query >= 4x, commit >= 4x; ISSUE 4; spend check
>= 3x, id lookup >= 2x; ISSUE 18) and then writes ``BENCH_hotpath.json``
at the repo root so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import bisect
import json
import os
import time
from typing import Any

from repro.consensus.mempool import Mempool
from repro.consensus.types import TxEnvelope
from repro.core.builders import build_create
from repro.core.context import ValidationContext
from repro.core.validation import TransactionValidator
from repro.crypto.keys import ReservedAccounts, keypair_from_string
from repro.crypto.sigcache import SignatureCache, set_shared_cache
from repro.common.encoding import deep_copy_json
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


def compile_first_find_one(collection: Collection, query: dict[str, Any]):
    """The previous point read: compile (or find in the LRU) first, plan
    second (a ``QueryPlan`` per query, as the old planner allocated),
    then the residual over a freshly built candidate list."""
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
            return document
    return None


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
        validator = TransactionValidator(verification_cache=verification_cache)
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


def measure_point_queries() -> dict[str, Any]:
    database = make_smartchaindb_database("bench")
    transactions = database.collection("transactions")
    utxos = database.collection("utxos")
    migrations = database.collection("shard_migrations")  # empty, as on most shards
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
        for output_index in (0, 1):
            utxos.insert_one(
                {
                    "transaction_id": tx_id,
                    "output_index": output_index,
                    "public_keys": [f"K{(number + output_index) % 20}"],
                    "amount": 1,
                }
            )
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
        # A candidate the other clauses must still check: compiled, as before.
        "spend_check_sibling_spent": (transactions, [spend_check(tx_id, 1) for tx_id in ids]),
        "utxo": (utxos, [{"transaction_id": tx_id, "output_index": 1} for tx_id in ids]),
    }
    compiled_rows = {"spend_check_sibling_spent", "utxo"}
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
    return report


def run_report() -> dict:
    """Measure every section (their parity and count gates run inside)
    and print the report; the speedups are reported, not judged."""
    report = {
        "query_throughput": measure_query_throughput(),
        "insert_throughput": measure_insert_throughput(),
        "commit_latency": measure_commit_latency(),
        "mempool_reap": measure_mempool_reap(),
        "point_query": measure_point_queries(),
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
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
