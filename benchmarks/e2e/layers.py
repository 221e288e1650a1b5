"""Per-layer metrics of a traced run: span self-times and exact counts.

Self-times come from the :class:`spans.Recorder` (write phases only, so
the ``*_us_per_tx`` column plus ``other.self_us_per_tx`` sums to the
traced write time per committed record), scaled by the run's rescaled /
raw write time so they are at nominal host speed like the end-to-end
figures (see ``hostclock``).  Counts come from the layers'
own public ``stats`` surfaces as a delta over the timed section; they do
not depend on the recorder and repeat exactly per seed.
"""

from __future__ import annotations

from collections import Counter

from repro.crypto.sigcache import shared_cache

#: Layers with a ``<layer>.self_us_per_tx`` row (crypto splits sign/verify).
SELF_TIME_LAYERS = (
    "driver",
    "schema",
    "encoding",
    "validation",
    "storage",
    "mempool",
    "consensus",
    "sharding",
    "durability",
    "views",
    "telemetry",
    "sim",
)

#: name -> (unit, better).  Order is the print order.
PER_LAYER = {
    "driver.self_us_per_tx": ("us", "lower"),
    "crypto.sign_us_per_tx": ("us", "lower"),
    "crypto.signs_per_tx": ("count", "lower"),
    "crypto.verify_us_per_tx": ("us", "lower"),
    "crypto.verifies_per_tx": ("count", "lower"),
    "crypto.sigcache_hit_rate": ("ratio", "higher"),
    "schema.self_us_per_tx": ("us", "lower"),
    "schema.validations_per_tx": ("count", "lower"),
    "encoding.self_us_per_tx": ("us", "lower"),
    "encoding.canonical_calls_per_tx": ("count", "lower"),
    "encoding.deep_copies_per_tx": ("count", "lower"),
    "validation.self_us_per_tx": ("us", "lower"),
    "validation.check_tx_per_tx": ("count", "lower"),
    "validation.cache_hit_rate": ("ratio", "higher"),
    "storage.self_us_per_tx": ("us", "lower"),
    "storage.queries_per_tx": ("count", "lower"),
    "storage.docs_examined_per_query": ("count", "lower"),
    "storage.full_scans": ("count", "lower"),
    "mempool.self_us_per_tx": ("us", "lower"),
    "mempool.duplicates_per_tx": ("count", "lower"),
    "consensus.self_us_per_tx": ("us", "lower"),
    "consensus.txs_per_block": ("count", "higher"),
    "consensus.rounds_per_block": ("count", "lower"),
    "consensus.msgs_per_tx": ("count", "lower"),
    "consensus.net_bytes_per_tx": ("bytes", "lower"),
    "sharding.self_us_per_tx": ("us", "lower"),
    "sharding.cross_share": ("ratio", "lower"),
    "sharding.twopc_aborts": ("count", "lower"),
    "sharding.locks_refused": ("count", "lower"),
    "durability.self_us_per_tx": ("us", "lower"),
    "durability.wal_bytes_per_tx": ("bytes", "lower"),
    "durability.syncs_per_tx": ("count", "lower"),
    "durability.records_per_sync": ("count", "higher"),
    "durability.restart_recover_ms": ("ms", "lower"),
    "durability.replayed_records": ("count", "lower"),
    "views.self_us_per_tx": ("us", "lower"),
    "views.duplicate_block_share": ("ratio", "lower"),
    "views.lag_blocks_at_idle": ("count", "lower"),
    "analytics.dashboard_us_per_read": ("us", "lower"),
    "analytics.wallet_us_per_read": ("us", "lower"),
    "analytics.adhoc_us_per_read": ("us", "lower"),
    "analytics.view_served_share": ("ratio", "higher"),
    "telemetry.self_us_per_tx": ("us", "lower"),
    "sim.self_us_per_tx": ("us", "lower"),
    "sim.events_per_tx": ("count", "lower"),
    "other.self_us_per_tx": ("us", "lower"),
    "trace.tx_per_s": ("1/s", "higher"),
}


def _shards(cluster) -> list:
    return list(cluster.shards.values()) if hasattr(cluster, "shards") else [cluster]


def counters(cluster) -> Counter:
    """Cumulative counts of every layer's stats surface, all replicas."""
    total: Counter = Counter()
    total["events"] = cluster.loop.processed
    cache = shared_cache()
    if cache is not None:
        total["sig_hits"], total["sig_misses"] = cache.hits, cache.misses
    for shard in _shards(cluster):
        total["net_sent"] += shard.network.stats["sent"]
        total["net_bytes"] += shard.network.stats["bytes"]
        for node_id, server in shard.servers.items():
            validator = shard.engine.validator(node_id)
            total["check_tx"] += validator.check_stats["calls"]
            total["mempool_duplicates"] += validator.mempool.stats["duplicates"]
            memo = server.validator.verification_cache
            if memo is not None:
                total["memo_hits"] += memo.hits
                total["memo_misses"] += memo.misses
            for stats in server.database.stats().values():
                total["queries"] += stats["queries"]
                total["docs_examined"] += stats["documents_examined"]
                total["full_scans"] += stats["full_scans"]
            total["view_served"] += server.read_stats["view_served"]
            total["scan_fallback"] += server.read_stats["scan_fallback"]
        for durability in shard.node_durability.values():
            total["wal_bytes"] += durability.disk.stats["appended_bytes"]
            total["wal_syncs"] += durability.disk.stats["syncs"]
            total["wal_flushes"] += durability.log.stats["flushes"]
            total["wal_records"] += durability.log.stats["flushed_records"]
    if getattr(cluster, "views", None) is not None:
        total["view_applied"] = cluster.views.stats["blocks_applied"]
        total["view_duplicate"] = cluster.views.stats["blocks_duplicate"]
    if hasattr(cluster, "router"):
        total["routed"] = cluster.router.stats["routed"]
        total["cross_shard"] = cluster.router.stats["cross_shard"]
        for agent in cluster.agents.values():
            total["twopc_aborts"] += agent.stats["aborted"]
            total["locks_refused"] += agent.stats["locks_refused"]
    return total


def chain_heights(cluster) -> list[int]:
    """Committed height of each shard's first validator."""
    return [
        len(shard.engine.validator(shard.engine.validator_order[0]).chain)
        for shard in _shards(cluster)
    ]


def view_lag(cluster) -> int:
    """Blocks the views trail the longest chain by, summed over shards."""
    if getattr(cluster, "views", None) is None:
        return 0
    return sum(
        max(0, max(len(shard.engine.validator(n).chain) for n in shard.engine.validator_order)
            - cluster.views.height(shard.view_shard_key))
        for shard in _shards(cluster)
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload, recorder, before: Counter, heights_before: list[int],
              extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    cluster = workload.cluster
    cycles = workload.cycles
    tx = sum(cycle.committed for cycle in cycles)
    write_us = sum(cycle.write.norm_s for cycle in cycles) * 1e6
    #: raw span time -> time at nominal host speed.
    rescale = write_us / (sum(cycle.write.raw_s for cycle in cycles) * 1e6)
    delta = counters(cluster)
    delta.subtract(before)
    write_self = recorder.self_ns.get("write", {})
    write_calls = recorder.calls.get("write", {})
    layers = {
        layer: self_us * rescale
        for layer, self_us in recorder.layer_self_us("write").items()
    }

    def calls(name: str) -> float:
        return _ratio(write_calls.get(name, 0), tx)

    blocks = [
        block
        for shard, height in zip(_shards(cluster), heights_before)
        for block in shard.engine.validator(shard.engine.validator_order[0]).chain[height:]
    ]
    reads = Counter()
    read_s = Counter()
    for cycle in cycles:
        reads.update(cycle.reads)
        read_s.update({mix: watch.norm_s for mix, watch in cycle.read.items()})
    view_served, scan_fallback = workload.read_sources(delta)

    values = {f"{layer}.self_us_per_tx": _ratio(layers.get(layer, 0.0), tx)
              for layer in SELF_TIME_LAYERS}
    values.update({
        "crypto.sign_us_per_tx": _ratio(write_self.get("crypto.sign", 0) / 1e3 * rescale, tx),
        "crypto.signs_per_tx": calls("crypto.sign"),
        "crypto.verify_us_per_tx": _ratio(
            write_self.get("crypto.verify", 0) / 1e3 * rescale, tx
        ),
        "crypto.verifies_per_tx": _ratio(delta["sig_hits"] + delta["sig_misses"], tx),
        "crypto.sigcache_hit_rate": _ratio(
            delta["sig_hits"], delta["sig_hits"] + delta["sig_misses"]
        ),
        "schema.validations_per_tx": calls("schema.validate"),
        "encoding.canonical_calls_per_tx": calls("encoding.canonical"),
        "encoding.deep_copies_per_tx": calls("encoding.deep_copy"),
        "validation.check_tx_per_tx": _ratio(delta["check_tx"], tx),
        "validation.cache_hit_rate": _ratio(
            delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"]
        ),
        # Store reads on the write path only; the two below span the read
        # bursts too (ad-hoc and scan-fallback reads are storage work).
        "storage.queries_per_tx": calls("storage.query"),
        "storage.docs_examined_per_query": _ratio(delta["docs_examined"], delta["queries"]),
        "storage.full_scans": float(delta["full_scans"]),
        "mempool.duplicates_per_tx": _ratio(delta["mempool_duplicates"], tx),
        "consensus.txs_per_block": _ratio(
            sum(len(block.transactions) for block in blocks), len(blocks)
        ),
        "consensus.rounds_per_block": _ratio(
            sum(block.round + 1 for block in blocks), len(blocks)
        ),
        "consensus.msgs_per_tx": _ratio(delta["net_sent"], tx),
        "consensus.net_bytes_per_tx": _ratio(delta["net_bytes"], tx),
        "sharding.cross_share": _ratio(delta["cross_shard"], delta["routed"]),
        "sharding.twopc_aborts": float(delta["twopc_aborts"]),
        "sharding.locks_refused": float(delta["locks_refused"]),
        "durability.wal_bytes_per_tx": _ratio(delta["wal_bytes"], tx),
        "durability.syncs_per_tx": _ratio(delta["wal_syncs"], tx),
        "durability.records_per_sync": _ratio(delta["wal_records"], delta["wal_flushes"]),
        "durability.restart_recover_ms": extra.get("durability.restart_recover_ms", 0.0),
        "durability.replayed_records": extra.get("durability.replayed_records", 0.0),
        "views.duplicate_block_share": _ratio(
            delta["view_duplicate"], delta["view_duplicate"] + delta["view_applied"]
        ),
        "views.lag_blocks_at_idle": float(view_lag(cluster)),
        "analytics.view_served_share": _ratio(view_served, view_served + scan_fallback),
        "sim.events_per_tx": _ratio(delta["events"], tx),
        "other.self_us_per_tx": _ratio(write_us - sum(layers.values()), tx),
        "trace.tx_per_s": _ratio(tx, write_us / 1e6),
    })
    for mix in ("dashboard", "wallet", "adhoc"):
        values[f"analytics.{mix}_us_per_read"] = _ratio(read_s[mix] * 1e6, reads[mix])
    return {name: values[name] for name in PER_LAYER}
