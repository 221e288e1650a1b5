"""Read scaling benchmark: materialized views vs per-query rescans.

The queryability story (Section 2.1) said the *data model* makes
marketplace queries expressible; this PR's tentpole makes them *cheap*.
Before it, every analytics call — operation volume, capability demand,
bid competition, settlement rate, provenance and wash-trade walks —
re-derived its answer from the transactions collection, O(history) per
query, on the same node that validates and commits blocks.  Now a
:class:`~repro.views.ViewManager` fed from the durability WAL maintains
every hot read set incrementally, and keeps the wash-trade walk's
findings per asset, re-walking only assets a block moved since the last
call — so a repeated query costs O(answer), not O(history).

Measured here, on one committed marketplace history:

* **repeated-query speedup** — the analytics dashboard mix served from
  views vs forced collection rescans (gate: >= 2.5x; the scan side got
  5-7x faster in ISSUE 18, see EXPERIMENTS.md for the measured band);
* **reads off the commit path** — view-served reads touch the document
  store zero times (counted via instrumented collections);
* **view freshness** — at idle the views have applied every committed
  block on every node (lag 0), so the speedup is not bought with
  staleness;
* **custody walks** — a dashboard refresh with no block applied since
  the last one runs 0 custody walks, and one after k TRANSFERs of
  distinct assets runs exactly k (``views.stats["custody_walks"]``).

Wallet reads (``outputs_for`` / ``open_requests``) are reported too but
not gated: those scans were already index-served, so the views'
win there is bounded — the O(history) wins live on the analytics
surface.

Under pytest (tier-1) the file gates what repeats exactly — both read
paths answer identically, view-served reads never touch the document
store, lag is zero at idle, the custody-walk counts — and only prints
the speedups.  Run as a
script (CI ``hotpath-smoke``) it also asserts the >= 2.5x bar and then
writes ``BENCH_reads.json`` at the repo root, so the read-path
trajectory is visible across PRs.
"""

from __future__ import annotations

import json
import os
import time

from repro.analytics import FraudAnalyzer, MarketplaceAnalytics
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig

BENCH_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_reads.json")

N_ASSETS = 1000
N_REQUESTS = 16
N_TRANSFERS = 120
DASHBOARD_ROUNDS = 15
WALLET_ROUNDS = 150
OWNERS = 6
CAPABILITIES = 4
#: Distinct assets the custody-walk count gate transfers.
MOVED_ASSETS = 5


def _build_history() -> tuple[SmartchainCluster, list[str], list]:
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=4,
            seed=47,
            durability=DurabilityConfig(snapshot_interval=34),
        )
    )
    driver = cluster.driver
    owners = [keypair_from_string(f"owner-{i}") for i in range(OWNERS)]
    sally = keypair_from_string("sally")
    creates = []
    for number in range(N_ASSETS):
        owner = owners[number % OWNERS]
        create = driver.prepare_create(
            owner,
            {"capabilities": ["3d-print", f"cap-{number % CAPABILITIES}"], "rank": number},
        )
        cluster.submit_payload(create.to_dict())
        creates.append((owner, create))
    cluster.run()
    for number in range(N_REQUESTS):
        request = driver.prepare_request(sally, [f"cap-{number % CAPABILITIES}"])
        cluster.submit_payload(request.to_dict())
    cluster.run()
    for number in range(N_TRANSFERS):
        owner, create = creates[number]
        recipient = owners[(number + 1) % OWNERS]
        transfer = driver.prepare_transfer(
            owner, [(create.tx_id, 0, 1)], create.tx_id, [(recipient.public_key, 1)]
        )
        cluster.submit_payload(transfer.to_dict())
    cluster.run()
    sample_assets = [create.tx_id for _, create in creates[N_TRANSFERS : N_TRANSFERS + 3]]
    return cluster, sample_assets, creates


def _dashboard_mix(server, source: str, sample_assets: list[str]) -> int:
    """One analytics dashboard refresh; returns a checksum of result
    sizes so both sides provably computed the same answers."""
    analytics = MarketplaceAnalytics(server, source=source)
    fraud = FraudAnalyzer(server, source=source)
    total = sum(analytics.operation_volume().values())
    total += sum(analytics.capability_demand().values())
    total += sum(analytics.bid_competition().values())
    total += int(analytics.settlement_rate() * 1000)
    for number in range(CAPABILITIES):
        total += len(analytics.open_requests(f"cap-{number}"))
    for asset_id in sample_assets:
        total += len(analytics.provenance(asset_id))
    total += len(fraud.rapid_flips())
    return total


def _wallet_mix(server, source: str, owner_keys: list[str]) -> int:
    total = len(server.open_requests("3d-print", source=source))
    for public_key in owner_keys:
        total += len(server.outputs_for(public_key, source=source))
    return total


def _timed(rounds: int, mix) -> tuple[float, int]:
    checksum = 0
    start = time.perf_counter()
    for _ in range(rounds):
        checksum = mix()
    return time.perf_counter() - start, checksum


class _CountingCollection:
    """Counts document-store reads passing through one collection."""

    def __init__(self, inner, counter):
        self._inner = inner
        self._counter = counter

    def find(self, *args, **kwargs):
        self._counter["finds"] += 1
        return self._inner.find(*args, **kwargs)

    def find_one(self, *args, **kwargs):
        self._counter["finds"] += 1
        return self._inner.find_one(*args, **kwargs)

    def count(self, *args, **kwargs):
        self._counter["finds"] += 1
        return self._inner.count(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _count_store_reads(server, sample_assets) -> dict:
    """View-served reads must bypass the document store entirely."""
    counter = {"finds": 0}
    database = server.database
    original = database.collection

    def counting(name):
        return _CountingCollection(original(name), counter)

    database.collection = counting
    try:
        _dashboard_mix(server, "views", sample_assets)
        view_finds = counter["finds"]
        _dashboard_mix(server, "scan", sample_assets)
        scan_finds = counter["finds"] - view_finds
    finally:
        database.collection = original
    return {"view_served_finds": view_finds, "scan_finds": scan_finds}


def _custody_walks(cluster, server, sample_assets, creates) -> dict:
    """Custody walks the view-served dashboard runs: none on a refresh
    with no block applied in between, one per asset a new TRANSFER moved."""
    stats = cluster.views.stats
    _dashboard_mix(server, "views", sample_assets)
    before = stats["custody_walks"]
    _dashboard_mix(server, "views", sample_assets)
    idle = stats["custody_walks"] - before
    moved = creates[N_TRANSFERS + 3 : N_TRANSFERS + 3 + MOVED_ASSETS]
    for number, (owner, create) in enumerate(moved):
        recipient = keypair_from_string(f"owner-{number % OWNERS}")
        cluster.submit_payload(
            cluster.driver.prepare_transfer(
                owner, [(create.tx_id, 0, 1)], create.tx_id, [(recipient.public_key, 1)]
            ).to_dict()
        )
    cluster.run()
    before = stats["custody_walks"]
    _dashboard_mix(server, "views", sample_assets)
    return {
        "idle_refresh": idle,
        "transfers": MOVED_ASSETS,
        "after_transfers": stats["custody_walks"] - before,
    }


def _view_lag(cluster) -> int:
    views = cluster.views
    return max(
        len(cluster.engine.validator(node_id).chain)
        - views.height(cluster.view_shard_key)
        for node_id in cluster.engine.validator_order
    )


def run_report() -> dict:
    """Build the history, measure both read paths (parity and count gates
    run here) and print the report; speedups are reported, not judged."""
    cluster, sample_assets, creates = _build_history()
    server = cluster.any_server()
    assert _view_lag(cluster) <= 0  # no node's chain is ahead of the views
    owner_keys = [
        keypair_from_string(f"owner-{number}").public_key for number in range(OWNERS)
    ]

    scan_s, scan_sum = _timed(
        DASHBOARD_ROUNDS, lambda: _dashboard_mix(server, "scan", sample_assets)
    )
    view_s, view_sum = _timed(
        DASHBOARD_ROUNDS, lambda: _dashboard_mix(server, "views", sample_assets)
    )
    assert view_sum == scan_sum, "both paths must answer identically"
    speedup = scan_s / view_s if view_s > 0 else float("inf")

    wallet_scan_s, wallet_scan_sum = _timed(
        WALLET_ROUNDS, lambda: _wallet_mix(server, "scan", owner_keys)
    )
    wallet_view_s, wallet_view_sum = _timed(
        WALLET_ROUNDS, lambda: _wallet_mix(server, "views", owner_keys)
    )
    assert wallet_view_sum == wallet_scan_sum

    store_reads = _count_store_reads(server, sample_assets)
    lag = _view_lag(cluster)

    report = {
        "history": {
            "assets": N_ASSETS,
            "requests": N_REQUESTS,
            "transfers": N_TRANSFERS,
            "blocks": cluster.views.height(cluster.view_shard_key),
        },
        "analytics_dashboard": {
            "rounds": DASHBOARD_ROUNDS,
            "scan_ms": round(scan_s * 1000, 2),
            "views_ms": round(view_s * 1000, 2),
            "speedup": round(speedup, 1),
        },
        "wallet_reads": {
            "rounds": WALLET_ROUNDS,
            "scan_ms": round(wallet_scan_s * 1000, 2),
            "views_ms": round(wallet_view_s * 1000, 2),
            "speedup": round(wallet_scan_s / wallet_view_s, 2)
            if wallet_view_s > 0
            else None,
        },
        "commit_path": store_reads,
        "freshness": {
            "view_lag_blocks_at_idle": lag,
            "view_stats": dict(cluster.views.stats),
        },
        "read_stats": dict(server.read_stats),
    }
    # Last: it commits more TRANSFERs.
    walks = report["custody_walks"] = _custody_walks(cluster, server, sample_assets, creates)
    dashboard = report["analytics_dashboard"]
    print(
        f"read scaling: dashboard {dashboard['scan_ms']}ms scans vs "
        f"{dashboard['views_ms']}ms views ({dashboard['speedup']}x), "
        f"view-served store reads={store_reads['view_served_finds']}, lag={lag}"
    )

    # Acceptance gates (ISSUE 8), the deterministic part: views answer
    # without touching the document store, with zero staleness once the
    # loop is idle.
    assert store_reads["view_served_finds"] == 0, store_reads
    assert store_reads["scan_finds"] > 0, store_reads  # the counter works
    assert lag == 0, report["freshness"]
    # Kept custody findings: an idle refresh walks nothing, and k
    # TRANSFERs of distinct assets re-walk exactly those k.
    assert walks["idle_refresh"] == 0, walks
    assert walks["after_transfers"] == MOVED_ASSETS, walks
    return report


def test_read_scaling():
    run_report()


if __name__ == "__main__":
    report = run_report()
    # The wall-clock bar: repeated analytics queries >= 2.5x faster from
    # views, a floor under the 3.3-4.7x band measured since probe-first
    # reads made the scan side 5-7x faster (ISSUE 8 set 10x against the
    # old scans).  Gate first: a red run leaves the tracked file alone.
    assert report["analytics_dashboard"]["speedup"] >= 2.5, report["analytics_dashboard"]
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
