"""Scenario runners: execute one workload on each system, measure both.

The reverse-auction experiment (Section 5.2): windows of CREATEs backing
a REQUEST, several BIDs, then an ACCEPT_BID.  The same intent stream is
replayed against

* a :class:`~repro.core.cluster.SmartchainCluster` (declarative types), and
* a :class:`~repro.ethereum.chain.QuorumChain` running the marketplace
  contract (imperative baseline),

yielding directly comparable :class:`~repro.metrics.collector.RunMetrics`.

Transaction *size* is swept by inflating both the metadata filler and the
capability strings — the paper's "list of strings of various sizes in the
metadata of REQUEST and CREATE transactions".  Longer capability strings
are what trip the contract's O(n^2) ``compareStrings`` validation while
leaving SmartchainDB's set-semantics check untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.tendermint import tendermint_config
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import KeyPair, keypair_from_string
from repro.ethereum.chain import QuorumChain, QuorumChainConfig
from repro.ethereum.client import Web3Client
from repro.metrics.collector import RunMetrics, collect_metrics
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.sim.rng import SeededRng
from repro.workloads.generator import ZipfSampler

#: How the per-transaction byte budget is split.
_CAPABILITY_SHARE = 0.5


@dataclass
class ScenarioSpec:
    """One experiment configuration (both systems consume the same spec).

    ``phased`` reproduces the paper's bulk workload: all CREATEs are
    submitted (and drained), then all REQUESTs, then all BIDs, then the
    ACCEPT_BIDs — so later BIDs meet a populated contract registry, which
    is where the baseline's O(n) scans start to hurt.

    When ``scale_caps_with_payload`` is set, the number of capability
    strings grows with the payload target (the paper's "list of strings
    of various sizes"), which drives the contract's O(n^2)
    ``compareStrings`` validation superlinearly.
    """

    n_windows: int = 6
    creates_per_window: int = 4
    bids_per_window: int = 4
    payload_bytes: int = 1_115
    n_validators: int = 4
    requested_capabilities: int = 2
    offered_capabilities: int = 4
    scale_caps_with_payload: bool = False
    phased: bool = False
    seed: int = 2024
    eth_block_gas_limit: int = 2_000_000
    eth_block_period: float = 1.0

    def caps_counts(self) -> tuple[int, int]:
        """(requested, offered) capability counts for this payload size."""
        if not self.scale_caps_with_payload:
            return self.requested_capabilities, self.offered_capabilities
        offered = max(4, self.payload_bytes // 150)
        requested = max(2, offered // 3)
        return requested, offered

    def capability_strings(self, count: int, tag: str) -> list[str]:
        """Capability strings padded to carry their share of the payload."""
        _, offered = self.caps_counts()
        budget = int(self.payload_bytes * _CAPABILITY_SHARE)
        per_string = max(8, budget // max(offered, 1))
        return [f"cap-{tag}-{index}-" + "p" * max(0, per_string - 10) for index in range(count)]

    def metadata_fill(self) -> str:
        return "m" * int(self.payload_bytes * (1 - _CAPABILITY_SHARE))


@dataclass
class ScenarioResult:
    """Outcome of one run: metrics + extra per-system detail."""

    metrics: RunMetrics
    detail: dict[str, float] = field(default_factory=dict)


def run_scdb_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Drive the declarative system through the reverse-auction workload."""
    cluster = SmartchainCluster(
        ClusterConfig(
            n_validators=spec.n_validators,
            seed=spec.seed,
            consensus=tendermint_config(max_block_txs=8),
        )
    )
    driver = cluster.driver
    actors: list[KeyPair] = [
        keypair_from_string(f"actor-{index}") for index in range(spec.n_windows * 2 + 8)
    ]
    requested_count, offered_count = spec.caps_counts()

    windows = []
    for window in range(spec.n_windows):
        requester = actors[window % len(actors)]
        window_caps = spec.capability_strings(offered_count, f"w{window}")
        windows.append((window, requester, window_caps, window_caps[:requested_count]))

    def submit_creates(window, requester, window_caps, requested):
        assets = []
        for create_index in range(spec.creates_per_window):
            owner = actors[(window + create_index + 1) % len(actors)]
            create_tx = driver.prepare_create(
                owner,
                {"capabilities": list(window_caps), "window": window},
                metadata={"fill": spec.metadata_fill()},
            )
            cluster.submit_payload(create_tx.to_dict())
            assets.append((owner, create_tx))
        return assets

    def submit_request(window, requester, window_caps, requested):
        request_tx = driver.prepare_request(
            requester, requested, metadata={"fill": spec.metadata_fill()}
        )
        cluster.submit_payload(request_tx.to_dict())
        return request_tx

    def submit_bids(assets, request_tx):
        bids = []
        for bid_index in range(min(spec.bids_per_window, len(assets))):
            owner, create_tx = assets[bid_index]
            bid_tx = driver.prepare_bid(
                owner, request_tx.tx_id, create_tx.tx_id, [(create_tx.tx_id, 0, 1)]
            )
            cluster.submit_payload(bid_tx.to_dict())
            bids.append(bid_tx)
        return bids

    if spec.phased:
        # Paper-style bulk workload: one phase per transaction type.
        window_assets = [submit_creates(*w) for w in windows]
        cluster.run()
        window_requests = [submit_request(*w) for w in windows]
        cluster.run()
        window_bids = [
            submit_bids(assets, request_tx)
            for assets, request_tx in zip(window_assets, window_requests)
        ]
        cluster.run()
        for (window, requester, _, _), request_tx, bids in zip(
            windows, window_requests, window_bids
        ):
            if bids:
                accept_tx = driver.prepare_accept_bid(requester, request_tx.tx_id, bids[0])
                cluster.submit_payload(accept_tx.to_dict())
        cluster.run()
    else:
        for entry in windows:
            assets = submit_creates(*entry)
            cluster.run()
            request_tx = submit_request(*entry)
            cluster.run()
            bids = submit_bids(assets, request_tx)
            cluster.run()
            if bids:
                accept_tx = driver.prepare_accept_bid(entry[1], request_tx.tx_id, bids[0])
                cluster.submit_payload(accept_tx.to_dict())
                cluster.run()

    metrics = collect_metrics("SCDB", cluster.records.values())
    return ScenarioResult(metrics=metrics, detail={"sim_time": cluster.loop.clock.now})


@dataclass
class ShardedScenarioSpec:
    """The horizontal-scaling workload: asset churn across N shards.

    A population of assets is minted (each lands on its ring shard), then
    ``transfer_rounds`` waves of ownership transfers churn them.  The two
    knobs the sharding evaluation sweeps:

    * ``cross_shard_ratio`` — fraction of transfers that *migrate* the
      asset to another shard (forcing the 2PC path) instead of staying
      on its home shard;
    * ``zipf_skew`` — Zipfian hot-asset popularity: transfer traffic
      concentrates on the leading ranks, so the shards owning them
      become hot while others idle (the imbalance case).
    """

    n_shards: int = 2
    n_validators: int = 4
    n_assets: int = 96
    transfer_rounds: int = 2
    cross_shard_ratio: float = 0.0
    zipf_skew: float = 0.0
    n_owners: int = 16
    max_block_txs: int = 8
    seed: int = 2024


def run_sharded_scenario(spec: ShardedScenarioSpec) -> ScenarioResult:
    """Drive a :class:`~repro.sharding.cluster.ShardedCluster` through the
    asset-churn workload; metrics aggregate over every shard."""
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=spec.n_shards,
            n_validators=spec.n_validators,
            seed=spec.seed,
            max_block_txs=spec.max_block_txs,
        )
    )
    driver = cluster.driver
    rng = SeededRng(spec.seed)
    owners = [keypair_from_string(f"sh-owner-{index}") for index in range(spec.n_owners)]
    sampler = (
        ZipfSampler(spec.n_assets, spec.zipf_skew, rng.stream("hot-assets"))
        if spec.zipf_skew > 0
        else None
    )

    # Mint the asset population (each CREATE is single-shard by birth).
    holdings: list[tuple[KeyPair, str, str, int]] = []  # (owner, asset, tx, index)
    for index in range(spec.n_assets):
        owner = owners[index % len(owners)]
        create_tx = driver.prepare_create(owner, {"capabilities": ["churn"], "rank": index})
        cluster.submit_payload(create_tx.to_dict())
        holdings.append((owner, create_tx.tx_id, create_tx.tx_id, 0))
    cluster.run()

    def migration_key(asset_index: int, round_index: int, current_home: str) -> str:
        """A shard_key landing on a different shard than ``current_home``."""
        away = [shard for shard in cluster.shard_ids if shard != current_home]
        target = away[(asset_index + round_index) % len(away)]
        return cluster.ring.key_landing_on(
            target, prefix=f"migrate-{asset_index}-{round_index}"
        )

    cross_submitted = 0
    transfer_homes: dict[str, int] = {}
    for round_index in range(spec.transfer_rounds):
        if sampler is None:
            selected = list(range(spec.n_assets))
        else:
            # Zipf traffic: hot ranks dominate; dedupe keeps one transfer
            # per asset per round (a UTXO spends once per commit wave).
            selected = sorted({sampler.sample() for _ in range(spec.n_assets)})
        submitted: dict[int, tuple] = {}
        for asset_index in selected:
            owner, asset_id, tx_id, output_index = holdings[asset_index]
            recipient = owners[(asset_index + round_index + 1) % len(owners)]
            metadata = None
            if spec.n_shards > 1 and rng.uniform("cross", 0.0, 1.0) < spec.cross_shard_ratio:
                current_home = cluster.router.home_of_tx(tx_id)
                metadata = {
                    SHARD_KEY_METADATA: migration_key(asset_index, round_index, current_home)
                }
                cross_submitted += 1
            transfer_tx = driver.prepare_transfer(
                owner,
                [(tx_id, output_index, 1)],
                asset_id,
                [(recipient.public_key, 1)],
                metadata=metadata,
            )
            cluster.submit_payload(transfer_tx.to_dict())
            home = cluster.router.home_of_tx(transfer_tx.tx_id)
            transfer_homes[home] = transfer_homes.get(home, 0) + 1
            submitted[asset_index] = (recipient, asset_id, transfer_tx.tx_id, 0)
        cluster.run()
        for asset_index, holding in submitted.items():
            record = cluster.record_for(holding[2])
            if record is not None and record.committed_at is not None:
                holdings[asset_index] = holding

    metrics = collect_metrics("SCDB-SHARDED", cluster.records.values())
    per_shard = {
        shard_id: sum(
            1 for record in shard.records.values() if record.committed_at is not None
        )
        for shard_id, shard in cluster.shards.items()
    }
    # Hot-shard share over *transfer* traffic (the swept variable); the
    # uniformly-placed CREATE phase would only dilute the signal.
    total_transfers = sum(transfer_homes.values())
    hot_share = (
        max(transfer_homes.values()) / total_transfers
        if total_transfers
        else 1.0 / spec.n_shards
    )
    detail: dict[str, float] = {
        "sim_time": cluster.loop.clock.now,
        "cross_submitted": float(cross_submitted),
        "hot_shard_share": hot_share,
    }
    for shard_id, committed in sorted(per_shard.items()):
        detail[f"committed_{shard_id}"] = float(committed)
    return ScenarioResult(metrics=metrics, detail=detail)


def run_eth_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Drive the Quorum baseline through the same workload."""
    from repro.consensus.ibft import ibft_config

    n_accounts = spec.n_windows * 2 + 8
    accounts = [f"0xacct{index:04d}" for index in range(n_accounts)]
    chain = QuorumChain(
        QuorumChainConfig(
            n_validators=spec.n_validators,
            seed=spec.seed,
            consensus=ibft_config(
                block_gas_limit=spec.eth_block_gas_limit,
                block_period=spec.eth_block_period,
            ),
        ),
        accounts=accounts,
    )
    client = Web3Client(chain)
    client.deploy("ReverseAuctionMarketplace", "market", accounts[0])

    requested_count, offered_count = spec.caps_counts()
    cap_bytes = len(spec.capability_strings(1, "probe")[0])
    hints = {
        "requested_caps": requested_count,
        "offered_caps": offered_count,
        "cap_bytes": cap_bytes,
    }
    windows = []
    for window in range(spec.n_windows):
        requester = accounts[window % len(accounts)]
        window_caps = spec.capability_strings(offered_count, f"w{window}")
        windows.append((window, requester, window_caps, window_caps[:requested_count]))

    def mirror():
        application = chain.any_application()
        address = application.deployed["market"]
        return application.runtime.contracts[address]._mirror

    def window_tag(capabilities: list[str]) -> str:
        return capabilities[0].split("-", 3)[1] if capabilities else ""

    def submit_creates(window, requester, window_caps, requested):
        for create_index in range(spec.creates_per_window):
            owner = accounts[(window + create_index + 1) % len(accounts)]
            client.transact(
                "market",
                "create_asset",
                [list(window_caps), spec.metadata_fill()],
                owner,
                settle=False,
            )

    def committed_assets(window) -> list[tuple[str, int]]:
        """(owner, on-chain asset id) pairs for this window's committed
        creates — ids are assigned by commit order, so they must be read
        back from the replicated contract state, not guessed."""
        tag = f"w{window}"
        return [
            (entry["owner"], entry["id"])
            for entry in mirror()["assets"]
            if window_tag(entry["capabilities"]) == tag
        ]

    def submit_request(window, requester, window_caps, requested):
        client.transact(
            "market", "create_rfq", [list(requested), spec.metadata_fill()], requester,
            settle=False,
        )

    def committed_rfq(window) -> int | None:
        tag = f"w{window}"
        for entry in mirror()["requests"]:
            if window_tag(entry["capabilities"]) == tag:
                return entry["id"]
        return None

    def submit_bids(assets, rfq_id):
        for owner, asset_id in assets[: spec.bids_per_window]:
            client.transact(
                "market", "create_bid", [rfq_id, asset_id], owner, value=1_000,
                estimate_hints=hints, settle=False,
            )

    def committed_bids(rfq_id) -> list[int]:
        return [
            entry["id"]
            for entry in mirror()["bids"]
            if entry["request_id"] == rfq_id and not entry["refunded"] and not entry["accepted"]
        ]

    def submit_accept(window, requester, rfq_id):
        bids = committed_bids(rfq_id)
        if not bids:
            return
        client.transact(
            "market", "accept_bid", [rfq_id, bids[0]], requester,
            estimate_hints={"bids_for_rfq": len(bids), **hints}, settle=False,
        )

    if spec.phased:
        for entry in windows:
            submit_creates(*entry)
        chain.run()
        for entry in windows:
            submit_request(*entry)
        chain.run()
        rfq_ids = {entry[0]: committed_rfq(entry[0]) for entry in windows}
        for entry in windows:
            rfq_id = rfq_ids[entry[0]]
            if rfq_id is not None:
                submit_bids(committed_assets(entry[0]), rfq_id)
        chain.run()
        for window, requester, _, _ in windows:
            rfq_id = rfq_ids[window]
            if rfq_id is not None:
                submit_accept(window, requester, rfq_id)
        chain.run()
    else:
        for entry in windows:
            submit_creates(*entry)
            chain.run()
            submit_request(*entry)
            chain.run()
            rfq_id = committed_rfq(entry[0])
            if rfq_id is None:
                continue
            submit_bids(committed_assets(entry[0]), rfq_id)
            chain.run()
            submit_accept(entry[0], entry[1], rfq_id)
            chain.run()

    def op_of(record) -> str:
        mapping = {
            "create_asset": "CREATE",
            "create_rfq": "REQUEST",
            "create_bid": "BID",
            "accept_bid": "ACCEPT_BID",
            "transfer_asset": "TRANSFER",
        }
        if record.kind == "transfer":
            return "TRANSFER"
        if record.kind == "deploy":
            return "DEPLOY"
        return mapping.get(record.method or "", record.method or "?")

    records = [record for record in chain.records.values() if record.kind != "deploy"]
    metrics = collect_metrics("ETH-SC", records, operation_of=op_of)
    return ScenarioResult(metrics=metrics, detail={"sim_time": chain.loop.clock.now})
