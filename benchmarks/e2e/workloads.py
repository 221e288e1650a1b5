"""The four named workloads of the end-to-end benchmark.

Every workload drives the public pipeline only — ``Driver.prepare_*`` →
``submit_payload`` → ``loop.run`` for writes, the server / analytics read
API for reads — and is built from ``--seed`` alone: cluster seed, key
material and workload choices.  The program sees generated inputs only.

A workload is a sequence of *cycles*: one write wave followed by one read
burst.  The first ``core_cycles`` are fixed work (what the sim-time
metrics are computed over, so they repeat exactly per seed whatever the
host speed); further cycles keep the same shape and run only while the
``--seconds`` budget lasts.  Write waves are open-loop in sim-time:
transaction *i* of a paced wave is due at ``t0 + i / rate`` and its
latency counts from that due time; a burst wave (``rate=None``) is due
all at once, which measures capacity.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import islice

from hostclock import Stopwatch
from repro.analytics import FraudAnalyzer, MarketplaceAnalytics
from repro.core.cluster import ClusterConfig, SmartchainCluster
from repro.crypto.keys import keypair_from_string
from repro.durability.node import DurabilityConfig
from repro.sharding.cluster import ShardedCluster, ShardedClusterConfig
from repro.sharding.router import SHARD_KEY_METADATA
from repro.simtest.invariants import DEFAULT_INVARIANTS
from repro.simtest.plane import FaultPlane
from repro.workloads.scenarios import ScenarioSpec

#: Quiesce invariants checked after every run (the durable pair no-ops on
#: volatile deployments).
INVARIANTS = (
    "no_double_spend",
    "chain_consistency",
    "conservation",
    "replica_utxo_consistency",
    "wal_prefix_durability",
    "mv_consistency",
)

WARMUP_TXS = 100


@dataclass
class Cycle:
    """What one write wave + read burst did."""

    attempted: int = 0
    committed: int = 0
    write: Stopwatch = field(default_factory=Stopwatch)
    #: first due send -> last commit, sim-seconds.
    sim_span_s: float = 0.0
    #: sim-time due-send -> commit of every committed record.
    latencies_s: list[float] = field(default_factory=list)
    #: read calls by mix ("dashboard" / "wallet" / "adhoc") and their time.
    reads: dict[str, int] = field(default_factory=dict)
    read: dict[str, Stopwatch] = field(default_factory=dict)
    read_failures: int = 0


class Workload:
    """Base: key material, the write-wave runner, reads, verification."""

    name = ""
    why = ""
    #: Fixed-work prefix of the timed section (>= 1000 tx on write workloads).
    core_cycles = 4
    #: Wallet owners (accounts whose balances the read bursts check).
    n_owners = 16
    #: Wallet-mix rounds per read burst (sized per workload so a run's
    #: bursts add up to over a second of reads).
    wallet_rounds = 1200

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.cycles: list[Cycle] = []
        #: Wallet-read totals that disagreed with the submitted history.
        self.read_mismatches: list[str] = []
        #: Unspent outputs the last wallet mix found with the owners.
        self.last_held: int | None = None
        #: Called with "write" / "read" / "idle" at every phase boundary (a
        #: traced run points it at the span recorder).
        self.phase = lambda name: None
        self.cluster = None
        #: Everything set-up does goes through this watch, chunk by chunk.
        self.setup_watch = Stopwatch()

    def key(self, label: str):
        return keypair_from_string(f"{self.name}/{self.seed}/{label}")

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    # -- set-up ---------------------------------------------------------------

    def build_cluster(self, seed: int):
        raise NotImplementedError

    def setup(self) -> None:
        """Make keys, warm caches on a throwaway cluster, build the real one."""
        watch = self.setup_watch
        watch.measure(self.make_keys)
        self.warm_up(watch.measure(lambda: self.build_cluster(self.seed + 1)))
        self.cluster = watch.measure(lambda: self.build_cluster(self.seed))
        self.plane = FaultPlane(self.cluster)

    def make_keys(self) -> None:
        self.owners = [self.key(f"owner-{i}") for i in range(self.n_owners)]

    def warm_up(self, cluster) -> None:
        driver = cluster.driver
        half = self.size(WARMUP_TXS, 10) // 2
        creates = self.submit_all(
            cluster,
            self.setup_watch,
            [
                lambda i=i: driver.prepare_create(self.owners[i % self.n_owners], {"warm": i})
                for i in range(half)
            ],
        )
        self.submit_all(
            cluster,
            self.setup_watch,
            [
                lambda i=i, create_id=create_id: driver.prepare_transfer(
                    self.owners[i % self.n_owners],
                    [(create_id, 0, 1)],
                    create_id,
                    [(self.owners[(i + 1) % self.n_owners].public_key, 1)],
                )
                for i, create_id in enumerate(creates)
            ],
        )

    # -- writes ---------------------------------------------------------------

    @staticmethod
    def submit_all(cluster, watch: Stopwatch, jobs, rate: float | None = None) -> list[str]:
        """Submit ``jobs`` open-loop and run the deployment to idle, timed
        on ``watch``; returns the submitted ids in job order.

        ``jobs`` are callables returning a signed transaction, invoked at
        their due time so ``Driver.prepare_*`` is inside the measured time.
        """
        loop = cluster.loop
        t0 = loop.clock.now
        sent: list[str] = []

        def send(job) -> None:
            payload = job().to_dict()
            sent.append(payload["id"])
            cluster.submit_payload(payload)

        for index, job in enumerate(jobs):
            loop.schedule_at(
                t0 + (index / rate if rate else 0.0), lambda job=job: send(job)
            )
        watch.measure_until(loop.step)
        return sent

    def wave(self, cycle: Cycle, jobs, rate: float | None) -> list[str]:
        """One timed write wave; returns the submitted ids.

        Records the cluster creates itself during the wave (RETURN
        children) count as attempted/committed work of the wave too.
        """
        known = self.record_count()
        t0 = self.cluster.loop.clock.now
        self.phase("write")
        sent = self.submit_all(self.cluster, cycle.write, jobs, rate)
        self.phase("idle")

        records = [self.plane.record_for(tx_id) for tx_id in sent]
        records += self.spawned_records(known, set(sent))
        last_commit = t0
        for record in records:
            cycle.attempted += 1
            if record is None or record.committed_at is None:
                continue
            cycle.committed += 1
            cycle.latencies_s.append(record.committed_at - record.submitted_at)
            last_commit = max(last_commit, record.committed_at)
        cycle.sim_span_s += last_commit - t0
        return sent

    def record_count(self) -> int:
        return 0

    def spawned_records(self, known: int, sent: set[str]) -> list:
        """Records the deployment submitted on its own since ``known``."""
        return []

    def committed(self, tx_id: str) -> bool:
        record = self.plane.record_for(tx_id)
        return record is not None and record.committed_at is not None

    # -- reads ----------------------------------------------------------------

    def read_server(self):
        return self.cluster.any_server()

    def read_rounds(self, cycle: Cycle, mix: str, rounds: int, calls: int, one_round) -> None:
        """Time ``rounds`` calls of ``one_round(index)``, ``calls`` read API
        calls each; an exception is a failed read, not a crash."""
        pending = iter(range(rounds))

        def step() -> bool:
            index = next(pending, None)
            if index is None:
                return False
            try:
                one_round(index)
            except Exception:  # noqa: BLE001 - counted, reported, run goes on
                cycle.read_failures += calls
            return True

        self.phase("read")
        cycle.read.setdefault(mix, Stopwatch()).measure_until(step)
        self.phase("idle")
        cycle.reads[mix] = cycle.reads.get(mix, 0) + rounds * calls

    def wallet_mix(self, source: str = "auto") -> int:
        """Every owner's balance plus the open-RFQ list; returns the
        number of unspent outputs the owners hold."""
        server = self.read_server()
        held = sum(
            len(server.outputs_for(owner.public_key, source=source))
            for owner in self.owners
        )
        server.open_requests(source=source)
        return held

    def read_burst(self, cycle: Cycle) -> None:
        def one_round(index: int) -> None:
            self.last_held = self.wallet_mix()

        self.read_rounds(
            cycle, "wallet", self.size(self.wallet_rounds, 1), self.n_owners + 1, one_round
        )
        expected = self.expected_outputs()
        if expected is not None and self.last_held != expected:
            self.read_mismatches.append(
                f"wallet reads saw {self.last_held} unspent outputs, expected {expected}"
            )

    def expected_outputs(self) -> int | None:
        """Unspent outputs the owners must hold right now (None = unchecked)."""
        return None

    def read_sources(self, delta) -> tuple[int, int]:
        """(view-served, scan-fallback) reads out of a counter delta."""
        return delta["view_served"], delta["scan_fallback"]

    # -- the timed section ----------------------------------------------------

    def run_cycle(self, index: int) -> None:
        cycle = Cycle()
        self.cycles.append(cycle)
        self.write_phase(index, cycle)
        self.read_burst(cycle)

    def write_phase(self, index: int, cycle: Cycle) -> None:
        raise NotImplementedError

    # -- after the timed section ------------------------------------------------

    def finish(self) -> dict[str, float]:
        """Untimed post-run work; returns extra per-layer readings."""
        return {}

    def verify(self) -> list[str]:
        """Output verification; every string is a violation."""
        by_name = {invariant.name: invariant for invariant in DEFAULT_INVARIANTS}
        problems = list(self.read_mismatches)
        for name in INVARIANTS:
            problems += [f"{name}: {detail}" for detail in by_name[name].fn(self.plane)]
        return problems


# ---------------------------------------------------------------------------


class Holdings(Workload):
    """A workload whose owners hold single-output assets and pass them on."""

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        #: slot -> (owner index, asset id, id of the unspent transaction).
        self.holdings: list[tuple[int, str, str]] = []

    def transfer_wave(self, cycle: Cycle, slots, rate: float, metadata_for=None) -> None:
        """Transfer the holdings in ``slots`` to random other owners in one
        paced wave; a committed transfer becomes the slot's unspent output."""
        driver = self.cluster.driver
        recipients, jobs = [], []
        for slot in slots:
            owner, asset_id, unspent = self.holdings[slot]
            recipient = (owner + 1 + self.rng.randrange(self.n_owners - 1)) % self.n_owners
            recipients.append(recipient)
            metadata = metadata_for(slot, unspent) if metadata_for else None

            def job(owner=owner, asset_id=asset_id, unspent=unspent,
                    recipient=recipient, metadata=metadata):
                return driver.prepare_transfer(
                    self.owners[owner],
                    [(unspent, 0, 1)],
                    asset_id,
                    [(self.owners[recipient].public_key, 1)],
                    metadata=metadata,
                )

            jobs.append(job)
        sent = self.wave(cycle, jobs, rate)
        for slot, recipient, tx_id in zip(slots, recipients, sent):
            if self.committed(tx_id):
                self.holdings[slot] = (recipient, self.holdings[slot][1], tx_id)

    def expected_outputs(self) -> int:
        return len(self.holdings)


class AssetChurn(Holdings):
    """Mint a population, then churn its ownership round after round."""

    n_assets = 300
    rate = 150.0

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.n_assets = self.size(self.n_assets, 15)
        self.core_cycles = self.size(self.core_cycles, 2)

    def write_phase(self, index: int, cycle: Cycle) -> None:
        if index == 0:
            self.mint(cycle)
        else:
            self.churn(index, cycle)

    def mint(self, cycle: Cycle) -> None:
        driver = self.cluster.driver
        jobs = [
            lambda i=i: driver.prepare_create(
                self.owners[i % self.n_owners], {"capabilities": ["churn"], "rank": i}
            )
            for i in range(self.n_assets)
        ]
        sent = self.wave(cycle, jobs, self.rate)
        self.holdings = [
            (i % self.n_owners, tx_id, tx_id)
            for i, tx_id in enumerate(sent)
            if self.committed(tx_id)
        ]

    def churn(self, round_index: int, cycle: Cycle) -> None:
        self.transfer_wave(cycle, range(len(self.holdings)), self.rate)


class Transfer1Shard(AssetChurn):
    name = "transfer_1shard"
    why = (
        "single BFT group, no durability: crypto, validation and consensus do the "
        "work; sharding, durability and views do none"
    )

    def build_cluster(self, seed: int):
        return SmartchainCluster(ClusterConfig(n_validators=4, seed=seed))


class XshardDurable(AssetChurn):
    name = "xshard_durable"
    why = (
        "4 shards x 4 validators with WAL, snapshots and views, 30% of transfers "
        "cross-shard: the only write path through sharding, durability and views"
    )
    n_assets = 250
    rate = 480.0
    #: Share of transfers that migrate the asset to another shard (2PC).
    cross_ratio = 0.3
    wallet_rounds = 2000

    def build_cluster(self, seed: int):
        return ShardedCluster(
            ShardedClusterConfig(
                n_shards=4, n_validators=4, seed=seed, durability=DurabilityConfig()
            )
        )

    def churn(self, round_index: int, cycle: Cycle) -> None:
        def migrate(slot: int, unspent: str) -> dict | None:
            """A shard key landing away from home, for ``cross_ratio`` of them."""
            if self.rng.random() >= self.cross_ratio:
                return None
            cluster = self.cluster
            home = cluster.router.home_of_tx(unspent)
            away = [shard for shard in cluster.shard_ids if shard != home]
            return {
                SHARD_KEY_METADATA: cluster.ring.key_landing_on(
                    away[(slot + round_index) % len(away)],
                    prefix=f"migrate-{slot}-{round_index}",
                )
            }

        self.transfer_wave(cycle, range(len(self.holdings)), self.rate, migrate)

    def read_server(self):
        # The sharded facade answers wallet reads from the merged views.
        return _FacadeReads(self.cluster)

    def read_sources(self, delta) -> tuple[int, int]:
        return sum(sum(cycle.reads.values()) for cycle in self.cycles), 0

    def finish(self) -> dict[str, float]:
        """Crash-restart every validator from its disk, once each."""
        import repro.core.cluster as core_cluster

        replayed: list[int] = []
        recover = core_cluster.recover

        def counting_recover(*args, **kwargs):
            state = recover(*args, **kwargs)
            replayed.append(state.replayed)
            return state

        restart_ms: list[float] = []
        core_cluster.recover = counting_recover
        try:
            for shard_id in self.plane.shard_ids:
                for node_id in self.plane.nodes(shard_id):
                    started = time.perf_counter()
                    self.plane.crash_restart(shard_id, node_id)
                    self.cluster.run()
                    restart_ms.append((time.perf_counter() - started) * 1e3)
        finally:
            core_cluster.recover = recover
        restart_ms.sort()
        return {
            "durability.restart_recover_ms": restart_ms[len(restart_ms) // 2],
            "durability.replayed_records": float(sum(replayed)),
        }


class _FacadeReads:
    """The sharded facade's two wallet reads behind the server signature."""

    def __init__(self, cluster: ShardedCluster):
        self._cluster = cluster

    def outputs_for(self, public_key: str, source: str = "auto"):
        return self._cluster.outputs_for(public_key)

    def open_requests(self, capability: str | None = None, source: str = "auto"):
        return self._cluster.open_requests(capability)


# ---------------------------------------------------------------------------


class Auction1kb(Workload):
    name = "auction_1kb"
    why = (
        "the paper's reverse-auction mix at 1 115 B in full 8-tx blocks: schema, "
        "encoding, per-type validation, nested RETURNs and storage lookups dominate"
    )
    core_cycles = 4
    windows_per_cycle = 16
    creates_per_window = 8
    wallet_rounds = 1000

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.core_cycles = self.size(self.core_cycles, 1)
        self.windows_per_cycle = self.size(self.windows_per_cycle, 2)
        self.spec = ScenarioSpec(payload_bytes=1_115, scale_caps_with_payload=True)

    def make_keys(self) -> None:
        super().make_keys()
        self.requesters = [self.key(f"requester-{i}") for i in range(8)]

    def build_cluster(self, seed: int):
        return SmartchainCluster(ClusterConfig(n_validators=4, seed=seed))

    def record_count(self) -> int:
        return len(self.cluster.records)

    def spawned_records(self, known: int, sent: set[str]) -> list:
        return [
            record
            for record in islice(self.cluster.records.values(), known, None)
            if record.tx_id not in sent
        ]

    def write_phase(self, index: int, cycle: Cycle) -> None:
        """One phased burst (§5.2): CREATEs, REQUESTs, BIDs, ACCEPT_BIDs."""
        driver, spec = self.cluster.driver, self.spec
        requested_count, offered_count = spec.caps_counts()
        fill = {"fill": spec.metadata_fill()}
        windows = []
        for slot in range(self.windows_per_cycle):
            window = index * self.windows_per_cycle + slot
            caps = spec.capability_strings(offered_count, f"w{window}")
            windows.append((window, self.rng.choice(self.requesters), caps))

        create_jobs, create_owners = [], []
        for window, _, caps in windows:
            for slot in range(self.creates_per_window):
                owner = self.owners[(window + slot) % self.n_owners]
                create_owners.append(owner)
                create_jobs.append(
                    lambda owner=owner, caps=caps, window=window: driver.prepare_create(
                        owner, {"capabilities": list(caps), "window": window}, metadata=fill
                    )
                )
        creates = self.wave(cycle, create_jobs, None)

        requests = self.wave(
            cycle,
            [
                lambda requester=requester, caps=caps: driver.prepare_request(
                    requester, caps[:requested_count], metadata=fill
                )
                for _, requester, caps in windows
            ],
            None,
        )

        bid_jobs, bids = [], []
        for position, create_id in enumerate(creates):
            request_id = requests[position // self.creates_per_window]

            def bid(owner=create_owners[position], create_id=create_id, request_id=request_id):
                transaction = driver.prepare_bid(
                    owner, request_id, create_id, [(create_id, 0, 1)]
                )
                bids.append(transaction)
                return transaction

            bid_jobs.append(bid)
        self.wave(cycle, bid_jobs, None)

        self.wave(
            cycle,
            [
                lambda requester=requester, request_id=request_id, slot=slot: (
                    driver.prepare_accept_bid(
                        requester, request_id, bids[slot * self.creates_per_window]
                    )
                )
                for slot, ((_, requester, _), request_id) in enumerate(zip(windows, requests))
            ],
            None,
        )


# ---------------------------------------------------------------------------


class MarketReads(Holdings):
    name = "market_reads"
    why = (
        "reads beside writes on one durable group with views: a read gain bought "
        "with extra per-block view or index work shows as a write loss in the same row"
    )
    core_cycles = 14
    n_owners = 6
    capabilities = 4
    rate = 150.0
    writes_per_cycle = 40
    dashboard_rounds = 20
    #: Read API calls in one dashboard_mix().
    DASHBOARD_CALLS = 12
    wallet_rounds = 150
    adhoc_rounds = 150

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.core_cycles = self.size(self.core_cycles, 1)
        self.writes_per_cycle = self.size(self.writes_per_cycle, 10)
        self.n_assets = self.size(1000, 40)
        self.n_requests = self.size(16, 4)
        self.n_bids = self.size(96, 8)
        self.n_transfers = self.size(120, 8)
        self.sample_assets: list[str] = []

    def build_cluster(self, seed: int):
        return SmartchainCluster(
            ClusterConfig(n_validators=4, seed=seed, durability=DurabilityConfig())
        )

    def make_keys(self) -> None:
        super().make_keys()
        self.sally = self.key("sally")

    def setup(self) -> None:
        super().setup()
        self.build_history()

    def build_history(self) -> None:
        """Commit the marketplace history the read mixes query."""
        driver, owners = self.cluster.driver, self.owners

        def commit_all(builders) -> list:
            built = []

            def build(builder):
                built.append(builder())
                return built[-1]

            self.submit_all(
                self.cluster,
                self.setup_watch,
                [lambda builder=builder: build(builder) for builder in builders],
            )
            return [t for t in built if self.committed(t.tx_id)]

        creates = commit_all(
            lambda i=i: driver.prepare_create(
                owners[i % self.n_owners],
                {"capabilities": ["3d-print", f"cap-{i % self.capabilities}"], "rank": i},
            )
            for i in range(self.n_assets)
        )
        requests = commit_all(
            lambda i=i: driver.prepare_request(self.sally, [f"cap-{i % self.capabilities}"])
            for i in range(self.n_requests)
        )
        # Asset i offers cap-(i % 4); request i % 16 asks for the same.
        bids = commit_all(
            lambda i=i: driver.prepare_bid(
                owners[i % self.n_owners],
                requests[i % len(requests)].tx_id,
                creates[i].tx_id,
                [(creates[i].tx_id, 0, 1)],
            )
            for i in range(self.n_bids)
        )
        start = self.n_bids
        transfers = commit_all(
            lambda i=i: driver.prepare_transfer(
                owners[i % self.n_owners],
                [(creates[i].tx_id, 0, 1)],
                creates[i].tx_id,
                [(owners[(i + 1) % self.n_owners].public_key, 1)],
            )
            for i in range(start, start + self.n_transfers)
        )
        moved = {t.asset["id"]: t.tx_id for t in transfers}
        for i in range(start, len(creates)):
            asset_id = creates[i].tx_id
            owner = (i + 1) % self.n_owners if asset_id in moved else i % self.n_owners
            self.holdings.append((owner, asset_id, moved.get(asset_id, asset_id)))
        self.sample_assets = [h[1] for h in self.holdings[:3]]

    def write_phase(self, index: int, cycle: Cycle) -> None:
        first = index * self.writes_per_cycle
        slots = [
            (first + offset) % len(self.holdings) for offset in range(self.writes_per_cycle)
        ]
        self.transfer_wave(cycle, slots, self.rate)

    def dashboard_mix(self, source: str = "auto") -> int:
        """One analytics dashboard refresh; returns a checksum of result
        sizes so two sources provably computed the same answers."""
        server = self.read_server()
        analytics = MarketplaceAnalytics(server, source=source)
        total = sum(analytics.operation_volume().values())
        total += sum(analytics.capability_demand().values())
        total += sum(analytics.bid_competition().values())
        total += int(analytics.settlement_rate() * 1000)
        for number in range(self.capabilities):
            total += len(analytics.open_requests(f"cap-{number}"))
        for asset_id in self.sample_assets:
            total += len(analytics.provenance(asset_id))
        total += len(FraudAnalyzer(server, source=source).rapid_flips())
        return total

    def adhoc_find(self, owner_index: int) -> int:
        """Everything ever transferred to one account — indexed discovery
        on ``transactions`` that no materialized view covers."""
        return len(
            self.read_server().database.collection("transactions").find(
                {
                    "operation": "TRANSFER",
                    "outputs.public_keys": self.owners[owner_index].public_key,
                }
            )
        )

    def read_burst(self, cycle: Cycle) -> None:
        self.read_rounds(
            cycle,
            "dashboard",
            self.size(self.dashboard_rounds, 1),
            self.DASHBOARD_CALLS,
            lambda index: self.dashboard_mix(),
        )
        super().read_burst(cycle)
        self.read_rounds(
            cycle,
            "adhoc",
            self.size(self.adhoc_rounds, 1),
            1,
            lambda index: self.adhoc_find(index % self.n_owners),
        )

    def verify(self) -> list[str]:
        problems = super().verify()
        from_views, from_scan = self.dashboard_mix("views"), self.dashboard_mix("scan")
        if from_views != from_scan:
            problems.append(
                f"dashboard checksum differs: views={from_views} scan={from_scan}"
            )
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (Transfer1Shard, Auction1kb, XshardDurable, MarketReads)
}
