"""Command-line interface: quick demos and experiment summaries.

Usage::

    python -m repro info                 # system inventory
    python -m repro demo                 # one reverse auction, narrated
    python -m repro compare [--size N]   # SCDB vs ETH-SC at one payload size
    python -m repro workload [--total N] # show the scaled paper mix
    python -m repro shard [--shards N]   # sharded cluster + cross-shard 2PC demo
    python -m repro recover              # durability demo: write -> kill -> recover
    python -m repro simtest --seed 7 --steps 500   # deterministic chaos run
    python -m repro byzantine --seed 7   # narrated byzantine-fault demo
    python -m repro trace --seed 7       # span tree of one cross-shard tx
"""

from __future__ import annotations

import argparse
import sys


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.crypto import native
    from repro.schema import OPERATION_SCHEMAS

    print(f"repro {repro.__version__} — SmartchainDB reproduction (EDBT 2025)")
    print("\nnative transaction types:")
    for operation in OPERATION_SCHEMAS:
        print(f"  {operation}")
    print("\nsubsystems: core (declarative types), storage (document store),")
    print("consensus (Tendermint/IBFT), crypto (Ed25519), ethereum (ETH-SC")
    print("baseline), sim (discrete events), workloads, metrics, analytics,")
    print("sharding (consistent-hash partitioning + cross-shard 2PC —")
    print("try `python -m repro shard`), simtest (deterministic chaos")
    print("harness — try `python -m repro simtest --seed 7 --steps 200`)")
    print(f"\ncrypto fast path: native Ed25519 through {native.library() or 'nothing (pure kernel)'}")
    print("+ cluster-wide signature cache — try `python -m repro crypto`")
    print("\ndurability: per-node segmented WAL with group commit, snapshots")
    print("and crash-restart recovery from disk — try `python -m repro recover`")
    print("\nsee benchmarks/EXPERIMENTS.md for results")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import ClusterConfig, SmartchainCluster
    from repro.crypto import keypair_from_string

    cluster = SmartchainCluster(ClusterConfig(n_validators=args.validators))
    driver = cluster.driver
    sally = keypair_from_string("sally")
    suppliers = [keypair_from_string(f"supplier-{index}") for index in range(3)]

    print(f"[1/4] {len(suppliers)} suppliers mint capability assets")
    creates = []
    for keypair in suppliers:
        create = driver.prepare_create(keypair, {"capabilities": ["3d-print"]})
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    cluster.run()

    print("[2/4] sally posts a REQUEST")
    request = driver.prepare_request(sally, ["3d-print"])
    cluster.submit_and_settle(request)

    print("[3/4] suppliers BID (assets escrowed natively)")
    bids = []
    for keypair, create in zip(suppliers, creates):
        bid = driver.prepare_bid(keypair, request.tx_id, create.tx_id, [(create.tx_id, 0, 1)])
        cluster.submit_payload(bid.to_dict())
        bids.append(bid)
    cluster.run()

    print("[4/4] sally ACCEPT_BIDs supplier-1; losing bids RETURN automatically")
    accept = driver.prepare_accept_bid(sally, request.tx_id, bids[1])
    cluster.submit_and_settle(accept)

    server = cluster.any_server()
    returns = server.database.collection("transactions").count({"operation": "RETURN"})
    print(f"\ncommitted: {len(cluster.committed_records())} transactions "
          f"({returns} RETURN children), all natively validated")
    print(f"eventual commit holds: {server.nested.recovery.is_fully_committed(accept.tx_id)}")
    return 0


def _cmd_crypto(args: argparse.Namespace) -> int:
    """Narrated demo of the signature-verification fast path.

    (No wall-clock timing here — the simulator bans wall-clock imports;
    run ``benchmarks/test_crypto_batching.py`` for measured speedups.)
    """
    from repro.crypto import ed25519
    from repro.crypto.sigcache import SignatureCache, set_shared_cache

    size = args.batch
    print(f"[1/3] sign {size} transactions ({size} distinct Ed25519 keys)")
    triples = []
    for number in range(size):
        seed = number.to_bytes(4, "big") * 8
        message = f"demo-payload-{number}".encode() * 8
        triples.append(
            (
                ed25519.public_key_from_seed(seed),
                message,
                ed25519.sign(seed, message),
            )
        )

    print("[2/3] recurring signers get cheaper: per-key state grows with each sight")
    print(
        f"  {ed25519.memo_stats()['expanded_seeds']} expanded seeds memoised by signing:"
        " a signature is one base multiplication, the public key is not re-derived"
    )
    for sight, note in (
        ("first", "decompresses it, multiplies over a one-row table"),
        ("second", "builds its 13x16 signed-window table"),
        ("third", "uses the table: 15 doublings, not 252"),
    ):
        assert all(ed25519.verify(*triple) for triple in triples)
        stats = ed25519.memo_stats()
        print(
            f"  {sight} sight of each key {note}"
            f" ({stats['public_keys']} keys memoised, {stats['public_key_tables']} tables)"
        )

    print("[3/3] replica re-checks hit the cluster-wide signature cache")
    cache = SignatureCache()
    previous = set_shared_cache(cache)
    try:
        for public, message, signature in triples:
            key = cache.key(public, message, signature)
            if cache.get(key) is None:  # proposer pass seeds
                cache.put(key, True)
        assert all(
            cache.get(cache.key(*triple)) for triple in triples
        )  # replica pass: pure lookups
    finally:
        set_shared_cache(previous)
    print(f"  cache stats after one replica pass: {cache.stats()}")
    print("\nsame pipeline inside the cluster: CheckTx verdicts memoise per")
    print("validator, conflict-free lanes validate in parallel")
    print("(see benchmarks/EXPERIMENTS.md)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.metrics.report import format_table, ratio
    from repro.workloads import ScenarioSpec, run_eth_scenario, run_scdb_scenario

    spec = ScenarioSpec(
        n_windows=4,
        creates_per_window=4,
        bids_per_window=4,
        payload_bytes=args.size,
        phased=True,
        scale_caps_with_payload=True,
        eth_block_gas_limit=6_000_000,
    )
    print(f"running both systems at {args.size} B payloads (4 validators)...")
    scdb = run_scdb_scenario(spec).metrics
    eth = run_eth_scenario(spec).metrics
    rows = []
    for operation in ("CREATE", "REQUEST", "BID", "ACCEPT_BID"):
        rows.append(
            [operation, scdb.latency(operation), eth.latency(operation),
             ratio(eth.latency(operation), scdb.latency(operation))]
        )
    rows.append(["-- throughput (tps)", scdb.throughput_tps, eth.throughput_tps,
                 ratio(scdb.throughput_tps, eth.throughput_tps)])
    print(format_table(
        ["metric", "SCDB", "ETH-SC", "factor"], rows,
        title=f"declarative vs smart contract at {args.size} B",
    ))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.metrics.report import format_table
    from repro.workloads import WorkloadGenerator, WorkloadSpec
    from repro.workloads.generator import PAPER_MIX

    generator = WorkloadGenerator(WorkloadSpec(total=args.total))
    counts = generator.counts()
    rows = [
        [operation, PAPER_MIX[operation], counts.get(operation, 0)]
        for operation in PAPER_MIX
    ]
    print(format_table(
        ["type", "paper (110k)", f"scaled ({args.total})"], rows,
        title="Section 5.1.3 workload mix",
    ))
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.crypto import keypair_from_string
    from repro.metrics.report import format_table
    from repro.sharding import ShardedCluster, ShardedClusterConfig
    from repro.sharding.router import SHARD_KEY_METADATA

    cluster = ShardedCluster(ShardedClusterConfig(n_shards=args.shards))
    driver = cluster.driver
    alice = keypair_from_string("alice")
    bob = keypair_from_string("bob")

    print(f"[1/3] {args.shards}-shard cluster "
          f"({cluster.config.n_validators} validators each); alice mints an asset")
    create = driver.prepare_create(alice, {"capabilities": ["3d-print"]})
    cluster.submit_and_settle(create)
    home = cluster.router.home_of_tx(create.tx_id)
    print(f"      asset born on its ring shard: {home}")

    target = next(
        (shard for shard in cluster.shard_ids if shard != home), home
    )
    key = cluster.ring.key_landing_on(target, prefix="mig")
    print(f"[2/3] alice transfers it to bob with a shard_key homing on {target}")
    transfer = driver.prepare_transfer(
        alice, [(create.tx_id, 0, 1)], create.tx_id,
        [(bob.public_key, 1)], metadata={SHARD_KEY_METADATA: key},
    )
    decision = cluster.router.route(transfer.to_dict())
    kind = "cross-shard (2PC)" if decision.cross_shard else "single-shard"
    print(f"      routed {kind}: home={decision.home} inputs on "
          f"{sorted(decision.input_shards)}")
    record = cluster.submit_and_settle(transfer)
    outcome = "committed" if record.committed_at is not None else f"rejected: {record.rejected}"
    suffix = ""
    if decision.cross_shard and record.committed_at is not None:
        suffix = f" (prepare locked the spent UTXO on {home}, commit retired it)"
    print(f"      outcome: {outcome}{suffix}")

    print("[3/3] placement + 2PC counters")
    stats = cluster.placement_stats()
    rows = [
        [shard_id, shard["committed"], shard["coordinated"], shard["locks_granted"]]
        for shard_id, shard in sorted(stats["shards"].items())
    ]
    print(format_table(
        ["shard", "committed", "2PC coordinated", "locks granted"], rows,
        title=f"router: {stats['router']}",
    ))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Narrated durability demo: write -> kill -> recover -> invariants."""
    from repro.crypto import keypair_from_string
    from repro.durability.node import DurabilityConfig
    from repro.sharding import ShardedCluster, ShardedClusterConfig
    from repro.sharding.router import SHARD_KEY_METADATA
    from repro.simtest.invariants import InvariantChecker
    from repro.simtest.plane import FaultPlane

    print(f"[1/4] {args.shards}-shard durable cluster: every node and 2PC agent "
          "journals to its own SimDisk (group-commit WAL + snapshots)")
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=args.shards,
            durability=DurabilityConfig(snapshot_interval=8),
        )
    )
    driver = cluster.driver
    alice = keypair_from_string("alice")
    bob = keypair_from_string("bob")
    creates = []
    for index in range(10):
        create = driver.prepare_create(alice, {"capabilities": ["3d-print"], "rank": index})
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    cluster.run()
    home = cluster.router.home_of_tx(creates[0].tx_id)
    # With one shard there is nowhere to migrate: the demo still works,
    # the first transfer just stays shard-local.
    target = next((shard for shard in cluster.shard_ids if shard != home), None)
    metadata = (
        {SHARD_KEY_METADATA: cluster.ring.key_landing_on(target, prefix="mig")}
        if target is not None
        else None
    )
    transfer = driver.prepare_transfer(
        alice, [(creates[0].tx_id, 0, 1)], creates[0].tx_id,
        [(bob.public_key, 1)], metadata=metadata,
    )
    cluster.submit_payload(transfer.to_dict())
    for create in creates[1:6]:
        local = driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)]
        )
        cluster.submit_payload(local.to_dict())
    cluster.run()
    committed = len(cluster.committed_records())
    shard = cluster.shards[home]
    node = shard.engine.validator_order[0]
    durability = shard.node_durability[node]
    cross_note = "one cross-shard 2PC" if target is not None else "all shard-local"
    print(f"      committed {committed} transactions ({cross_note}); "
          f"{home}/{node} journaled {durability.wal.stats['records']} WAL records, "
          f"snapshot at lsn {durability.wal.snapshot_lsn}")

    torn = args.torn_bytes
    print(f"[2/4] kill {home}/{node} and {home}'s 2PC agent: memory discarded, "
          f"each disk loses its unsynced tail keeping {torn} torn bytes mid-frame")
    blocks_before = shard.servers[node].database.collection("blocks").count({})

    print("[3/4] restore both purely from their SimDisks (newest whole checkpoint "
          "chain + scan-to-torn-tail WAL; the node re-delivers the blocks above it)")
    cluster.restart_node_from_disk(home, node, torn_bytes=torn)
    cluster.restart_coordinator_from_disk(home, torn_bytes=torn)
    cluster.run()
    blocks_after = shard.servers[node].database.collection("blocks").count({})
    print(f"      chain rebuilt: {blocks_after} blocks (was {blocks_before}); "
          "torn tail truncated, journal continues from the last valid record")

    print("[4/4] full invariant registry over the recovered deployment")
    plane = FaultPlane(cluster)
    checker = InvariantChecker(plane)
    plane.quiesce()
    violations = checker.check_quiesce(step=0)
    for name in sorted(checker.checks_run):
        print(f"      checked {name}")
    if violations:
        for violation in violations:
            print(f"      VIOLATION {violation.describe()}")
        return 1
    print(f"\nall {len(checker.checks_run)} invariants held — the node rejoined "
          "the cluster from disk state alone")
    print("(durability bench: PYTHONPATH=src python benchmarks/test_durability.py)")
    return 0


def _cmd_reshard(args: argparse.Namespace) -> int:
    """Narrated elastic-resharding demo: hot shard -> auto-split under
    traffic -> controller crash at the commit point -> roll forward ->
    invariants."""
    from repro.crypto import keypair_from_string
    from repro.durability.node import DurabilityConfig
    from repro.sharding import ShardedCluster, ShardedClusterConfig
    from repro.sharding.migration import MigrationPolicy
    from repro.sharding.router import SHARD_KEY_METADATA
    from repro.simtest.invariants import InvariantChecker
    from repro.simtest.plane import FaultPlane

    print(f"[1/5] {args.shards}-shard durable cluster with the hot-shard "
          "auto-split policy armed (split when one shard carries >"
          f"{int(args.hot_share * 100)}% of the commit window)")
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=args.shards,
            seed=args.seed,
            durability=DurabilityConfig(snapshot_interval=8),
            auto_split=True,
            migration_policy=MigrationPolicy(
                hot_share_threshold=args.hot_share,
                window=24,
                min_observations=12,
                cooldown=1.0,
            ),
        )
    )
    driver = cluster.driver
    alice = keypair_from_string("alice")
    hot = cluster.shard_ids[0]
    pin = {SHARD_KEY_METADATA: cluster.ring.key_landing_on(hot, prefix="zipf")}

    # Zipf-shaped load: the skewed head of the key space all lands on one
    # shard (pinned via the shard-key metadata the router honors).
    crash_state = {"sprung": False, "migration": None}

    def crash_at_cutover(migration_id, phase):
        if phase == "cutover" and not crash_state["sprung"]:
            crash_state["sprung"] = True
            crash_state["migration"] = migration_id
            cluster.loop.schedule_in(
                0.0,
                lambda: cluster.migrator.restart_from_disk(torn_bytes=args.torn_bytes),
            )

    cluster.migrator.phase_listeners.append(crash_at_cutover)
    creates = []
    for index in range(args.hot_txs):
        create = driver.prepare_create(
            alice, {"capabilities": ["3d-print"], "rank": index}, metadata=dict(pin)
        )
        cluster.submit_payload(create.to_dict())
        creates.append(create)
    cluster.run()
    committed_before = len(cluster.committed_records())
    share_shard, share = cluster.migrator.hot_shard_share()
    print(f"      {committed_before} commits, hot shard {share_shard} at "
          f"{share:.0%} of the window")

    splits = cluster.migrator.stats["auto_splits"]
    if splits == 0:
        print("      (policy never tripped — rerun with more --hot-txs)")
        return 1
    migration_id = crash_state["migration"]
    doc = cluster.migrator.journal_record(migration_id) if migration_id else None
    print(f"[2/5] policy tripped: {splits} auto-split(s), deployment grew to "
          f"{len(cluster.shard_ids)} shards")
    if doc is not None:
        print(f"[3/5] controller killed at {migration_id}'s cutover (journal "
              f"tail torn at {args.torn_bytes} bytes) — the forced cutover "
              "record is the commit point, so recovery rolls FORWARD")
        print(f"      {migration_id}: phase={doc['phase']} "
              f"moved={len(doc.get('moved') or [])} refs "
              f"{doc['source']} -> {doc['target']}")
        if doc["phase"] != "done":
            print("      VIOLATION: post-cutover crash must roll forward")
            return 1
    else:
        print("[3/5] (no cutover crash landed this run)")

    print("[4/5] traffic follows the split keys to their new home shard")
    bob = keypair_from_string("bob")
    moved_txs = {row[0] for row in (doc.get("moved") or [])} if doc else set()
    submitted = 0
    for create in creates:
        if submitted >= args.hot_txs:
            break
        if moved_txs and create.tx_id not in moved_txs:
            continue
        transfer = driver.prepare_transfer(
            alice, [(create.tx_id, 0, 1)], create.tx_id, [(bob.public_key, 1)]
        )
        driver.submit(transfer)
        submitted += 1
    cluster.run()
    committed_after = len(cluster.committed_records()) - committed_before
    before_rate = committed_before / max(1, args.hot_txs)
    after_rate = committed_after / max(1, submitted)
    recovery = after_rate / max(1e-9, before_rate)
    _share_shard, share_after = cluster.migrator.hot_shard_share()
    stats = cluster.migrator.stats
    print(f"      {committed_after}/{submitted} spends of the moved keys "
          f"committed (commit-rate recovery {recovery:.0%} of pre-split), "
          f"hottest share now {share_after:.0%}")
    print(f"      reshard stats: started={stats['started']} done={stats['done']} "
          f"rolled_back={stats['rolled_back']} refs_moved={stats['refs_moved']}")

    print("[5/5] full invariant registry over the resharded deployment")
    plane = FaultPlane(cluster)
    checker = InvariantChecker(plane)
    plane.quiesce()
    violations = checker.check_quiesce(step=0)
    if violations:
        for violation in violations:
            print(f"      VIOLATION {violation.describe()}")
        return 1
    print(f"\nall {len(checker.checks_run)} invariants held — keys split off "
          "the hot shard mid-crash and nothing was lost or duplicated")
    print("(chaos coverage: PYTHONPATH=src python -m repro simtest --elastic-rate 0.05)")
    return 0


def _cmd_simtest(args: argparse.Namespace) -> int:
    from repro.simtest import SimHarness, SimtestConfig

    config = SimtestConfig(
        seed=args.seed,
        steps=args.steps,
        single=args.single,
        n_shards=args.shards,
        n_validators=args.validators,
        fault_rate=args.fault_rate,
        byzantine_rate=args.byzantine_rate,
        adversarial_rate=args.adversarial_rate,
        elastic_rate=args.elastic_rate,
        durable=not args.volatile,
    )
    shape = "single cluster" if config.single else f"{config.n_shards} shards"
    print(
        f"simtest seed={config.seed} steps={config.steps} {shape} "
        f"({config.n_validators} validators each) fault_rate={config.fault_rate}"
        f" byzantine_rate={config.byzantine_rate}"
        f" adversarial_rate={config.adversarial_rate}"
        f" elastic_rate={config.elastic_rate}"
    )
    harness = SimHarness(config)
    schedule_path = f"{args.out_prefix}_schedule.json"
    log_path = f"{args.out_prefix}_invariants.log"
    # The fault plan exists before the run does — persist it up front so
    # a hung or crashed run (the case CI's per-seed timeout kills) still
    # leaves its schedule on disk for replay.
    with open(schedule_path, "w") as handle:
        handle.write(harness.schedule.to_json() + "\n")
    report = harness.run()

    with open(log_path, "w") as handle:
        for line in report.step_log:
            handle.write(line + "\n")
        for line in report.invariant_log:
            handle.write(line + "\n")

    stats = report.stats["workload"]
    print(
        f"ran {report.steps_run} steps, {len(report.schedule.actions)} scheduled faults, "
        f"sim_time={report.stats['sim_time']:.3f}s, {report.stats['events']} events"
    )
    print(
        f"workload: submitted={stats['submitted']} committed={stats['committed']} "
        f"rejected={stats['rejected']} conflicts={stats['conflicts']} cross={stats['cross']}"
    )
    if report.stats["rejections"]:
        causes = ", ".join(f"{count} {cause}" for cause, count in report.stats["rejections"].items())
        print(f"rejected by cause: {causes}")
    if config.adversarial_rate > 0:
        print(
            f"adversary: double_submits={stats['double_submits']} "
            f"forged={stats['forged']} forged_admitted={stats['forged_admitted']}"
        )
    if config.elastic_rate > 0 and "reshard" in report.stats:
        reshard = report.stats["reshard"]
        print(
            f"reshard: started={reshard['started']} done={reshard['done']} "
            f"rolled_back={reshard['rolled_back']} refs_moved={reshard['refs_moved']}"
        )
    print(
        f"invariants: {report.stats['invariants_registered']} registered; "
        f"logs: {schedule_path}, {log_path}"
    )
    if report.violations:
        import json as json_module

        bundle_path = f"{args.out_prefix}_repro.json"
        with open(bundle_path, "w") as handle:
            handle.write(report.bundle.to_json() + "\n")
        # Standalone flight-recorder dump (also embedded in the bundle):
        # CI's failure-artifact glob picks it up next to the schedule.
        flight_path = f"{args.out_prefix}_flight.json"
        with open(flight_path, "w") as handle:
            json_module.dump(report.bundle.flight, handle, sort_keys=True, indent=2)
            handle.write("\n")
        first = report.violations[0]
        print(
            f"FAILED: invariant {first.invariant} at step {first.step}: {first.detail}"
        )
        traced = len(report.bundle.flight.get("traces", {}))
        print(
            f"repro bundle: {bundle_path} (replay with the same --seed); "
            f"flight recorder: {flight_path} "
            f"({len(report.bundle.flight.get('events', []))} events, "
            f"{traced} implicated trace(s))"
        )
        return 1
    print("all invariants held (per-step and at quiesce)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Narrated observability demo: trace one cross-shard transaction
    through submit, 2PC prepare, consensus, WAL group commit and apply,
    then print the deployment's latency percentiles."""
    from repro.crypto import keypair_from_string
    from repro.durability.node import DurabilityConfig
    from repro.sharding import ShardedCluster, ShardedClusterConfig
    from repro.sharding.router import SHARD_KEY_METADATA

    print(f"[1/3] 2-shard durable cluster, every transaction traced (seed={args.seed})")
    cluster = ShardedCluster(
        ShardedClusterConfig(
            n_shards=2,
            seed=args.seed,
            trace_sample_rate=1.0,
            durability=DurabilityConfig(),
        )
    )
    driver = cluster.driver
    alice = keypair_from_string("alice")
    bob = keypair_from_string("bob")
    create = driver.prepare_create(alice, {"capabilities": ["3d-print"]})
    cluster.submit_and_settle(create)
    home = cluster.router.home_of_tx(create.tx_id)
    target = next(shard for shard in cluster.shard_ids if shard != home)
    print(f"      asset minted on {home}; migrating it to {target} forces 2PC")

    print("[2/3] cross-shard transfer: facade submit -> prepare locks -> home")
    print("      consensus -> decision broadcast -> ack (one stitched timeline)")
    transfer = driver.prepare_transfer(
        alice, [(create.tx_id, 0, 1)], create.tx_id,
        [(bob.public_key, 1)],
        metadata={SHARD_KEY_METADATA: cluster.ring.key_landing_on(target, prefix="mig")},
    )
    record = cluster.submit_and_settle(transfer)
    outcome = "committed" if record.committed_at is not None else f"rejected: {record.rejected}"
    print(f"      outcome: {outcome}\n")
    print(cluster.telemetry.tracer.render_tree(transfer.tx_id))

    print("\n[3/3] commit-latency percentiles (exact, from the lifecycle records)")
    summary = cluster.aggregate_metrics().percentiles_ms
    if summary:
        print(
            "      commit latency: "
            + "  ".join(
                f"{key}={summary[key]:.3f}"
                for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
            )
            + f"  (n={summary['count']})"
        )
    flight = cluster.telemetry.flight
    print(
        f"      flight recorder: {len(flight.dump())} events resident "
        f"({flight.recorded} recorded, {flight.dropped} dropped)"
    )
    print("\nsame instruments feed the chaos harness's repro bundles: on an")
    print("invariant failure the bundle carries this exact span timeline")
    return 0


def _cmd_byzantine(args: argparse.Namespace) -> int:
    """Narrated byzantine-fault demo: liars + adversarial clients, with
    the f<n/3 safety invariants watching every step."""
    from collections import Counter

    from repro.simtest import SimHarness, SimtestConfig
    from repro.simtest.schedule import BYZANTINE_KINDS

    config = SimtestConfig(
        seed=args.seed,
        steps=args.steps,
        byzantine_rate=args.byzantine_rate,
        adversarial_rate=args.adversarial_rate,
        fault_rate=0.05,
    )
    harness = SimHarness(config)
    plane = harness.plane

    print(
        f"[1/4] seeded corruption plan (seed={config.seed}, steps={config.steps}, "
        f"{config.n_shards} shards x {config.n_validators} validators)"
    )
    marks = [a for a in harness.schedule.actions if a.kind in BYZANTINE_KINDS]
    heals = [a for a in harness.schedule.actions if a.kind == "byz_heal"]
    cap = plane.byzantine_cap(plane.shard_ids[0])
    print(
        f"      {len(marks)} byzantine windows planned, each healed later "
        f"({len(heals)} heals); never more than f={cap} liar(s) per "
        f"{config.n_validators}-validator shard — the f<n/3 cap"
    )
    for action in marks[:6]:
        print(
            f"      step {action.step:>3}: {action.shard}/{action.node} "
            f"turns {action.kind.removeprefix('byz_')}"
        )
    if len(marks) > 6:
        print(f"      ... and {len(marks) - 6} more")

    print(
        "[2/4] run it: equivocating proposers, double-voters, vote withholders "
        "and stale replicas inside; double-submitting and signature-forging "
        "clients outside"
    )
    report = harness.run()
    stats = report.stats["workload"]
    print(
        f"      {report.steps_run} steps: submitted={stats['submitted']} "
        f"committed={stats['committed']} double_submits={stats['double_submits']} "
        f"forged={stats['forged']}"
    )

    print("[3/4] honest validators kept receipts (misbehavior evidence)")
    evidence: Counter[str] = Counter()
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        for node_id in shard.engine.validator_order:
            for entry in shard.engine.validator(node_id).evidence:
                evidence[entry["kind"]] += 1
    if evidence:
        for kind, count in sorted(evidence.items()):
            print(f"      {kind}: {count} recorded")
    else:
        print("      (no liar drew a misbehaving hand this seed — rerun with "
              "--byzantine-rate 0.4)")

    print("[4/4] the safety ledger")
    print(
        f"      forged-signature txs admitted to a block: {stats['forged_admitted']} "
        "(no_forged_admission)"
    )
    if report.violations:
        first = report.violations[0]
        print(f"\nFAILED: invariant {first.invariant}: {first.detail}")
        print(f"replay: {report.bundle.replay_command()}")
        return 1
    print(
        "      honest replicas never diverged (honest_no_divergence) and no "
        "committed block was rolled back (equivocation_contained)"
    )
    print(
        f"\nall invariants held across {len(marks)} byzantine windows — "
        "lies cost liars their voice, never the cluster its safety"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SmartchainDB reproduction toolkit"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="system inventory").set_defaults(func=_cmd_info)

    demo = subparsers.add_parser("demo", help="run one narrated reverse auction")
    demo.add_argument("--validators", type=int, default=4)
    demo.set_defaults(func=_cmd_demo)

    crypto = subparsers.add_parser(
        "crypto", help="demo the Ed25519 verification fast path"
    )
    crypto.add_argument("--batch", type=int, default=32, help="signatures to make")
    crypto.set_defaults(func=_cmd_crypto)

    compare = subparsers.add_parser("compare", help="SCDB vs ETH-SC at one payload size")
    compare.add_argument("--size", type=int, default=1115, help="payload bytes")
    compare.set_defaults(func=_cmd_compare)

    workload = subparsers.add_parser("workload", help="show the scaled paper mix")
    workload.add_argument("--total", type=int, default=1100)
    workload.set_defaults(func=_cmd_workload)

    shard = subparsers.add_parser(
        "shard", help="sharded cluster demo: routing + one cross-shard 2PC"
    )
    shard.add_argument("--shards", type=int, default=2)
    shard.set_defaults(func=_cmd_shard)

    recover = subparsers.add_parser(
        "recover",
        help="durability demo: write, kill a node, restore purely from its SimDisk",
    )
    recover.add_argument("--shards", type=int, default=2)
    recover.add_argument(
        "--torn-bytes", type=int, default=11,
        help="bytes of the unsynced tail that durably survive the power failure",
    )
    recover.set_defaults(func=_cmd_recover)

    reshard = subparsers.add_parser(
        "reshard",
        help="narrated elastic-resharding demo: hot-shard auto-split under "
        "traffic, controller crash at cutover, roll-forward, invariants",
    )
    reshard.add_argument("--seed", type=int, default=19)
    reshard.add_argument("--shards", type=int, default=2)
    reshard.add_argument("--hot-txs", type=int, default=28,
                         help="pinned transactions per traffic phase")
    reshard.add_argument("--hot-share", type=float, default=0.55,
                         help="auto-split threshold on the hot shard's window share")
    reshard.add_argument("--torn-bytes", type=int, default=17,
                         help="torn tail kept when the controller journal is killed")
    reshard.set_defaults(func=_cmd_reshard)

    simtest = subparsers.add_parser(
        "simtest",
        help="deterministic chaos run: seeded fault schedule + invariant checks",
    )
    simtest.add_argument("--seed", type=int, default=2024)
    simtest.add_argument("--steps", type=int, default=200)
    simtest.add_argument("--shards", type=int, default=3)
    simtest.add_argument("--validators", type=int, default=4)
    simtest.add_argument("--fault-rate", type=float, default=0.12)
    simtest.add_argument(
        "--byzantine-rate", type=float, default=0.0,
        help="per-step chance of marking a validator byzantine (capped at f<n/3)",
    )
    simtest.add_argument(
        "--adversarial-rate", type=float, default=0.0,
        help="share of workload steps spent on double-submits and forged signatures",
    )
    simtest.add_argument(
        "--elastic-rate", type=float, default=0.0,
        help="per-step chance of a live shard migration (with crash traps armed "
        "on migration phases)",
    )
    simtest.add_argument(
        "--single", action="store_true", help="drive one unsharded cluster instead"
    )
    simtest.add_argument(
        "--volatile",
        action="store_true",
        help="disable per-node durability (no SimDisks, no crash_restart faults)",
    )
    simtest.add_argument(
        "--out-prefix", default="SIMTEST", help="prefix for schedule/log/repro files"
    )
    simtest.set_defaults(func=_cmd_simtest)

    trace = subparsers.add_parser(
        "trace",
        help="observability demo: span tree of one cross-shard transaction",
    )
    trace.add_argument("--seed", type=int, default=7)
    trace.set_defaults(func=_cmd_trace)

    byzantine = subparsers.add_parser(
        "byzantine",
        help="narrated byzantine demo: lying validators, adversarial clients, "
        "f<n/3 safety invariants",
    )
    byzantine.add_argument("--seed", type=int, default=7)
    byzantine.add_argument("--steps", type=int, default=150)
    byzantine.add_argument("--byzantine-rate", type=float, default=0.25)
    byzantine.add_argument("--adversarial-rate", type=float, default=0.25)
    byzantine.set_defaults(func=_cmd_byzantine)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
