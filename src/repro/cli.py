"""Command-line interface: the system inventory and three tools.

Usage::

    python -m repro info                 # inventory + index of examples and results
    python -m repro simtest --seed 7 --steps 500   # deterministic chaos run
    python -m repro trace --seed 7       # span tree of one cross-shard tx
    python -m repro byzantine --seed 7   # narrated byzantine-fault run

The paper's use cases run as the scripts under ``examples/``; the
measured comparisons are the files under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys

#: The use-case scripts ``info`` indexes: (path, what it shows).
EXAMPLES = (
    ("examples/quickstart.py", "CREATE an asset and TRANSFER it"),
    ("examples/reverse_auction_marketplace.py",
     "the paper's reverse auction: REQUEST, escrowed BIDs, ACCEPT_BID, RETURNs"),
    ("examples/supply_chain_procurement.py",
     "procurement then logistics, checked against the declared workflows"),
    ("examples/marketplace_analytics.py",
     "extension types (INTEREST, PRE_REQUEST), analytics, fraud screening"),
    ("examples/crash_recovery_demo.py",
     "nested RETURNs reach eventual commit through a receiver crash"),
    ("examples/smart_contract_baseline.py",
     "the same auction on the Ethereum smart-contract baseline, side by side"),
)


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
    print("sharding (consistent-hash partitioning + cross-shard 2PC, live")
    print("resharding), durability (WAL + snapshots), views, telemetry, simtest")
    print(f"\ncrypto fast path: native Ed25519 through {native.library() or 'nothing (pure kernel)'}")
    print("\ntools (python -m repro <tool> --help):")
    print("  simtest    seeded fault schedule + invariant checks on every step")
    print("  trace      span tree and route of one cross-shard transaction")
    print("  byzantine  lying validators and adversarial clients under f<n/3")
    print("\nuse cases (PYTHONPATH=src python <script>):")
    for path, what in EXAMPLES:
        print(f"  {path}")
        print(f"      {what}")
    print("\nmeasured results, and the command behind each: benchmarks/EXPERIMENTS.md")
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
    """Narrated observability demo: route one cross-shard transaction and
    trace it through submit, 2PC prepare, consensus, WAL group commit and
    apply, then print the deployment's latency percentiles."""
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
    decision = cluster.router.route(transfer.to_dict())
    kind = "cross-shard (2PC)" if decision.cross_shard else "single-shard"
    print(f"      routed {kind}: home={decision.home} inputs on {sorted(decision.input_shards)}")
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
        help="observability demo: route and span tree of one cross-shard transaction",
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
