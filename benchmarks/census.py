"""Reachability and option census of ``src/repro`` (stdlib only).

Prints two lists:

* **Unreached defs** — every entry point in :data:`ENTRY_POINTS` (the
  four e2e workloads, the benchmark files under pytest, one simtest seed
  per family, ``info`` and the CLI tools, every example) runs in a child
  process under ``sys.setprofile``; a ``def`` under ``src/repro`` that no
  child entered is listed with its line count.  Tests are not an entry
  point: code only they reach is what this list is for.
* **One-value options** — an AST walk over ``src/``, ``benchmarks/`` and
  ``examples/`` collects, for every field of every ``*Config`` /
  ``*Policy`` dataclass under ``src/repro``, the distinct values callers
  pass (constructor keywords and positions, ``replace()`` keywords,
  attribute writes on a ``*config`` / ``*policy`` object).  A field no
  caller sets away from its default is listed.

Every entry that survives carries a one-line reason in :data:`KEPT_DEFS`
or :data:`KEPT_OPTIONS`; ``--check`` exits 1 if one does not, if a
reason outlives its entry, if an entry point fails, if a name
``benchmarks/e2e/spans.py`` binds no longer resolves, or if either list
outgrows its ratchet (:data:`MAX_UNREACHED_LINES`,
:data:`MAX_ONE_VALUE_OPTIONS`).  Usage::

    python benchmarks/census.py [--options-only] [--check]

The option half takes under a second (tier-1 runs it as
``tests/test_option_census.py``); the reachability half runs the entry
points under the profiler, :data:`JOBS` at a time, about 5 minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Entry points profiled at once (each child holds a whole cluster in memory).
JOBS = 2

#: The ratchet: ``--check`` fails once the census grows past these counts.
#: Lower them when a change shrinks the census; never raise them.
MAX_UNREACHED_LINES = 688
MAX_ONE_VALUE_OPTIONS = 20

#: (label, argv after ``python``).  ``{out}`` is a scratch directory.
ENTRY_POINTS = (
    [
        (f"e2e {name}", ["benchmarks/e2e/run.py", "--workload", name, "--seed", "5",
                         "--seconds", "0"])
        for name in ("transfer_1shard", "auction_1kb", "xshard_durable", "market_reads")
    ]
    # --benchmark-disable: pytest-benchmark pauses sys.setprofile around
    # every function it times, so a timed run hides that code from the census.
    + [("benchmarks", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-x",
                       "--benchmark-disable", "--ignore=benchmarks/e2e", "benchmarks"])]
    + [
        (f"simtest {label}", ["-m", "repro", "simtest", "--steps", "300",
                              "--out-prefix", "{out}/" + label.replace(" ", "_")] + extra)
        for label, extra in (
            ("plain 201", ["--seed", "201"]),
            # A crash that takes a submission's only pooled copy, so the
            # driver's re-trigger (Section 4.2.1) runs.
            ("plain 1", ["--seed", "1"]),
            ("elastic 110", ["--seed", "110", "--elastic-rate", "0.05"]),
            ("byzantine 7231", ["--seed", "7231", "--byzantine-rate", "0.2",
                                "--adversarial-rate", "0.2"]),
            ("single", ["--seed", "5", "--single"]),
            ("volatile", ["--seed", "5", "--volatile"]),
        )
    ]
    + [(f"cli {command}", ["-m", "repro", command]) for command in ("info", "trace", "byzantine")]
    + [
        (f"example {name}", [f"examples/{name}.py"])
        for name in ("quickstart", "reverse_auction_marketplace", "supply_chain_procurement",
                     "marketplace_analytics", "crash_recovery_demo", "smart_contract_baseline")
    ]
)

_SPANS = "a name benchmarks/e2e/spans.py binds (ROADMAP 2(b) frees it)"
_ON_VIOLATION = "runs only on a violation"
_TESTS = "a read-out the unit tests assert through"

#: Unreached defs that stay, by dotted-name prefix (``module.Qual.name``).
KEPT_DEFS = {
    # Names the e2e harness binds or reads.
    "repro.crypto.keys.verify_signatures_batch": _SPANS,
    "repro.core.validation.TransactionValidator.check_block": _SPANS,
    "repro.core.server.SmartchainServer.check_block": _SPANS,
    "repro.sharding.coordinator.TwoPhaseCoordinator.handle_decision": _SPANS,
    "repro.storage.database.Database.stats": "read by benchmarks/e2e/layers.py in traced runs",
    # Protocol stubs and test doubles.
    "repro.consensus.abci.Application": "ABCI protocol stubs (typing only)",
    "repro.consensus.abci.NullApplication": "the accept-everything app consensus tests drive",
    "repro.core.validation.TypeValidator": "protocol stub (typing only)",
    "repro.durability.wal.StorageBackend": "storage-backend protocol stubs (typing only)",
    # Paths the traffic does not take.
    "repro.ethereum": "the paper's smart-contract baseline; its unused corners mirror the EVM model",
    "repro.common.errors": "error constructors on rejection paths the traffic does not take",
    "repro.durability.wal.FileBackend": "real-disk deployment path; the simulator runs on SimDisk",
    "repro.durability.wal.SimDisk": "fault-injection surface of the simulated disk (torn-write tests)",
    "repro.durability.wal.single_frame_body": "single-frame decoder the torn-write tests read with",
    "repro.durability.wal.valid_prefix_length": "torn-tail probe the WAL tests assert against",
    "repro.durability.wal.SegmentedWal": _TESTS,
    "repro.durability.wal._head": "frame-header read of a torn tail; only torn-write power failures reach it",
    "repro.storage.compiler": "MongoDB query operators: the ad-hoc query surface of the "
    "queryability claim; the workloads' reads use $eq / $gte / $lt only",
    "repro.storage.collection.Collection.explain": "query-plan introspection the probe tests use",
    "repro.storage.query.QueryPlanner.plan": "builds Collection.explain's plan",
    "repro.storage.indexes.SortedIndex": "upkeep on delete; no workload deletes a range-indexed row",
    "repro.storage.indexes.HashIndex": _TESTS,
    "repro.schema.validator.SchemaValidator.is_valid": "boolean form of validate(); schema tests",
    "repro.schema.validator._fail": "a circular or unresolvable $ref; no shipped schema has one",
    "repro.yamlite.parser._Parser": "YAML-subset grammar no shipped schema exercises",
    "repro.consensus.byzantine": "catch-up refusal of a lagging lying replica; sweep seeds reach it",
    "repro.analytics.common.ScanSource.referencing": "scan side of the analytics per-request "
    "lookups; golden-parity tests",
    "repro.analytics.queries.MarketplaceAnalytics.holdings": "wallet holdings; golden-parity tests",
    "repro.metrics.report.format_series": "series formatter; metrics tests",
    "repro.workloads.generator.ZipfSampler.choice": "Zipf draw over a population; generator tests",
    "repro.crypto.conditions": "threshold-condition helpers; the workloads sign single-key outputs",
    "repro.crypto.hashing.is_sha3_hexdigest": "id-format predicate; hashing tests",
    "repro.crypto.keys.KeyPair.verify": "convenience verifier on a key pair; key tests",
    "repro.crypto.sigcache.SignatureCache": _TESTS,
    "repro.sim.events": _TESTS,
    "repro.telemetry.flight.FlightRecorder": "flight-recorder read surface; telemetry tests",
    "repro.telemetry.tracing.Tracer": "trace read surface (timelines, spans); telemetry tests",
    "repro.telemetry.registry.Gauge": "gauge arithmetic; registry tests",
    "repro.sharding.cluster.ShardedCluster.reshard": "operator-started migration; the traffic auto-splits",
    "repro.sharding.cluster.ShardedCluster.any_server": "facade twin of SmartchainCluster.any_server",
    "repro.sharding.ring.ConsistentHashRing.shards": _TESTS,
    "repro.sharding.ring.ConsistentHashRing.__contains__": "shard-hint check; no workload passes a hint",
    "repro.core.context.ValidationContext.is_committed": _TESTS,
    "repro.core.server.SmartchainServer.get_transaction": "public read of one transaction by id; server tests",
    "repro.core.driver.is_redirect_rejection": "classifies a migration-fence rejection; elastic tests",
    "repro.core.nested.ReturnQueue.requeue": "retry of a failed RETURN submit; nested tests",
    "repro.core.parallel": "lane accounting read-outs; ablation and parallel tests",
    "repro.core.transaction.Transaction": "accessors (asset_id, size_bytes, repr); tests and debugging",
    "repro.core.validation.set_shared_memo": "test isolation hook for the process-wide memo",
    "repro.storage.collection.Collection._apply_update.descend": "dotted update paths; no "
    "caller updates a nested field (storage tests)",
    "repro.core.workflow": "workflow registry and trace read-outs; workflow tests",
    "repro.simtest.harness.SimtestConfig.to_dict": _ON_VIOLATION,
    "repro.simtest.harness.ReproBundle": _ON_VIOLATION,
    "repro.simtest.harness.SimHarness._flight_dump": _ON_VIOLATION,
    "repro.simtest.harness.SimReport.ok": "the caller-side verdict; tests and the sweep slice",
    "repro.simtest.invariants.Violation.describe": _ON_VIOLATION,
    "repro.simtest.invariants.InvariantChecker.register": "mutation tests plant an invariant",
    "repro.simtest.plane.FaultPlane.byzantine_kind": _TESTS,
    "repro.simtest.schedule": "schedule reload: replaying a repro bundle",
}

_BUNDLED = "serialised into every repro bundle, so a replay command reproduces the run"

#: One-value options that stay (``Class.field``).
KEPT_OPTIONS = {
    "ClusterConfig.network": "the network model object; callers tune the live cluster.network.config",
    "ClusterConfig.cost_model": "the paper-calibrated ServerCostModel; a recalibration swaps it here",
    "DurabilityConfig.flush_interval": "group-commit window; durability tests vary it",
    "DurabilityConfig.max_latency": "group-commit latency bound; durability tests vary it",
    "MigrationPolicy.max_shards": "split ceiling; migration tests lower it to rebalance onto members",
    "NetworkConfig.base_latency": "network model parameter; network tests vary it",
    "NetworkConfig.jitter": "network model parameter; network tests vary it",
    "NetworkConfig.bandwidth_bytes_per_sec": "network model parameter; network tests vary it",
    "QuorumChainConfig.network": "the Ethereum baseline's model (the paper's comparison system)",
    "QuorumChainConfig.initial_balance": "the Ethereum baseline's model (the paper's comparison system)",
    "ShardedClusterConfig.virtual_nodes": "handed to ConsistentHashRing, whose ring tests vary it",
    "SimtestConfig.max_block_txs": _BUNDLED,
    "SimtestConfig.step_duration": _BUNDLED,
    "SimtestConfig.transfer_rate": _BUNDLED,
    "SimtestConfig.conflict_rate": _BUNDLED,
    "SimtestConfig.cross_rate": _BUNDLED,
    "SimtestConfig.trace_total": _BUNDLED,
    "SimtestConfig.n_actors": _BUNDLED,
    "SimtestConfig.fail_fast": _BUNDLED,
    "SimtestConfig.max_events_per_step": _BUNDLED,
}


# -- reachability ------------------------------------------------------------


def _child(out_path: str, argv: list[str]) -> None:
    """Run one entry point in this process under the profiler and write
    the ``[filename, first line]`` of every code object it entered."""
    import runpy

    entered: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        entered[id(code)] = code

    sys.path.insert(0, SRC)
    status = 0
    sys.setprofile(hook)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            sys.path.insert(0, os.path.dirname(os.path.abspath(argv[0])))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as done:
        status = 0 if done.code in (None, 0) else 1
    finally:
        sys.setprofile(None)
    codes = sorted(
        {(code.co_filename, code.co_firstlineno) for code in entered.values()
         if code.co_filename.startswith(PACKAGE)}
    )
    with open(out_path, "w") as handle:
        json.dump({"status": status, "entered": codes}, handle)


def _run_entry(label: str, argv: list[str], scratch: str) -> tuple[str, int, set]:
    out = os.path.join(scratch, label.replace(" ", "_") + ".json")
    argv = [arg.replace("{out}", scratch) for arg in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", out, "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    result = {"status": done.returncode or 1, "entered": []}
    if os.path.exists(out):
        with open(out) as handle:
            result = json.load(handle)
    if result["status"]:
        sys.stderr.write(f"-- {label} failed; its output ends:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}\n")
    return label, result["status"], {tuple(item) for item in result["entered"]}


def defs_under(package: str = PACKAGE) -> list[tuple[str, str, int, int]]:
    """Every ``def`` under ``package``: (dotted name, file, first line, lines).

    The first line is the code object's (the first decorator's line), so
    it matches what the profiler reports.  Nested defs are included.
    """
    found = []
    for directory, _, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)

            def walk(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        dotted = f"{prefix}.{child.name}"
                        found.append((dotted, path, first, child.end_lineno - first + 1))
                        walk(child, dotted)
                    elif isinstance(child, ast.ClassDef):
                        walk(child, f"{prefix}.{child.name}")
                    else:
                        walk(child, prefix)

            walk(tree, module)
    return found


def _reason(dotted: str, kept: dict[str, str]) -> str | None:
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        reason = kept.get(".".join(parts[:end]))
        if reason is not None:
            return reason
    return None


def reachability() -> tuple[list[tuple[str, int, str | None]], list[str]]:
    """Unreached outermost defs ``(dotted, lines, reason)`` and failed entry points."""
    entered: set = set()
    failed: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            runs = [pool.submit(_run_entry, label, argv, scratch) for label, argv in ENTRY_POINTS]
            for run in runs:
                label, status, codes = run.result()
                print(f"  ran {label}: {len(codes)} code objects, exit {status}", flush=True)
                if status:
                    failed.append(label)
                entered |= codes
    unreached = []
    for dotted, path, first, lines in defs_under():
        if (path, first) in entered:
            continue
        # A def inside an unreached def is unreached with it: list the outer one.
        if unreached and dotted.startswith(unreached[-1][0] + "."):
            continue
        unreached.append((dotted, lines, _reason(dotted, KEPT_DEFS)))
    return unreached, failed


# -- options -------------------------------------------------------------------


def option_classes() -> dict[str, list[tuple[str, str | None]]]:
    """``*Config`` / ``*Policy`` dataclasses under ``src/repro``:
    class -> [(field, default source or None)] in declaration order."""
    classes: dict[str, list[tuple[str, str | None]]] = {}
    for path in _python_files(PACKAGE):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Policy"))):
                continue
            if not any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                continue
            fields = []
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if "ClassVar" in ast.unparse(item.annotation):
                        continue
                    default = None if item.value is None else _default_source(item.value)
                    fields.append((item.target.id, default))
            classes[node.name] = fields
    return classes


def _default_source(value: ast.expr) -> str:
    """``field(default_factory=X)`` reads as ``X()``, anything else as itself."""
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                factory = keyword.value
                if isinstance(factory, ast.Lambda):
                    return ast.unparse(factory.body)
                return f"{ast.unparse(factory)}()"
            if keyword.arg == "default":
                return ast.unparse(keyword.value)
    return ast.unparse(value)


def _python_files(*roots: str):
    for root in roots:
        for directory, _, files in os.walk(root):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def option_census() -> dict[str, dict[str, set[str]]]:
    """``Class -> field -> {value sources callers pass}`` (the default
    included when a field has one; ``**`` spreads count as ``<dynamic>``)."""
    classes = option_classes()
    values = {
        name: {field: ({default} if default is not None else set()) for field, default in fields}
        for name, fields in classes.items()
    }
    by_field: dict[str, list[str]] = {}
    for name, fields in classes.items():
        for field, _ in fields:
            by_field.setdefault(field, []).append(name)
    roots = [os.path.join(ROOT, part) for part in ("src", "benchmarks", "examples")]
    for path in _python_files(*roots):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func).rsplit(".", 1)[-1]
                if callee in classes:
                    fields = [field for field, _ in classes[callee]]
                    for position, arg in enumerate(node.args[: len(fields)]):
                        values[callee][fields[position]].add(ast.unparse(arg))
                    for keyword in node.keywords:
                        if keyword.arg is None:
                            for field in fields:
                                values[callee][field].add("<dynamic>")
                        elif keyword.arg in values[callee]:
                            values[callee][keyword.arg].add(ast.unparse(keyword.value))
                elif callee == "replace":
                    for keyword in node.keywords:
                        for owner in by_field.get(keyword.arg or "", []):
                            values[owner][keyword.arg].add(ast.unparse(keyword.value))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    owner_text = ast.unparse(target.value).lower()
                    if not owner_text.endswith(("config", "policy")):
                        continue
                    value = ast.unparse(node.value)
                    for owner in by_field.get(target.attr, []):
                        values[owner][target.attr].add(value)
    return values


def one_value_options(values: dict | None = None) -> list[tuple[str, str | None]]:
    """Fields no caller sets away from the default: ``(Class.field, reason)``."""
    return [
        (f"{name}.{field}", KEPT_OPTIONS.get(f"{name}.{field}"))
        for name, fields in sorted((values or option_census()).items())
        for field, passed in fields.items()
        if len(passed) == 1
    ]


def unbound_harness_names() -> list[str]:
    """Every ``benchmarks/e2e/spans.py`` target that no longer resolves."""
    import importlib
    import importlib.util

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    path = os.path.join(ROOT, "benchmarks", "e2e", "spans.py")
    spec = importlib.util.spec_from_file_location("e2e_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module_name, dotted in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{dotted}")
    return missing


# -- report ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if argv is None and len(sys.argv) > 2 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[4:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--options-only", action="store_true", help="skip the profiled runs")
    parser.add_argument("--check", action="store_true", help="exit 1 on any finding below")
    args = parser.parse_args(argv)

    findings = 0
    values = option_census()
    options = one_value_options(values)
    fields = sum(len(passed) for passed in values.values())
    print(f"one-value options ({len(options)} of {fields} fields):")
    for name, reason in options:
        print(f"  {name:<44} {reason or 'NO REASON'}")
        findings += reason is None
    for name in sorted(set(KEPT_OPTIONS) - {name for name, _ in options}):
        print(f"  stale reason (option is settable or gone): {name}")
        findings += 1
    if len(options) > MAX_ONE_VALUE_OPTIONS:
        print(f"  one-value options exceed the ratchet ({MAX_ONE_VALUE_OPTIONS})")
        findings += 1
    for name in unbound_harness_names():
        print(f"  harness-bound name missing: {name}")
        findings += 1

    if not args.options_only:
        print(f"running {len(ENTRY_POINTS)} entry points under the profiler...", flush=True)
        unreached, failed = reachability()
        total_defs = len(defs_under())
        lines = sum(count for _, count, _ in unreached)
        print(f"unreached defs ({len(unreached)} outermost of {total_defs}, {lines} lines):")
        for dotted, count, reason in unreached:
            print(f"  {dotted:<72} {count:>4}  {reason or 'NO REASON'}")
            findings += reason is None
        if lines > MAX_UNREACHED_LINES:
            print(f"  unreached lines exceed the ratchet ({MAX_UNREACHED_LINES})")
            findings += 1
        for label in failed:
            print(f"  entry point failed: {label}")
            findings += 1
        names = [dotted for dotted, _, _ in unreached]
        for prefix in sorted(KEPT_DEFS):
            if not any(name == prefix or name.startswith(prefix + ".") for name in names):
                print(f"  stale reason (reached or gone): {prefix}")
                findings += 1
    if args.check and findings:
        print(f"{findings} findings")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
