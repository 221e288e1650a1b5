"""Global invariants over a (possibly sharded) deployment.

Each invariant is a pure read of durable cluster state — node databases,
chains, 2PC lock/outbox tables, facade records — returning a list of
violation strings.  Per-``step`` invariants hold in *every* reachable
state, including mid-crash and mid-partition; ``quiesce`` invariants
hold only once everything is healed and the loop has drained (no stuck
locks, every submission settled).

The registry is the Jepsen-style half of the harness: schedules make
histories, these make verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.abci import deliver_block
from repro.core.entries import SHARD_IMPORT, imported_utxos, is_entry
from repro.simtest.plane import FaultPlane

#: An invariant body: plane -> violation strings (empty = holds).
InvariantFn = Callable[[FaultPlane], "list[str]"]


@dataclass
class Invariant:
    """One registered property.

    Attributes:
        name: stable identifier (appears in logs and repro bundles).
        fn: the check body.
        scope: ``"step"`` (checked during the run) or ``"quiesce"``
            (checked only after repair + drain).
        sharded_only: skip on single-cluster deployments.
        every: check cadence in steps (1 = every step) — for checks that
            replay whole chains and would dominate the step budget.
    """

    name: str
    fn: InvariantFn
    scope: str = "step"
    sharded_only: bool = False
    every: int = 1


@dataclass
class Violation:
    """One observed invariant breach."""

    invariant: str
    detail: str
    step: int
    sim_time: float

    def describe(self) -> str:
        return (
            f"step={self.step:04d} t={self.sim_time:.6f} "
            f"invariant={self.invariant} {self.detail}"
        )


# -- shared state readers ---------------------------------------------------------


def _reference_server(shard):
    """The node with the longest applied chain (ties: validator order).

    Chain-agreement is itself an invariant, so any maximal node is a
    faithful read of the shard's committed history — including nodes
    currently crashed, whose durable storage survives.
    """
    best = None
    best_len = -1
    for node_id in shard.engine.validator_order:
        server = shard.servers[node_id]
        chain_len = server.database.collection("blocks").count({})
        if chain_len > best_len:
            best, best_len = server, chain_len
    return best


def applied_transactions(plane: FaultPlane) -> dict[str, tuple[str, dict[str, Any]]]:
    """tx_id -> (shard_id, payload) over every shard's applied history.

    "Applied" means listed in a committed block's ``transaction_ids`` —
    the authoritative per-shard state, as opposed to facade records
    (which include rejections) or the ``transactions`` collection (which
    also holds cross-shard reference imports).

    Memoised per loop position: invariant checks run back-to-back with
    no events in between, so one scan serves the whole check round
    instead of every chain-reading invariant repeating it (which made
    runs quadratic in step count).
    """
    cache = getattr(plane, "_applied_cache", None)
    position = plane.loop.processed
    if cache is not None and cache[0] == position:
        return cache[1]
    out: dict[str, tuple[str, dict[str, Any]]] = {}
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        server = _reference_server(shard)
        transactions = server.database.collection("transactions")
        for block in server.database.collection("blocks").find({}, copy=False):
            for tx_id in block["transaction_ids"]:
                payload = transactions.find_one({"id": tx_id}, copy=False)
                if payload is not None:
                    out[tx_id] = (shard_id, payload)
    plane._applied_cache = (position, out)
    return out


def _spent_refs(payload: dict[str, Any]):
    """Outputs a transaction spends.  System entries name outputs too —
    a consume the ones its certified spend took, an export the ones
    leaving — but spend nothing of their own."""
    if is_entry(payload):
        return
    for item in payload.get("inputs", []):
        fulfills = item.get("fulfills")
        if fulfills:
            yield (fulfills["transaction_id"], fulfills["output_index"])


def _migrator(plane: FaultPlane):
    """The deployment's reshard controller, if elastic resharding is wired."""
    return getattr(plane.cluster, "migrator", None)


def _migrated_final_home(migrator) -> dict[tuple[str, int], str]:
    """ref -> shard the migration journal says finally owns it.

    Walks ``done`` migrations in id order — a ref can only join a second
    migration after the first one's cutover re-homed it, and ids are
    assigned at start time, so id order subsumes causal order and the
    last writer is the final owner."""
    home: dict[tuple[str, int], str] = {}
    for doc in sorted(
        migrator._journal.find({"phase": "done"}, copy=False),
        key=lambda d: d["migration_id"],
    ):
        for row in doc.get("moved") or []:
            home[(row[0], row[1])] = doc["target"]
    return home


# -- per-step invariants ----------------------------------------------------------


def no_double_spend(plane: FaultPlane) -> list[str]:
    """Every output is spent by at most one applied transaction, globally."""
    spenders: dict[tuple[str, int], set[str]] = {}
    for tx_id, (_, payload) in applied_transactions(plane).items():
        for ref in _spent_refs(payload):
            spenders.setdefault(ref, set()).add(tx_id)
    violations = []
    for ref, txs in sorted(spenders.items()):
        if len(txs) > 1:
            violations.append(
                f"output {ref[0][:8]}:{ref[1]} spent by {len(txs)} committed txs: "
                + ",".join(sorted(tx[:8] for tx in txs))
            )
    return violations


def chain_consistency(plane: FaultPlane) -> list[str]:
    """Per shard: every node's chain is height-contiguous and all nodes
    agree at every height they share — on the block id *and* on the set
    of transactions the block delivered (``deliver_tx`` divergence hides
    behind identical block ids, which are fixed at proposal time)."""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        by_height: dict[int, dict[str, tuple[str, tuple[str, ...]]]] = {}
        for node_id in shard.engine.validator_order:
            blocks = shard.servers[node_id].database.collection("blocks").find({}, copy=False)
            heights = sorted(block["height"] for block in blocks)
            if heights != list(range(1, len(heights) + 1)):
                violations.append(
                    f"{shard_id}/{node_id}: non-contiguous heights {heights[:6]}..."
                )
            for block in blocks:
                by_height.setdefault(block["height"], {})[node_id] = (
                    block["block_id"],
                    tuple(sorted(block["transaction_ids"])),
                )
        for height, views in sorted(by_height.items()):
            if len(set(views.values())) > 1:
                detail = " ".join(
                    f"{node}={bid[:8]}/{len(txs)}tx"
                    for node, (bid, txs) in sorted(views.items())
                )
                violations.append(
                    f"{shard_id}: replicas disagree at height {height}: {detail}"
                )
    return violations


def conservation(plane: FaultPlane) -> list[str]:
    """Spends reference committed outputs, and TRANSFERs conserve amounts."""
    applied = applied_transactions(plane)
    violations = []
    for tx_id, (shard_id, payload) in applied.items():
        in_total = 0
        for ref_tx, ref_index in _spent_refs(payload):
            source = applied.get(ref_tx)
            if source is None:
                violations.append(
                    f"{tx_id[:8]} on {shard_id} spends {ref_tx[:8]}:{ref_index}, "
                    "which is committed nowhere"
                )
                continue
            outputs = source[1].get("outputs", [])
            if ref_index >= len(outputs):
                violations.append(
                    f"{tx_id[:8]} spends nonexistent output {ref_tx[:8]}:{ref_index}"
                )
                continue
            in_total += int(outputs[ref_index].get("amount") or 0)
        if payload.get("operation") == "TRANSFER":
            out_total = sum(int(o.get("amount") or 0) for o in payload.get("outputs", []))
            if in_total != out_total:
                violations.append(
                    f"TRANSFER {tx_id[:8]} creates {out_total} from {in_total}"
                )
    return violations


def replica_utxo_consistency(plane: FaultPlane) -> list[str]:
    """Each node's ``utxos`` view equals what replaying its own chain, in
    height order, predicts: every delivered transaction's outputs minus
    what later inputs (spends, consumes, exports) name, plus what imports
    mint."""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        for node_id in shard.engine.validator_order:
            server = shard.servers[node_id]
            transactions = server.database.collection("transactions")
            expected: set[tuple[str, int]] = set()
            blocks = server.database.collection("blocks").find({}, copy=False)
            for block in sorted(blocks, key=lambda doc: doc["height"]):
                for tx_id in block["transaction_ids"]:
                    payload = transactions.find_one({"id": tx_id}, copy=False)
                    if payload is None:
                        continue
                    for index in range(len(payload.get("outputs", []))):
                        expected.add((tx_id, index))
                    if payload.get("operation") == SHARD_IMPORT:
                        expected.update(
                            (doc["transaction_id"], doc["output_index"])
                            for doc in imported_utxos(payload)
                        )
                    for item in payload.get("inputs", []):
                        fulfills = item.get("fulfills")
                        if fulfills:
                            expected.discard(
                                (fulfills["transaction_id"], fulfills["output_index"])
                            )
            actual = {
                (doc["transaction_id"], doc["output_index"])
                for doc in server.database.collection("utxos").find({}, copy=False)
            }
            if expected != actual:
                ghost = sorted(actual - expected)[:3]
                missing = sorted(expected - actual)[:3]
                violations.append(
                    f"{shard_id}/{node_id}: utxo view drifted "
                    f"(ghost={[(t[:8], i) for t, i in ghost]} "
                    f"missing={[(t[:8], i) for t, i in missing]})"
                )
    return violations


def lock_outbox_consistency(plane: FaultPlane) -> list[str]:
    """Durable 2PC state matches the chains it claims to reflect."""
    applied = applied_transactions(plane)
    violations = []
    for shard_id, agent in sorted(plane.agents.items()):
        for lock in agent.durable.collection("shard_locks").find(
            {"status": "committed"}, copy=False
        ):
            holder = lock["holder"]
            if holder not in applied:
                violations.append(
                    f"{shard_id}: committed tombstone for {holder[:8]} "
                    "but the holder is committed nowhere"
                )
        for doc in agent.durable.collection("shard_outbox").find({}, copy=False):
            tx_id = doc["tx_id"]
            if doc["outcome"] == "committed" and tx_id not in applied:
                violations.append(
                    f"{shard_id}: outbox says {tx_id[:8]} committed "
                    "but the home chain never applied it"
                )
            if doc["outcome"] == "aborted" and tx_id in applied:
                violations.append(
                    f"{shard_id}: outbox says {tx_id[:8]} aborted "
                    f"but it is applied on {applied[tx_id][0]}"
                )
    return violations


def metrics_consistency(plane: FaultPlane) -> list[str]:
    """Aggregate metrics equal the sum of their per-shard parts."""
    violations = []
    cluster = plane.cluster
    if plane.sharded:
        merged = cluster.records
        committed_ids = {
            tx_id for tx_id, record in merged.items() if record.committed_at is not None
        }
        aggregate = cluster.aggregate_metrics()
        if aggregate.committed != len(committed_ids):
            violations.append(
                f"aggregate committed={aggregate.committed} but merged records "
                f"show {len(committed_ids)}"
            )
        per_shard_total = sum(
            metrics.committed for metrics in cluster.per_shard_metrics().values()
        )
        shard_committed_ids = {
            tx_id
            for shard in cluster.shards.values()
            for tx_id, record in shard.records.items()
            if record.committed_at is not None
        }
        if per_shard_total != len(shard_committed_ids):
            violations.append(
                f"per-shard committed totals {per_shard_total} != "
                f"{len(shard_committed_ids)} distinct shard-level commits"
            )
    else:
        committed = sum(
            1 for record in cluster.records.values() if record.committed_at is not None
        )
        if committed != len(cluster.committed_records()):
            violations.append("committed_records() disagrees with record flags")
    return violations


def mempool_discipline(plane: FaultPlane) -> list[str]:
    """Dedup memory stays bounded; nothing committed sits in a pool."""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        for node_id in shard.engine.validator_order:
            validator = shard.engine.validator(node_id)
            mempool = validator.mempool
            if mempool.seen_size() > mempool.seen_capacity:
                violations.append(
                    f"{shard_id}/{node_id}: seen window {mempool.seen_size()} "
                    f"exceeds bound {mempool.seen_capacity}"
                )
            applied_here: set[str] = set()
            blocks = shard.servers[node_id].database.collection("blocks")
            for block in blocks.find({}, copy=False):
                applied_here.update(block["transaction_ids"])
            resident = set(mempool.pending_ids()) & applied_here
            if resident:
                violations.append(
                    f"{shard_id}/{node_id}: committed txs still pooled: "
                    + ",".join(sorted(tx[:8] for tx in resident))
                )
    return violations


# -- byzantine-fault invariants ---------------------------------------------------


def honest_no_divergence(plane: FaultPlane) -> list[str]:
    """No two *honest* nodes commit different blocks at any height.

    The f<n/3 safety claim in executable form: while at most
    ⌊(n−1)/3⌋ validators per shard are byzantine, the honest replicas'
    consensus chains must agree wherever they overlap — equivocation,
    double voting and withheld votes may slow a shard down but never
    split it.  A schedule that over-corrupts a shard is itself flagged:
    past the cap the claim is vacuous and the run is miscounted, not
    unsafe."""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        order = shard.engine.validator_order
        byzantine = set(plane.byzantine_nodes(shard_id))
        cap = (len(order) - 1) // 3
        if len(byzantine) > cap:
            violations.append(
                f"{shard_id}: {len(byzantine)} byzantine validators exceed "
                f"the f<n/3 cap ({cap}) — schedule is not survivable"
            )
            continue
        by_height: dict[int, dict[str, str]] = {}
        for node_id in order:
            if node_id in byzantine:
                continue
            for block in shard.engine.validator(node_id).chain:
                by_height.setdefault(block.height, {})[node_id] = block.block_id
        for height, views in sorted(by_height.items()):
            if len(set(views.values())) > 1:
                detail = " ".join(
                    f"{node}={block_id[:8]}" for node, block_id in sorted(views.items())
                )
                violations.append(
                    f"{shard_id}: honest nodes diverge at height {height}: {detail}"
                )
    return violations


def no_forged_admission(plane: FaultPlane) -> list[str]:
    """No forged-signature transaction is ever applied.

    The adversarial workload records every payload it submitted with a
    mutated signature in ``plane.forged_tx_ids``; signature verification
    (and the identity-guarded verdict memos in front of it) must reject
    every one of them before a block carries it."""
    if not plane.forged_tx_ids:
        return []
    applied = applied_transactions(plane)
    violations = []
    for tx_id in sorted(plane.forged_tx_ids & set(applied)):
        violations.append(
            f"forged-signature tx {tx_id[:8]} applied on {applied[tx_id][0]}"
        )
    return violations


def equivocation_contained(plane: FaultPlane) -> list[str]:
    """Byzantine evidence never rolls an honest chain back.

    Watches every honest node's consensus chain between checks: the
    previous observation must be a *prefix* of the current one.  An
    equivocating proposer may delay a height or leave rival proposals
    in flight, but once an honest replica commits a block that block
    stays committed — containment means evidence and discarded rivals,
    never history rewrites.  (Crash-restarts re-baseline the watch in
    :meth:`FaultPlane.crash_restart`: rewinding to the durable prefix
    is the durability contract, not a byzantine rollback.)"""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        byzantine = set(plane.byzantine_nodes(shard_id))
        for node_id in shard.engine.validator_order:
            if node_id in byzantine:
                continue
            chain = [block.block_id for block in shard.engine.validator(node_id).chain]
            previous = plane.chain_watch.get((shard_id, node_id))
            if previous is not None and chain[: len(previous)] != previous:
                violations.append(
                    f"{shard_id}/{node_id}: committed chain rolled back "
                    f"(had {len(previous)} blocks, prefix no longer holds)"
                )
            plane.chain_watch[(shard_id, node_id)] = chain
    return violations


# -- quiesce invariants -----------------------------------------------------------


def no_stuck_locks(plane: FaultPlane) -> list[str]:
    """After repair + drain, no prepared lock survives anywhere."""
    violations = []
    for shard_id, agent in sorted(plane.agents.items()):
        held = agent.active_locks()
        if held:
            violations.append(
                f"{shard_id}: {len(held)} UTXO lock(s) still prepared: "
                + ",".join(sorted(lock["holder"][:8] for lock in held))
            )
    return violations


def outbox_terminal(plane: FaultPlane) -> list[str]:
    """Every 2PC instance reached a fully-acknowledged terminal state."""
    violations = []
    for shard_id, agent in sorted(plane.agents.items()):
        for doc in agent.unfinished():
            violations.append(
                f"{shard_id}: outbox record {doc['tx_id'][:8]} parked in "
                f"state={doc['state']}"
            )
    return violations


def wal_prefix_durability(plane: FaultPlane) -> list[str]:
    """Disk tells the same story as memory once the loop has drained.

    For every durable node and 2PC agent: recovering from its device
    (newest whole checkpoint chain + WAL scan-to-torn-tail, **read-only**
    — no repair) and, for a node, re-delivering the blocks above the
    checkpoints (:meth:`~repro.core.cluster.SmartchainCluster.recover_node`,
    the restart path itself) must reconstruct exactly the live
    collections, the applied chain (same heights and value-based block
    ids) and the consensus lock.  Mid-run the disk legitimately trails
    memory by one group-commit batch; at quiesce every flush has fired,
    so any divergence means a mutation escaped the log (the chain, or an
    agent's journal), replay is wrong, or a torn tail ate acknowledged
    state — the prefix-durability contract in one check.
    """
    if not plane.durable:
        return []
    from repro.durability.recovery import diff_databases, recover

    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        for node_id in shard.engine.validator_order:
            durability = shard.node_durability[node_id]
            if durability.log.pending:
                violations.append(
                    f"{shard_id}/{node_id}: {durability.log.pending} journal "
                    "records still unflushed at quiesce"
                )
            recovered, _ = shard.recover_node(node_id, repair=False)
            server = shard.servers[node_id]
            for problem in diff_databases(server.database, recovered.database):
                violations.append(f"{shard_id}/{node_id}: {problem}")
            validator = shard.engine.validator(node_id)
            live_chain = [(block.height, block.block_id) for block in validator.chain]
            disk_chain = [(rec["h"], rec["id"]) for rec in recovered.block_records]
            if live_chain != disk_chain:
                violations.append(
                    f"{shard_id}/{node_id}: disk chain ({len(disk_chain)} blocks) "
                    f"!= live chain ({len(live_chain)} blocks)"
                )
            live_lock = (
                (validator.state.locked_round, validator.state.locked_value.block_id)
                if validator.state.locked_value is not None
                else (-1, None)
            )
            disk_round, disk_block = recovered.locked()
            disk_lock = (disk_round, disk_block.block_id if disk_block else None)
            if live_lock != disk_lock:
                violations.append(
                    f"{shard_id}/{node_id}: disk lock {disk_lock} != live {live_lock}"
                )
    for shard_id, agent in sorted(plane.agents.items()):
        if agent.durability is None:
            continue
        if agent.durability.log.pending:
            violations.append(
                f"{shard_id}/agent: journal records still unflushed at quiesce"
            )
        recovered = recover(
            agent.durability,
            lambda a=agent: a._make_durable_database(journaled=False),
            repair=False,
        )
        for problem in diff_databases(agent.durable, recovered.database):
            violations.append(f"{shard_id}/agent: {problem}")
    migrator = _migrator(plane)
    if migrator is not None and migrator.durability is not None:
        if migrator.durability.log.pending:
            violations.append(
                "reshard-controller: journal records still unflushed at quiesce"
            )
        recovered = recover(
            migrator.durability,
            lambda: migrator._make_journal_database(journaled=False),
            repair=False,
        )
        for problem in diff_databases(migrator.journal_db, recovered.database):
            violations.append(f"reshard-controller: {problem}")
    return violations


def mv_consistency(plane: FaultPlane) -> list[str]:
    """Every materialized view equals a from-scratch recomputation.

    Rebuilds a fresh :class:`~repro.views.manager.ViewManager` from each
    shard's reference replica (the one with the longest chain — chain
    agreement is its own invariant) and compares canonical snapshots
    against the live, incrementally-maintained manager.  The oracle reads
    that replica's ``blocks`` and ``transactions`` collections — what
    each block *delivered*, a source independent of the commit records
    the live feed consumes — so a view that applies an envelope DeliverTx
    rejected drifts from it.  Any drift means the commit feed dropped,
    duplicated, mis-ordered or invented an update somewhere in the crash/
    partition/byzantine history — the read path would be serving wrong
    answers while every write-path invariant still passed.  The live
    manager's memoised ``rapid_flips`` findings must equal a fresh walk
    over the rebuilt one, so a missed memo invalidation shows too.
    """
    from repro.analytics.common import ViewSource
    from repro.analytics.fraud import rapid_flips, walk_flips
    from repro.views import ViewManager

    live = plane.cluster.views
    rebuilt = ViewManager()
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        reference = max(
            shard.engine.validator_order, key=lambda n: len(shard.engine.validator(n).chain)
        )
        database = shard.servers[reference].database
        transactions = database.collection("transactions")
        blocks = database.collection("blocks").find({}, copy=False)
        for document in sorted(blocks, key=lambda doc: doc["height"]):
            entries = [
                (tx_id, transactions.find_one({"id": tx_id}, copy=False))
                for tx_id in document["transaction_ids"]
            ]
            rebuilt.apply_block_record(shard.view_shard_key, document["height"], entries)
    expected = rebuilt.consistency_snapshot()
    actual = live.consistency_snapshot()
    violations = []
    for key in expected:
        if expected[key] != actual.get(key):
            want, got = expected[key], actual.get(key)
            if isinstance(want, list) and isinstance(got, list):
                missing = [item for item in want if item not in got][:3]
                ghost = [item for item in got if item not in want][:3]
                detail = f"missing={missing} ghost={ghost}"
            else:
                detail = f"expected {str(want)[:120]} got {str(got)[:120]}"
            violations.append(f"materialized view {key!r} drifted: {detail}")
    # Shards interleave CREATEs differently in the two managers, and an
    # asset has at most one finding: compare them as sets.
    memoised = set(rapid_flips(ViewSource(live)))
    fresh = set(walk_flips(ViewSource(rebuilt)))
    if memoised != fresh:
        missing = sorted(f.transactions for f in fresh - memoised)[:3]
        ghost = sorted(f.transactions for f in memoised - fresh)[:3]
        violations.append(f"memoised rapid_flips drifted: missing={missing} ghost={ghost}")
    return violations


def custody_memo(plane: FaultPlane) -> list[str]:
    """The live view manager's memoised ``rapid_flips`` findings equal a
    fresh walk over the same manager.

    Checked every few steps, so the memo is refreshed between block
    applications all through the run: its invalidation then meets the
    crashes, catch-up and resharding the schedule injects, which the one
    quiesce-time comparison in :func:`mv_consistency` alone would not.
    """
    from repro.analytics.common import ViewSource
    from repro.analytics.fraud import rapid_flips, walk_flips

    source = ViewSource(plane.cluster.views)
    kept, fresh = rapid_flips(source), walk_flips(source)
    if kept == fresh:
        return []
    return [
        f"memoised rapid_flips drifted: kept {[f.transactions for f in kept][:3]} "
        f"fresh {[f.transactions for f in fresh][:3]}"
    ]


# -- elastic-resharding invariants ------------------------------------------------


def migration_terminal(plane: FaultPlane) -> list[str]:
    """After repair + drain, every journaled migration reached a terminal
    phase — ``done`` (cutover rolled forward) or ``rolled_back``
    (presumed abort).  A migration parked anywhere else means recovery
    lost track of it: its fences would block the moving keys forever."""
    migrator = _migrator(plane)
    if migrator is None:
        return []
    from repro.sharding.migration import TERMINAL_PHASES

    violations = []
    for doc in sorted(
        migrator._journal.find({}, copy=False), key=lambda d: d["migration_id"]
    ):
        if doc["phase"] not in TERMINAL_PHASES:
            violations.append(
                f"migration {doc['migration_id']} ({doc['source']}->"
                f"{doc['target']}) parked in phase={doc['phase']}"
            )
    return violations


def no_key_lost(plane: FaultPlane) -> list[str]:
    """Every output a ``done`` migration moved is either committed-spent
    somewhere or present in its final owner's UTXO set.

    The lost-key failure this catches: a cutover that deleted the source
    copy but (crash, torn write, skipped repair) never materialized the
    target copy — the owner would reject every spend of a live output."""
    migrator = _migrator(plane)
    if migrator is None:
        return []
    spent: set[tuple[str, int]] = set()
    for _tx_id, (_shard, payload) in applied_transactions(plane).items():
        spent.update(_spent_refs(payload))
    violations = []
    for (tx_id, index), owner in sorted(_migrated_final_home(migrator).items()):
        if (tx_id, index) in spent or owner not in plane.shard_ids:
            continue
        server = _reference_server(plane.shard_cluster(owner))
        doc = server.database.collection("utxos").find_one(
            {"transaction_id": tx_id, "output_index": index}, copy=False
        )
        if doc is None:
            violations.append(
                f"migrated output {tx_id[:8]}:{index} lost — unspent but "
                f"absent from final owner {owner}"
            )
    return violations


def no_key_duplicated(plane: FaultPlane) -> list[str]:
    """No migrated output is spendable on two shards, or on any shard
    but its final owner, and nothing a rolled-back migration planned
    surfaces on its target.

    The double-spend enabler this catches: an import that materialized
    the target copy while the source kept its own — both shards would
    accept a spend of the same output."""
    migrator = _migrator(plane)
    if migrator is None:
        return []
    violations = []
    final_home = _migrated_final_home(migrator)
    for (tx_id, index), owner in sorted(final_home.items()):
        holders = []
        for shard_id in plane.shard_ids:
            server = _reference_server(plane.shard_cluster(shard_id))
            present = server.database.collection("utxos").find_one(
                {"transaction_id": tx_id, "output_index": index}, copy=False
            )
            if present is not None:
                holders.append(shard_id)
        if len(holders) > 1:
            violations.append(
                f"migrated output {tx_id[:8]}:{index} live on multiple "
                "shards: " + ",".join(holders)
            )
        elif holders and holders[0] != owner:
            violations.append(
                f"migrated output {tx_id[:8]}:{index} lives on {holders[0]} "
                f"but the migration journal homes it on {owner}"
            )
    # Presumed abort leaves no residue: a rolled-back migration never
    # reached cutover, so none of its planned refs may have a UTXO
    # document on its target (unless a *later* done migration moved the
    # ref there legitimately).
    for doc in sorted(
        migrator._journal.find({"phase": "rolled_back"}, copy=False),
        key=lambda d: d["migration_id"],
    ):
        target = doc["target"]
        if target not in plane.shard_ids:
            continue
        server = _reference_server(plane.shard_cluster(target))
        utxos = server.database.collection("utxos")
        for row in doc.get("planned_refs") or []:
            ref = (row[0], row[1])
            if final_home.get(ref) == target:
                continue
            if utxos.find_one(
                {"transaction_id": ref[0], "output_index": ref[1]}, copy=False
            ) is not None:
                violations.append(
                    f"rolled-back migration {doc['migration_id']} left "
                    f"{ref[0][:8]}:{ref[1]} behind on target {target}"
                )
    return violations


#: Collection -> the fields one row is compared by in :func:`replay_determinism`.
REPLAY_KEYS = {
    "transactions": ("id",),
    "utxos": ("transaction_id", "output_index", "public_keys", "amount"),
    "blocks": ("height", "block_id", "transaction_ids"),
}


def replay_determinism(plane: FaultPlane) -> dict[str, dict[str, tuple[int, int]]]:
    """How far each live replica's state is from a pure replay of its chain.

    For every shard the reference replica's chain (the longest) is
    re-delivered, block by block, through a fresh volatile server
    (:meth:`~repro.core.cluster.SmartchainCluster.replay_server`) by
    :func:`~repro.consensus.abci.deliver_block` — the path the consensus
    engine drives, nothing else; the replay server knows only what every
    node knows (the shard it serves and every shard's validator keys, to
    check cross-shard evidence).  The in-memory chain carries no delivery
    time (a node's ``block`` frames do), so the replay judges every
    deadline at simulated time 0.  Each live replica is compared
    with the replay at its own chain height.  Returns ``{"shard/node":
    {collection: (missing, extra)}}``: rows the replay has and the
    replica lacks, and the reverse, compared by :data:`REPLAY_KEYS`.  An
    out-of-band write shows up here; a replica whose state is a function
    of its chain reads ``(0, 0)`` throughout (enforced by
    :func:`replay_divergence`).
    """

    def rows(database, name: str) -> set[tuple]:
        fields = REPLAY_KEYS[name]
        return {
            tuple(
                tuple(value) if isinstance(value, list) else value
                for value in (document.get(field) for field in fields)
            )
            for document in database.collection(name).find({}, copy=False)
        }

    report: dict[str, dict[str, tuple[int, int]]] = {}
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        engine = shard.engine
        reference = max(engine.validator_order, key=lambda n: len(engine.validator(n).chain))
        replay = shard.replay_server()
        live: dict[int, list[str]] = {}
        for node_id in engine.validator_order:
            if not shard.network.is_crashed(node_id):
                live.setdefault(len(engine.validator(node_id).chain), []).append(node_id)
        committed: set[str] = set()
        for height in range(len(engine.validator(reference).chain) + 1):
            if height:
                deliver_block(replay, engine.validator(reference).chain[height - 1], committed)
            if height not in live:
                continue
            expected = {name: rows(replay.database, name) for name in REPLAY_KEYS}
            for node_id in live[height]:
                database = shard.servers[node_id].database
                report[f"{shard_id}/{node_id}"] = {
                    name: (len(want - got), len(got - want))
                    for name, want in expected.items()
                    for got in (rows(database, name),)
                }
    return dict(sorted(report.items()))


def replay_divergence(plane: FaultPlane) -> list[str]:
    """:func:`replay_determinism` enforced: every cell reads ``(0, 0)``."""
    return [
        f"{replica}: state is not a replay of its chain "
        + " ".join(f"{name}={cells}" for name, cells in diff.items() if cells != (0, 0))
        for replica, diff in replay_determinism(plane).items()
        if any(cells != (0, 0) for cells in diff.values())
    ]


def nested_eventual_commit(plane: FaultPlane) -> list[str]:
    """Definition 2 at quiesce: every applied ACCEPT_BID whose receiver is
    up is fully committed in that receiver's recovery log, with exactly
    one applied RETURN per losing bid."""
    applied = applied_transactions(plane)
    returns: dict[str, list[str]] = {}
    for _, payload in applied.values():
        if payload.get("operation") == "RETURN":
            returns.setdefault(payload["references"][1], []).append(payload["references"][0])
    violations = []
    for tx_id, (shard_id, payload) in sorted(applied.items()):
        if payload.get("operation") != "ACCEPT_BID":
            continue
        shard = plane.shard_cluster(shard_id)
        nodes = shard.engine.validator_order
        receiver = next(n for n in nodes if shard.servers[n].nested.is_receiver(tx_id))
        record = shard.servers[receiver].nested.recovery.status(tx_id) or {"status": None}
        bids = sorted(child["bid_id"] for child in record.get("children", []))
        got = sorted(returns.get(tx_id, []))
        if (record["status"], got) != ("committed", bids) and not shard.network.is_crashed(receiver):
            violations.append(f"accept {tx_id[:8]} is not fully committed on its receiver "
                              f"{receiver}: {len(got)} RETURNs for {len(bids)} losing bids")
    return violations


def all_cross_settled(plane: FaultPlane) -> list[str]:
    """Every cross-shard submission has a final outcome at quiesce."""
    if not plane.sharded:
        return []
    violations = []
    for tx_id, record in sorted(plane.cluster.cross_records.items()):
        if record.committed_at is None and record.rejected is None:
            violations.append(f"cross-shard tx {tx_id[:8]} never settled")
    return violations


DEFAULT_INVARIANTS: list[Invariant] = [
    Invariant("no_double_spend", no_double_spend),
    # Full per-node chain re-reads: cadenced like the other chain
    # replayers (still runs unconditionally at quiesce).
    Invariant("chain_consistency", chain_consistency, every=5),
    Invariant("conservation", conservation),
    Invariant("replica_utxo_consistency", replica_utxo_consistency, every=5),
    Invariant("lock_outbox_consistency", lock_outbox_consistency, sharded_only=True),
    Invariant("metrics_consistency", metrics_consistency),
    Invariant("mempool_discipline", mempool_discipline, every=5),
    # Byzantine-fault family: safety under lying validators and forging
    # clients (ISSUE 6).  Divergence/rollback checks replay in-memory
    # chains, so they share the chain-replayers' cadence.
    Invariant("honest_no_divergence", honest_no_divergence, every=5),
    Invariant("no_forged_admission", no_forged_admission),
    Invariant("equivocation_contained", equivocation_contained, every=5),
    Invariant("no_stuck_locks", no_stuck_locks, scope="quiesce", sharded_only=True),
    Invariant("outbox_terminal", outbox_terminal, scope="quiesce", sharded_only=True),
    Invariant("all_cross_settled", all_cross_settled, scope="quiesce", sharded_only=True),
    # Elastic-resharding family (ISSUE 9): every migration terminal at
    # quiesce, and the journal's final-owner map matches the physical
    # UTXO placement exactly — nothing lost, nothing duplicated.
    Invariant("migration_terminal", migration_terminal, scope="quiesce", sharded_only=True),
    Invariant("no_key_lost", no_key_lost, scope="quiesce", sharded_only=True),
    Invariant("no_key_duplicated", no_key_duplicated, scope="quiesce", sharded_only=True),
    # Disk == memory for every durable node/agent (skips volatile runs).
    Invariant("wal_prefix_durability", wal_prefix_durability, scope="quiesce"),
    # Incremental views == from-scratch recomputation.
    Invariant("mv_consistency", mv_consistency, scope="quiesce"),
    # Full walks over the live views: the chain replayers' cadence.
    Invariant("custody_memo", custody_memo, every=5),
    # Every live replica == a fresh replay of its chain: cross-shard
    # state moves only through certified chain entries.
    Invariant("replay_determinism", replay_divergence, every=25),
    Invariant("nested_eventual_commit", nested_eventual_commit, scope="quiesce"),
]


@dataclass
class InvariantChecker:
    """Runs the applicable registry slice and accumulates verdicts."""

    plane: FaultPlane
    invariants: list[Invariant] = field(default_factory=lambda: list(DEFAULT_INVARIANTS))
    checks_run: dict[str, int] = field(default_factory=dict)

    def register(self, invariant: Invariant) -> None:
        self.invariants.append(invariant)

    def applicable(self, scope: str) -> list[Invariant]:
        return [
            invariant
            for invariant in self.invariants
            if invariant.scope == scope and (self.plane.sharded or not invariant.sharded_only)
        ]

    def check_step(self, step: int) -> list[Violation]:
        """Run due per-step invariants; returns any violations."""
        violations: list[Violation] = []
        for invariant in self.applicable("step"):
            if step % invariant.every != 0:
                continue
            self.checks_run[invariant.name] = self.checks_run.get(invariant.name, 0) + 1
            for detail in invariant.fn(self.plane):
                violations.append(
                    Violation(invariant.name, detail, step, self.plane.now)
                )
        return violations

    def check_quiesce(self, step: int) -> list[Violation]:
        """Run everything — per-step *and* quiesce-only — after repair."""
        violations: list[Violation] = []
        for scope in ("step", "quiesce"):
            for invariant in self.applicable(scope):
                self.checks_run[invariant.name] = self.checks_run.get(invariant.name, 0) + 1
                for detail in invariant.fn(self.plane):
                    violations.append(
                        Violation(invariant.name, detail, step, self.plane.now)
                    )
        return violations
