"""Global invariants over a (possibly sharded) deployment.

Each invariant reads cluster state — node databases, chains, 2PC
lock/outbox tables, facade records — and returns a list of violation
strings.  Per-``step`` invariants hold in *every* reachable state,
including mid-crash and mid-partition; ``quiesce`` invariants hold only
once everything is healed and the loop has drained (no stuck locks,
every submission settled).

One oracle is kept state, not a pure read: each shard's
:class:`ChainReplay`, held on the plane and extended as its reference
chain grows, so each committed block is delivered into it once per run.
It owns "replica state is a function of the chain":
:func:`replica_utxo_consistency` compares every live replica with it at
the replica's height (per-height agreement included), and the shard's
committed history — :func:`applied_transactions`, :func:`mv_consistency`'s
rebuild, the migration sweeps — is read from it, never from a chosen
replica.  :func:`wal_prefix_durability` owns "disk equals memory" (every
collection, field and the lock); the byzantine family owns f<n/3 safety.

The registry is the Jepsen-style half of the harness: schedules make
histories, these make verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.abci import deliver_block
from repro.core.entries import SHARD_EXPORT, SHARD_IMPORT, is_entry, refs_of
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


# -- the chain replay -------------------------------------------------------------

#: Collection -> the fields one row is compared by in the replay comparison.
REPLAY_KEYS = {
    "transactions": ("id",),
    "utxos": ("transaction_id", "output_index", "public_keys", "amount"),
    "blocks": ("height", "block_id", "transaction_ids"),
}


def _frozen(value: Any) -> Any:
    return tuple(value) if type(value) is list else value


def _row(document: dict[str, Any], name: str) -> tuple:
    return tuple(map(_frozen, map(document.get, REPLAY_KEYS[name])))


def _rows(documents, name: str) -> set[tuple]:
    return {_row(document, name) for document in documents}


class ChainReplay:
    """One shard's committed chain, delivered once into a volatile server.

    The reference chain is the longest in-memory chain of the shard's
    validators (ties: validator order; a crashed node's chain counts).
    :meth:`extend` delivers only the blocks it gained since the last
    call, through :func:`~repro.consensus.abci.deliver_block` on
    :meth:`~repro.core.cluster.SmartchainCluster.replay_server` — the
    path the consensus engine drives, nothing else.  The in-memory chain
    carries no delivery time, so every deadline is judged at simulated
    time 0.  Per height it keeps the :data:`REPLAY_KEYS` rows the block
    added and removed, read from each collection's change set
    (:meth:`~repro.storage.collection.Collection.take_changes`), which
    the replay database keeps because it is durable: any lower height's
    state is the tip's with the deltas above it rewound.
    """

    def __init__(self, shard_id: str, shard):
        self.shard = shard
        self.shard_id = shard_id
        self.server = shard.replay_server()
        self.database = self.server.database
        self.database.make_durable()
        self._committed: set[str] = set()
        self.block_ids: list[str] = []
        #: tx id -> (shard id, stored payload) of every delivered transaction.
        self.applied: dict[str, tuple[str, dict[str, Any]]] = {}
        #: Collection -> rows at the tip, by internal document id.
        self.rows: dict[str, dict[int, tuple]] = {name: {} for name in REPLAY_KEYS}
        #: ``deltas[h - 1]``: collection -> (rows added, rows removed) at height ``h``.
        self.deltas: list[dict[str, tuple[set[tuple], set[tuple]]]] = []
        #: Why the replay stopped: the reference chain no longer extends
        #: the replayed prefix.
        self.broken: str | None = None

    def extend(self) -> None:
        """Deliver what the reference chain gained since the last call."""
        engine = self.shard.engine
        chain = max((engine.validator(n).chain for n in engine.validator_order), key=len)
        height = len(self.block_ids)
        # A block id hashes its parent's, so the tip id vouches for the prefix.
        if self.broken is None and height and (
            len(chain) < height or chain[height - 1].block_id != self.block_ids[-1]
        ):
            self.broken = f"reference chain no longer extends the {height} replayed blocks"
        if self.broken is not None:
            return
        transactions = self.database.collection("transactions")
        for block in chain[height:]:
            for envelope in deliver_block(self.server, block, self._committed):
                payload = transactions.find_one({"id": envelope.tx_id}, copy=False)
                if payload is not None:
                    self.applied[envelope.tx_id] = (self.shard_id, payload)
            self.block_ids.append(block.block_id)
            self.deltas.append({name: self._advance(name) for name in REPLAY_KEYS})

    def _advance(self, name: str) -> tuple[set[tuple], set[tuple]]:
        """Move collection ``name``'s tip past the block just delivered, at
        a cost proportional to its writes: a changed document's old row
        leaves and its new row joins, a gone one's row leaves.  Returns
        the rows added and removed."""
        tip, collection = self.rows[name], self.database.collection(name)
        changed, gone = collection.take_changes()
        removed = {tip.pop(doc_id) for doc_id in gone}
        added = set()
        for doc_id in changed:
            if doc_id in tip:
                removed.add(tip[doc_id])
            tip[doc_id] = row = _row(collection.document(doc_id), name)
            added.add(row)
        return added - removed, removed - added

    def states(self, heights):
        """``(height, rows)`` for each of ``heights`` (at most the tip),
        highest first.  ``rows`` is rewound in place for the next one."""
        rows = {name: set(tip.values()) for name, tip in self.rows.items()}
        height = len(self.deltas)
        for target in sorted(heights, reverse=True):
            while height > target:
                height -= 1
                for name, (added, removed) in self.deltas[height].items():
                    rows[name] -= added
                    rows[name] |= removed
            yield target, rows


def chain_replay(plane: FaultPlane, shard_id: str) -> ChainReplay:
    """``shard_id``'s replay, kept on the plane and extended to its reference chain."""
    replay = plane.replays.get(shard_id)
    if replay is None:
        replay = plane.replays[shard_id] = ChainReplay(shard_id, plane.shard_cluster(shard_id))
    replay.extend()
    return replay


def applied_transactions(plane: FaultPlane) -> dict[str, tuple[str, dict[str, Any]]]:
    """tx_id -> (shard_id, payload) over every shard's applied history:
    what the committed blocks of its chain replay delivered — not facade
    records (which include rejections) nor the ``transactions`` collection
    (which also holds cross-shard reference imports)."""
    out: dict[str, tuple[str, dict[str, Any]]] = {}
    for shard_id in plane.shard_ids:
        out.update(chain_replay(plane, shard_id).applied)
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


def _utxo_live(plane: FaultPlane, shard_id: str, ref: tuple[str, int]) -> bool:
    """Does ``ref`` sit in ``shard_id``'s UTXO set, as its chain replay has it?"""
    utxos = chain_replay(plane, shard_id).database.collection("utxos")
    query = {"transaction_id": ref[0], "output_index": ref[1]}
    return utxos.find_one(query, copy=False) is not None


def _cutovers(plane: FaultPlane):
    """The cutover entries the shards' chain replays applied: export id ->
    every ``SHARD_EXPORT`` (an export lands only on the source it names),
    ``(shard, entry)`` for every ``SHARD_IMPORT``, and ref -> the shard
    the exports finally home it on.

    The last export of a ref in migration-id order homes it: a ref joins
    a second migration only after the first one's export landed, and a
    controller numbers a migration past every id it holds (a restart takes
    back every landed or pooled export), so id order subsumes causal order."""
    exports: dict[str, dict[str, Any]] = {}
    imports: list[tuple[str, dict[str, Any]]] = []
    for tx_id, (shard_id, payload) in sorted(applied_transactions(plane).items()):
        if payload.get("operation") == SHARD_EXPORT:
            exports[tx_id] = payload
        elif payload.get("operation") == SHARD_IMPORT:
            imports.append((shard_id, payload))
    ordered = sorted(exports.values(), key=lambda export: export["migration"])
    home = {ref: export["target"] for export in ordered for ref in refs_of(export)}
    return exports, imports, home


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
    """Per shard: every node's stored chain is height-contiguous.  (That
    the nodes agree at every height is the ``blocks`` half of
    :func:`replica_utxo_consistency`.)"""
    violations = []
    for shard_id in plane.shard_ids:
        shard = plane.shard_cluster(shard_id)
        for node_id in shard.engine.validator_order:
            blocks = shard.servers[node_id].database.collection("blocks").find({}, copy=False)
            heights = sorted(block["height"] for block in blocks)
            if heights != list(range(1, len(heights) + 1)):
                violations.append(
                    f"{shard_id}/{node_id}: non-contiguous heights {heights[:6]}..."
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


def replay_determinism(plane: FaultPlane) -> dict[str, dict[str, tuple[int, int]]]:
    """How far each live replica's state is from :func:`chain_replay` at
    the replica's own chain height: ``{"shard/node": {collection:
    (missing, extra)}}``, rows the replay has and the replica lacks and
    the reverse, compared by :data:`REPLAY_KEYS`.  An out-of-band write
    shows up here; a replica whose state is a function of its chain reads
    ``(0, 0)`` throughout.  A shard whose replay is broken has no rows.
    """
    report: dict[str, dict[str, tuple[int, int]]] = {}
    for shard_id in plane.shard_ids:
        replay = chain_replay(plane, shard_id)
        if replay.broken:
            continue
        shard = replay.shard
        live: dict[int, list[str]] = {}
        for node_id in shard.engine.validator_order:
            if not shard.network.is_crashed(node_id):
                live.setdefault(len(shard.engine.validator(node_id).chain), []).append(node_id)
        for height, expected in replay.states(live):
            for node_id in live[height]:
                database = shard.servers[node_id].database
                report[f"{shard_id}/{node_id}"] = {
                    name: (len(want - got), len(got - want))
                    for name, want in expected.items()
                    for got in (_rows(database.collection(name).find({}, copy=False), name),)
                }
    return dict(sorted(report.items()))


def replica_utxo_consistency(plane: FaultPlane) -> list[str]:
    """Every live replica's ``transactions``, ``utxos`` and ``blocks``
    equal its shard's chain replay at the replica's height
    (:func:`replay_determinism` reads ``(0, 0)`` everywhere), and each
    shard's reference chain still extends what was replayed.  Agreement
    on the ``blocks`` rows is per-height chain agreement, block ids and
    delivered transactions alike (``deliver_tx`` divergence hides behind
    identical block ids, which are fixed at proposal time)."""
    violations = []
    for shard_id in plane.shard_ids:
        broken = chain_replay(plane, shard_id).broken
        if broken:
            violations.append(f"{shard_id}: {broken}")
    for replica, diff in replay_determinism(plane).items():
        if any(cells != (0, 0) for cells in diff.values()):
            violations.append(
                f"{replica}: state is not a replay of its chain "
                + " ".join(f"{name}={cells}" for name, cells in diff.items() if cells != (0, 0))
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
    """No transaction id is committed on two shards' records — the
    per-shard metrics would count it twice."""
    homes: dict[str, list[str]] = {}
    for shard_id, shard in sorted(plane.cluster.shards.items()):
        for tx_id, record in shard.records.items():
            if record.committed_at is not None:
                homes.setdefault(tx_id, []).append(shard_id)
    return [
        f"tx {tx_id[:8]} committed on {len(shards)} shards: " + ",".join(shards)
        for tx_id, shards in sorted(homes.items())
        if len(shards) > 1
    ]


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
            blocks = shard.servers[node_id].database.collection("blocks").find({}, copy=False)
            pooled = set(mempool.pending_ids())
            resident = {tx for block in blocks for tx in block["transaction_ids"] if tx in pooled}
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
    (and the identity-guarded validation memo in front of it) must reject
    every one of them before a block carries it."""
    applied = applied_transactions(plane) if plane.forged_tx_ids else {}
    return [
        f"forged-signature tx {tx_id[:8]} applied on {applied[tx_id][0]}"
        for tx_id in sorted(plane.forged_tx_ids & set(applied))
    ]


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
    return [
        f"{shard_id}: outbox record {doc['tx_id'][:8]} parked in state={doc['state']}"
        for shard_id, agent in sorted(plane.agents.items())
        for doc in agent.unfinished()
    ]


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
    return violations


def mv_consistency(plane: FaultPlane) -> list[str]:
    """Every materialized view equals a from-scratch recomputation.

    Rebuilds a fresh :class:`~repro.views.manager.ViewManager` from each
    shard's :func:`chain_replay` and compares canonical snapshots against
    the live, incrementally-maintained manager.  The oracle reads the
    replay's ``blocks`` and ``transactions`` collections — what each
    block *delivered*, a source independent of the commit records
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
        replay = chain_replay(plane, shard_id)
        transactions = replay.database.collection("transactions")
        for document in replay.database.collection("blocks").find({}, copy=False):
            entries = [
                (tx_id, transactions.find_one({"id": tx_id}, copy=False))
                for tx_id in document["transaction_ids"]
            ]
            rebuilt.apply_block_record(
                replay.shard.view_shard_key, document["height"], entries
            )
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
    """After repair + drain, every migration the controller holds reached
    a terminal phase — ``done`` (cutover rolled forward) or
    ``rolled_back`` (presumed abort) — and every export a chain delivered
    has its import delivered.  A migration parked anywhere else, or an
    export nobody imported, means recovery lost track of it: its fence
    would block the moving keys forever, or its keys would be gone."""
    violations = [
        f"migration {m.migration_id} ({m.source}->{m.target}) parked in phase={m.phase}"
        for _, m in sorted(plane.migrator.migrations.items())
        if not m.terminal
    ]
    exports, imports, _ = _cutovers(plane)
    imported = {entry["export"]["id"] for _, entry in imports}
    for export_id, export in sorted(exports.items()):
        if export_id not in imported:
            violations.append(
                f"export of migration {export['migration']} landed on "
                f"{export['source']} but no import of it landed"
            )
    return violations


def no_key_lost(plane: FaultPlane) -> list[str]:
    """Every output a landed export moved is either committed-spent
    somewhere or present in its final owner's UTXO set.

    The lost-key failure this catches: a cutover that deleted the source
    copy but (crash, forgotten export, skipped import) never materialized
    the target copy — the owner would reject every spend of a live
    output."""
    spent: set[tuple[str, int]] = set()
    for _tx_id, (_shard, payload) in applied_transactions(plane).items():
        spent.update(_spent_refs(payload))
    _, _, home = _cutovers(plane)
    violations = []
    for (tx_id, index), owner in sorted(home.items()):
        if (tx_id, index) in spent or owner not in plane.shard_ids:
            continue
        if not _utxo_live(plane, owner, (tx_id, index)):
            violations.append(
                f"migrated output {tx_id[:8]}:{index} lost — unspent but "
                f"absent from final owner {owner}"
            )
    return violations


def no_key_duplicated(plane: FaultPlane) -> list[str]:
    """No migrated output is spendable on two shards, or on any shard
    but its final owner, and nothing reaches a shard but through an
    import of a landed export that names that shard.

    The double-spend enabler this catches: an import that materialized
    the target copy while the source kept its own — both shards would
    accept a spend of the same output."""
    violations = []
    exports, imports, home = _cutovers(plane)
    for (tx_id, index), owner in sorted(home.items()):
        holders = [s for s in plane.shard_ids if _utxo_live(plane, s, (tx_id, index))]
        if len(holders) > 1:
            violations.append(
                f"migrated output {tx_id[:8]}:{index} live on multiple "
                "shards: " + ",".join(holders)
            )
        elif holders and holders[0] != owner:
            violations.append(
                f"migrated output {tx_id[:8]}:{index} lives on {holders[0]} "
                f"but its export homes it on {owner}"
            )
    # Presumed abort leaves no residue: a migration whose export never
    # landed put nothing on its target, and an import mints only what a
    # landed export let go, on the shard that export names.
    for shard_id, entry in imports:
        export = entry["export"]
        if export["id"] not in exports:
            violations.append(
                f"import of migration {export['migration']} on {shard_id} "
                f"carries an export that {export['source']} never delivered"
            )
        elif export["target"] != shard_id:
            violations.append(
                f"import of migration {export['migration']} landed on {shard_id} "
                f"but its export names {export['target']}"
            )
    return violations


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


def pools_valid(plane: FaultPlane) -> list[str]:
    """Every live validator's pool is empty or passes its own CheckTx: a
    pooled transaction the chain or a 2PC abort has made invalid must
    have left the pool, or its proposer re-proposes it every few rounds
    and the shard never goes idle (elastic seed 24)."""
    return [
        f"{shard_id}/{node_id}: pooled tx {envelope.tx_id[:8]} fails its CheckTx"
        for shard_id in plane.shard_ids
        for node_id, validator in plane.shard_cluster(shard_id).engine.validators.items()
        if node_id not in plane.crashed_nodes(shard_id)
        for envelope in validator.mempool.pending_envelopes()
        if not validator.app.check_tx(envelope)
    ]


def all_settled(plane: FaultPlane) -> list[str]:
    """Every submission has an outcome at quiesce: committed, or rejected
    with a reason its client heard — one a block check dropped from the
    last pool that held it, or a crash took with its only pool, too (the
    driver re-triggers it).  That holds for each shard's records and for
    a sharded facade's cross-shard records alike."""
    records = [(shard_id, plane.shard_cluster(shard_id).records) for shard_id in plane.shard_ids]
    if plane.sharded:
        records.append(("cross-shard", plane.cluster.cross_records))
    return [
        f"{where}: tx {tx_id[:8]} has no outcome"
        for where, by_id in records
        for tx_id, record in sorted(by_id.items())
        if record.committed_at is None and record.rejected is None
    ]


DEFAULT_INVARIANTS: list[Invariant] = [
    Invariant("no_double_spend", no_double_spend),
    # Full per-node chain re-reads: cadenced like the replay comparison
    # (still runs unconditionally at quiesce).
    Invariant("chain_consistency", chain_consistency, every=5),
    Invariant("conservation", conservation),
    # Every live replica == its shard's chain replay at its height:
    # cross-shard state moves only through certified chain entries.
    Invariant("replica_utxo_consistency", replica_utxo_consistency, every=5),
    Invariant("lock_outbox_consistency", lock_outbox_consistency, sharded_only=True),
    Invariant("metrics_consistency", metrics_consistency, sharded_only=True),
    Invariant("mempool_discipline", mempool_discipline, every=5),
    # Byzantine-fault family: safety under lying validators and forging
    # clients.  Divergence/rollback checks walk in-memory
    # chains, so they share the chain readers' cadence.
    Invariant("honest_no_divergence", honest_no_divergence, every=5),
    Invariant("no_forged_admission", no_forged_admission),
    Invariant("equivocation_contained", equivocation_contained, every=5),
    Invariant("no_stuck_locks", no_stuck_locks, scope="quiesce", sharded_only=True),
    Invariant("outbox_terminal", outbox_terminal, scope="quiesce", sharded_only=True),
    # Elastic-resharding family (ISSUE 9): every migration terminal and
    # every landed export imported at quiesce, and the exports'
    # final-owner map matches the physical UTXO placement exactly —
    # nothing lost, nothing duplicated.
    Invariant("migration_terminal", migration_terminal, scope="quiesce", sharded_only=True),
    Invariant("no_key_lost", no_key_lost, scope="quiesce", sharded_only=True),
    Invariant("no_key_duplicated", no_key_duplicated, scope="quiesce", sharded_only=True),
    # Disk == memory for every durable node/agent (skips volatile runs).
    Invariant("wal_prefix_durability", wal_prefix_durability, scope="quiesce"),
    # Incremental views == from-scratch recomputation.
    Invariant("mv_consistency", mv_consistency, scope="quiesce"),
    # Full walks over the live views: the chain readers' cadence.
    Invariant("custody_memo", custody_memo, every=5),
    Invariant("nested_eventual_commit", nested_eventual_commit, scope="quiesce"),
    Invariant("pools_valid", pools_valid, scope="quiesce"),
    Invariant("all_settled", all_settled, scope="quiesce"),
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

    def _run(self, invariants: list[Invariant], step: int) -> list[Violation]:
        violations: list[Violation] = []
        for invariant in invariants:
            self.checks_run[invariant.name] = self.checks_run.get(invariant.name, 0) + 1
            for detail in invariant.fn(self.plane):
                violations.append(Violation(invariant.name, detail, step, self.plane.now))
        return violations

    def check_step(self, step: int) -> list[Violation]:
        """Run due per-step invariants; returns any violations."""
        due = [i for i in self.applicable("step") if step % i.every == 0]
        return self._run(due, step)

    def check_quiesce(self, step: int) -> list[Violation]:
        """Run everything — per-step *and* quiesce-only — after repair."""
        return self._run(self.applicable("step") + self.applicable("quiesce"), step)
