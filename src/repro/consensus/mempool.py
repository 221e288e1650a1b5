"""Per-node mempool: admission, dedup, and block reaping."""

from __future__ import annotations

from collections import OrderedDict

from repro.common.errors import MempoolFullError
from repro.consensus.types import TxEnvelope
from repro.telemetry import INERT


class Mempool:
    """FIFO transaction pool with id-dedup and weight-bounded reaping.

    Args:
        capacity: maximum resident transactions; beyond it, adds raise
            :class:`MempoolFullError` (clients are expected to retry).
        seen_capacity: bound on the reaped-id dedup memory (defaults to
            4x ``capacity``).  The memory used to grow without bound for
            the life of the node; it is now a FIFO window — old enough
            ids fall out, which is safe because the consensus layer keeps
            its own committed-id set and re-gossip of long-committed
            transactions dies there.  Within the window, a reaped or
            committed transaction still cannot re-enter the pool.
    """

    def __init__(self, capacity: int = 100_000, seen_capacity: int | None = None):
        self.capacity = capacity
        self.seen_capacity = seen_capacity if seen_capacity is not None else 4 * capacity
        if self.seen_capacity < 1:
            raise ValueError("seen_capacity must be >= 1")
        self._pool: "OrderedDict[str, TxEnvelope]" = OrderedDict()
        #: Reaped/committed ids only (pooled ids are their own dedup via
        #: ``_pool``); insertion-ordered so eviction drops the oldest.
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self.stats = {"added": 0, "duplicates": 0, "rejected_full": 0, "reaped": 0}
        #: The deployment's :class:`~repro.telemetry.Telemetry` (set by
        #: the cluster; a bare pool records into the inert one).
        self.telemetry = INERT
        self.telemetry_label = ""
        self._tel_handles: tuple | None = None

    def _instruments(self, tel) -> tuple:
        """(depth gauge, dedup counter, reap histogram), resolved once —
        the registry lookup is label-tuple hashing, far too heavy for the
        per-add path."""
        handles = self._tel_handles
        if handles is None or handles[0] is not tel or handles[1] != self.telemetry_label:
            label = self.telemetry_label
            handles = (
                tel,
                label,
                tel.gauge("mempool_depth", node=label),
                tel.counter("mempool_dedup_hits", node=label),
                tel.histogram("mempool_reap_batch", node=label),
            )
            self._tel_handles = handles
        return handles

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pool

    def seen_size(self) -> int:
        """Resident dedup-memory entries (bounded by ``seen_capacity``)."""
        return len(self._seen)

    def _remember(self, tx_ids) -> None:
        """Record reaped/committed ids, then trim the window once for the
        whole batch (ids arrive a block at a time)."""
        seen = self._seen
        for tx_id in tx_ids:
            seen[tx_id] = None
            seen.move_to_end(tx_id)
        while len(seen) > self.seen_capacity:
            seen.popitem(last=False)

    def add(self, envelope: TxEnvelope) -> bool:
        """Admit an envelope.

        Returns False for duplicates (already pooled *or* already reaped —
        a committed transaction must not re-enter).

        Raises:
            MempoolFullError: at capacity.
        """
        tel = self.telemetry
        if envelope.tx_id in self._pool or envelope.tx_id in self._seen:
            self.stats["duplicates"] += 1
            self._instruments(tel)[3].inc()
            return False
        if len(self._pool) >= self.capacity:
            self.stats["rejected_full"] += 1
            raise MempoolFullError(f"mempool at capacity ({self.capacity})")
        self._pool[envelope.tx_id] = envelope
        self.stats["added"] += 1
        self._instruments(tel)[2].set(len(self._pool))
        if envelope.trace_flags & 1:
            tel.tracer.event(envelope.tx_id, "mempool_admit", node=self.telemetry_label)
        return True

    def reap(self, max_txs: int | None = None, max_weight: int | None = None) -> list[TxEnvelope]:
        """Remove and return transactions for a block proposal.

        FIFO order; stops at ``max_txs`` count or before ``max_weight``
        total weight would be exceeded.  A single transaction heavier than
        ``max_weight`` is skipped (left pooled) rather than blocking the
        queue — mirroring a block gas limit.
        """
        # The head pop is a single C-level ``popitem(last=False)``; the
        # previous implementation materialised a fresh ``items()`` view
        # iterator and re-hashed the head id per reaped transaction.  The
        # dedup-window bookkeeping moved out of the loop: ids are recorded
        # in one pass and the window trimmed once per reap, not per tx.
        batch: list[TxEnvelope] = []
        weight = 0
        skipped: list[TxEnvelope] = []
        pool = self._pool
        while pool:
            if max_txs is not None and len(batch) >= max_txs:
                break
            tx_id, envelope = pool.popitem(last=False)
            if max_weight is not None and weight + envelope.weight > max_weight:
                if envelope.weight > max_weight:
                    # Individually oversized: set aside so the rest can flow.
                    skipped.append(envelope)
                    continue
                # Doesn't fit this block: back to the head, stop reaping.
                pool[tx_id] = envelope
                pool.move_to_end(tx_id, last=False)
                break
            batch.append(envelope)
            weight += envelope.weight
        for envelope in skipped:
            pool[envelope.tx_id] = envelope
        self._remember(envelope.tx_id for envelope in batch)
        self.stats["reaped"] += len(batch)
        if batch:
            handles = self._instruments(self.telemetry)
            handles[2].set(len(pool))
            handles[4].observe(len(batch))
        return batch

    def peek(
        self,
        max_txs: int | None = None,
        max_weight: int | None = None,
        exclude: set[str] | None = None,
    ) -> list[TxEnvelope]:
        """Like :meth:`reap` but non-destructive.

        Proposal assembly uses this so that a proposal losing a round-skip
        race does not strand its transactions: they stay pooled until a
        block containing them actually commits (:meth:`remove`).
        """
        exclude = exclude or set()
        batch: list[TxEnvelope] = []
        weight = 0
        for tx_id, envelope in self._pool.items():
            if tx_id in exclude:
                continue
            if max_txs is not None and len(batch) >= max_txs:
                break
            if max_weight is not None and weight + envelope.weight > max_weight:
                if envelope.weight > max_weight:
                    continue  # individually oversized: unschedulable, skip
                break
            batch.append(envelope)
            weight += envelope.weight
        return batch

    def remove(self, tx_ids: list[str]) -> None:
        """Drop transactions that were committed via another node's block."""
        for tx_id in tx_ids:
            self._pool.pop(tx_id, None)
        self._remember(tx_ids)

    def flush_volatile(self) -> None:
        """Simulate a crash: resident transactions are lost, dedup memory
        (backed by the chain itself) survives for reaped/committed ids —
        pending ids were never in it, so clearing the pool is the loss."""
        self._pool.clear()

    def pending_ids(self) -> list[str]:
        return list(self._pool)

    def pending_envelopes(self) -> list[TxEnvelope]:
        """Resident (admitted, uncommitted) envelopes in FIFO order."""
        return list(self._pool.values())
