"""Group commit: many journal appends, one flush, one fsync.

The same amortize-per-record-into-per-batch playbook the validation
pipeline used for signatures (PR 4), applied to durability: every
journal record produced inside one event-loop tick — a whole block's
storage mutations, a 2PC decision's lock updates — rides a single WAL
flush and a single backend sync, instead of paying a sync per record
(the naive write-through that the durability benchmark shows is >3x
slower even on an in-memory device, and orders of magnitude slower on a
real disk).

Timing comes **only** from the injected event loop: the first append of
a batch schedules one flush callback ``flush_interval`` simulated
seconds ahead (0.0 = once the current event cascade drains), bounded by
``max_latency`` — the configurable ceiling on how long a record may sit
volatile.  No wall clock, no threads, no background daemons: the flush
is an ordinary deterministic event, which is what lets the chaos plane
power-fail the device *between* an append and its flush and exercise
every torn-write interleaving reproducibly.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.durability.wal import SegmentedWal
from repro.sim.events import EventHandle, EventLoop

#: Callback fired once a record's frame is durably synced.
DurableCallback = Callable[[int], None]


class GroupCommitLog:
    """Batching front-end over a :class:`~repro.durability.wal.SegmentedWal`.

    Args:
        wal: the segmented log to flush into.
        loop: the deployment's event loop (all flush timing lives here).
        flush_interval: simulated seconds between a batch opening and its
            flush; 0.0 flushes once the current cascade finishes.
        max_latency: upper bound on ``flush_interval`` — the durability
            guarantee a caller can rely on ("an acknowledged record is
            on disk within ``max_latency`` simulated seconds").
    """

    def __init__(
        self,
        wal: SegmentedWal,
        loop: EventLoop,
        flush_interval: float = 0.0,
        max_latency: float = 0.002,
    ):
        self.wal = wal
        self._loop = loop
        self.flush_interval = min(flush_interval, max_latency)
        self.max_latency = max_latency
        #: (record, durable callback, pre-encoded record body or None).
        self._queue: list[
            tuple[dict[str, Any], DurableCallback | None, bytes | None]
        ] = []
        self._flush_handle: EventHandle | None = None
        #: Hook run after every flush (the snapshot cadence check).
        self.after_flush: Callable[[], None] | None = None
        self.stats = {"appends": 0, "flushes": 0, "flushed_records": 0}
        #: Optional :class:`~repro.telemetry.Telemetry` (set by the cluster).
        self.telemetry = None
        self.telemetry_label = ""
        self._batch_opened_at: float | None = None
        self._tel_handles: tuple | None = None

    def _instruments(self, tel) -> tuple:
        """(batch histogram, sync-wait histogram), resolved once — the
        registry lookup is too heavy to repeat on every flush."""
        handles = self._tel_handles
        if handles is None or handles[0] is not tel or handles[1] != self.telemetry_label:
            label = self.telemetry_label
            handles = (
                tel,
                label,
                tel.histogram("wal_batch_records", node=label),
                tel.histogram("wal_sync_wait_ms", node=label),
            )
            self._tel_handles = handles
        return handles

    @property
    def pending(self) -> int:
        """Records appended but not yet flushed to the WAL."""
        return len(self._queue)

    def append(
        self,
        record: dict[str, Any],
        on_durable: DurableCallback | None = None,
        body: bytes | None = None,
    ) -> None:
        """Queue ``record`` for the tick's group flush (``body`` as in
        :meth:`SegmentedWal.append`)."""
        self._queue.append((record, on_durable, body))
        self.stats["appends"] += 1
        if self._flush_handle is None or self._flush_handle.cancelled:
            self._batch_opened_at = self._loop.clock.now
            self._flush_handle = self._loop.schedule_in(
                self.flush_interval, self._flush
            )

    def _flush(self) -> None:
        self._flush_handle = None
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        last_lsn = 0
        for record, _, body in batch:
            last_lsn = self.wal.append(record, body)
        self.wal.sync()
        self.stats["flushes"] += 1
        self.stats["flushed_records"] += len(batch)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            handles = self._instruments(tel)
            handles[2].observe(len(batch))
            if self._batch_opened_at is not None:
                handles[3].observe(
                    (self._loop.clock.now - self._batch_opened_at) * 1000.0
                )
            # Sampled transactions get a WAL-sync lifecycle event when
            # their block's body reaches the device (in its ``lock``
            # frame, or its ``block`` frame if it was never locked here):
            # sampled() is an O(1) membership probe, so unsampled runs pay
            # one dict miss per journaled body.  With no live traces the
            # scan is skipped entirely.
            tracer = tel.tracer
            if tracer.started:
                for record, _, _ in batch:
                    if "b" in record:
                        for tx in record["b"]["txs"]:
                            if tracer.sampled(tx[0]):
                                tracer.event(
                                    tx[0],
                                    "wal_group_commit",
                                    node=self.telemetry_label,
                                    batch=len(batch),
                                )
        self._batch_opened_at = None
        for _, on_durable, _ in batch:
            if on_durable is not None:
                on_durable(last_lsn)
        if self.after_flush is not None:
            self.after_flush()

    def flush_now(self) -> None:
        """Synchronously flush whatever is queued (snapshots, shutdown)."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._flush()

    def drop_queue(self) -> None:
        """Crash path: queued-but-unflushed records die with the process."""
        self._queue.clear()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
