"""Discrete-event loop.

Events are ``(time, priority, sequence, event)`` tuples in a heap.  The
loop pops the earliest event, advances the shared :class:`SimClock` to
its timestamp, and runs the callback — which may schedule further events.
Ties break by insertion order so runs are fully deterministic: the
sequence number is unique, so tuple comparison — done in C by ``heapq``
— is decided before it would reach the event object.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.sim.clock import SimClock


class _Event:
    """What a heap entry carries besides its sort key."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], Any]):
        self.time = time
        self.callback = callback
        self.cancelled = False


class EventHandle:
    """Opaque handle allowing a scheduled event to be cancelled."""

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class EventLoop:
    """Deterministic discrete-event scheduler over a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock or SimClock()
        self._heap: list[tuple[float, int, int, _Event]] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of scheduled, uncancelled events."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def schedule_at(self, timestamp: float, callback: Callable[[], Any], priority: int = 0) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time.

        Raises:
            ValueError: if the timestamp is in the simulated past.
        """
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule at {timestamp} before now ({self.clock.now})"
            )
        event = _Event(timestamp, callback)
        heapq.heappush(self._heap, (timestamp, priority, next(self._sequence), event))
        return EventHandle(event)

    def schedule_in(self, delay: float, callback: Callable[[], Any], priority: int = 0) -> EventHandle:
        """Schedule ``callback`` after a relative delay (>= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.clock.now + delay, callback, priority)

    def step(self) -> bool:
        """Run the single earliest event; returns False if none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue.

        Args:
            until: stop once the next event would run after this time
                (the clock is advanced to ``until``).
            max_events: safety valve against runaway feedback loops.

        Returns:
            Number of events executed by this call.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            upcoming = self._heap[0][3]
            if upcoming.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and upcoming.time > until:
                break
            self.step()
            executed += 1
        if until is not None:
            self.clock.advance_to(until)
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        return self.run(max_events=max_events)
