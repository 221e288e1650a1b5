"""Simulated clock and discrete-event loop."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5)
        assert clock.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to_never_rewinds(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0
        clock.advance_to(12.0)
        assert clock.now == 12.0


class TestEventLoop:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_in(2.0, lambda: order.append("late"))
        loop.schedule_in(1.0, lambda: order.append("early"))
        loop.run_until_idle()
        assert order == ["early", "late"]

    def test_ties_break_by_insertion(self):
        loop = EventLoop()
        order = []
        loop.schedule_in(1.0, lambda: order.append("first"))
        loop.schedule_in(1.0, lambda: order.append("second"))
        loop.run_until_idle()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_in(3.5, lambda: seen.append(loop.clock.now))
        loop.run_until_idle()
        assert seen == [3.5]
        assert loop.clock.now == 3.5

    def test_callbacks_can_schedule_more(self):
        loop = EventLoop()
        hits = []

        def recurse(depth):
            hits.append(depth)
            if depth < 3:
                loop.schedule_in(1.0, lambda: recurse(depth + 1))

        loop.schedule_in(0.0, lambda: recurse(0))
        loop.run_until_idle()
        assert hits == [0, 1, 2, 3]

    def test_cancel(self):
        loop = EventLoop()
        hits = []
        handle = loop.schedule_in(1.0, lambda: hits.append(1))
        handle.cancel()
        loop.run_until_idle()
        assert hits == []
        assert handle.cancelled

    def test_run_until_bound(self):
        loop = EventLoop()
        hits = []
        loop.schedule_in(1.0, lambda: hits.append(1))
        loop.schedule_in(5.0, lambda: hits.append(5))
        loop.run(until=2.0)
        assert hits == [1]
        assert loop.clock.now == 2.0
        loop.run_until_idle()
        assert hits == [1, 5]

    def test_max_events_bound(self):
        loop = EventLoop()

        def forever():
            loop.schedule_in(0.1, forever)

        loop.schedule_in(0.0, forever)
        executed = loop.run(max_events=10)
        assert executed == 10

    def test_scheduling_in_past_rejected(self):
        loop = EventLoop()
        loop.clock.advance(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            loop.schedule_in(-1.0, lambda: None)

    def test_pending_and_processed_counters(self):
        loop = EventLoop()
        loop.schedule_in(1.0, lambda: None)
        loop.schedule_in(2.0, lambda: None)
        assert loop.pending == 2
        loop.run_until_idle()
        assert loop.processed == 2
        assert loop.pending == 0


class TestHeapOrder:
    """Heap entries are ``(time, priority, sequence, event)`` tuples, so
    ``heapq`` orders them without ever comparing two event objects."""

    def test_fifo_among_equal_time_and_priority(self):
        loop = EventLoop()
        order = []
        # Enough same-instant events that the heap sifts in every
        # direction; interleaved instants and priorities around them.
        for number in range(200):
            loop.schedule_at(1.0, lambda n=number: order.append(("tie", n)))
            if number % 7 == 0:
                loop.schedule_at(1.0, lambda n=number: order.append(("urgent", n)), priority=-1)
            if number % 11 == 0:
                loop.schedule_at(0.5, lambda n=number: order.append(("early", n)))
        loop.run_until_idle()
        early = [("early", n) for n in range(0, 200, 11)]
        urgent = [("urgent", n) for n in range(0, 200, 7)]
        ties = [("tie", n) for n in range(200)]
        assert order == early + urgent + ties

    def test_priority_breaks_ties_before_insertion_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_in(1.0, lambda: order.append("normal"))
        loop.schedule_in(1.0, lambda: order.append("late"), priority=5)
        loop.schedule_in(1.0, lambda: order.append("urgent"), priority=-5)
        loop.run_until_idle()
        assert order == ["urgent", "normal", "late"]

    def test_uncomparable_callbacks_never_meet(self):
        """Equal (time, priority) entries must be decided by the sequence
        number: the event holder defines no ordering at all."""
        loop = EventLoop()
        handles = [loop.schedule_at(2.0, object) for _ in range(50)]
        with pytest.raises(TypeError):
            handles[0]._event < handles[1]._event
        assert loop.run_until_idle() == 50

    def test_step_skips_cancelled_events(self):
        loop = EventLoop()
        hits = []
        first = loop.schedule_in(1.0, lambda: hits.append("cancelled"))
        loop.schedule_in(2.0, lambda: hits.append("ran"))
        first.cancel()
        assert loop.step() is True
        assert hits == ["ran"]
        assert loop.clock.now == 2.0
        assert loop.processed == 1
        assert loop.step() is False

    def test_run_skips_cancelled_events_and_does_not_count_them(self):
        loop = EventLoop()
        hits = []
        handles = [loop.schedule_in(float(n), lambda n=n: hits.append(n)) for n in range(1, 7)]
        for handle in handles[::2]:
            handle.cancel()
        assert loop.run(until=4.5) == 2
        assert hits == [2, 4]
        assert loop.clock.now == 4.5
        # A cancelled head beyond ``until`` is dropped, not waited for.
        assert loop.run(max_events=5) == 1
        assert hits == [2, 4, 6]

    def test_pending_ignores_cancelled_events(self):
        loop = EventLoop()
        handles = [loop.schedule_in(1.0, lambda: None) for _ in range(4)]
        handles[1].cancel()
        handles[3].cancel()
        assert loop.pending == 2
        loop.run_until_idle()
        assert loop.pending == 0
        assert loop.processed == 2

    def test_cancelling_from_inside_a_callback(self):
        loop = EventLoop()
        hits = []
        victim = loop.schedule_in(2.0, lambda: hits.append("victim"))
        loop.schedule_in(1.0, victim.cancel)
        loop.run_until_idle()
        assert hits == [] and victim.cancelled

    def test_handle_reports_the_scheduled_time(self):
        loop = EventLoop()
        loop.clock.advance(3.0)
        assert loop.schedule_in(1.5, lambda: None).time == 4.5
        assert loop.schedule_at(10, lambda: None).time == 10
        handle = loop.schedule_in(0.0, lambda: None)
        assert handle.time == 3.0 and not handle.cancelled
