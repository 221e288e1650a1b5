"""Tracer and flight-recorder semantics (pure units, fake clock)."""

from repro.telemetry import FlightRecorder, Telemetry
from repro.telemetry.tracing import Tracer, sample_decision


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


class TestSampleDecision:
    def test_pure_and_deterministic(self):
        verdicts = [sample_decision(42, f"tx-{i}", 0.25) for i in range(200)]
        assert verdicts == [sample_decision(42, f"tx-{i}", 0.25) for i in range(200)]

    def test_rate_extremes(self):
        assert sample_decision(1, "anything", 1.0)
        assert not sample_decision(1, "anything", 0.0)

    def test_rate_roughly_honored(self):
        hits = sum(sample_decision(7, f"tx-{i}", 0.25) for i in range(2000))
        assert 0.18 < hits / 2000 < 0.32

    def test_salt_changes_the_sampled_set(self):
        set_a = {i for i in range(500) if sample_decision(1, f"tx-{i}", 0.25)}
        set_b = {i for i in range(500) if sample_decision(2, f"tx-{i}", 0.25)}
        assert set_a != set_b


class TestTracer:
    def _tracer(self, **kwargs) -> tuple[Tracer, FakeClock]:
        clock = FakeClock()
        return Tracer(clock, sample_rate=1.0, **kwargs), clock

    def test_begin_is_idempotent_and_returns_verdict(self):
        tracer, _ = self._tracer()
        assert tracer.begin("tx-1")
        assert tracer.begin("tx-1")  # second begin: still sampled, no dup
        assert len(tracer.timeline("tx-1")) == 1
        assert tracer.started == 1

    def test_unsampled_ids_record_nothing(self):
        clock = FakeClock()
        tracer = Tracer(clock, sample_rate=0.0)
        assert not tracer.begin("tx-1")
        tracer.event("tx-1", "phase")
        assert tracer.timeline("tx-1") == []
        assert tracer.skipped == 1

    def test_events_carry_sim_time_and_attrs(self):
        tracer, clock = self._tracer()
        tracer.begin("tx-1", node="facade")
        clock.now = 0.5
        tracer.event("tx-1", "commit", node="n0", height=3)
        timeline = tracer.timeline("tx-1")
        assert timeline[1] == {"t": 0.5, "name": "commit", "node": "n0", "height": 3}

    def test_trace_eviction_bound(self):
        tracer, _ = self._tracer(max_traces=3)
        for index in range(5):
            tracer.begin(f"tx-{index}")
        assert tracer.trace_ids() == ["tx-2", "tx-3", "tx-4"]
        assert not tracer.sampled("tx-0")

    def test_per_trace_event_bound(self):
        tracer, _ = self._tracer(max_events=4)
        tracer.begin("tx-1")
        for index in range(10):
            tracer.event("tx-1", f"e{index}")
        assert len(tracer.timeline("tx-1")) == 4

    def test_spans_are_consecutive_intervals(self):
        tracer, clock = self._tracer()
        tracer.begin("tx-1")
        clock.now = 0.2
        tracer.event("tx-1", "admitted")
        clock.now = 0.7
        tracer.event("tx-1", "applied")
        spans = tracer.spans("tx-1")
        assert [span["stage"] for span in spans] == [
            "submit -> admitted",
            "admitted -> applied",
        ]
        assert abs(spans[1]["duration"] - 0.5) < 1e-12

    def test_render_tree(self):
        tracer, clock = self._tracer()
        tracer.begin("abcdef0123456789", node="facade")
        clock.now = 0.001
        tracer.event("abcdef0123456789", "applied", node="n0", height=1)
        text = tracer.render_tree("abcdef0123456789")
        assert "events=2" in text
        assert "submit" in text and "applied" in text
        assert "[n0]" in text and "height=1" in text
        assert tracer.render_tree("missing").startswith("trace missing")


class TestFlightRecorder:
    def test_ring_bounds_and_dropped(self):
        flight = FlightRecorder(capacity=3)
        for index in range(5):
            flight.record(float(index), "n0", "phase", tx_id=f"tx-{index}")
        assert len(flight) == 3
        assert flight.recorded == 5
        assert flight.dropped == 2
        assert [event["t"] for event in flight.dump()] == [2.0, 3.0, 4.0]

    def test_events_for_filters_by_tx(self):
        flight = FlightRecorder()
        flight.record(0.0, "n0", "commit", tx_id="tx-a")
        flight.record(1.0, "n1", "lock_adopt")
        flight.record(2.0, "n0", "decide", tx_id="tx-a", outcome="committed")
        events = flight.events_for("tx-a")
        assert [event["kind"] for event in events] == ["commit", "decide"]
        assert events[1]["outcome"] == "committed"

    def test_clear(self):
        flight = FlightRecorder()
        flight.record(0.0, "n0", "x")
        flight.clear()
        assert len(flight) == 0 and flight.recorded == 0


class TestTelemetryFacade:
    def test_observe_ms_converts_seconds(self):
        telemetry = Telemetry(FakeClock(), sample_rate=1.0)
        telemetry.observe_ms("lat", 0.0025, shard="a")
        histogram = telemetry.registry.histogram("lat", shard="a")
        assert histogram.count == 1
        assert abs(histogram.sum - 2.5) < 1e-12

    def test_flight_event_stamps_clock(self):
        clock = FakeClock()
        telemetry = Telemetry(clock, sample_rate=1.0)
        clock.now = 1.25
        telemetry.flight_event("n0", "block_commit", tx_id="tx-1", height=2)
        event = telemetry.flight.dump()[0]
        assert event["t"] == 1.25 and event["height"] == 2
