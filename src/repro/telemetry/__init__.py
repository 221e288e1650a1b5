"""Deterministic observability: metrics registry, tracing, flight recorder.

One :class:`Telemetry` object per deployment (shared by every shard of a
:class:`~repro.sharding.cluster.ShardedCluster`, so cross-shard traces
stitch on the globally stable ``tx_id``).  Every instrumented component
holds a ``Telemetry`` and records through it unconditionally; one built
outside a deployment holds :data:`INERT`, whose instruments, tracer and
flight recorder keep nothing.  Turning telemetry off means handing a
deployment :data:`INERT`; there is no switch to test at each site.

Commit-latency tails are not kept here: they come from the lifecycle
records (:func:`repro.metrics.collector.collect_metrics`).

Nothing in this package reads a wall clock or draws global randomness:
timestamps come from the injected sim clock and the trace-sampling salt
from a seeded rng stream — the determinism lint pins both.
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exact_percentile,
)
from repro.telemetry.tracing import (
    DEFAULT_SAMPLE_RATE,
    TRACE_SAMPLED,
    Tracer,
    sample_decision,
)

__all__ = [
    "Counter",
    "DEFAULT_SAMPLE_RATE",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "INERT",
    "MetricsRegistry",
    "TRACE_SAMPLED",
    "Telemetry",
    "Tracer",
    "exact_percentile",
    "sample_decision",
]


class Telemetry:
    """Registry + tracer + flight recorder for one deployment.

    Args:
        clock: the deployment's sim clock (``.now`` attribute).
        sample_salt: trace-sampling salt — draw from a seeded rng stream
            (``rng.stream("telemetry").getrandbits(64)``).
        sample_rate: fraction of transactions whose timeline is traced.
        flight_capacity: flight-recorder ring size.
    """

    def __init__(
        self,
        clock: Any,
        sample_salt: int = 0,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        flight_capacity: int = 1024,
    ):
        self.clock = clock
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock, sample_rate=sample_rate, salt=sample_salt)
        self.flight = FlightRecorder(flight_capacity)

    # -- convenience shorthands used by instrumentation sites ---------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self.registry.histogram(name, **labels)

    def observe_ms(self, name: str, seconds: float, **labels: str) -> None:
        """Record a duration histogram point in milliseconds."""
        self.registry.histogram(name, **labels).observe(seconds * 1000.0)

    def flight_event(self, node: str, kind: str, tx_id: str = "", **detail: Any) -> None:
        self.flight.record(self.clock.now, node, kind, tx_id, **detail)


# -- the inert instance ---------------------------------------------------------


class _Discard:
    """Every instrument the inert registry hands out: writes are dropped."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    dec = inc

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _InertRegistry(MetricsRegistry):
    """Registers nothing, so every export and iteration stays empty."""

    _discard = _Discard()

    def _get(self, name: str, labels: dict[str, str], factory: type) -> Any:
        return self._discard


class _InertTracer(Tracer):
    """Samples nothing: every event and read finds no timeline."""

    def begin(self, trace_id: str, name: str = "submit", node: str = "", **attrs: Any) -> bool:
        return False


class _InertFlight(FlightRecorder):
    """Keeps no event and counts none."""

    def record(self, ts: float, node: str, kind: str, tx_id: str = "", **detail: Any) -> None:
        pass


class _StoppedClock:
    now = 0.0


def _inert() -> Telemetry:
    telemetry = Telemetry(_StoppedClock())
    telemetry.registry = _InertRegistry()
    telemetry.tracer = _InertTracer(telemetry.clock, sample_rate=0.0)
    telemetry.flight = _InertFlight(capacity=0)
    return telemetry


#: The shared telemetry of every component built outside a deployment,
#: and the off-switch a deployment is handed instead of its own.  It is
#: stateless, so one instance serves the whole process.
INERT = _inert()
