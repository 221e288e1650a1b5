"""Metric calculation (paper Section 5.1.4).

* **Latency** — "time elapsed from the moment the transaction was
  received to its final commitment", averaged per transaction type.
* **Throughput** — "the number of transactions that were successfully
  committed within a time frame, defined as the interval between the
  reception of the first and the commitment of the last transaction".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, median
from typing import Iterable, Protocol

from repro.telemetry.registry import exact_percentile

#: Smallest throughput span: one run whose every commit shares a single
#: simulated timestamp still did its work in *some* interval — clamp to
#: one sim tick instead of reporting 0 tps (the degenerate-span bug).
MIN_SPAN_SECONDS = 1e-6


class LatencyRecord(Protocol):
    """Anything with the lifecycle fields both systems' records expose."""

    submitted_at: float
    committed_at: float | None


@dataclass
class OperationStats:
    """Latency summary for one transaction type."""

    operation: str
    count: int
    mean_latency: float
    median_latency: float
    p95_latency: float
    max_latency: float
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    p999_latency: float = 0.0

    @classmethod
    def from_latencies(cls, operation: str, latencies: list[float]) -> "OperationStats":
        ordered = sorted(latencies)
        # Nearest-rank (ceil) percentiles: ``int(0.95 * n)`` under-reported
        # the tail for small samples (p95 of 5 values picked the 5th from
        # a 0-based index 4 only by accident of the min() clamp; p95 of 20
        # picked the 19th instead of the ceil-rank 19th — and p95 of 19
        # picked the 18th where nearest-rank wants the 19th).
        return cls(
            operation=operation,
            count=len(ordered),
            mean_latency=mean(ordered),
            median_latency=median(ordered),
            p95_latency=exact_percentile(ordered, 0.95),
            max_latency=ordered[-1],
            p50_latency=exact_percentile(ordered, 0.50),
            p99_latency=exact_percentile(ordered, 0.99),
            p999_latency=exact_percentile(ordered, 0.999),
        )


@dataclass
class RunMetrics:
    """Full metric set for one experiment run."""

    system: str
    per_operation: dict[str, OperationStats] = field(default_factory=dict)
    throughput_tps: float = 0.0
    committed: int = 0
    submitted: int = 0
    span_seconds: float = 0.0
    #: Commit-latency tails over every committed record, in ms: count,
    #: mean, nearest-rank p50/p95/p99/p999 and max (empty when nothing
    #: committed).
    percentiles_ms: dict[str, float] = field(default_factory=dict)

    def latency(self, operation: str) -> float:
        """Mean latency for an operation (inf when none committed)."""
        stats = self.per_operation.get(operation)
        return stats.mean_latency if stats else float("inf")


def _tails_ms(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean_ms": sum(values) / len(values),
        "p50_ms": exact_percentile(ordered, 0.50),
        "p95_ms": exact_percentile(ordered, 0.95),
        "p99_ms": exact_percentile(ordered, 0.99),
        "p999_ms": exact_percentile(ordered, 0.999),
        "max_ms": ordered[-1],
    }


def collect_metrics(
    system: str,
    records: Iterable[object],
    operation_of=lambda record: getattr(record, "operation", None)
    or getattr(record, "method", None)
    or getattr(record, "kind", "?"),
) -> RunMetrics:
    """Compute paper-definition metrics from lifecycle records.

    Args:
        system: label ("SCDB" / "ETH-SC").
        records: objects with ``submitted_at`` / ``committed_at``.
        operation_of: how to bucket records into transaction types.
    """
    latencies: dict[str, list[float]] = {}
    first_reception: float | None = None
    last_commit: float | None = None
    committed = 0
    submitted = 0
    for record in records:
        submitted += 1
        received = record.submitted_at
        if first_reception is None or received < first_reception:
            first_reception = received
        committed_at = record.committed_at
        if committed_at is None:
            continue
        committed += 1
        if last_commit is None or committed_at > last_commit:
            last_commit = committed_at
        operation = str(operation_of(record))
        latencies.setdefault(operation, []).append(committed_at - received)

    metrics = RunMetrics(system=system, submitted=submitted, committed=committed)
    for operation, values in latencies.items():
        metrics.per_operation[operation] = OperationStats.from_latencies(operation, values)
    if committed:
        metrics.percentiles_ms = _tails_ms(
            [value * 1000.0 for values in latencies.values() for value in values]
        )
    if first_reception is not None and last_commit is not None and committed:
        # Clamp the span: commits sharing one simulated timestamp used to
        # report throughput_tps=0.0 (span 0 failed the strict > check).
        metrics.span_seconds = max(last_commit - first_reception, MIN_SPAN_SECONDS)
        metrics.throughput_tps = committed / metrics.span_seconds
    return metrics
