"""Metric calculation per the paper's definitions (5.1.4)."""

from dataclasses import dataclass

from repro.metrics.collector import OperationStats, collect_metrics
from repro.metrics.report import format_series, format_table, ratio


@dataclass
class FakeRecord:
    operation: str
    submitted_at: float
    committed_at: float | None


class TestCollectMetrics:
    def test_latency_per_operation(self):
        records = [
            FakeRecord("CREATE", 0.0, 1.0),
            FakeRecord("CREATE", 0.0, 3.0),
            FakeRecord("BID", 1.0, 2.0),
        ]
        metrics = collect_metrics("SCDB", records)
        assert metrics.latency("CREATE") == 2.0
        assert metrics.latency("BID") == 1.0

    def test_throughput_definition(self):
        """committed / (last commit - first reception)."""
        records = [
            FakeRecord("CREATE", 0.0, 2.0),
            FakeRecord("CREATE", 1.0, 4.0),
            FakeRecord("CREATE", 2.0, 10.0),
        ]
        metrics = collect_metrics("SCDB", records)
        assert metrics.throughput_tps == 3 / 10.0

    def test_uncommitted_excluded_from_latency(self):
        records = [FakeRecord("BID", 0.0, 1.0), FakeRecord("BID", 0.0, None)]
        metrics = collect_metrics("SCDB", records)
        assert metrics.per_operation["BID"].count == 1
        assert metrics.committed == 1
        assert metrics.submitted == 2

    def test_missing_operation_is_inf(self):
        metrics = collect_metrics("SCDB", [])
        assert metrics.latency("BID") == float("inf")

    def test_operation_stats_percentiles(self):
        stats = OperationStats.from_latencies("X", [1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.median_latency == 3.0
        assert stats.max_latency == 100.0
        assert stats.p95_latency == 100.0
        assert stats.count == 5

    def test_percentiles_use_nearest_rank_ceil(self):
        """Pin the convention: p95 of 20 samples is the value at rank
        ceil(0.95*20)=19 (1-based) — the 19th value, not the 20th; and
        p95 of 19 samples is rank ceil(18.05)=19, the maximum.  The old
        ``int(0.95*n)`` index under-reported the second case."""
        twenty = [float(value) for value in range(1, 21)]
        stats = OperationStats.from_latencies("X", twenty)
        assert stats.p95_latency == 19.0
        assert stats.p50_latency == 10.0
        assert stats.p99_latency == 20.0
        assert stats.p999_latency == 20.0
        nineteen = [float(value) for value in range(1, 20)]
        assert OperationStats.from_latencies("X", nineteen).p95_latency == 19.0

    def test_degenerate_span_clamps_not_zero(self):
        """Every commit at one simulated instant used to yield a 0-second
        span and 0 tps; the span now clamps to one sim tick."""
        records = [
            FakeRecord("CREATE", 1.0, 1.0),
            FakeRecord("CREATE", 1.0, 1.0),
        ]
        metrics = collect_metrics("SCDB", records)
        assert metrics.span_seconds == 1e-6
        assert metrics.throughput_tps == 2 / 1e-6

    def test_percentiles_ms_from_record_latencies(self):
        """Tails over every committed record, across operations, in ms:
        nearest-rank over ``(committed_at - submitted_at) * 1000.0``;
        empty when nothing committed."""
        records = [
            FakeRecord("CREATE", 0.0, 0.25),
            FakeRecord("BID", 0.5, 0.625),
            FakeRecord("CREATE", 1.0, 1.5),
            FakeRecord("BID", 2.0, None),
        ]
        tails = collect_metrics("SCDB", records).percentiles_ms
        assert tails == {
            "count": 3,
            "mean_ms": 875.0 / 3,
            "p50_ms": 250.0,
            "p95_ms": 500.0,
            "p99_ms": 500.0,
            "p999_ms": 500.0,
            "max_ms": 500.0,
        }
        assert collect_metrics("SCDB", records[3:]).percentiles_ms == {}


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["op", "latency"], [["CREATE", 0.5], ["BID", 12.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "CREATE" in text and "BID" in text

    def test_format_series(self):
        text = format_series("fig7a", [1, 2], [0.1, 0.2], "size", "latency")
        assert "fig7a" in text
        assert "size" in text

    def test_ratio(self):
        assert ratio(10, 2) == 5
        assert ratio(1, 0) == float("inf")
