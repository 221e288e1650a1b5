"""Registry semantics: exact percentiles, canonical exports."""

import json

import pytest

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exact_percentile,
)


class TestExactPercentile:
    def test_nearest_rank_ceil_convention(self):
        """p95 of 5 samples is the 5th value (rank ceil(0.95*5)=5), not
        the 4th (the int() truncation bias the seed collector had)."""
        ordered = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert exact_percentile(ordered, 0.95) == 100.0
        assert exact_percentile(ordered, 0.50) == 3.0
        assert exact_percentile(ordered, 0.0) == 1.0
        assert exact_percentile(ordered, 1.0) == 100.0

    def test_known_distribution(self):
        """Against 1..100, p-th percentile is exactly the p-th value."""
        ordered = [float(value) for value in range(1, 101)]
        assert exact_percentile(ordered, 0.50) == 50.0
        assert exact_percentile(ordered, 0.95) == 95.0
        assert exact_percentile(ordered, 0.99) == 99.0
        assert exact_percentile(ordered, 0.999) == 100.0

    def test_single_sample(self):
        assert exact_percentile([7.0], 0.999) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            exact_percentile([], 0.5)


class TestCounterGauge:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0


class TestHistogram:
    def test_exact_percentiles_unsorted_observations(self):
        histogram = Histogram()
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            histogram.observe(value)
        assert histogram.exact
        assert histogram.percentile(0.50) == 3.0
        assert histogram.percentile(1.0) == 5.0
        summary = histogram.to_dict()
        assert summary["count"] == 5
        assert summary["sum"] == 15.0
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["p50"] == 3.0 and summary["p999"] == 5.0

    def test_degrades_past_sample_limit(self):
        """Beyond the retention bound, percentiles become conservative
        bucket upper bounds (over-, never under-estimates)."""
        histogram = Histogram(sample_limit=10)
        for value in range(1, 101):
            histogram.observe(float(value))
        assert not histogram.exact
        assert histogram.count == 100
        true_p99 = 99.0
        assert histogram.percentile(0.99) >= true_p99

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.95) == 0.0
        assert Histogram().to_dict() == {"count": 0, "sum": 0.0, "exact": True, "buckets": {}}

    def test_nonpositive_values_clamp_to_first_bucket(self):
        histogram = Histogram()
        histogram.observe(0.0)
        histogram.observe(-1.0)
        assert histogram.count == 2
        assert histogram.percentile(0.5) == -1.0  # exact path still works


class TestMetricsRegistry:
    def test_label_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("tx", shard="a").inc()
        registry.counter("tx", shard="b").inc(2)
        assert registry.counter("tx", shard="a").value == 1
        assert registry.counter("tx", shard="b").value == 2

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_to_dict_is_canonical(self):
        """Same observations in different insertion order export the
        same snapshot — the property replay comparisons rely on."""
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a", node="n1").inc()
        first.histogram("h", node="n1").observe(2.0)
        second.histogram("h", node="n1").observe(2.0)
        second.counter("a", node="n1").inc()
        payload = first.to_dict()
        assert json.dumps(payload) == json.dumps(second.to_dict())
        assert payload["a"]["node=n1"]["kind"] == "counter"
        assert payload["h"]["node=n1"]["count"] == 1

    def test_instruments_iterate_in_canonical_order(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", z="1")
        registry.counter("a", b="0")
        names = [(name, labels) for name, labels, _ in registry.instruments()]
        assert names == [("a", {"b": "0"}), ("a", {"z": "1"}), ("b", {})]
