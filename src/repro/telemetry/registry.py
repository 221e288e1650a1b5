"""Deterministic metrics registry: counters, gauges, log-bucketed histograms.

Every number in here is a pure function of the simulation: timestamps
come from the injected :class:`~repro.sim.events.SimClock` (the callers'
responsibility — this module never reads a clock itself), and nothing in
the registry draws randomness.  Two replays of one seed therefore export
byte-identical snapshots (``TestReplayDeterminism`` compares them).

Histograms keep two representations:

* **log buckets** (powers of two) — the bounded shape that still answers
  percentile queries once the raw samples overflow;
* **raw samples** — retained (bounded) so percentile extraction is
  *exact* nearest-rank over what was observed, not a bucket-midpoint
  estimate.  Simulated runs observe thousands of values, not billions,
  so exactness is affordable; past the retention bound the histogram
  degrades to bucket-interpolated percentiles and says so.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

#: Raw samples retained per histogram for exact percentile extraction.
DEFAULT_SAMPLE_LIMIT = 100_000

#: Histogram bucket upper bounds are ``2 ** exponent`` for exponents in
#: this range; values outside clamp to the first/last bucket.
_MIN_EXPONENT = -20  # ~1e-6
_MAX_EXPONENT = 40  # ~1e12


def exact_percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile (ceil convention) over a sorted list.

    The value at rank ``ceil(q * n)`` — for small samples this is the
    statistic the paper's tail-latency tables mean: p95 of 5 samples is
    the maximum, not the 4th value (``int(0.95 * 5) == 4`` under-reports,
    the bias the seed collector had).

    Raises:
        ValueError: on an empty list.
    """
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if quantile <= 0.0:
        return ordered[0]
    rank = math.ceil(quantile * len(ordered))
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def _bucket_exponent(value: float) -> int:
    """Index of the log2 bucket whose upper bound is ``2 ** exponent``."""
    if value <= 0.0:
        return _MIN_EXPONENT
    exponent = math.ceil(math.log2(value))
    return max(_MIN_EXPONENT, min(_MAX_EXPONENT, exponent))


class Counter:
    """Monotonic counter."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Set-to-current-value instrument (queue depths, cache sizes)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Log2-bucketed histogram with exact percentile extraction.

    Args:
        sample_limit: raw observations retained for exact percentiles.
            Beyond it, new observations still count into the buckets and
            the sum, and percentiles fall back to bucket upper bounds.
    """

    kind = "histogram"

    def __init__(self, sample_limit: int = DEFAULT_SAMPLE_LIMIT):
        self.sample_limit = sample_limit
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}
        self._samples: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = _bucket_exponent(value)
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1
        if len(self._samples) < self.sample_limit:
            if self._samples and value < self._samples[-1]:
                self._sorted = False
            self._samples.append(value)

    @property
    def exact(self) -> bool:
        """True while every observation is retained for percentiles."""
        return len(self._samples) == self.count

    def _ordered(self) -> list[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def percentile(self, quantile: float) -> float:
        """Nearest-rank percentile.  Exact while within the sample bound,
        bucket-upper-bound conservative past it."""
        if self.count == 0:
            return 0.0
        if self.exact:
            return exact_percentile(self._ordered(), quantile)
        # Degraded path: walk the cumulative buckets; report the upper
        # bound of the bucket holding the target rank (an over-, never
        # under-, estimate of the true tail).
        rank = max(1, math.ceil(quantile * self.count))
        seen = 0
        for exponent in sorted(self.buckets):
            seen += self.buckets[exponent]
            if seen >= rank:
                return float(2.0**exponent)
        return float(self.max or 0.0)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "exact": self.exact,
            "buckets": {str(exponent): count for exponent, count in sorted(self.buckets.items())},
        }
        if self.count:
            payload.update(
                {
                    "min": self.min,
                    "max": self.max,
                    "p50": self.percentile(0.50),
                    "p95": self.percentile(0.95),
                    "p99": self.percentile(0.99),
                    "p999": self.percentile(0.999),
                }
            )
        return payload


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Name+labels keyed instrument store with canonical exports."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        #: The same instruments keyed as a call site spells them (labels
        #: in keyword order, unconverted), so a repeat lookup neither
        #: stringifies nor sorts; the canonical key is built once per spelling.
        self._handles: dict[tuple[Any, ...], Any] = {}

    def _get(self, name: str, labels: dict[str, str], factory: type) -> Any:
        handle = (name, *labels.items())
        instrument = self._handles.get(handle)
        if instrument is None:
            key = (name, _label_key(labels))
            instrument = self._metrics.get(key)
            if instrument is None:
                instrument = self._metrics[key] = factory()
            self._handles[handle] = instrument
        if not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(name, labels, Histogram)

    def instruments(self) -> Iterable[tuple[str, dict[str, str], Any]]:
        """(name, labels, instrument) triples in canonical order."""
        for (name, label_key), instrument in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield name, dict(label_key), instrument

    # -- exports ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical nested dict: ``{name: {label-string: payload}}``."""
        out: dict[str, Any] = {}
        for name, labels, instrument in self.instruments():
            series = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            out.setdefault(name, {})[series] = {
                "kind": instrument.kind,
                **instrument.to_dict(),
            }
        return out
