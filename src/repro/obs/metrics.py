"""Metrics: mergeable histograms and the registry of adapters.

The registry does not *own* the engine's numbers — they already
live in per-subsystem accumulators (``IOStats``, ``BufferCounters``,
``ServiceStats``, retry/fault counters, epoch bookkeeping).  Instead it
adopts each family through a lightweight adapter: a callable returning a
flat ``name -> value`` mapping, read at snapshot time.  That keeps the
hot paths untouched (no double counting, no extra locks) while
:meth:`MetricsRegistry.snapshot` still yields one coherent
:class:`EngineSnapshot` whose totals reconcile exactly with the legacy
counters they adapt.  It has no write-side counters or gauges of its own.

:class:`Histogram` uses fixed log-spaced bucket bounds so that two
histograms with the same layout merge by adding bucket counts — the
property the serving layer needs to aggregate latency across services
and the benchmark harness needs to combine repeats.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Mapping


def log_bucket_bounds(
    base: float = 1e-6, growth: float = 2.0, count: int = 30
) -> tuple[float, ...]:
    """Fixed log-spaced upper bounds: ``base * growth**i``.

    The defaults span 1 µs to ~9 minutes at 2x resolution — wide enough
    for both per-page I/O and end-to-end service latency, narrow enough
    that two defaults-built histograms always merge.
    """
    if base <= 0 or growth <= 1.0 or count < 1:
        raise ValueError("need base > 0, growth > 1, count >= 1")
    return tuple(base * growth**i for i in range(count))


@dataclass(frozen=True, slots=True)
class HistogramSummary:
    """The digest of a histogram: count, sum, extremes and percentiles.

    Percentiles are bucket upper bounds (clamped to the observed
    maximum), so they are conservative within one bucket's resolution.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


class Histogram:
    """Fixed log-spaced buckets; cheap to observe, mergeable by layout.

    ``bounds`` are inclusive upper bounds; values above the last bound
    land in the implicit overflow bucket (``+Inf`` in Prometheus terms).
    """

    __slots__ = ("name", "bounds", "_lock", "_counts", "_overflow",
                 "_count", "_total", "_min", "_max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else log_bucket_bounds()
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bounds must be non-empty and strictly increasing")
        self._lock = threading.Lock()
        self._counts = [0] * len(self.bounds)
        self._overflow = 0
        self._count = 0
        self._total = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            else:
                self._overflow += 1
            if self._count == 0 or value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._count += 1
            self._total += value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (same bucket layout only)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        with other._lock:
            counts = list(other._counts)
            overflow = other._overflow
            count = other._count
            total = other._total
            minimum, maximum = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._overflow += overflow
            if count:
                if self._count == 0 or minimum < self._min:
                    self._min = minimum
                if maximum > self._max:
                    self._max = maximum
            self._count += count
            self._total += total

    def _percentile_locked(self, quantile: float) -> float:
        if self._count == 0:
            return 0.0
        rank = quantile * self._count
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return min(bound, self._max)
        return self._max

    def summary(self) -> HistogramSummary:
        with self._lock:
            return HistogramSummary(
                count=self._count,
                total=self._total,
                minimum=self._min,
                maximum=self._max,
                p50=self._percentile_locked(0.50),
                p90=self._percentile_locked(0.90),
                p99=self._percentile_locked(0.99),
            )

    def to_dict(self) -> dict:
        """Bucket-level state (for exporters): bounds, counts, digest."""
        with self._lock:
            counts = list(self._counts)
            overflow = self._overflow
        digest = self.summary().to_dict()
        digest["bounds"] = list(self.bounds)
        digest["bucket_counts"] = counts
        digest["overflow"] = overflow
        return digest


@dataclass(frozen=True, slots=True)
class EngineSnapshot:
    """One atomic, JSON-ready view of every registered metric.

    ``counters`` and ``gauges`` are flat dotted-name maps; ``histograms``
    maps name to the bucket-level dict of :meth:`Histogram.to_dict`.
    """

    taken_at: float
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "taken_at": self.taken_at,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }


class MetricsRegistry:
    """Named metric sources, snapshotted together.

    Sources are callables returning flat mappings so existing subsystem
    counters are adopted without modification; each source's keys are
    prefixed with its registered name (``"disk.io"`` + ``"pages_read"``
    -> ``"disk.io.pages_read"``).  A source that raises is skipped for
    that snapshot (a dead weakref'd service must not poison telemetry).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counter_sources: list[tuple[str, Callable[[], Mapping]]] = []
        self._gauge_sources: list[tuple[str, Callable[[], Mapping]]] = []
        self._histogram_sources: list[tuple[str, Callable[[], Histogram | None]]] = []

    def add_counter_source(
        self, prefix: str, source: Callable[[], Mapping]
    ) -> None:
        """Adopt an existing cumulative counter family under ``prefix``."""
        with self._lock:
            self._counter_sources.append((prefix, source))

    def add_gauge_source(self, prefix: str, source: Callable[[], Mapping]) -> None:
        """Adopt an existing point-in-time family under ``prefix``."""
        with self._lock:
            self._gauge_sources.append((prefix, source))

    def add_histogram_source(
        self, name: str, source: Callable[[], Histogram | None]
    ) -> None:
        """Adopt a histogram owned elsewhere (read at snapshot time)."""
        with self._lock:
            self._histogram_sources.append((name, source))

    @staticmethod
    def _flatten(prefix: str, mapping: Mapping, into: dict) -> None:
        for key, value in mapping.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, Mapping):
                MetricsRegistry._flatten(name, value, into)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                into[name] = value

    def snapshot(self) -> EngineSnapshot:
        """Read every source into one :class:`EngineSnapshot`."""
        with self._lock:
            counter_sources = list(self._counter_sources)
            gauge_sources = list(self._gauge_sources)
            histogram_sources = list(self._histogram_sources)

        counter_values: dict = {}
        for prefix, source in counter_sources:
            try:
                self._flatten(prefix, source(), counter_values)
            except Exception:
                continue
        gauge_values: dict = {}
        for prefix, source in gauge_sources:
            try:
                self._flatten(prefix, source(), gauge_values)
            except Exception:
                continue
        histogram_values: dict = {}
        for name, source in histogram_sources:
            try:
                histogram = source()
            except Exception:
                continue
            if histogram is not None:
                histogram_values[name] = histogram.to_dict()
        return EngineSnapshot(
            taken_at=time.time(),
            counters=counter_values,
            gauges=gauge_values,
            histograms=histogram_values,
        )
