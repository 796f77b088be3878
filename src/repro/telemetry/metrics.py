"""Aggregated numeric instruments: counters, gauges, and histograms.

Spans (:mod:`repro.telemetry.tracer`) answer *where the time went*;
metrics answer *how often* and *how much*.  The registry is deliberately
tiny — three instrument kinds, no labels, no time series — because every
number the paper reports (plan-cache hit ratio, conversion steps per
strip, retry counts, stall seconds) is a scalar aggregate over one run or
one batch.

All instruments are memoized by name: ``registry.counter("x")`` returns
the same :class:`Counter` on every call, so call sites never need to hold
references.  A :class:`NullMetricsRegistry` mirrors the API with shared
no-op instruments for the zero-overhead disabled path.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self.value += amount


class Gauge:
    """A point-in-time value that can move both ways (ratio, capacity)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = float(value)


class Histogram:
    """Streaming summary of a distribution: count / sum / min / max / mean.

    No buckets — the consumers here (trace summaries, reports) want the
    moments, and bucket boundaries would be one more thing to keep stable
    across record digests.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """Plain-data summary (empty histograms report null min/max)."""
        return {
            "count": int(self.count),
            "sum": float(self.total),
            "min": float(self.min) if self.count else None,
            "max": float(self.max) if self.count else None,
            "mean": float(self.mean),
        }

    def merge_dict(self, d: dict) -> None:
        """Fold another histogram's :meth:`to_dict` summary into this one."""
        count = int(d.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(d.get("sum", 0.0))
        if d.get("min") is not None and float(d["min"]) < self.min:
            self.min = float(d["min"])
        if d.get("max") is not None and float(d["max"]) > self.max:
            self.max = float(d["max"])


class MetricsRegistry:
    """Name-keyed store of counters, gauges, and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    def snapshot(self) -> dict:
        """Every instrument's current value as sorted plain data."""
        return {
            "counters": {
                name: float(c.value)
                for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: float(g.value) for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram moments accumulate; gauges (point-in-time
        values) take the incoming value — last writer wins, matching what
        sequential execution of the merged work would have left behind.
        The parallel executor uses this to merge per-worker registries back
        into the parent tracer's.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, summary in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_dict(summary)


class _NullInstrument:
    """Shared do-nothing stand-in for all three instrument kinds."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def observe(self, value: float) -> None:
        """Discard the observation."""

    def to_dict(self) -> dict:
        """An empty summary."""
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """API-compatible registry that records nothing and allocates nothing."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Discard the snapshot."""
