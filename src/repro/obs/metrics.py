"""Metrics registry: counters, gauges and histograms from the hot paths.

Spans say *where* time went; metrics say *what the algorithms did* — the
per-stage parametric signatures an operator needs to trust a verdict:

* how many Monte Carlo devices were simulated and measured,
* the KDE bandwidths and rejection-sampler acceptance ratio,
* SMO iterations and support-vector counts per boundary,
* the KMM solver's RKHS residual and effective sample size,
* MARS basis counts and GCV scores,
* per-boundary FP/FN of the final evaluation.

Same contract as :mod:`repro.obs.trace`: recording is off by default, and a
disabled registry hands out one shared null instrument — instrumented code
writes ``counter("mc.devices").inc()`` unconditionally and pays one global
read when observability is off.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "enable",
    "disable",
    "enabled",
    "snapshot",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A streaming summary (count/total/min/max) of observed values.

    Full per-observation storage is deliberately avoided: the KDE sampler
    observes once per sampling call and the SMO once per boundary, but a
    metric is cheap only if its cost does not grow with the run.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> Optional[float]:
        """Mean of the observations (``None`` before the first)."""
        return self.total / self.count if self.count else None


class _NullInstrument:
    """Shared no-op standing in for every instrument while disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one observability session."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use)."""
        try:
            return self.counters[name]
        except KeyError:
            return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use)."""
        try:
            return self.gauges[name]
        except KeyError:
            return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use)."""
        try:
            return self.histograms[name]
        except KeyError:
            return self.histograms.setdefault(name, Histogram())

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument (manifest format)."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                    "mean": h.mean,
                }
                for name, h in sorted(self.histograms.items())
            },
        }


_registry: Optional[MetricsRegistry] = None


def enable() -> MetricsRegistry:
    """Install a fresh registry (discarding any previous session's values)."""
    global _registry
    _registry = MetricsRegistry()
    return _registry


def disable() -> dict:
    """Stop recording; returns the final snapshot of the ended session."""
    global _registry
    final = _registry.snapshot() if _registry is not None else {}
    _registry = None
    return final


def enabled() -> bool:
    """Whether metrics are currently being recorded."""
    return _registry is not None


def counter(name: str):
    """The named counter, or the shared null instrument when disabled."""
    registry = _registry
    return _NULL if registry is None else registry.counter(name)


def gauge(name: str):
    """The named gauge, or the shared null instrument when disabled."""
    registry = _registry
    return _NULL if registry is None else registry.gauge(name)


def histogram(name: str):
    """The named histogram, or the shared null instrument when disabled."""
    registry = _registry
    return _NULL if registry is None else registry.histogram(name)


def snapshot() -> dict:
    """Snapshot of the active registry (empty dict when disabled)."""
    return _registry.snapshot() if _registry is not None else {}
