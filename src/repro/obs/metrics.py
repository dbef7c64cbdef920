"""A process-local metrics registry: counters, gauges, fixed-bucket histograms.

No third-party dependencies and no background threads — instruments are plain
objects a hot loop can bump in nanoseconds, and :meth:`MetricsRegistry.snapshot`
turns the whole registry into a JSON-ready dict for the run report
(:mod:`repro.obs.report`).

Instruments are created get-or-create by dotted name::

    from repro.obs import metrics

    _HITS = metrics.counter("experiments.visibility_cache.hits")
    _HITS.inc()

Module-level instruments registered at import time survive
:meth:`MetricsRegistry.reset` (which zeroes values in place), so long-lived
references never go stale.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds, tuned for wall-clock seconds:
#: sub-millisecond through multi-minute phases.  A +inf bucket is implicit.
DEFAULT_BUCKETS: Sequence[float] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def _reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)

    def add(self, amount: Number) -> None:
        self.value += amount

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A fixed-bucket histogram (cumulative counts, implicit +inf bucket)."""

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the p-th percentile by linear bucket interpolation."""
        return percentile_from_counts(self.buckets, self.counts, p)

    def _reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


def percentile_from_counts(
    buckets: Sequence[float], counts: Sequence[int], p: float
) -> float:
    """Percentile estimate from histogram buckets (linear interpolation).

    Works directly on the ``buckets``/``counts`` lists a snapshot or a JSON
    run report carries, so p50/p95/p99 span durations can be read back from
    a report without the live :class:`Histogram` objects.

    Observations are assumed non-negative (bucket 0 spans ``(0, buckets[0]]``)
    — true for the duration/size histograms this registry holds.  Ranks that
    land in the +inf overflow bucket are clamped to the largest finite bound
    (a lower bound on the true percentile).

    Args:
        buckets: Strictly increasing finite upper bounds.
        counts: Per-bucket counts, one longer than ``buckets`` (+inf last).
        p: Percentile in [0, 100].

    Raises:
        ValueError: On a malformed p or a counts/buckets length mismatch.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(counts) != len(buckets) + 1:
        raise ValueError(
            f"need {len(buckets) + 1} counts for {len(buckets)} buckets, "
            f"got {len(counts)}"
        )
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = p / 100.0 * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if index == len(buckets):  # +inf overflow: clamp to last bound.
                return float(buckets[-1])
            lower = 0.0 if index == 0 else float(buckets[index - 1])
            upper = float(buckets[index])
            fraction = (rank - cumulative) / count
            return lower + fraction * (upper - lower)
        cumulative += count
    return float(buckets[-1])


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Thread-safe at the registration level; individual bumps are plain
    attribute updates (the GIL makes float ``+=`` safe enough for the
    single-process simulator, and keeps hot-loop overhead negligible).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"{name!r} is already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._check_free(name, "counter")
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._check_free(name, "gauge")
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            existing = self._histograms.get(name)
            if existing is not None:
                if buckets is not None and tuple(map(float, buckets)) != existing.buckets:
                    raise ValueError(
                        f"histogram {name!r} already registered with different buckets"
                    )
                return existing
            self._check_free(name, "histogram")
            self._histograms[name] = Histogram(
                name, DEFAULT_BUCKETS if buckets is None else buckets
            )
            return self._histograms[name]

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-ready view of every instrument, sorted by name."""
        with self._lock:
            return {
                "counters": {
                    name: instrument.value
                    for name, instrument in sorted(self._counters.items())
                },
                "gauges": {
                    name: instrument.value
                    for name, instrument in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "buckets": list(instrument.buckets),
                        "counts": list(instrument.counts),
                        "sum": instrument.sum,
                        "count": instrument.count,
                    }
                    for name, instrument in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero every instrument in place (registrations survive)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for instrument in table.values():
                    instrument._reset()


#: The process-global default registry every instrumented module shares.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    """Get-or-create a counter on the default registry."""
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return REGISTRY.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
    """Get-or-create a histogram on the default registry."""
    return REGISTRY.histogram(name, buckets)


def snapshot() -> Dict[str, Dict]:
    """Snapshot the default registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero the default registry (tests and fresh runs)."""
    REGISTRY.reset()
