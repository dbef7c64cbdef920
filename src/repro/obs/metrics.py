"""A process-local metrics registry: counters and gauges.

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
from typing import Dict, Union

Number = Union[int, float]


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

    def _reset(self) -> None:
        self.value = 0.0


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

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
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
            }

    def reset(self) -> None:
        """Zero every instrument in place (registrations survive)."""
        with self._lock:
            for table in (self._counters, self._gauges):
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


def snapshot() -> Dict[str, Dict]:
    """Snapshot the default registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Zero the default registry (tests and fresh runs)."""
    REGISTRY.reset()
