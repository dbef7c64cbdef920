"""Nestable span/phase timers, memory sampling, and an optional cProfile hook.

A *span* is a named wall-clock interval::

    from repro.obs.trace import span

    with span("visibility.pack"):
        ...

Spans nest (the active stack is thread-local), every finished span is
recorded with its duration and parent, and one aggregate per span name
(count/total/min/max) accumulates unboundedly even when the raw record
list is capped at :data:`MAX_RECORDS`.  :func:`profile` dumps a cProfile
``.pstats`` file around any block (the CLI's ``--profile``).

When :mod:`tracemalloc` is tracing (the CLI's ``--track-memory``), every
span also records its *peak traced allocation* in KiB
(``SpanRecord.mem_peak_kb``).  Peaks propagate correctly through nesting:
an inner span's peak also counts toward its enclosing spans.

Everything is stdlib-only and cheap enough for per-chunk instrumentation:
one ``perf_counter`` pair plus a couple of dict operations per span.
"""

from __future__ import annotations

import cProfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

#: Raw span records kept per tracer; aggregates keep counting past the cap.
MAX_RECORDS = 2000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    start_s: float  # Seconds since the tracer's epoch.
    duration_s: float
    depth: int  # 0 = top level.
    parent: Optional[str]  # Name of the enclosing span, if any.
    mem_peak_kb: Optional[float] = None  # Peak traced KiB while the span ran.


class _Frame:
    """One active span on the thread-local stack."""

    __slots__ = ("name", "mem_peak_b")

    def __init__(self, name: str) -> None:
        self.name = name
        self.mem_peak_b = 0  # Peak bytes observed so far inside this span.


class Tracer:
    """Collects span records and per-name aggregate timings.

    Args:
        max_records: Cap on raw :class:`SpanRecord` retention.
    """

    def __init__(self, max_records: int = MAX_RECORDS) -> None:
        self.max_records = max_records
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self.records: List[SpanRecord] = []
        self.dropped_records = 0
        self._stats: Dict[str, Dict[str, float]] = {}

    def _stack(self) -> List[_Frame]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a named block; nests under any enclosing span.

        When :mod:`tracemalloc` is tracing, the span's peak traced memory is
        recorded too.  The peak accounting uses ``tracemalloc.reset_peak``
        at span boundaries and folds each finished span's peak back into its
        parent frame, so nesting never under-reports an enclosing span.
        """
        stack = self._stack()
        parent = stack[-1].name if stack else None
        depth = len(stack)
        tracing = tracemalloc.is_tracing()
        if tracing:
            if stack:
                # Bank the parent's peak-so-far before the child resets it.
                peak_b = tracemalloc.get_traced_memory()[1]
                stack[-1].mem_peak_b = max(stack[-1].mem_peak_b, peak_b)
            tracemalloc.reset_peak()
        frame = _Frame(name)
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            mem_peak_kb: Optional[float] = None
            if tracing and tracemalloc.is_tracing():
                peak_b = max(frame.mem_peak_b, tracemalloc.get_traced_memory()[1])
                mem_peak_kb = peak_b / 1024.0
                if stack:
                    stack[-1].mem_peak_b = max(stack[-1].mem_peak_b, peak_b)
                tracemalloc.reset_peak()
            record = SpanRecord(
                name=name,
                start_s=start - self._epoch,
                duration_s=duration,
                depth=depth,
                parent=parent,
                mem_peak_kb=mem_peak_kb,
            )
            with self._lock:
                if len(self.records) < self.max_records:
                    self.records.append(record)
                else:
                    self.dropped_records += 1
                stats = self._stats.get(name)
                if stats is None:
                    self._stats[name] = {
                        "count": 1,
                        "total_s": duration,
                        "min_s": duration,
                        "max_s": duration,
                    }
                else:
                    stats["count"] += 1
                    stats["total_s"] += duration
                    stats["min_s"] = min(stats["min_s"], duration)
                    stats["max_s"] = max(stats["max_s"], duration)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Aggregate timings by span name (count, total_s, min_s, max_s)."""
        with self._lock:
            return {name: dict(value) for name, value in sorted(self._stats.items())}

    def memory_summary(self) -> Dict[str, Optional[float]]:
        """Peak traced memory over recorded spans (None when not sampled)."""
        with self._lock:
            peaks = [
                record.mem_peak_kb
                for record in self.records
                if record.mem_peak_kb is not None
            ]
        return {
            "sampled_spans": float(len(peaks)),
            "peak_kb": max(peaks) if peaks else None,
        }

    def snapshot(self) -> Dict:
        """JSON-ready view: raw records (capped) plus per-name aggregates."""
        with self._lock:
            return {
                "records": [
                    {
                        "name": record.name,
                        "start_s": record.start_s,
                        "duration_s": record.duration_s,
                        "depth": record.depth,
                        "parent": record.parent,
                        **(
                            {"mem_peak_kb": record.mem_peak_kb}
                            if record.mem_peak_kb is not None
                            else {}
                        ),
                    }
                    for record in self.records
                ],
                "dropped_records": self.dropped_records,
                "stats": {
                    name: dict(value) for name, value in sorted(self._stats.items())
                },
            }

    def reset(self) -> None:
        """Forget all finished spans (active spans keep running)."""
        with self._lock:
            self.records.clear()
            self.dropped_records = 0
            self._stats.clear()
            self._epoch = time.perf_counter()


#: The process-global tracer every instrumented module shares.
TRACER = Tracer()


def span(name: str):
    """Time a named block on the default tracer (context manager)."""
    return TRACER.span(name)


def stats() -> Dict[str, Dict[str, float]]:
    """Aggregate span timings from the default tracer."""
    return TRACER.stats()


def reset() -> None:
    """Reset the default tracer."""
    TRACER.reset()


@contextmanager
def track_memory(enabled: bool = True) -> Iterator[None]:
    """Enable tracemalloc around a block (the CLI's ``--track-memory``).

    While active, every span records its peak traced allocation.  A falsy
    ``enabled`` makes this a no-op so callers can pass a CLI flag straight
    through.  If tracemalloc was already tracing (e.g. started by the
    environment via ``PYTHONTRACEMALLOC``), it is left running on exit.
    """
    if not enabled or tracemalloc.is_tracing():
        yield
        return
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@contextmanager
def profile(path: Optional[str]) -> Iterator[None]:
    """cProfile a block and dump ``.pstats`` output to ``path``.

    A falsy path disables profiling, so callers can pass the CLI argument
    straight through: ``with profile(args.profile): run()``.
    """
    if not path:
        yield
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
