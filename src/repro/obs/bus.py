"""The live telemetry bus: streaming run frames *during* execution.

Everything else in :mod:`repro.obs` is batch-oriented — spans, metrics, and
timeline events are collected while a run executes and only surface when the
run report is written at exit.  The bus is the streaming complement: the
:class:`~repro.runner.monte_carlo.MonteCarloRunner` publishes small, typed
*frames* while the experiment is still running:

* ``scenario.started`` / ``scenario.finished`` — sweep size and task count;
* ``run.started`` / ``run.finished`` — one Monte-Carlo repetition beginning
  /completing, with its wall time.  The runner evaluates a sweep point's
  repetitions as one batch, so it publishes the point's pairs together
  after the batch, in run order, and each ``run.finished`` carries
  ``wall_s`` = the point's wall time divided by its runs (a per-run mean,
  not a per-run measurement).

Frames fan out synchronously to subscribers (:meth:`TelemetryBus.subscribe`):
the CLI's ``--live-status`` attaches a :class:`LiveStatus` renderer that
prints periodic progress lines with per-scenario ETA; tests attach a
:class:`BusRecorder` and assert on the captured transcript.  Publishing is
a dict construction plus a list iteration, and the runner skips it entirely
while no one subscribes.

The process-global :data:`DEFAULT_BUS` (``default_bus()``) is what the CLI
and the runner share; tests build private buses to keep transcripts out of
each other's way.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.obs import metrics as _metrics
from repro.obs.log import get_logger

_LOG = get_logger(__name__)

# -- The frame vocabulary -----------------------------------------------------

SCENARIO_STARTED = "scenario.started"  #: Sweep resolved; tasks about to run.
SCENARIO_FINISHED = "scenario.finished"  #: Every task ran.
RUN_STARTED = "run.started"  #: One Monte-Carlo repetition began.
RUN_FINISHED = "run.finished"  #: One repetition completed (wall_s: point mean).

#: Every kind the bus accepts; :meth:`TelemetryBus.publish` rejects others so
#: typos surface at the call site.
FRAME_KINDS = frozenset(
    {SCENARIO_STARTED, SCENARIO_FINISHED, RUN_STARTED, RUN_FINISHED}
)

#: Default seconds between live-status progress lines.
DEFAULT_STATUS_INTERVAL_S = 2.0

_FRAMES_PUBLISHED = _metrics.counter("bus.frames_published")
_FRAMES_DROPPED = _metrics.counter("bus.frames_dropped")


@dataclass(frozen=True)
class Frame:
    """One telemetry frame.

    Attributes:
        kind: One of the module-level kind constants (:data:`FRAME_KINDS`).
        seq: Bus-local sequence number.
        wall_unix: Publish wall-clock time (``time.time()``).
        payload: JSON-ready frame detail (task indices, wall times, counts).
    """

    kind: str
    seq: int
    wall_unix: float
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (transcripts, tests)."""
        return {
            "kind": self.kind,
            "seq": self.seq,
            "wall_unix": self.wall_unix,
            "payload": dict(self.payload),
        }


class BusRecorder:
    """Subscriber that captures the frame transcript (tests, debugging)."""

    def __init__(self, keep_payloads: bool = True) -> None:
        self.frames: List[Frame] = []
        self.keep_payloads = keep_payloads

    def __call__(self, frame: Frame) -> None:
        if not self.keep_payloads:
            frame = Frame(kind=frame.kind, seq=frame.seq, wall_unix=frame.wall_unix)
        self.frames.append(frame)

    def kinds(self) -> List[str]:
        return [frame.kind for frame in self.frames]

    def count(self, kind: str) -> int:
        return sum(1 for frame in self.frames if frame.kind == kind)

    def transcript(self) -> List[Dict[str, Any]]:
        """JSON-ready transcript of every captured frame."""
        return [frame.to_dict() for frame in self.frames]


class LiveStatus:
    """Progress renderer: periodic one-line status with ETA.

    Subscribed to a bus by ``--live-status``; consumes frames to track per-
    scenario task progress, and renders at most one line per ``interval_s``
    to ``stream`` (stderr by default — figure tables own stdout).
    """

    def __init__(
        self, stream=None, interval_s: float = DEFAULT_STATUS_INTERVAL_S
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self.scenario: Optional[str] = None
        self.total_tasks = 0
        self.done_tasks = 0
        self.started_unix: Optional[float] = None
        self.last_render_unix = 0.0
        self.lines_rendered = 0

    # -- frame consumption ---------------------------------------------------

    def __call__(self, frame: Frame) -> None:
        if frame.kind == SCENARIO_STARTED:
            self.scenario = frame.payload.get("scenario")
            self.total_tasks = int(frame.payload.get("tasks", 0))
            self.done_tasks = 0
            self.started_unix = frame.wall_unix
            self.render(force=True)
        elif frame.kind == RUN_FINISHED:
            self.done_tasks += 1
            self.render()
        elif frame.kind == SCENARIO_FINISHED:
            self.render(force=True)

    # -- rendering -----------------------------------------------------------

    def eta_s(self, now_unix: Optional[float] = None) -> Optional[float]:
        """Rate-based remaining-seconds estimate; None before any progress."""
        if not self.done_tasks or self.started_unix is None:
            return None
        now = time.time() if now_unix is None else now_unix
        elapsed = max(now - self.started_unix, 1e-9)
        remaining = max(self.total_tasks - self.done_tasks, 0)
        return elapsed / self.done_tasks * remaining

    def status_line(self, now_unix: Optional[float] = None) -> str:
        now = time.time() if now_unix is None else now_unix
        scenario = self.scenario or "?"
        if self.total_tasks:
            percent = 100.0 * self.done_tasks / self.total_tasks
            progress = f"{self.done_tasks}/{self.total_tasks} ({percent:.0f}%)"
        else:
            progress = f"{self.done_tasks} runs"
        eta = self.eta_s(now)
        eta_text = f" eta {eta:.0f}s" if eta is not None else ""
        return f"[live] {scenario}: {progress}{eta_text}"

    def render(self, force: bool = False) -> None:
        now = time.time()
        if not force and now - self.last_render_unix < self.interval_s:
            return
        self.last_render_unix = now
        self.lines_rendered += 1
        print(self.status_line(now), file=self.stream, flush=True)


class TelemetryBus:
    """The hub: publish, subscribe, summarize.

    One bus is one telemetry domain: the runner publishes scenario/run
    frames into it and every subscriber sees them in publish order.  The
    bus also keeps the accounting the schema-3 run report's ``bus`` section
    exposes: frame counts by kind and the scenarios observed.

    The lock only guards subscriber mutation against dispatch.
    """

    def __init__(self) -> None:
        self.live = False
        #: Sticky: live mode was on at some point since the last reset, so
        #: the run report's ``bus.live`` stays truthful even though the CLI
        #: disables live rendering before writing the report.
        self.was_live = False
        self.status: Optional[LiveStatus] = None
        self._lock = threading.Lock()
        self._subscribers: List[Callable[[Frame], None]] = []
        self._seq = 0
        self.frames_by_kind: Dict[str, int] = {}
        self.scenarios: List[str] = []

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, subscriber: Callable[[Frame], None]) -> None:
        with self._lock:
            if subscriber not in self._subscribers:
                self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Callable[[Frame], None]) -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def active(self) -> bool:
        """Whether any consumer wants frames (live mode or a subscriber)."""
        return self.live or bool(self._subscribers)

    def enable_live(
        self,
        stream=None,
        interval_s: float = DEFAULT_STATUS_INTERVAL_S,
    ) -> LiveStatus:
        """Turn on live mode with a :class:`LiveStatus` renderer attached."""
        self.live = True
        self.was_live = True
        if self.status is None:
            self.status = LiveStatus(stream=stream, interval_s=interval_s)
            self.subscribe(self.status)
        return self.status

    def disable_live(self) -> None:
        self.live = False
        if self.status is not None:
            self.unsubscribe(self.status)
            self.status = None

    # -- publishing ----------------------------------------------------------

    def publish(self, kind: str, **payload: Any) -> Frame:
        """Publish one frame: account it and fan it out to every subscriber.

        A subscriber that raises is dropped (and the drop counted) rather
        than poisoning the runner's loop.
        """
        if kind not in FRAME_KINDS:
            raise ValueError(f"unknown frame kind {kind!r}")
        with self._lock:
            seq = self._seq
            self._seq += 1
            subscribers = list(self._subscribers)
        frame = Frame(kind=kind, seq=seq, wall_unix=time.time(), payload=payload)
        _FRAMES_PUBLISHED.inc()
        self.frames_by_kind[kind] = self.frames_by_kind.get(kind, 0) + 1
        if kind == SCENARIO_STARTED:
            scenario = payload.get("scenario")
            if scenario:
                self.scenarios.append(scenario)
        for subscriber in subscribers:
            try:
                subscriber(frame)
            except Exception:
                _FRAMES_DROPPED.inc()
                _LOG.exception("bus subscriber failed; dropping it")
                self.unsubscribe(subscriber)
        return frame

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready ``bus`` section of a schema-3 run report."""
        return {
            "live": self.live or self.was_live,
            "frames_total": sum(self.frames_by_kind.values()),
            "frames_by_kind": dict(sorted(self.frames_by_kind.items())),
            "scenarios": list(self.scenarios),
        }

    def reset(self) -> None:
        """Forget accumulated accounting (subscribers and mode survive)."""
        self.frames_by_kind.clear()
        self.scenarios.clear()
        self.was_live = self.live
        self._seq = 0


#: The process-global bus the CLI and the runner share.
DEFAULT_BUS = TelemetryBus()


def default_bus() -> TelemetryBus:
    """The process-default :class:`TelemetryBus`."""
    return DEFAULT_BUS


def bus_summary() -> Dict[str, Any]:
    """The default bus's run-report section (see :mod:`repro.obs.report`)."""
    return DEFAULT_BUS.summary()


def empty_bus_summary() -> Dict[str, Any]:
    """The ``bus`` section of a report from before the bus existed
    (schema 1/2 upgrades)."""
    return {
        "live": False,
        "frames_total": 0,
        "frames_by_kind": {},
        "scenarios": [],
    }
