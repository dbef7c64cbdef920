"""The simulation event timeline: a ring-buffered stream of typed events.

Where :mod:`repro.obs.trace` answers "where did the wall-clock go",
this module answers "what happened *inside the simulated world*": which
satellite rose over which city when, which terminal was denied capacity,
when a handover occurred, when coverage gaps opened and closed, and which
parties joined, withdrew, or traded.

Events are emitted from the simulation/market layers
(:mod:`repro.sim.engine`, :mod:`repro.sim.contacts`,
:mod:`repro.sim.scheduling`, :mod:`repro.core.market`,
:mod:`repro.core.sharing`, :mod:`repro.core.registry`) into a process-global
:class:`Timeline`.  The buffer is a fixed-capacity ring: when full, the
*oldest* events are overwritten and the overwrite count is surfaced as
``dropped`` (the run report warns when it is nonzero, so a capped timeline
is never silently truncated).

Timestamps are **simulation seconds** (the experiment's :class:`TimeGrid`
axis), not wall-clock; run-level events with no natural simulation time
(party join, market settlement) use ``t_s=0.0``.

Usage::

    from repro.obs import timeline

    timeline.emit(timeline.HANDOVER, t_s=1200.0, subject="taipei-term",
                  from_sat="sat-3", to_sat="sat-7")
    events = timeline.events(kind=timeline.HANDOVER)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Default ring capacity.  Sized so a full benchmark session keeps the most
#: recent few Monte-Carlo runs' events while bounding memory (~tens of MB).
DEFAULT_CAPACITY = 65536

# -- The typed event vocabulary ---------------------------------------------

CONTACT_BEGIN = "contact.begin"  #: Satellite rises over a site.
CONTACT_END = "contact.end"  #: Satellite sets below the site's mask.
HANDOVER = "handover"  #: A terminal/station switches serving satellite.
ALLOC_GRANT = "allocation.grant"  #: Capacity granted (windowed: duration_s).
ALLOC_DENY = "allocation.deny"  #: Demand present but unserved (windowed).
CAPACITY_SATURATED = "capacity.saturated"  #: A satellite ran at full capacity.
GAP_OPEN = "gap.open"  #: A coverage gap opens at a site.
GAP_CLOSE = "gap.close"  #: The gap closes.
PARTY_JOIN = "party.join"  #: A participant joins the constellation.
MARKET_SETTLEMENT = "market.settlement"  #: A netted inter-party transfer.
SHARING_TRADE = "sharing.trade"  #: Cross-party traded volume (run summary).

#: Every kind the timeline accepts; :meth:`Timeline.emit` rejects others so
#: typos surface at the call site instead of as silently unqueryable events.
KNOWN_KINDS = frozenset(
    {
        CONTACT_BEGIN,
        CONTACT_END,
        HANDOVER,
        ALLOC_GRANT,
        ALLOC_DENY,
        CAPACITY_SATURATED,
        GAP_OPEN,
        GAP_CLOSE,
        PARTY_JOIN,
        MARKET_SETTLEMENT,
        SHARING_TRADE,
    }
)

#: Kinds that carry a duration (rendered as slices on a track); the rest are
#: instantaneous markers.
WINDOWED_KINDS = frozenset({ALLOC_GRANT, ALLOC_DENY, CAPACITY_SATURATED})


@dataclass(frozen=True)
class TimelineEvent:
    """One typed simulation event.

    Attributes:
        t_s: Simulation time of the event (seconds on the experiment grid).
        kind: One of the module-level kind constants (:data:`KNOWN_KINDS`).
        subject: What the event is about — a satellite id, terminal name,
            site name, station label, or party name.
        party: Owning/acting party when known ("" otherwise).
        duration_s: Window length for windowed kinds; 0.0 for instants.
        attrs: Extra JSON-ready detail (rates, counterparties, gap lengths).
    """

    t_s: float
    kind: str
    subject: str
    party: str = ""
    duration_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def stop_s(self) -> float:
        return self.t_s + self.duration_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by reports and the exporter)."""
        record: Dict[str, Any] = {
            "t_s": self.t_s,
            "kind": self.kind,
            "subject": self.subject,
        }
        if self.party:
            record["party"] = self.party
        if self.duration_s:
            record["duration_s"] = self.duration_s
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class Timeline:
    """A fixed-capacity ring buffer of :class:`TimelineEvent` records.

    Thread-safe.  When the ring is full, each new event overwrites the
    oldest one and ``dropped`` increments; per-kind emission counts keep
    counting past the cap (the snapshot's ``counts_by_kind``), so
    aggregate statistics survive truncation the same way span aggregates
    do in :class:`repro.obs.trace.Tracer`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: List[Optional[TimelineEvent]] = [None] * capacity
        self._cursor = 0  # Next write position.
        self._size = 0  # Live events in the ring.
        self.dropped = 0  # Events overwritten after the ring filled.
        self.total_emitted = 0
        self._counts: Dict[str, int] = {}

    def emit(
        self,
        kind: str,
        t_s: float,
        subject: str,
        party: str = "",
        duration_s: float = 0.0,
        **attrs: Any,
    ) -> TimelineEvent:
        """Record one event; returns it (handy for tests and relays).

        Raises:
            ValueError: On an unknown kind or negative duration.
        """
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown timeline event kind {kind!r} "
                f"(known: {', '.join(sorted(KNOWN_KINDS))})"
            )
        if duration_s < 0.0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        event = TimelineEvent(
            t_s=float(t_s),
            kind=kind,
            subject=subject,
            party=party,
            duration_s=float(duration_s),
            attrs=attrs,
        )
        with self._lock:
            if self._size == self.capacity:
                self.dropped += 1
            else:
                self._size += 1
            self._ring[self._cursor] = event
            self._cursor = (self._cursor + 1) % self.capacity
            self.total_emitted += 1
            self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    def emit_event(self, event: TimelineEvent) -> TimelineEvent:
        """Record a pre-built event (same validation as :meth:`emit`)."""
        return self.emit(
            event.kind,
            event.t_s,
            event.subject,
            party=event.party,
            duration_s=event.duration_s,
            **event.attrs,
        )

    def _ordered(self) -> List[TimelineEvent]:
        """Live events in emission order (oldest first).  Caller holds lock."""
        if self._size < self.capacity:
            events = self._ring[: self._size]
        else:
            events = self._ring[self._cursor :] + self._ring[: self._cursor]
        return [event for event in events if event is not None]

    def events(
        self,
        kind: Optional[str] = None,
        subject: Optional[str] = None,
        party: Optional[str] = None,
    ) -> List[TimelineEvent]:
        """Query live events, optionally filtered, in emission order."""
        with self._lock:
            ordered = self._ordered()
        return [
            event
            for event in ordered
            if (kind is None or event.kind == kind)
            and (subject is None or event.subject == subject)
            and (party is None or event.party == party)
        ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: live events + drop accounting."""
        with self._lock:
            ordered = self._ordered()
            return {
                "events": [event.to_dict() for event in ordered],
                "capacity": self.capacity,
                "dropped": self.dropped,
                "total_emitted": self.total_emitted,
                "counts_by_kind": dict(sorted(self._counts.items())),
            }

    def reset(self) -> None:
        """Forget every event and zero the drop accounting."""
        with self._lock:
            self._ring = [None] * self.capacity
            self._cursor = 0
            self._size = 0
            self.dropped = 0
            self.total_emitted = 0
            self._counts.clear()

    def __len__(self) -> int:
        with self._lock:
            return self._size


#: The process-global timeline every instrumented module shares.
TIMELINE = Timeline()


def emit(
    kind: str,
    t_s: float,
    subject: str,
    party: str = "",
    duration_s: float = 0.0,
    **attrs: Any,
) -> TimelineEvent:
    """Emit one event on the default timeline."""
    return TIMELINE.emit(
        kind, t_s, subject, party=party, duration_s=duration_s, **attrs
    )


def events(
    kind: Optional[str] = None,
    subject: Optional[str] = None,
    party: Optional[str] = None,
) -> List[TimelineEvent]:
    """Query the default timeline."""
    return TIMELINE.events(kind=kind, subject=subject, party=party)


def snapshot() -> Dict[str, Any]:
    """Snapshot the default timeline."""
    return TIMELINE.snapshot()


def reset() -> None:
    """Reset the default timeline (tests and fresh runs)."""
    TIMELINE.reset()


def extend(items: Iterable[TimelineEvent]) -> int:
    """Emit a batch of pre-built events; returns how many were recorded."""
    count = 0
    for item in items:
        TIMELINE.emit_event(item)
        count += 1
    return count
