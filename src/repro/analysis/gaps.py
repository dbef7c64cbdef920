"""Coverage gaps as timeline events.

Fig. 2's qualitative claims ("continuous gaps of up to over an hour") are
about individual gaps, not just their total.  These helpers narrate each
gap of a coverage timeline onto the shared simulation timeline, from a
sampled mask or from an analytic interval set.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.obs import timeline as obs_timeline
from repro.obs.timeline import TimelineEvent
from repro.sim.events import intervals_from_mask
from repro.sim.intervals import IntervalSet


def gap_timeline_events(
    mask: np.ndarray,
    step_s: float,
    site: str,
    start_s: float = 0.0,
    emit: bool = True,
) -> List[TimelineEvent]:
    """Coverage gaps as ``gap.open`` / ``gap.close`` timeline events.

    Every uncovered run in ``mask`` produces an open/close pair on the
    site's track.  Edge cases are marked explicitly so downstream readers
    need no mask access:

    * a gap already open at the first sample carries ``at_run_start=True``
      on its open event;
    * a gap still open at the last sample carries ``at_run_end=True`` on
      its close event (the close is the horizon edge, not a satellite rise).

    Args:
        mask: 1-D boolean coverage timeline; True = covered.
        step_s: Sample spacing, seconds.
        site: Track label (site name) for the events.
        start_s: Simulation time of the first sample.
        emit: Also record the events on the global timeline (default).

    Returns:
        The open/close events in temporal order.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 1:
        raise ValueError(f"mask must be 1-D, got shape {mask.shape}")
    horizon_end_s = start_s + step_s * mask.size
    events: List[TimelineEvent] = []
    for gap_start_s, gap_stop_s in intervals_from_mask(~mask, step_s, start_s):
        gap_s = gap_stop_s - gap_start_s
        open_attrs = {"gap_s": gap_s}
        if gap_start_s <= start_s:
            open_attrs["at_run_start"] = True
        close_attrs = {"gap_s": gap_s}
        if gap_stop_s >= horizon_end_s:
            close_attrs["at_run_end"] = True
        events.append(
            TimelineEvent(
                t_s=gap_start_s,
                kind=obs_timeline.GAP_OPEN,
                subject=site,
                attrs=open_attrs,
            )
        )
        events.append(
            TimelineEvent(
                t_s=gap_stop_s,
                kind=obs_timeline.GAP_CLOSE,
                subject=site,
                attrs=close_attrs,
            )
        )
    if emit:
        obs_timeline.extend(events)
    return events


def gap_timeline_events_from_intervals(
    coverage: IntervalSet,
    site: str,
    emit: bool = True,
) -> List[TimelineEvent]:
    """:func:`gap_timeline_events` from an analytic coverage interval set.

    Gaps are the complement of ``coverage`` over its horizon; boundary
    markers (``at_run_start`` / ``at_run_end``) follow the same rules as
    the mask-based variant, keyed on the horizon bounds.
    """
    events: List[TimelineEvent] = []
    gaps = coverage.complement()
    for gap_start_s, gap_stop_s in zip(gaps.starts, gaps.stops):
        gap_s = float(gap_stop_s - gap_start_s)
        open_attrs = {"gap_s": gap_s}
        if gap_start_s <= coverage.start_s:
            open_attrs["at_run_start"] = True
        close_attrs = {"gap_s": gap_s}
        if gap_stop_s >= coverage.end_s:
            close_attrs["at_run_end"] = True
        events.append(
            TimelineEvent(
                t_s=float(gap_start_s),
                kind=obs_timeline.GAP_OPEN,
                subject=site,
                attrs=open_attrs,
            )
        )
        events.append(
            TimelineEvent(
                t_s=float(gap_stop_s),
                kind=obs_timeline.GAP_CLOSE,
                subject=site,
                attrs=close_attrs,
            )
        )
    if emit:
        obs_timeline.extend(events)
    return events
