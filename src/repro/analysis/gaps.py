"""Coverage gaps as timeline events.

Fig. 2's qualitative claims ("continuous gaps of up to over an hour") are
about individual gaps, not just their total.  This helper narrates each
gap of a site's coverage onto the shared simulation timeline.  Both
contact stores give that coverage as an interval set (``site_union``):
sampled runs on the grid engine, analytic windows on the intervals
engine.
"""

from __future__ import annotations

from typing import List

from repro.obs import timeline as obs_timeline
from repro.obs.timeline import TimelineEvent
from repro.sim.intervals import IntervalSet


def gap_timeline_events(
    coverage: IntervalSet,
    site: str,
    emit: bool = True,
) -> List[TimelineEvent]:
    """Coverage gaps as ``gap.open`` / ``gap.close`` timeline events.

    Gaps are the complement of ``coverage`` over its horizon; each gap
    produces an open/close pair on the site's track.  Edge cases are
    marked explicitly so downstream readers need no coverage access:

    * a gap already open at the horizon start carries
      ``at_run_start=True`` on its open event;
    * a gap still open at the horizon end carries ``at_run_end=True`` on
      its close event (the close is the horizon edge, not a satellite
      rise).

    Args:
        coverage: The site's coverage over the run's horizon.
        site: Track label (site name) for the events.
        emit: Also record the events on the global timeline (default).

    Returns:
        The open/close events in temporal order.
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
