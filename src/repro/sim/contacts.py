"""Contact plans: visibility windows as first-class schedule objects.

Satellite operations revolve around *contact plans* — the schedule of
windows during which each (site, satellite) pair can communicate.  Both
contact stores list one pair's windows the same way, as ``pair_windows``
(rise, set and truncation arrays): the grid engine's
:class:`~repro.sim.visibility.PackedVisibility` from its sampled runs, the
intervals engine's :class:`~repro.sim.intervals.ContactIntervals` from its
analytic edges.  This module turns them into contact events.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.obs import timeline as obs_timeline
from repro.sim.events import ContactEvent

#: One pair's windows as ``pair_windows`` returns them: aligned (rise, set,
#: truncated_start, truncated_end) arrays.
PairWindows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def narrate_contacts(
    site_name: str, windows: Sequence[Tuple[str, PairWindows]]
) -> List[ContactEvent]:
    """Contact events of some satellites at one site, on the timeline.

    Args:
        site_name: The site's name.
        windows: ``(satellite id, pair_windows(site, satellite))`` of each
            satellite.

    Each window is narrated onto the shared simulation timeline
    (:mod:`repro.obs.timeline`) as a ``contact.begin`` / ``contact.end``
    pair on the satellite's track, so a ``--trace-out`` export shows every
    pass as a slice in the viewer.  A window clipped by the horizon ends
    at the horizon and is flagged ``truncated``.

    Returns:
        The contacts, sorted by (start time, satellite id).
    """
    events: List[ContactEvent] = []
    for sat_id, (rises, sets, cut_start, cut_end) in windows:
        events.extend(
            ContactEvent(
                site_name, sat_id, float(rise), float(stop),
                truncated=bool(start_cut or end_cut),
            )
            for rise, stop, start_cut, end_cut in zip(rises, sets, cut_start, cut_end)
        )
    events.sort(key=lambda event: (event.start_s, event.sat_id))
    for event in events:
        obs_timeline.emit(
            obs_timeline.CONTACT_BEGIN,
            event.start_s,
            event.sat_id,
            site=event.site_name,
            duration_hint_s=event.duration_s,
        )
        obs_timeline.emit(
            obs_timeline.CONTACT_END,
            event.stop_s,
            event.sat_id,
            site=event.site_name,
        )
    return events
