"""Contact plans: visibility windows as first-class schedule objects.

Satellite operations revolve around *contact plans* — the schedule of
windows during which each (site, satellite) pair can communicate.  This
module extracts them from the visibility tensors.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.obs import timeline as obs_timeline
from repro.sim.clock import TimeGrid
from repro.sim.events import ContactEvent, intervals_from_mask


def _narrate_events(events: Sequence[ContactEvent]) -> None:
    """Emit contact begin/end pairs onto the shared simulation timeline."""
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


def contact_events(
    visibility: np.ndarray,
    site_names: Sequence[str],
    sat_ids: Sequence[str],
    grid: TimeGrid,
) -> List[ContactEvent]:
    """Extract every contact window from a visibility tensor.

    Args:
        visibility: Boolean (S, N, T).
        site_names: S site names.
        sat_ids: N satellite ids.
        grid: The tensor's time grid.

    Each extracted window is also narrated onto the shared simulation
    timeline (:mod:`repro.obs.timeline`) as a ``contact.begin`` /
    ``contact.end`` pair on the satellite's track, so a ``--trace-out``
    export shows every pass as a slice in the viewer.

    Returns:
        Contacts sorted by (start time, site, satellite).
    """
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.ndim != 3:
        raise ValueError(f"visibility must be (S, N, T), got {visibility.shape}")
    if visibility.shape[0] != len(site_names):
        raise ValueError(
            f"need {visibility.shape[0]} site names, got {len(site_names)}"
        )
    if visibility.shape[1] != len(sat_ids):
        raise ValueError(f"need {visibility.shape[1]} sat ids, got {len(sat_ids)}")

    # A pass still open at the final sample has no observed set: close it
    # at the horizon end (start + duration, which may lie beyond the last
    # sample) and flag it truncated instead of pretending the satellite
    # set at the last sampled instant.
    sampled_end_s = grid.start_s + grid.step_s * visibility.shape[2]
    horizon_end_s = grid.start_s + grid.duration_s
    events: List[ContactEvent] = []
    for site_index, site_name in enumerate(site_names):
        for sat_index, sat_id in enumerate(sat_ids):
            mask = visibility[site_index, sat_index]
            if not mask.any():
                continue
            for start_s, stop_s in intervals_from_mask(
                mask, grid.step_s, grid.start_s
            ):
                truncated = stop_s >= sampled_end_s
                events.append(
                    ContactEvent(
                        site_name,
                        sat_id,
                        start_s,
                        horizon_end_s if truncated else stop_s,
                        truncated=truncated,
                    )
                )
    events.sort(key=lambda event: (event.start_s, event.site_name, event.sat_id))
    _narrate_events(events)
    return events
