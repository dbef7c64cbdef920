"""Link layer: RF budgets, channel capacity, and the bent-pipe relay model.

* :mod:`repro.links.budget` — link budgets (EIRP, path loss, G/T, C/N0).
* :mod:`repro.links.channel` — Shannon and DVB-S2-style MODCOD capacity.
* :mod:`repro.links.bentpipe` — the paper's transparent bent-pipe
  architecture: the satellite repeats the uplink waveform on the downlink
  without decoding, so end-to-end quality composes the two hops' noise.
* :mod:`repro.links.isl` — inter-satellite links and multi-hop relay (the
  §4 future-work extension, implemented so the trade-off is measurable).
* :mod:`repro.links.latency` — bent-pipe propagation latency, including the
  §2 LEO-vs-GEO comparison.
"""

from repro.links.budget import LinkBudget, free_space_path_loss_db
from repro.links.bentpipe import BentPipeLink, TransparentTransponder
from repro.links.channel import shannon_capacity_bps, select_modcod, MODCOD_TABLE

__all__ = [
    "LinkBudget",
    "free_space_path_loss_db",
    "BentPipeLink",
    "TransparentTransponder",
    "shannon_capacity_bps",
    "select_modcod",
    "MODCOD_TABLE",
]
