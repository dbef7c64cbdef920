"""Channel capacity: Shannon bound and a DVB-S2-style MODCOD ladder.

The transparent bent-pipe design leaves waveform choice to terminals and
ground stations (§3.1), so the library models capacity two ways:

* :func:`shannon_capacity_bps` — the information-theoretic ceiling, the
  bound every MODCOD's spectral efficiency stays under.
* :func:`select_modcod` — a realistic adaptive-coding-and-modulation ladder
  patterned on DVB-S2(X) operating points, used by the event simulator to
  turn SNR into an achievable data rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence


def shannon_capacity_bps(bandwidth_hz: float, snr_linear: float) -> float:
    """Shannon capacity C = B * log2(1 + SNR).

    Raises:
        ValueError: On non-positive bandwidth or negative SNR.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    if snr_linear < 0.0:
        raise ValueError(f"SNR must be non-negative, got {snr_linear}")
    return bandwidth_hz * math.log2(1.0 + snr_linear)


@dataclass(frozen=True)
class ModCod:
    """One modulation-and-coding operating point."""

    name: str
    spectral_efficiency_bps_hz: float
    required_snr_db: float

    def rate_bps(self, bandwidth_hz: float) -> float:
        return self.spectral_efficiency_bps_hz * bandwidth_hz


#: DVB-S2 operating points (subset), sorted by required SNR ascending.
#: Efficiencies and Es/N0 thresholds follow ETSI EN 302 307 Table 13.
MODCOD_TABLE: Sequence[ModCod] = (
    ModCod("QPSK 1/4", 0.490, -2.35),
    ModCod("QPSK 1/2", 0.989, 1.00),
    ModCod("QPSK 3/4", 1.487, 4.03),
    ModCod("QPSK 8/9", 1.766, 6.20),
    ModCod("8PSK 3/4", 2.228, 7.91),
    ModCod("8PSK 8/9", 2.646, 10.69),
    ModCod("16APSK 3/4", 2.967, 10.21),
    ModCod("16APSK 8/9", 3.523, 12.89),
    ModCod("32APSK 4/5", 3.952, 15.69),
    ModCod("32APSK 9/10", 4.453, 16.05),
)


def select_modcod(
    snr_db: float, table: Sequence[ModCod] = MODCOD_TABLE
) -> Optional[ModCod]:
    """Pick the highest-efficiency MODCOD whose threshold the SNR meets.

    Returns:
        The chosen operating point, or None when even the most robust entry
        cannot close (link outage).
    """
    best: Optional[ModCod] = None
    for modcod in table:
        if snr_db >= modcod.required_snr_db:
            if best is None or (
                modcod.spectral_efficiency_bps_hz > best.spectral_efficiency_bps_hz
            ):
                best = modcod
    return best


def achievable_rate_bps(
    snr_db: float, bandwidth_hz: float, table: Sequence[ModCod] = MODCOD_TABLE
) -> float:
    """Achievable rate under the MODCOD ladder (0 when the link cannot close)."""
    modcod = select_modcod(snr_db, table)
    if modcod is None:
        return 0.0
    return modcod.rate_bps(bandwidth_hz)


def modcod_staircase(
    table: Sequence[ModCod] = MODCOD_TABLE,
) -> "tuple":
    """Monotone (thresholds_db, efficiencies) arrays for vectorized lookup.

    The raw table is not monotone (some operating points have a lower
    threshold *and* a higher efficiency than others); the staircase keeps,
    at each threshold, the best efficiency achievable at or below it, so
    ``efficiencies[searchsorted(thresholds, snr, 'right') - 1]`` equals
    :func:`select_modcod`'s answer.
    """
    import numpy as np

    ordered = sorted(table, key=lambda modcod: modcod.required_snr_db)
    thresholds = np.array([modcod.required_snr_db for modcod in ordered])
    efficiencies = np.maximum.accumulate(
        np.array([modcod.spectral_efficiency_bps_hz for modcod in ordered])
    )
    return thresholds, efficiencies


def achievable_rates_bps_array(
    snr_db, bandwidth_hz: float, table: Sequence[ModCod] = MODCOD_TABLE
):
    """Vectorized :func:`achievable_rate_bps` over an SNR array."""
    import numpy as np

    thresholds, efficiencies = modcod_staircase(table)
    snr = np.asarray(snr_db, dtype=np.float64)
    indices = np.searchsorted(thresholds, snr, side="right") - 1
    rates = np.where(
        indices >= 0,
        efficiencies[np.clip(indices, 0, None)] * bandwidth_hz,
        0.0,
    )
    return rates
