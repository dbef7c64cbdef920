"""The transparent bent-pipe relay model (§3.1 of the paper).

In a *transparent* bent pipe the satellite never decodes the uplink: it
amplifies and re-transmits the raw waveform toward the ground station.  Two
consequences the model captures:

* **Noise composition.** Uplink noise is amplified along with the signal, so
  the end-to-end carrier-to-noise ratio composes as

      1 / SNR_total = 1 / SNR_up + 1 / SNR_down

  (the classical transparent-transponder cascade).  A regenerative (packet
  level) pipe, by contrast, re-encodes on board and the end-to-end quality is
  ``min(SNR_up, SNR_down)`` per hop.  Both variants are implemented because
  the paper's §4 discusses the packet-level alternative.

* **Simultaneous visibility.** A session needs the satellite above both the
  user terminal and a ground station *of the same party* at the same time.
  The geometry side of that condition lives in the simulator; this module
  provides the per-instant rate calculation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.links.budget import LinkBudget
from repro.links.channel import achievable_rate_bps


class RelayMode(enum.Enum):
    """How the satellite handles the uplink signal."""

    TRANSPARENT = "transparent"  # RF repeater; noise cascades (paper's choice).
    REGENERATIVE = "regenerative"  # Decode-and-forward; per-hop limited.


@dataclass(frozen=True)
class TransparentTransponder:
    """Satellite-side parameters of a bent-pipe transponder.

    Attributes:
        gain_db: RF gain applied between receive and re-transmit (affects the
            downlink EIRP which the downlink budget already encodes; kept for
            completeness/diagnostics).
        bandwidth_hz: Transponder passband.
    """

    gain_db: float = 100.0
    bandwidth_hz: float = 62.5e6

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")


@dataclass(frozen=True)
class BentPipeLink:
    """An end-to-end user-terminal -> satellite -> ground-station link."""

    uplink: LinkBudget
    downlink: LinkBudget
    transponder: TransparentTransponder = TransparentTransponder()
    mode: RelayMode = RelayMode.TRANSPARENT

    def end_to_end_snr_linear(
        self, uplink_range_m: float, downlink_range_m: float
    ) -> float:
        """Composite SNR of the two hops, per the relay mode."""
        snr_up = self.uplink.snr_linear(uplink_range_m)
        snr_down = self.downlink.snr_linear(downlink_range_m)
        if snr_up <= 0.0 or snr_down <= 0.0:
            return 0.0
        if self.mode is RelayMode.TRANSPARENT:
            return 1.0 / (1.0 / snr_up + 1.0 / snr_down)
        return min(snr_up, snr_down)

    def end_to_end_snr_db(
        self, uplink_range_m: float, downlink_range_m: float
    ) -> float:
        snr = self.end_to_end_snr_linear(uplink_range_m, downlink_range_m)
        if snr <= 0.0:
            return -math.inf
        return 10.0 * math.log10(snr)

    def achievable_rate_bps(
        self, uplink_range_m: float, downlink_range_m: float
    ) -> float:
        """MODCOD-ladder end-to-end rate (0 on outage)."""
        snr_db = self.end_to_end_snr_db(uplink_range_m, downlink_range_m)
        if snr_db == -math.inf:
            return 0.0
        bandwidth = min(self.uplink.bandwidth_hz, self.downlink.bandwidth_hz)
        return achievable_rate_bps(snr_db, bandwidth)
