"""RF link budgets.

Standard satcom budget arithmetic in dB:

    C/N0 [dBHz] = EIRP + G/T - FSPL - L_extra - k

with ``k`` Boltzmann's constant in dBW/K/Hz.  Defaults approximate a
Ku-band LEO user link (Starlink-class terminal and satellite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import BOLTZMANN_DBW, SPEED_OF_LIGHT


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss in dB.

    Raises:
        ValueError: On non-positive distance or frequency.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class LinkBudget:
    """One hop of an RF link (terminal->satellite or satellite->station).

    Attributes:
        eirp_dbw: Transmitter EIRP, dBW.
        gain_over_temperature_db_k: Receiver figure of merit G/T, dB/K.
        frequency_hz: Carrier frequency.
        bandwidth_hz: Allocated bandwidth.
        extra_losses_db: Atmospheric, pointing, polarization margins.
    """

    eirp_dbw: float
    gain_over_temperature_db_k: float
    frequency_hz: float
    bandwidth_hz: float
    extra_losses_db: float = 2.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if self.bandwidth_hz <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        if self.extra_losses_db < 0.0:
            raise ValueError(
                f"extra losses must be non-negative, got {self.extra_losses_db}"
            )

    def carrier_to_noise_density_dbhz(self, distance_m: float) -> float:
        """C/N0 in dBHz at a slant range."""
        return (
            self.eirp_dbw
            + self.gain_over_temperature_db_k
            - free_space_path_loss_db(distance_m, self.frequency_hz)
            - self.extra_losses_db
            - BOLTZMANN_DBW
        )

    def snr_db(self, distance_m: float) -> float:
        """Carrier-to-noise ratio over the allocated bandwidth, dB."""
        return self.carrier_to_noise_density_dbhz(distance_m) - 10.0 * math.log10(
            self.bandwidth_hz
        )

    def snr_linear(self, distance_m: float) -> float:
        """Linear SNR over the allocated bandwidth."""
        return 10.0 ** (self.snr_db(distance_m) / 10.0)


#: Representative Ku-band uplink: Starlink-class phased-array user terminal
#: (~33 dBW EIRP) toward a LEO satellite with G/T ~ 9 dB/K.
KU_BAND_USER_UPLINK = LinkBudget(
    eirp_dbw=33.0,
    gain_over_temperature_db_k=9.0,
    frequency_hz=14.0e9,
    bandwidth_hz=62.5e6,
)

#: Representative Ku-band downlink: satellite EIRP ~ 36 dBW toward a gateway
#: with a 1.5 m dish (G/T ~ 31 dB/K).
KU_BAND_GATEWAY_DOWNLINK = LinkBudget(
    eirp_dbw=36.0,
    gain_over_temperature_db_k=31.0,
    frequency_hz=11.7e9,
    bandwidth_hz=62.5e6,
)
