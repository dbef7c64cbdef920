"""The multi-party constellation registry.

The registry is MP-LEO's book of record: which party contributed which
satellites, with what stake.  It enforces the paper's structural rules:

* Contributions are attributed — every satellite has exactly one owner, so
  a party's withdrawal takes exactly its own satellites
  (:func:`repro.core.robustness.largest_party_withdrawal`).
* Stake is derived from contributions, never set directly.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.constellation.satellite import Constellation, Satellite
from repro.core.party import Party, stake_shares
from repro.obs import timeline as obs_timeline


class RegistryError(RuntimeError):
    """Raised on invalid registry operations (unknown party, id collisions)."""


class MultiPartyConstellation:
    """A shared constellation built from attributed party contributions.

    Example:
        >>> registry = MultiPartyConstellation()
        >>> registry.join(Party("taiwan"))
        >>> registry.contribute("taiwan", satellites)
        >>> registry.stakes()
        {'taiwan': 1.0}
    """

    def __init__(self) -> None:
        self._parties: Dict[str, Party] = {}
        self._satellites: Dict[str, Satellite] = {}

    # -- membership ------------------------------------------------------

    def join(self, party: Party) -> None:
        """Register a new participant.

        Raises:
            RegistryError: If the name is already taken.
        """
        if party.name in self._parties:
            raise RegistryError(f"party {party.name!r} already joined")
        self._parties[party.name] = party
        obs_timeline.emit(
            obs_timeline.PARTY_JOIN,
            0.0,
            party.name,
            party=party.name,
            objective=party.objective.value,
        )

    def party(self, name: str) -> Party:
        if name not in self._parties:
            raise RegistryError(f"unknown party {name!r}")
        return self._parties[name]

    # -- contributions ---------------------------------------------------

    def contribute(
        self, party_name: str, satellites: Iterable[Satellite]
    ) -> None:
        """Add a party's satellites to the shared constellation.

        Satellites are re-attributed to the contributing party regardless of
        their incoming ``party`` field.

        Raises:
            RegistryError: On unknown party or satellite-id collision.
        """
        if party_name not in self._parties:
            raise RegistryError(f"unknown party {party_name!r}")
        incoming = [satellite.owned_by(party_name) for satellite in satellites]
        for satellite in incoming:
            if satellite.sat_id in self._satellites:
                raise RegistryError(
                    f"satellite id {satellite.sat_id!r} already contributed"
                )
        for satellite in incoming:
            self._satellites[satellite.sat_id] = satellite

    # -- views -----------------------------------------------------------

    def constellation(self) -> Constellation:
        """The full shared constellation (stable id order)."""
        return Constellation(
            [self._satellites[sat_id] for sat_id in sorted(self._satellites)],
            name="mp-leo",
        )

    def contributions(self) -> Dict[str, int]:
        """Per-party satellite counts (zero for satellite-less members)."""
        counts = {name: 0 for name in self._parties}
        for satellite in self._satellites.values():
            counts[satellite.party] += 1
        return counts

    def stakes(self) -> Dict[str, float]:
        """Stake shares by party (contributed fraction of the constellation)."""
        return stake_shares(
            {name: count for name, count in self.contributions().items() if count}
        )

    def largest_party(self) -> str:
        """Party with the most satellites (ties break lexicographically)."""
        counts = self.contributions()
        if not counts or all(count == 0 for count in counts.values()):
            raise RegistryError("no contributions yet")
        return min(counts, key=lambda name: (-counts[name], name))

    def __len__(self) -> int:
        return len(self._satellites)
