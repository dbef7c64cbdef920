"""The multi-party constellation registry.

The registry is MP-LEO's book of record: which party contributed which
satellites, with what stake.  It enforces the paper's structural rules:

* Contributions are attributed — every satellite has exactly one owner.
* Withdrawal removes exactly the withdrawing party's satellites; nobody can
  remove another party's contribution (no single party can shut the network
  down).
* Stake is derived from contributions, never set directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

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

    def leave(self, party_name: str) -> Constellation:
        """Withdraw a party and all its satellites.

        Returns:
            The withdrawn satellites (the party keeps physical control of
            its own hardware — the core of the decentralization argument).

        Raises:
            RegistryError: If the party is unknown.
        """
        if party_name not in self._parties:
            raise RegistryError(f"unknown party {party_name!r}")
        withdrawn = [
            satellite
            for satellite in self._satellites.values()
            if satellite.party == party_name
        ]
        for satellite in withdrawn:
            del self._satellites[satellite.sat_id]
        del self._parties[party_name]
        obs_timeline.emit(
            obs_timeline.PARTY_WITHDRAW,
            0.0,
            party_name,
            party=party_name,
            satellites=len(withdrawn),
        )
        return Constellation(withdrawn, name=f"withdrawn-{party_name}")

    @property
    def party_names(self) -> List[str]:
        return sorted(self._parties)

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

    def decommission(self, party_name: str, sat_ids: Iterable[str]) -> None:
        """Remove specific satellites — only the owner may do so.

        Raises:
            RegistryError: If a satellite is unknown or owned by another party.
        """
        ids = list(sat_ids)
        for sat_id in ids:
            satellite = self._satellites.get(sat_id)
            if satellite is None:
                raise RegistryError(f"unknown satellite {sat_id!r}")
            if satellite.party != party_name:
                raise RegistryError(
                    f"{party_name!r} cannot decommission {sat_id!r} "
                    f"owned by {satellite.party!r}"
                )
        for sat_id in ids:
            del self._satellites[sat_id]

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
