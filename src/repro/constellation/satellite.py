"""Satellite and constellation records.

A :class:`Satellite` is an orbit plus an identity: a stable id, an optional
human-readable name, the owning party (for MP-LEO experiments) and a nominal
link capacity.  A :class:`Constellation` is an ordered, immutable collection
of satellites with convenience accessors used throughout the simulator; it
can also be backed by element columns, creating satellite objects only
where they are read (:meth:`Constellation.from_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.orbits.elements import ElementColumns, OrbitalElements

#: Party name used for satellites that have not been assigned to any MP-LEO
#: participant.
UNASSIGNED_PARTY = "unassigned"


@dataclass(frozen=True)
class Satellite:
    """One satellite: orbit + identity + ownership.

    Attributes:
        sat_id: Stable unique identifier within a constellation.
        elements: Orbital elements at the constellation epoch.
        name: Optional human-readable name.
        party: Owning MP-LEO participant (``UNASSIGNED_PARTY`` if none).
        capacity_mbps: Nominal user-link capacity the satellite can relay.
    """

    sat_id: str
    elements: OrbitalElements
    name: str = ""
    party: str = UNASSIGNED_PARTY
    capacity_mbps: float = 1000.0

    def owned_by(self, party: str) -> "Satellite":
        """Return a copy of this satellite assigned to ``party``."""
        return replace(self, party=party)


def _index_ids(sat_ids: Sequence[str]) -> Dict[str, int]:
    """Map id -> position; ValueError naming the first repeated id."""
    index = dict(zip(sat_ids, range(len(sat_ids))))
    if len(index) != len(sat_ids):
        seen: Dict[str, int] = {}
        for position, sat_id in enumerate(sat_ids):
            if sat_id in seen:
                raise ValueError(
                    f"duplicate satellite id {sat_id!r} at positions "
                    f"{seen[sat_id]} and {position}"
                )
            seen[sat_id] = position
    return index


def _column_satellite(sat_id: str, elements: OrbitalElements) -> Satellite:
    """A row of a column-backed constellation (see :meth:`Constellation.from_columns`)."""
    return Satellite(sat_id=sat_id, elements=elements, name=sat_id)


class Constellation:
    """An immutable ordered collection of satellites.

    Provides the sub-constellation views the MP-LEO experiments use
    (:meth:`without_party` for withdrawal, :meth:`take` for sampling).

    A constellation holds either its :class:`Satellite` objects or, when
    built by :meth:`from_columns`, only element columns and ids.  A
    column-backed one creates a satellite the first time it is indexed,
    and all of them the first time it is iterated or composed by party;
    ``len``, ids, :attr:`columns` and :meth:`take` stay on the columns.
    """

    def __init__(self, satellites: Iterable[Satellite], name: str = "") -> None:
        self._satellites: Optional[Tuple[Satellite, ...]] = tuple(satellites)
        self._columns: Optional[ElementColumns] = None
        self._rows: Dict[int, Satellite] = {}
        self._ids = tuple(satellite.sat_id for satellite in self._satellites)
        self.name = name
        self._index_by_id = _index_ids(self._ids)

    @classmethod
    def from_columns(
        cls, columns: ElementColumns, sat_ids: Sequence[str], name: str = ""
    ) -> "Constellation":
        """A column-backed constellation: row ``i`` of ``columns`` is the
        satellite ``sat_ids[i]``, named after its id, unassigned and at the
        default capacity.  No :class:`Satellite` is created here."""
        if len(sat_ids) != len(columns):
            raise ValueError(
                f"{len(sat_ids)} ids for {len(columns)} rows of elements"
            )
        constellation = cls.__new__(cls)
        constellation._satellites = None
        constellation._columns = columns
        constellation._rows = {}
        constellation._ids = tuple(sat_ids)
        constellation.name = name
        constellation._index_by_id = _index_ids(constellation._ids)
        return constellation

    def _row(self, index: int) -> Satellite:
        """The satellite at ``index`` of a column-backed constellation."""
        position = range(len(self._ids))[index]  # IndexError when out of range
        satellite = self._rows.get(position)
        if satellite is None:
            satellite = _column_satellite(
                self._ids[position], self._columns.element(position)
            )
            self._rows[position] = satellite
        return satellite

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Satellite]:
        return iter(self.satellites)

    def __getitem__(self, index: int) -> Satellite:
        if self._satellites is None and not isinstance(index, slice):
            return self._row(index)
        return self.satellites[index]

    def __contains__(self, sat_id: str) -> bool:
        return sat_id in self._index_by_id

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Constellation{label}: {len(self)} satellites>"

    @property
    def satellites(self) -> Tuple[Satellite, ...]:
        if self._satellites is None:
            rows = self._rows
            self._satellites = tuple(
                rows[position] if position in rows else _column_satellite(sat_id, element)
                for position, (sat_id, element) in enumerate(
                    zip(self._ids, self._columns.to_elements())
                )
            )
            self._rows = {}
        return self._satellites

    @property
    def sat_ids(self) -> Tuple[str, ...]:
        """Satellite ids, in order."""
        return self._ids

    @property
    def columns(self) -> ElementColumns:
        """Orbital elements of every satellite as columns, in order."""
        if self._columns is None:
            self._columns = ElementColumns.from_elements(self.elements)
        return self._columns

    @property
    def elements(self) -> List[OrbitalElements]:
        """Orbital elements of every satellite, in order."""
        return [satellite.elements for satellite in self.satellites]

    @property
    def parties(self) -> List[str]:
        """Sorted distinct party names present in the constellation."""
        return sorted({satellite.party for satellite in self.satellites})

    def get(self, sat_id: str) -> Satellite:
        """Look a satellite up by id.

        Raises:
            KeyError: If the id is not present.
        """
        return self[self._index_by_id[sat_id]]

    def filter(self, predicate: Callable[[Satellite], bool], name: str = "") -> "Constellation":
        """Return the sub-constellation of satellites matching ``predicate``."""
        return Constellation(
            (satellite for satellite in self.satellites if predicate(satellite)),
            name=name or self.name,
        )

    def without_party(self, party: str) -> "Constellation":
        """Return the constellation after one party withdraws its satellites."""
        return self.filter(
            lambda satellite: satellite.party != party,
            name=f"{self.name}-minus-{party}" if self.name else f"minus-{party}",
        )

    def take(self, indices: Sequence[int], name: str = "") -> "Constellation":
        """Return the sub-constellation at the given positional indices."""
        if self._satellites is None:
            # Fancy indexing normalizes negatives and raises IndexError.
            positions = np.arange(len(self))[np.asarray(indices, dtype=np.intp)]
            return Constellation.from_columns(
                self._columns.take(positions),
                [self._ids[position] for position in positions.tolist()],
                name=name or self.name,
            )
        return Constellation(
            [self._satellites[int(index)] for index in indices],
            name=name or self.name,
        )


def from_elements(
    elements: Iterable[OrbitalElements],
    prefix: str = "SAT",
    name: str = "",
    party: str = UNASSIGNED_PARTY,
    capacity_mbps: float = 1000.0,
) -> Constellation:
    """Wrap bare orbital elements into a constellation with generated ids."""
    satellites = [
        Satellite(
            sat_id=f"{prefix}-{index:05d}",
            elements=element,
            name=f"{prefix}-{index:05d}",
            party=party,
            capacity_mbps=capacity_mbps,
        )
        for index, element in enumerate(elements)
    ]
    return Constellation(satellites, name=name)
