"""Tests for Satellite and Constellation containers."""

import numpy as np
import pytest

from repro.constellation.satellite import (
    Constellation,
    Satellite,
    UNASSIGNED_PARTY,
    from_elements,
)
from repro.constellation.shells import (
    KUIPER_SHELLS,
    ONEWEB_SHELLS,
    build_shell,
    kuiper_like_constellation,
    oneweb_like_constellation,
)
from repro.orbits.elements import ElementColumns, OrbitalElements
from repro.orbits.propagator import BatchPropagator


def _sat(sat_id, party=UNASSIGNED_PARTY):
    return Satellite(
        sat_id=sat_id,
        elements=OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0),
        party=party,
    )


class TestSatellite:
    def test_defaults(self):
        satellite = _sat("S1")
        assert satellite.party == UNASSIGNED_PARTY
        assert satellite.capacity_mbps == 1000.0

    def test_owned_by(self):
        owned = _sat("S1").owned_by("taiwan")
        assert owned.party == "taiwan"
        assert owned.sat_id == "S1"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _sat("S1").party = "x"


class TestConstellation:
    def test_len_and_iter(self):
        constellation = Constellation([_sat("A"), _sat("B")])
        assert len(constellation) == 2
        assert [satellite.sat_id for satellite in constellation] == ["A", "B"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Constellation([_sat("A"), _sat("A")])

    def test_get(self):
        constellation = Constellation([_sat("A"), _sat("B")])
        assert constellation.get("B").sat_id == "B"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            Constellation([_sat("A")]).get("Z")

    def test_contains(self):
        constellation = Constellation([_sat("A")])
        assert "A" in constellation
        assert "B" not in constellation

    def test_empty_constellation_allowed(self):
        assert len(Constellation([])) == 0

    def test_without_party(self):
        constellation = Constellation(
            [_sat("A", "x"), _sat("B", "y"), _sat("C", "x")]
        )
        remaining = constellation.without_party("x")
        assert [satellite.sat_id for satellite in remaining] == ["B"]

    def test_parties_sorted(self):
        constellation = Constellation([_sat("A", "z"), _sat("B", "a")])
        assert constellation.parties == ["a", "z"]

    def test_filter(self):
        constellation = Constellation(
            [_sat("A", "x"), _sat("B", "y"), _sat("C", "x")], name="pool"
        )
        kept = constellation.filter(lambda satellite: satellite.party == "x")
        assert [satellite.sat_id for satellite in kept] == ["A", "C"]
        assert kept.name == "pool"
        assert constellation.filter(lambda _: False, name="none").name == "none"

    def test_take(self):
        constellation = Constellation([_sat("A"), _sat("B"), _sat("C")])
        taken = constellation.take([2, 0])
        assert [satellite.sat_id for satellite in taken] == ["C", "A"]

    def test_immutability_of_source(self):
        constellation = Constellation([_sat("A", "x")])
        constellation.without_party("x")
        assert len(constellation) == 1

    def test_elements_accessor(self):
        constellation = Constellation([_sat("A"), _sat("B")])
        assert len(constellation.elements) == 2

    def test_repr(self):
        constellation = Constellation([_sat("A")], name="demo")
        assert "demo" in repr(constellation)
        assert "1 satellites" in repr(constellation)


class TestFromElements:
    def test_generates_ids(self):
        elements = [
            OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        ] * 3
        constellation = from_elements(elements, prefix="T")
        assert [satellite.sat_id for satellite in constellation] == [
            "T-00000",
            "T-00001",
            "T-00002",
        ]

    def test_party_applied(self):
        elements = [
            OrbitalElements.from_degrees(altitude_km=550.0, inclination_deg=53.0)
        ]
        constellation = from_elements(elements, party="korea")
        assert constellation[0].party == "korea"


def _eager(shells, prefix, name, seed, raan_jitter_deg, phase_jitter_deg):
    """A pool built one Satellite at a time from the element-list API."""
    rng = np.random.default_rng(seed)
    satellites = []
    for shell in shells:
        elements = build_shell(shell, rng, raan_jitter_deg, phase_jitter_deg)
        for index, element in enumerate(elements):
            sat_id = f"{prefix}-{shell.name}-{index:04d}"
            satellites.append(Satellite(sat_id=sat_id, elements=element, name=sat_id))
    return Constellation(satellites, name=name)


@pytest.fixture
def oneweb_pair():
    """(column-backed, eager) builds of one OneWeb-like pool."""
    lazy = oneweb_like_constellation(np.random.default_rng(5))
    eager = _eager(ONEWEB_SHELLS, "OWB", "oneweb-like", 5, 0.5, 1.0)
    return lazy, eager


@pytest.fixture
def kuiper_pair():
    lazy = kuiper_like_constellation(np.random.default_rng(9))
    eager = _eager(KUIPER_SHELLS, "KPR", "kuiper-like", 9, 1.0, 2.0)
    return lazy, eager


def _same(left, right):
    assert left.name == right.name
    assert len(left) == len(right)
    assert list(left) == list(right)


class TestColumnBackedConstellation:
    """A column-backed pool behaves exactly like the same satellites held
    as objects, and creates objects only where they are read."""

    def test_iteration_matches(self, oneweb_pair):
        _same(*oneweb_pair)

    def test_kuiper_iteration_matches(self, kuiper_pair):
        _same(*kuiper_pair)

    def test_indexing_matches(self, oneweb_pair):
        lazy, eager = oneweb_pair
        for index in (0, 1, 17, 587, -1, -588):
            assert lazy[index] == eager[index]
        assert lazy[3:9] == eager[3:9]
        for index in (588, -589):
            with pytest.raises(IndexError):
                lazy[index]

    def test_get_and_contains_match(self, oneweb_pair):
        lazy, eager = oneweb_pair
        sat_id = eager[42].sat_id
        assert sat_id in lazy
        assert lazy.get(sat_id) == eager.get(sat_id)
        assert "missing" not in lazy
        with pytest.raises(KeyError):
            lazy.get("missing")

    def test_take_matches(self, oneweb_pair):
        lazy, eager = oneweb_pair
        indices = np.array([500, 3, 3 + 1, 0, -1])
        _same(lazy.take(indices), eager.take(indices))
        _same(lazy.take(indices, name="sub"), eager.take(indices, name="sub"))
        _same(lazy.take([]), eager.take([]))
        for bad in ([588], [-589]):
            with pytest.raises(IndexError):
                eager.take(bad)
            with pytest.raises(IndexError):
                lazy.take(bad)

    def test_duplicate_id_message_matches(self, oneweb_pair):
        lazy, eager = oneweb_pair
        ids = list(lazy.sat_ids)
        ids[40] = ids[7]
        with pytest.raises(ValueError) as actual:
            Constellation.from_columns(lazy.columns, ids)
        satellites = list(eager)
        satellites[40] = satellites[7]
        with pytest.raises(ValueError) as expected:
            Constellation(satellites)
        assert str(actual.value) == str(expected.value)
        assert "positions 7 and 40" in str(actual.value)

    def test_ids_must_match_rows(self, oneweb_pair):
        lazy, _ = oneweb_pair
        with pytest.raises(ValueError, match="ids for"):
            Constellation.from_columns(lazy.columns, lazy.sat_ids[:-1])

    def test_parties_match(self, oneweb_pair):
        lazy, eager = oneweb_pair
        assert lazy.parties == eager.parties == [UNASSIGNED_PARTY]
        _same(lazy.without_party(UNASSIGNED_PARTY), eager.without_party(UNASSIGNED_PARTY))

    def test_filter_matches(self, oneweb_pair):
        lazy, eager = oneweb_pair

        def every_fifth(satellite):
            return int(satellite.sat_id[-4:]) % 5 == 0

        _same(lazy.filter(every_fifth), eager.filter(every_fifth))
        _same(lazy.filter(every_fifth, name="sub"), eager.filter(every_fifth, name="sub"))

    def test_columns_and_propagator_match(self, oneweb_pair):
        lazy, eager = oneweb_pair
        for name in ("semi_major_axis_m", "raan_rad", "mean_anomaly_rad", "epoch_s"):
            assert np.array_equal(
                getattr(lazy.columns, name), getattr(eager.columns, name)
            )
        times = np.arange(0.0, 86_400.0, 3_600.0)
        assert np.array_equal(
            BatchPropagator.from_columns(lazy.columns).positions_eci(times),
            BatchPropagator(eager.elements).positions_eci(times),
        )

    def test_objects_created_only_where_read(self, monkeypatch):
        created = []
        init = Satellite.__init__

        def counting_init(self, *args, **kwargs):
            created.append(kwargs.get("sat_id", args[0] if args else None))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Satellite, "__init__", counting_init)
        pool = kuiper_like_constellation(np.random.default_rng(0))
        subset = pool.take(np.arange(0, 3236, 10))
        assert len(pool) == 3236 and len(subset) == 324
        assert pool.get(pool.sat_ids[5]).sat_id == pool.sat_ids[5]
        assert BatchPropagator.from_columns(subset.columns).count == 324
        assert created == [pool.sat_ids[5]]
        assert pool[5] is pool[5] is pool.get(pool.sat_ids[5])
        assert len(created) == 1
        assert list(pool)[5] is pool[5]
        assert len(created) == 3236


class TestElementColumns:
    def test_rows_round_trip(self, oneweb_pair):
        _, eager = oneweb_pair
        columns = ElementColumns.from_elements(eager.elements)
        assert columns.to_elements() == eager.elements
        assert columns.element(-1) == eager.elements[-1]
        assert columns.take([4, 2]).to_elements() == [eager.elements[4], eager.elements[2]]

    def test_columns_are_read_only_copies(self):
        raan = np.zeros(2)
        columns = ElementColumns(
            np.full(2, 7e6), np.zeros(2), np.ones(2), raan, np.zeros(2),
            np.zeros(2), np.zeros(2),
        )
        raan[0] = 1.0
        assert columns.raan_rad[0] == 0.0
        with pytest.raises(ValueError):
            columns.raan_rad[0] = 1.0

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (0, 0.0, "semi-major"),
            (1, 1.0, "eccentricit"),
            (2, 4.0, "inclination"),
            (2, np.nan, "inclination"),
        ],
    )
    def test_rejects_what_orbital_elements_rejects(self, field, value, match):
        values = [np.full(2, 7e6)] + [np.zeros(2) for _ in range(6)]
        values[field] = np.array([values[field][0], value])
        with pytest.raises(ValueError, match=match):
            ElementColumns(*values)

    def test_rejects_ragged_columns(self):
        values = [np.full(2, 7e6)] + [np.zeros(2) for _ in range(6)]
        values[3] = np.zeros(3)
        with pytest.raises(ValueError, match="equal length"):
            ElementColumns(*values)

    def test_empty_propagator_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchPropagator.from_columns(ElementColumns.from_elements([]))
