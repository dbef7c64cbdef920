"""Tests for ground-station-as-a-service pools."""

import pytest

from repro.ground.gsaas import (
    AWS_LIKE_SITES,
    GroundStationPool,
    PoolExhaustedError,
)


class TestRent:
    def test_rent_returns_station(self):
        pool = GroundStationPool()
        station = pool.rent("taiwan", "seoul")
        assert station.party == "taiwan"
        assert station.rented
        assert "seoul" in station.name

    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError, match="unknown GSaaS site"):
            GroundStationPool().rent("x", "narnia")

    def test_exhaustion(self):
        pool = GroundStationPool(antennas_per_site=1)
        pool.rent("a", "seoul")
        with pytest.raises(PoolExhaustedError, match="no free antennas"):
            pool.rent("b", "seoul")

    def test_available_antennas_decrements(self):
        pool = GroundStationPool(antennas_per_site=2)
        assert pool.available_antennas("seoul") == 2
        pool.rent("a", "seoul")
        assert pool.available_antennas("seoul") == 1

    def test_station_coordinates_match_site(self):
        pool = GroundStationPool()
        station = pool.rent("a", "sydney")
        expected = next(site for site in AWS_LIKE_SITES if site[0] == "sydney")
        assert station.latitude_deg == expected[1]
        assert station.longitude_deg == expected[2]


class TestRentNearest:
    def test_nearest_to_taipei_is_seoul(self):
        pool = GroundStationPool()
        station = pool.rent_nearest("taiwan", 25.03, 121.56)
        assert "seoul" in station.name

    def test_nearest_to_sao_paulo(self):
        pool = GroundStationPool()
        station = pool.rent_nearest("brazil", -23.55, -46.63)
        assert "sao-paulo" in station.name

    def test_falls_back_when_nearest_full(self):
        pool = GroundStationPool(antennas_per_site=1)
        pool.rent("a", "seoul")
        station = pool.rent_nearest("b", 25.03, 121.56)
        assert "seoul" not in station.name

    def test_full_pool_raises(self):
        pool = GroundStationPool(
            sites=(("only", 0.0, 0.0),), antennas_per_site=1
        )
        pool.rent("a", "only")
        with pytest.raises(PoolExhaustedError, match="fully rented"):
            pool.rent_nearest("b", 0.0, 0.0)


class TestStationNames:
    def test_slots_numbered_per_site(self):
        pool = GroundStationPool(provider="gs", antennas_per_site=2)
        names = [
            pool.rent("a", "seoul").name,
            pool.rent("b", "seoul").name,
            pool.rent("a", "ohio").name,
        ]
        assert names == ["gs:seoul#1", "gs:seoul#2", "gs:ohio#1"]

    def test_parties_share_a_site_s_antennas(self):
        pool = GroundStationPool(antennas_per_site=2)
        pool.rent("a", "seoul")
        pool.rent("b", "seoul")
        assert pool.available_antennas("seoul") == 0
        assert pool.available_antennas("ohio") == 2
