"""Tests for the city database."""

import pytest

from repro.ground.cities import (
    CITIES,
    TAIPEI,
    city_by_name,
    population_weights,
    terminals_for_cities,
)


class TestCityDatabase:
    def test_twenty_one_cities(self):
        assert len(CITIES) == 21

    def test_one_city_per_country(self):
        countries = [city.country for city in CITIES]
        assert len(countries) == len(set(countries))

    def test_melbourne_present(self):
        assert any(city.name == "Melbourne" for city in CITIES)

    def test_sorted_by_population_except_melbourne(self):
        populations = [city.population_millions for city in CITIES[:-1]]
        assert populations == sorted(populations, reverse=True)

    def test_all_major_continents_present(self):
        countries = {city.country for city in CITIES}
        # Asia, Americas, Europe, Africa, Oceania all represented.
        assert "Japan" in countries  # Asia
        assert "United States" in countries  # North America
        assert "Brazil" in countries  # South America
        assert "United Kingdom" in countries  # Europe
        assert "Nigeria" in countries  # Africa
        assert "Australia" in countries  # Oceania

    def test_coordinates_valid(self):
        for city in CITIES:
            assert -90.0 <= city.latitude_deg <= 90.0
            assert -180.0 <= city.longitude_deg <= 180.0

    def test_taipei(self):
        assert TAIPEI.country == "Taiwan"
        assert TAIPEI.latitude_deg == pytest.approx(25.03, abs=0.1)


class TestLookup:
    def test_by_name(self):
        assert city_by_name("Tokyo").country == "Japan"

    def test_case_insensitive(self):
        assert city_by_name("tokyo").name == "Tokyo"

    def test_taipei_lookup(self):
        assert city_by_name("Taipei") is TAIPEI

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown city"):
            city_by_name("Atlantis")


class TestTerminalsAndWeights:
    def test_terminals_for_cities(self):
        terminals = terminals_for_cities(CITIES[:3], min_elevation_deg=30.0)
        assert len(terminals) == 3
        assert all(terminal.min_elevation_deg == 30.0 for terminal in terminals)
        assert terminals[0].name == "Tokyo"

    def test_weights_sum_to_one(self):
        weights = population_weights(CITIES)
        assert sum(weights) == pytest.approx(1.0)

    def test_weights_ordered_like_population(self):
        weights = population_weights(CITIES[:5])
        assert weights == sorted(weights, reverse=True)

    def test_city_terminal_method(self):
        terminal = TAIPEI.terminal(min_elevation_deg=10.0, party="taiwan")
        assert terminal.party == "taiwan"
        assert terminal.latitude_deg == TAIPEI.latitude_deg
