"""Tests for spare-capacity sharing accounting."""

import numpy as np
import pytest

from repro.core.sharing import (
    equivalent_satellite_count,
    exchange_matrix,
    reciprocity_scores,
    sharing_upside,
)
from repro.sim.events import SessionEvent


def _session(consumer, provider, megabits):
    return SessionEvent(
        terminal_name="t",
        sat_id="s",
        station_name="g",
        terminal_party=consumer,
        sat_party=provider,
        start_s=0.0,
        stop_s=megabits,  # rate 1 Mbps * megabits seconds.
        rate_mbps=1.0,
    )


CURVE = [(10, 0.05), (50, 0.24), (100, 0.39), (500, 0.92), (1000, 0.995)]


class TestEquivalentCount:
    def test_exact_match(self):
        assert equivalent_satellite_count(0.39, CURVE) == 100

    def test_between_points_rounds_up(self):
        assert equivalent_satellite_count(0.5, CURVE) == 500

    def test_above_curve_returns_max(self):
        assert equivalent_satellite_count(0.9999, CURVE) == 1000

    def test_below_curve_returns_min(self):
        assert equivalent_satellite_count(0.0, CURVE) == 10

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            equivalent_satellite_count(0.5, [])

    def test_unsorted_curve_handled(self):
        shuffled = [CURVE[2], CURVE[0], CURVE[4], CURVE[1], CURVE[3]]
        assert equivalent_satellite_count(0.39, shuffled) == 100


class TestSharingUpside:
    def test_paper_claim_shape(self):
        """50 contributed satellites, shared coverage ~ 1000-satellite level."""
        upside = sharing_upside("p", 50, 0.24, 0.995, CURVE)
        assert upside.equivalent_alone_satellites == 1000
        assert upside.satellite_multiplier == pytest.approx(20.0)

    def test_satellite_multiplier(self):
        upside = sharing_upside("p", 50, 0.24, 0.995, CURVE)
        assert upside.satellite_multiplier == pytest.approx(20.0)

    def test_zero_alone_coverage_still_has_an_equivalent(self):
        upside = sharing_upside("p", 1, 0.0, 0.5, CURVE)
        assert upside.equivalent_alone_satellites == 500
        assert upside.satellite_multiplier == pytest.approx(500.0)

    def test_zero_contribution_multiplier(self):
        assert sharing_upside("p", 0, 0.0, 0.5, CURVE).satellite_multiplier == 0.0


class TestExchangeMatrix:
    def test_matrix_entries(self):
        sessions = [
            _session("a", "b", 100.0),
            _session("a", "b", 50.0),
            _session("b", "a", 30.0),
            _session("a", "a", 70.0),
        ]
        matrix = exchange_matrix(sessions, ["a", "b"])
        assert matrix[0, 1] == pytest.approx(150.0)  # a consumed on b.
        assert matrix[1, 0] == pytest.approx(30.0)
        assert matrix[0, 0] == pytest.approx(70.0)  # Own use on diagonal.

    def test_unknown_parties_ignored(self):
        matrix = exchange_matrix([_session("x", "y", 10.0)], ["a", "b"])
        assert matrix.sum() == 0.0


class TestReciprocity:
    def test_pure_provider(self):
        matrix = np.array([[0.0, 0.0], [100.0, 0.0]])  # b consumes on a only.
        scores = reciprocity_scores(matrix)
        assert scores[0] == pytest.approx(1.0)  # a gives only.
        assert scores[1] == pytest.approx(-1.0)  # b takes only.

    def test_balanced(self):
        matrix = np.array([[0.0, 50.0], [50.0, 0.0]])
        scores = reciprocity_scores(matrix)
        assert np.allclose(scores, 0.0)

    def test_diagonal_ignored(self):
        matrix = np.array([[1000.0, 50.0], [50.0, 1000.0]])
        assert np.allclose(reciprocity_scores(matrix), 0.0)

    def test_no_trade_is_zero(self):
        assert np.allclose(reciprocity_scores(np.zeros((3, 3))), 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            reciprocity_scores(np.zeros((2, 3)))
