"""Constellation economics (§1-§2's cost argument).

"Amazon and Starlink have projected that building fully operational LEO
networks requires investments between 10-30 billion dollars."

This module prices constellations with a transparent cost model so the
paper's headline comparison — independent national constellations vs an
MP-LEO contribution — becomes a computation.  Defaults are order-of-
magnitude public figures (Falcon-9-class rideshare launch, Starlink-class
satellite unit cost); every knob is a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-satellite lifecycle cost parameters (USD).

    Attributes:
        satellite_unit_cost: Build cost per satellite.
        launch_cost_per_satellite: Launch cost amortized per satellite
            (rideshare economics).
        ground_segment_fixed: Fixed ground-segment build-out per operator.
        annual_operations_per_satellite: Yearly operations cost.
        satellite_lifetime_years: Replacement period.
    """

    satellite_unit_cost: float = 1.0e6
    launch_cost_per_satellite: float = 1.5e6
    ground_segment_fixed: float = 50.0e6
    annual_operations_per_satellite: float = 0.1e6
    satellite_lifetime_years: float = 5.0

    def __post_init__(self) -> None:
        for name in (
            "satellite_unit_cost",
            "launch_cost_per_satellite",
            "ground_segment_fixed",
            "annual_operations_per_satellite",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.satellite_lifetime_years <= 0.0:
            raise ValueError("lifetime must be positive")

    def deployment_cost(self, satellite_count: int) -> float:
        """Up-front cost of deploying a constellation.

        Raises:
            ValueError: On a negative count.
        """
        if satellite_count < 0:
            raise ValueError("count must be non-negative")
        per_satellite = self.satellite_unit_cost + self.launch_cost_per_satellite
        return satellite_count * per_satellite + self.ground_segment_fixed

    def annual_cost(self, satellite_count: int) -> float:
        """Steady-state yearly cost: operations plus replacement launches."""
        if satellite_count < 0:
            raise ValueError("count must be non-negative")
        replacement = (
            satellite_count
            / self.satellite_lifetime_years
            * (self.satellite_unit_cost + self.launch_cost_per_satellite)
        )
        return satellite_count * self.annual_operations_per_satellite + replacement

    def total_cost(self, satellite_count: int, years: float) -> float:
        """Deployment plus ``years`` of steady-state operation."""
        if years < 0.0:
            raise ValueError("years must be non-negative")
        return self.deployment_cost(satellite_count) + years * self.annual_cost(
            satellite_count
        )


@dataclass(frozen=True)
class DeploymentComparison:
    """Go-it-alone vs MP-LEO cost for the same coverage outcome."""

    coverage_target: float
    go_it_alone_satellites: int
    mp_leo_contribution: int
    go_it_alone_cost: float
    mp_leo_cost: float

    @property
    def savings(self) -> float:
        return self.go_it_alone_cost - self.mp_leo_cost

    @property
    def cost_ratio(self) -> float:
        if self.mp_leo_cost == 0.0:
            return float("inf")
        return self.go_it_alone_cost / self.mp_leo_cost


def compare_deployments(
    coverage_target: float,
    go_it_alone_satellites: int,
    mp_leo_contribution: int,
    model: CostModel = CostModel(),
    horizon_years: float = 10.0,
) -> DeploymentComparison:
    """Price the paper's comparison: own constellation vs MP-LEO stake.

    Both alternatives deliver the same coverage (the MP-LEO network as a
    whole matches the go-it-alone constellation); the participant pays only
    for its contribution plus its own ground segment.

    Raises:
        ValueError: If the contribution exceeds the go-it-alone size (that
            would not be a saving) or counts are non-positive.
    """
    if go_it_alone_satellites <= 0 or mp_leo_contribution <= 0:
        raise ValueError("satellite counts must be positive")
    if mp_leo_contribution > go_it_alone_satellites:
        raise ValueError("contribution exceeds the go-it-alone constellation")
    return DeploymentComparison(
        coverage_target=coverage_target,
        go_it_alone_satellites=go_it_alone_satellites,
        mp_leo_contribution=mp_leo_contribution,
        go_it_alone_cost=model.total_cost(go_it_alone_satellites, horizon_years),
        mp_leo_cost=model.total_cost(mp_leo_contribution, horizon_years),
    )
