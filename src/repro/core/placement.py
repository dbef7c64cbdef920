"""Coverage-gap-driven satellite placement (§3.3).

The paper's key observation: *individually rational placement is globally
robust*.  A new participant maximizes its own revenue by placing satellites
where coverage gaps are largest — far (in orbital parameters) from existing
satellites — and that same choice maximizes global coverage and interleaves
ownership, so no single party's withdrawal opens a large continuous hole.

This module scores candidate satellites by their *marginal population-
weighted coverage gain* over a base constellation, generates candidate sets
(phase sweeps, inclination/altitude variants, or arbitrary pools), and
provides placement strategies:

* :func:`greedy_gap_filling_design` — the incentive-aligned strategy.
* :func:`random_design` / :func:`clustered_design` — baselines for the
  ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import DEFAULT_MIN_ELEVATION_DEG
from repro.constellation.satellite import Constellation, Satellite
from repro.ground.cities import CITIES, City, population_weights, terminals_for_cities
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine


@dataclass(frozen=True)
class PlacementCandidate:
    """A scored candidate satellite."""

    satellite: Satellite
    coverage_gain_fraction: float  # Weighted coverage fraction gained.
    coverage_gain_s: float  # The same gain as covered seconds over the horizon.

    @property
    def coverage_gain_hours(self) -> float:
        return self.coverage_gain_s / 3600.0


class PlacementScorer:
    """Scores candidates against a base constellation's city coverage.

    Precomputes the base coverage masks once; each candidate costs a single
    1-satellite propagation plus boolean math.
    """

    def __init__(
        self,
        base: Optional[Constellation],
        grid: TimeGrid,
        cities: Sequence[City] = CITIES,
        min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG,
        context=None,
    ) -> None:
        self.grid = grid
        self.cities = list(cities)
        self.weights = np.array(population_weights(self.cities))
        self._terminals = terminals_for_cities(
            self.cities, min_elevation_deg=min_elevation_deg
        )
        self._engine = VisibilityEngine(grid)
        # ``context`` (an ExperimentContext, duck-typed to avoid the import
        # cycle) supplies the cached per-(sites, grid) geometry — the ECI
        # unit track and thresholds are then shared across every Monte-Carlo
        # run instead of rebuilt per scorer.
        self._geometry = (
            context.site_geometry(self._terminals, grid)
            if context is not None
            else None
        )
        if base is not None and len(base) > 0:
            self.base_masks = self._engine.site_coverage(
                base, self._terminals, geometry=self._geometry
            )
        else:
            self.base_masks = np.zeros(
                (len(self.cities), grid.count), dtype=bool
            )
        self.base_fraction = float(
            self.weights @ self.base_masks.mean(axis=1)
        )

    def score(self, candidates: Sequence[Satellite]) -> List[PlacementCandidate]:
        """Score each candidate's marginal weighted coverage gain.

        Candidates are scored independently (each against the same base),
        matching the paper's Fig. 4 methodology of adding one satellite.
        """
        if not candidates:
            return []
        constellation = Constellation(candidates, name="candidates")
        vis = self._engine.visibility(
            constellation, self._terminals, geometry=self._geometry
        )  # (S, C, T)
        union = self.base_masks[:, None, :] | vis
        fractions = self.weights @ union.mean(axis=2)  # (C,)
        gains = fractions - self.base_fraction
        return [
            PlacementCandidate(
                satellite=candidate,
                coverage_gain_fraction=float(gain),
                coverage_gain_s=float(gain) * self.grid.duration_s,
            )
            for candidate, gain in zip(candidates, gains)
        ]

    def absorb(self, satellite: Satellite) -> None:
        """Fold a chosen satellite into the base (for greedy designs)."""
        vis = self._engine.visibility(
            Constellation([satellite]), self._terminals, geometry=self._geometry
        )  # (S, 1, T)
        self.base_masks = self.base_masks | vis[:, 0, :]
        self.base_fraction = float(self.weights @ self.base_masks.mean(axis=1))


def best_candidate(
    scored: Sequence[PlacementCandidate],
) -> PlacementCandidate:
    """Highest-gain candidate (ties break on satellite id for determinism).

    Raises:
        ValueError: On an empty candidate list.
    """
    if not scored:
        raise ValueError("no candidates to choose from")
    return max(
        scored,
        key=lambda candidate: (
            candidate.coverage_gain_fraction,
            candidate.satellite.sat_id,
        ),
    )


def gap_filling_candidates(
    rng: np.random.Generator,
    count: int = 64,
    altitude_km_range: tuple = (540.0, 600.0),
    inclination_deg_choices: Sequence[float] = (43.0, 53.0, 70.0, 97.6),
    party: str = "",
    prefix: str = "CAND",
) -> List[Satellite]:
    """Generate a diverse candidate pool spanning the design space.

    Candidates draw uniformly over RAAN and phase, uniformly over the given
    altitude range, and uniformly over the inclination choices — the three
    axes Fig. 4c studies.
    """
    from repro.orbits.elements import OrbitalElements

    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    candidates = []
    for index in range(count):
        elements = OrbitalElements.from_degrees(
            altitude_km=float(rng.uniform(*altitude_km_range)),
            inclination_deg=float(rng.choice(list(inclination_deg_choices))),
            raan_deg=float(rng.uniform(0.0, 360.0)),
            mean_anomaly_deg=float(rng.uniform(0.0, 360.0)),
        )
        candidates.append(
            Satellite(
                sat_id=f"{prefix}-{index:04d}",
                elements=elements,
                party=party or "unassigned",
            )
        )
    return candidates


def greedy_gap_filling_design(
    satellite_count: int,
    grid: TimeGrid,
    rng: np.random.Generator,
    base: Optional[Constellation] = None,
    candidates_per_round: int = 32,
    cities: Sequence[City] = CITIES,
    party: str = "",
    context=None,
) -> Constellation:
    """The incentive-aligned strategy: repeatedly fill the largest gap.

    Each round draws a fresh random candidate pool, scores it against the
    current design, and commits the best candidate — a greedy approximation
    of the paper's "identify the largest coverage gaps and fill them".
    """
    if satellite_count <= 0:
        raise ValueError(f"satellite_count must be positive, got {satellite_count}")
    scorer = PlacementScorer(base, grid, cities, context=context)
    chosen: List[Satellite] = []
    for round_index in range(satellite_count):
        pool = gap_filling_candidates(
            rng,
            count=candidates_per_round,
            party=party,
            prefix=f"GF{round_index:03d}",
        )
        winner = best_candidate(scorer.score(pool)).satellite
        scorer.absorb(winner)
        chosen.append(winner)
    return Constellation(chosen, name="gap-filling-design")


def random_design(
    satellite_count: int,
    pool: Constellation,
    rng: np.random.Generator,
) -> Constellation:
    """Baseline: sample satellites uniformly from a pool (no strategy)."""
    from repro.constellation.sampling import sample_constellation

    return sample_constellation(pool, satellite_count, rng, name="random-design")


def clustered_design(
    satellite_count: int,
    rng: np.random.Generator,
    inclination_deg: float = 53.0,
    altitude_km: float = 550.0,
    phase_spread_deg: float = 10.0,
) -> Constellation:
    """Baseline: satellites bunched in one plane within a narrow phase window.

    The anti-pattern the paper warns about — clustered deployments leave the
    rest of the orbit empty, so coverage barely improves with count and a
    withdrawal leaves a contiguous hole.
    """
    from repro.orbits.elements import OrbitalElements

    if satellite_count <= 0:
        raise ValueError(f"satellite_count must be positive, got {satellite_count}")
    satellites = [
        Satellite(
            sat_id=f"CLUSTER-{index:04d}",
            elements=OrbitalElements.from_degrees(
                altitude_km=altitude_km,
                inclination_deg=inclination_deg,
                raan_deg=0.0,
                mean_anomaly_deg=float(rng.uniform(0.0, phase_spread_deg)),
            ),
        )
        for index in range(satellite_count)
    ]
    return Constellation(satellites, name="clustered-design")
