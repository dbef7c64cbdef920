"""Proof-of-coverage incentives (§3.2).

Helium-style mechanics adapted to orbits: "Ground stations at random
locations can verify coverage by pinging satellites when they are overhead,
and provide proof-of-coverage to earn rewards."

The flow per epoch:

1. Verifier sites ping satellites that pass overhead; each successful ping
   is a :class:`CoverageProof` (a satellite can only be proven when it was
   actually visible — the simulator's visibility masks are ground truth, so
   false proofs are rejected).
2. :class:`ProofOfCoverageEpoch` validates proofs and splits the epoch's
   reward pool between satellite owners (for providing coverage) and
   verifiers (for auditing it).

Rewards can be weighted toward low-coverage regions — the Helium trick the
paper discusses — via per-verifier weight multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.constellation.satellite import Constellation
from repro.core.ledger import TokenLedger
from repro.ground.sites import GroundSite
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine


@dataclass(frozen=True)
class CoverageProof:
    """One verified ping: a verifier site saw a satellite at a time step."""

    verifier_name: str
    sat_id: str
    time_index: int


class InvalidProofError(ValueError):
    """Raised when a submitted proof contradicts the visibility ground truth."""


@dataclass
class ProofOfCoverageEpoch:
    """Collects and validates proofs for one reward epoch.

    Attributes:
        constellation: Satellites eligible for rewards.
        verifiers: Verifier ground sites.
        grid: The epoch's time grid.
        provider_share: Fraction of the pool paid to satellite owners; the
            remainder pays verifiers.
        verifier_weights: Optional per-verifier multipliers (e.g. boost
            under-covered regions).
    """

    constellation: Constellation
    verifiers: Sequence[GroundSite]
    grid: TimeGrid
    provider_share: float = 0.8
    verifier_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.provider_share <= 1.0:
            raise ValueError(
                f"provider share must be in [0, 1], got {self.provider_share}"
            )
        engine = VisibilityEngine(self.grid)
        self._visibility = engine.visibility(self.constellation, self.verifiers)
        self._verifier_index = {
            site.name: index for index, site in enumerate(self.verifiers)
        }
        self._sat_index = {
            satellite.sat_id: index for index, satellite in enumerate(self.constellation)
        }
        self._proofs: List[CoverageProof] = []

    def generate_proofs(
        self, rng: np.random.Generator, pings_per_verifier: int = 100
    ) -> List[CoverageProof]:
        """Simulate verifiers pinging at random times; hits become proofs."""
        proofs: List[CoverageProof] = []
        for site_name, site_idx in self._verifier_index.items():
            times = rng.integers(0, self.grid.count, size=pings_per_verifier)
            for time_index in times:
                visible = np.flatnonzero(self._visibility[site_idx, :, time_index])
                if visible.size == 0:
                    continue
                sat_idx = int(visible[rng.integers(0, visible.size)])
                proofs.append(
                    CoverageProof(
                        verifier_name=site_name,
                        sat_id=self.constellation[sat_idx].sat_id,
                        time_index=int(time_index),
                    )
                )
        for proof in proofs:
            self.submit(proof)
        return proofs

    def submit(self, proof: CoverageProof) -> None:
        """Validate and record a proof.

        Raises:
            InvalidProofError: If the named satellite was not actually
                visible from the verifier at the claimed time (a fabricated
                proof).
            KeyError: On unknown verifier or satellite.
        """
        site_idx = self._verifier_index[proof.verifier_name]
        sat_idx = self._sat_index[proof.sat_id]
        if not 0 <= proof.time_index < self.grid.count:
            raise InvalidProofError(f"time index {proof.time_index} out of range")
        if not self._visibility[site_idx, sat_idx, proof.time_index]:
            raise InvalidProofError(
                f"{proof.sat_id} was not visible from {proof.verifier_name} "
                f"at step {proof.time_index}"
            )
        self._proofs.append(proof)

    @property
    def proofs(self) -> List[CoverageProof]:
        return list(self._proofs)

    def distribute(
        self, ledger: TokenLedger, reward_pool: float, memo: str = "poc-epoch"
    ) -> Dict[str, float]:
        """Mint the epoch's rewards into the ledger.

        Providers split ``provider_share`` of the pool in proportion to the
        (weighted) proofs their satellites earned; verifiers split the rest
        in proportion to the proofs they produced.

        Returns:
            Map account -> minted amount (empty when there were no proofs).
        """
        if reward_pool <= 0.0:
            raise ValueError(f"reward pool must be positive, got {reward_pool}")
        if not self._proofs:
            return {}
        weights = self.verifier_weights or {}

        provider_points: Dict[str, float] = {}
        verifier_points: Dict[str, float] = {}
        for proof in self._proofs:
            weight = weights.get(proof.verifier_name, 1.0)
            owner = self.constellation.get(proof.sat_id).party
            provider_points[owner] = provider_points.get(owner, 0.0) + weight
            verifier_points[proof.verifier_name] = (
                verifier_points.get(proof.verifier_name, 0.0) + weight
            )

        minted: Dict[str, float] = {}
        provider_pool = reward_pool * self.provider_share
        verifier_pool = reward_pool - provider_pool
        provider_total = sum(provider_points.values())
        for owner, points in sorted(provider_points.items()):
            amount = provider_pool * points / provider_total
            ledger.mint(owner, amount, memo=f"{memo}:coverage")
            minted[owner] = minted.get(owner, 0.0) + amount
        verifier_total = sum(verifier_points.values())
        if verifier_pool > 0.0:
            for verifier, points in sorted(verifier_points.items()):
                amount = verifier_pool * points / verifier_total
                ledger.mint(verifier, amount, memo=f"{memo}:verification")
                minted[verifier] = minted.get(verifier, 0.0) + amount
        return minted
