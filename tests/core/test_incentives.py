"""Tests for proof-of-coverage incentives."""

import numpy as np
import pytest

from repro.constellation.satellite import Constellation, Satellite
from repro.core.incentives import (
    CoverageProof,
    InvalidProofError,
    ProofOfCoverageEpoch,
)
from repro.core.ledger import TokenLedger
from repro.ground.sites import GroundSite
from repro.orbits.elements import OrbitalElements
from repro.sim.clock import TimeGrid


@pytest.fixture
def epoch():
    """Two equatorial satellites (owned by different parties) and a verifier
    on the equator; satellite A is overhead at t=0, B is on the far side."""
    sat_a = Satellite(
        sat_id="A",
        elements=OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, mean_anomaly_deg=0.0
        ),
        party="alpha",
    )
    sat_b = Satellite(
        sat_id="B",
        elements=OrbitalElements.from_degrees(
            altitude_km=550.0, inclination_deg=0.1, mean_anomaly_deg=180.0
        ),
        party="beta",
    )
    verifier = GroundSite("v-eq", 0.0, 0.0, min_elevation_deg=25.0)
    grid = TimeGrid(duration_s=300.0, step_s=60.0)
    return ProofOfCoverageEpoch(
        constellation=Constellation([sat_a, sat_b]),
        verifiers=[verifier],
        grid=grid,
    )


class TestProofValidation:
    def test_valid_proof_accepted(self, epoch):
        epoch.submit(CoverageProof("v-eq", "A", 0))
        assert len(epoch.proofs) == 1

    def test_fabricated_proof_rejected(self, epoch):
        with pytest.raises(InvalidProofError, match="not visible"):
            epoch.submit(CoverageProof("v-eq", "B", 0))

    def test_out_of_range_time_rejected(self, epoch):
        with pytest.raises(InvalidProofError, match="out of range"):
            epoch.submit(CoverageProof("v-eq", "A", 9999))

    def test_unknown_verifier_rejected(self, epoch):
        with pytest.raises(KeyError):
            epoch.submit(CoverageProof("ghost", "A", 0))

    def test_unknown_satellite_rejected(self, epoch):
        with pytest.raises(KeyError):
            epoch.submit(CoverageProof("v-eq", "Z", 0))


class TestProofGeneration:
    def test_generated_proofs_are_valid(self, epoch):
        rng = np.random.default_rng(0)
        proofs = epoch.generate_proofs(rng, pings_per_verifier=50)
        # Every generated proof passed submit() without raising.
        assert len(epoch.proofs) == len(proofs)

    def test_only_visible_satellite_proven(self, epoch):
        rng = np.random.default_rng(0)
        proofs = epoch.generate_proofs(rng, pings_per_verifier=50)
        assert proofs, "satellite A is overhead; pings must hit"
        assert all(proof.sat_id == "A" for proof in proofs)

    def test_seeded_reproducible(self, epoch):
        count_a = len(epoch.generate_proofs(np.random.default_rng(3), 30))
        # Fresh epoch with same construction.
        count_b = len(epoch.generate_proofs(np.random.default_rng(3), 30))
        assert count_a == count_b


class TestRewardDistribution:
    def test_provider_and_verifier_split(self, epoch):
        epoch.submit(CoverageProof("v-eq", "A", 0))
        ledger = TokenLedger()
        minted = epoch.distribute(ledger, reward_pool=100.0)
        assert minted["alpha"] == pytest.approx(80.0)  # Provider share.
        assert minted["v-eq"] == pytest.approx(20.0)
        assert sum(ledger.balances().values()) == pytest.approx(100.0)

    def test_no_proofs_no_rewards(self, epoch):
        ledger = TokenLedger()
        assert epoch.distribute(ledger, 100.0) == {}
        assert ledger.balances() == {}

    def test_rewards_proportional_to_proofs(self, epoch):
        epoch.submit(CoverageProof("v-eq", "A", 0))
        epoch.submit(CoverageProof("v-eq", "A", 1))
        ledger = TokenLedger()
        minted = epoch.distribute(ledger, 100.0)
        # Single provider still takes the whole provider pool.
        assert minted["alpha"] == pytest.approx(80.0)

    def test_verifier_weights_boost(self, epoch):
        epoch.verifier_weights = {"v-eq": 2.0}
        epoch.submit(CoverageProof("v-eq", "A", 0))
        ledger = TokenLedger()
        minted = epoch.distribute(ledger, 100.0)
        # Weights rescale shares but a single verifier still takes its pool.
        assert minted["v-eq"] == pytest.approx(20.0)

    def test_full_provider_share(self, epoch):
        epoch.provider_share = 1.0
        epoch.submit(CoverageProof("v-eq", "A", 0))
        ledger = TokenLedger()
        minted = epoch.distribute(ledger, 50.0)
        assert minted == {"alpha": pytest.approx(50.0)}

    def test_bad_pool_rejected(self, epoch):
        epoch.submit(CoverageProof("v-eq", "A", 0))
        with pytest.raises(ValueError, match="positive"):
            epoch.distribute(TokenLedger(), 0.0)

    def test_bad_share_rejected(self):
        sat = Satellite(
            sat_id="A",
            elements=OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=0.1
            ),
        )
        with pytest.raises(ValueError, match="provider share"):
            ProofOfCoverageEpoch(
                constellation=Constellation([sat]),
                verifiers=[GroundSite("v", 0.0, 0.0)],
                grid=TimeGrid(duration_s=60.0, step_s=60.0),
                provider_share=1.5,
            )
