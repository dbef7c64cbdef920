"""Tests for the multi-party constellation registry."""

import pytest

from repro.constellation.satellite import Satellite
from repro.core.party import Party
from repro.core.registry import MultiPartyConstellation, RegistryError
from repro.orbits.elements import OrbitalElements


def _sats(prefix, count):
    return [
        Satellite(
            sat_id=f"{prefix}-{index}",
            elements=OrbitalElements.from_degrees(
                altitude_km=550.0, inclination_deg=53.0,
                mean_anomaly_deg=float(index),
            ),
        )
        for index in range(count)
    ]


@pytest.fixture
def registry():
    reg = MultiPartyConstellation()
    reg.join(Party("taiwan"))
    reg.join(Party("korea"))
    reg.contribute("taiwan", _sats("TW", 3))
    reg.contribute("korea", _sats("KR", 1))
    return reg


class TestMembership:
    def test_join_and_names(self, registry):
        assert registry.party_names == ["korea", "taiwan"]

    def test_duplicate_join_rejected(self, registry):
        with pytest.raises(RegistryError, match="already joined"):
            registry.join(Party("taiwan"))

    def test_party_lookup(self, registry):
        assert registry.party("taiwan").name == "taiwan"

    def test_unknown_party_lookup(self, registry):
        with pytest.raises(RegistryError, match="unknown"):
            registry.party("narnia")

    def test_leave_removes_satellites(self, registry):
        withdrawn = registry.leave("taiwan")
        assert len(withdrawn) == 3
        assert len(registry) == 1
        assert registry.party_names == ["korea"]

    def test_leave_unknown_rejected(self, registry):
        with pytest.raises(RegistryError, match="unknown"):
            registry.leave("narnia")


class TestContributions:
    def test_attribution(self, registry):
        constellation = registry.constellation()
        assert constellation.get("TW-0").party == "taiwan"
        assert constellation.get("KR-0").party == "korea"

    def test_reattribution_overrides_incoming_party(self):
        reg = MultiPartyConstellation()
        reg.join(Party("a"))
        satellite = _sats("X", 1)[0].owned_by("someone-else")
        reg.contribute("a", [satellite])
        assert reg.constellation().get("X-0").party == "a"

    def test_contribute_unknown_party_rejected(self, registry):
        with pytest.raises(RegistryError, match="unknown"):
            registry.contribute("narnia", _sats("N", 1))

    def test_id_collision_rejected(self, registry):
        with pytest.raises(RegistryError, match="already contributed"):
            registry.contribute("korea", _sats("TW", 1))

    def test_collision_is_atomic(self, registry):
        # A batch with one collision must not partially apply.
        fresh = _sats("NEW", 2) + _sats("TW", 1)
        with pytest.raises(RegistryError):
            registry.contribute("korea", fresh)
        assert "NEW-0" not in registry.constellation()

    def test_contributions_counts(self, registry):
        assert registry.contributions() == {"taiwan": 3, "korea": 1}

    def test_member_without_satellites_counts_zero(self, registry):
        registry.join(Party("observer"))
        assert registry.contributions()["observer"] == 0


class TestDecommission:
    def test_owner_can_decommission(self, registry):
        registry.decommission("taiwan", ["TW-0"])
        assert len(registry) == 3

    def test_non_owner_cannot(self, registry):
        with pytest.raises(RegistryError, match="cannot decommission"):
            registry.decommission("korea", ["TW-0"])

    def test_unknown_satellite(self, registry):
        with pytest.raises(RegistryError, match="unknown satellite"):
            registry.decommission("taiwan", ["ZZ-9"])

    def test_atomic_on_error(self, registry):
        with pytest.raises(RegistryError):
            registry.decommission("taiwan", ["TW-0", "KR-0"])
        assert len(registry) == 4  # Nothing removed.


class TestStakes:
    def test_stakes(self, registry):
        stakes = registry.stakes()
        assert stakes["taiwan"] == pytest.approx(0.75)
        assert stakes["korea"] == pytest.approx(0.25)

    def test_largest_party(self, registry):
        assert registry.largest_party() == "taiwan"

    def test_largest_party_tiebreak(self):
        reg = MultiPartyConstellation()
        reg.join(Party("b"))
        reg.join(Party("a"))
        reg.contribute("b", _sats("B", 2))
        reg.contribute("a", _sats("A", 2))
        assert reg.largest_party() == "a"

    def test_largest_party_empty_rejected(self):
        reg = MultiPartyConstellation()
        reg.join(Party("a"))
        with pytest.raises(RegistryError, match="no contributions"):
            reg.largest_party()
