"""Tests for synthetic megaconstellation shells."""

import hashlib

import numpy as np
import pytest

from repro.constellation.shells import (
    KUIPER_SHELLS,
    ONEWEB_SHELLS,
    STARLINK_SHELLS,
    ShellSpec,
    build_shell,
    kuiper_like_constellation,
    oneweb_like_constellation,
    starlink_like_constellation,
)
from repro.constellation.walker import walker_delta, walker_star


class TestShellSpecs:
    def test_starlink_gen1_total(self):
        assert sum(shell.total_satellites for shell in STARLINK_SHELLS) == 4408

    def test_kuiper_total(self):
        assert sum(shell.total_satellites for shell in KUIPER_SHELLS) == 3236

    def test_oneweb_total(self):
        assert sum(shell.total_satellites for shell in ONEWEB_SHELLS) == 588

    def test_starlink_shells_divide_into_planes(self):
        for shell in STARLINK_SHELLS:
            assert shell.total_satellites % shell.planes == 0


class TestBuildShell:
    def test_exact_count(self):
        spec = ShellSpec("test", 100, 10, 1, 53.0, 550.0)
        assert len(build_shell(spec)) == 100

    def test_no_jitter_is_deterministic(self):
        spec = ShellSpec("test", 20, 4, 1, 53.0, 550.0)
        a = build_shell(spec)
        b = build_shell(spec)
        assert all(x.raan_rad == y.raan_rad for x, y in zip(a, b))

    def test_jitter_requires_rng(self):
        spec = ShellSpec("test", 20, 4, 1, 53.0, 550.0)
        with pytest.raises(ValueError, match="rng"):
            build_shell(spec, raan_jitter_deg=1.0)

    def test_jitter_perturbs(self):
        spec = ShellSpec("test", 20, 4, 1, 53.0, 550.0)
        clean = build_shell(spec)
        jittered = build_shell(
            spec, rng=np.random.default_rng(0), raan_jitter_deg=1.0, phase_jitter_deg=2.0
        )
        assert any(
            abs(a.raan_rad - b.raan_rad) > 1e-9 for a, b in zip(clean, jittered)
        )

    def test_jitter_is_seeded(self):
        spec = ShellSpec("test", 20, 4, 1, 53.0, 550.0)
        a = build_shell(spec, rng=np.random.default_rng(5), raan_jitter_deg=1.0)
        b = build_shell(spec, rng=np.random.default_rng(5), raan_jitter_deg=1.0)
        assert all(x.raan_rad == y.raan_rad for x, y in zip(a, b))

    def test_star_shell_uses_half_span(self):
        spec = ShellSpec("polar", 24, 6, 1, 87.9, 1200.0, star=True)
        raans = sorted({round(e.raan_deg, 3) for e in build_shell(spec)})
        assert raans[-1] < 180.0


class TestFullConstellations:
    def test_starlink_size_and_ids_unique(self):
        constellation = starlink_like_constellation(
            rng=np.random.default_rng(0)
        )
        assert len(constellation) == 4408  # Uniqueness enforced by constructor.

    def test_starlink_inclination_mix(self):
        constellation = starlink_like_constellation(rng=np.random.default_rng(0))
        inclinations = {
            round(satellite.elements.inclination_deg, 1)
            for satellite in constellation
        }
        assert {53.0, 53.2, 70.0, 97.6} <= inclinations

    def test_kuiper_size(self):
        assert len(kuiper_like_constellation(np.random.default_rng(0))) == 3236

    def test_oneweb_size(self):
        assert len(oneweb_like_constellation(np.random.default_rng(0))) == 588

    def test_default_rng_reproducible(self):
        a = starlink_like_constellation()
        b = starlink_like_constellation()
        assert a[0].elements.raan_rad == b[0].elements.raan_rad


#: The seven element fields, hashed in this order.
ELEMENT_FIELDS = (
    "semi_major_axis_m",
    "eccentricity",
    "inclination_rad",
    "raan_rad",
    "arg_perigee_rad",
    "mean_anomaly_rad",
    "epoch_s",
)


def _element_digest(elements):
    """SHA-1 over each field's float64 array, fields in ELEMENT_FIELDS order."""
    digest = hashlib.sha1()
    for name in ELEMENT_FIELDS:
        column = np.array([getattr(element, name) for element in elements])
        digest.update(column.astype(np.float64).tobytes())
    return digest.hexdigest()


def _id_digest(constellation):
    return hashlib.sha1("\n".join(constellation.sat_ids).encode()).hexdigest()


BUILDERS = {
    "starlink": starlink_like_constellation,
    "kuiper": kuiper_like_constellation,
    "oneweb": oneweb_like_constellation,
}

#: Element digests of the pools as the scalar, one-object-per-satellite
#: generator built them; the columnar build must reproduce every bit.
POOL_DIGESTS = {
    ("starlink", 0): "77ecb1b2bbde925293dfdd31d8d178af1c9a2828",
    ("starlink", 7): "c63f6b13449059410a736b604a587d00c8fee067",
    ("kuiper", 0): "77a799e822f6b88e5e2c906e4460855ceb3f06a9",
    ("kuiper", 7): "85653a204b286a1aea27aeeeaf97e79d8e721c6e",
    ("oneweb", 0): "d21c8222db409361a849db54eaf5015971e52970",
    ("oneweb", 7): "661c6e0e6f1e0c4afd25b1a560e5d98f5f069585",
}

ID_DIGESTS = {
    "starlink": "1fd8b5218ceab068f22747c213255b048f8195cd",
    "kuiper": "6fdb53aad6c9c79970b781a53919008691b1b61b",
    "oneweb": "9aba21f3de068558f2f5ecd6b3960dd78c28244c",
}


class TestPoolIdentity:
    """The pools' elements are pinned bit for bit: every contact store,
    golden and figure number downstream is a function of them."""

    @pytest.mark.parametrize("builder, seed", sorted(POOL_DIGESTS))
    def test_default_jitter(self, builder, seed):
        pool = BUILDERS[builder](rng=np.random.default_rng(seed))
        assert _element_digest(pool.elements) == POOL_DIGESTS[builder, seed]
        assert _id_digest(pool) == ID_DIGESTS[builder]

    def test_default_rng_is_seed_zero_for_starlink(self):
        assert _element_digest(starlink_like_constellation().elements) == POOL_DIGESTS[
            "starlink", 0
        ]

    def test_zero_jitter(self):
        starlink = starlink_like_constellation(raan_jitter_deg=0.0, phase_jitter_deg=0.0)
        oneweb = oneweb_like_constellation(raan_jitter_deg=0.0, phase_jitter_deg=0.0)
        assert _element_digest(starlink.elements) == "4275f508d646adf9264a5f3d6b25434cae9c26f1"
        assert _element_digest(oneweb.elements) == "f5c65ff1694ef67c061896a15fad0adef181a4ac"

    def test_raan_only_jitter(self):
        elements = build_shell(
            STARLINK_SHELLS[2], rng=np.random.default_rng(3), raan_jitter_deg=1.5
        )
        assert _element_digest(elements) == "9f29889482b7dfa5e924f9d2470ab529cb4b27bc"

    def test_phase_only_jitter(self):
        elements = build_shell(
            STARLINK_SHELLS[2], rng=np.random.default_rng(3), phase_jitter_deg=2.5
        )
        assert _element_digest(elements) == "94c978db90a42c0e9acbdad5fbb6f087ae915627"

    def test_walker_delta_with_offsets(self):
        elements = walker_delta(
            1584, 72, 17, 53.0, 550.0, raan_offset_deg=12.5, phase_offset_deg=-7.25
        )
        assert _element_digest(elements) == "550e13f27e40983c1234acaf321a37e828058e75"

    def test_walker_star_with_offsets(self):
        elements = walker_star(
            588, 12, 1, 87.9, 1200.0,
            raan_offset_deg=200.3, phase_offset_deg=401.0, eccentricity=0.001,
        )
        assert _element_digest(elements) == "14c352e7a56d7af0e3f76e80d779b1006a141f03"

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_columns_hold_the_same_elements(self, builder):
        pool = BUILDERS[builder](rng=np.random.default_rng(7))
        columns = pool.columns
        digest = hashlib.sha1()
        for name in ELEMENT_FIELDS:
            digest.update(getattr(columns, name).tobytes())
        assert digest.hexdigest() == POOL_DIGESTS[builder, 7]
