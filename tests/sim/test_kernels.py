"""Streaming kernels vs the exact reference: exact equality.

Every test here compares a streaming reduction against plain numpy
reductions of the unscreened float64 (S, N, T) tensor
(`kernels.exact_visibility`) with `np.array_equal` — not almost-equal.
The float32 screen is only admissible because every streamed bit equals
the exact decision; these tests are the gate, together with the screen's
premises (bit-equal exact re-evaluation, error far under the margin).
"""

import concurrent.futures
import functools
import inspect
import threading

import numpy as np
import pytest

from repro.constellation.shells import starlink_like_constellation
from repro.constellation.walker import walker_delta
from repro.experiments.common import ALL_SITES, ExperimentConfig
from repro.ground.sites import GroundSite
from repro.obs import metrics
from repro.orbits.elements import OrbitalElements
from repro.orbits.propagator import BatchPropagator, ScreenStepper
from repro.sim import intervals, kernels, visibility
from repro.sim.clock import TimeGrid
from repro.sim.kernels.subsets import SubsetQuery
from repro.sim.visibility import VisibilityEngine, packed_visibility


GRID = TimeGrid(duration_s=7_500.0, step_s=60.0)  # 125 samples: not 8-aligned.

SITES = [
    GroundSite("equator", 0.0, 10.0, min_elevation_deg=25.0),
    GroundSite("mid", 45.0, -70.0, min_elevation_deg=25.0),
    GroundSite("taipei-ish", 25.0, 121.5, min_elevation_deg=25.0),
    GroundSite("polar", 78.0, 15.0, min_elevation_deg=25.0),
]

#: Without the equator site the 10 deg shell below is unreachable from
#: every site, so satellite-level culling fires (at a 25 deg mask the
#: coverage footprint half-angle is ~8.5 deg: a 45 deg-latitude site needs
#: inclination above ~36 deg, Taipei above ~16 deg).
CULL_SITES = SITES[1:]

#: Chunk-size corners: one sample per slab, a prime, the default, > T.
CHUNKS = (1, 13, kernels.DEFAULT_STREAM_CHUNK, 100_000)


def _shell(count, planes, inclination_deg, altitude_km=550.0):
    return walker_delta(
        count,
        planes,
        1 % planes,
        inclination_deg=inclination_deg,
        altitude_km=altitude_km,
    )


def _eccentric_pool(count=12):
    return [
        OrbitalElements.from_degrees(
            altitude_km=540.0 + 15.0 * index,
            inclination_deg=(30.0, 53.0, 70.0, 97.0)[index % 4],
            raan_deg=27.0 * index,
            mean_anomaly_deg=33.0 * index,
            eccentricity=0.005 * (index % 3),
        )
        for index in range(count)
    ]


@pytest.fixture(scope="module")
def mixed_pool():
    """Low- and mid-inclination shells: polar site cullable, others not."""
    return _shell(24, 3, 10.0) + _shell(24, 3, 53.0)


def _exact(elements, sites, grid=GRID):
    """The unscreened, unculled float64 reference tensor (S, N, T)."""
    return kernels.exact_visibility(
        BatchPropagator(list(elements)), kernels.SiteGeometry(sites, grid)
    )


@pytest.fixture(scope="module")
def reference(mixed_pool):
    """The exact reference tensor; tests take plain numpy reductions of it."""
    return _exact(mixed_pool, SITES)


class TestStreamingEqualsMaterialized:
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_site_coverage(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), reference.any(axis=1)
        )

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_satellite_activity(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        assert np.array_equal(
            kernels.stream_satellite_activity(plan), reference.any(axis=0)
        )

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_visible_counts(self, mixed_pool, reference, chunk):
        plan = _plan(mixed_pool, SITES, chunk)
        counts = kernels.stream_visible_counts(plan)
        assert counts.dtype == np.uint16
        assert np.array_equal(counts, reference.sum(axis=1))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_packed_bits(self, mixed_pool, reference, chunk):
        packed = packed_visibility(mixed_pool, SITES, GRID, chunk_size=chunk)
        assert np.array_equal(packed.site_masks(), reference.any(axis=1))
        # Unpack fully: every bit, not just the OR reduction.
        unpacked = np.unpackbits(packed.packed, axis=2)[:, :, : GRID.count]
        assert np.array_equal(unpacked.astype(bool), reference)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_primed_track_is_bit_neutral(self, mixed_pool, reference, chunk):
        geometry = kernels.SiteGeometry(SITES, GRID)
        track = geometry.prime_track()
        assert geometry.prime_track() is track  # Cached, not rebuilt.
        propagator = BatchPropagator(mixed_pool)
        plan = kernels.plan_stream(propagator, geometry, GRID, chunk_size=chunk)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), reference.any(axis=1)
        )

    def test_engine_reductions_stream(self, mixed_pool, reference):
        engine = VisibilityEngine(GRID)
        assert np.array_equal(
            engine.site_coverage(mixed_pool, SITES), reference.any(axis=1)
        )
        assert np.array_equal(
            engine.satellite_activity(mixed_pool, SITES), reference.any(axis=0)
        )
        assert np.array_equal(
            engine.visible_counts(mixed_pool, SITES), reference.sum(axis=1)
        )


def _plan(elements, sites, chunk, cull=True, pack=False):
    return kernels.plan_stream(
        BatchPropagator(list(elements)),
        kernels.SiteGeometry(sites, GRID),
        GRID,
        chunk_size=chunk,
        cull=cull,
        pack=pack,
    )


class TestPackedBitsEqualPackbits:
    """The pack reads along the slab's time-major layout; its bytes must
    still equal ``np.packbits`` of the materialized tensor, padded tail
    byte included (GRID's 125 samples are not a multiple of 8)."""

    @pytest.mark.parametrize("chunk", (8, 64))
    def test_unaligned_grid(self, mixed_pool, reference, chunk):
        assert GRID.count % 8
        packed = kernels.stream_packed_bits(
            _plan(mixed_pool, SITES, chunk, pack=True)
        )
        assert np.array_equal(packed, np.packbits(reference, axis=2))

    @pytest.mark.parametrize("chunk", (8, 64))
    def test_satellite_major_store_across_stage_flushes(self, mixed_pool, chunk):
        """126 packed bytes: one full 64-byte stage flush, then a partial
        one ending in a padded byte.  The result is the (S, N, B) view of
        a C-contiguous (N, S, B) buffer."""
        grid = TimeGrid(duration_s=60_060.0, step_s=60.0)  # 1 001 samples.
        plan = kernels.plan_stream(
            BatchPropagator(mixed_pool), kernels.SiteGeometry(SITES, grid),
            grid, chunk_size=chunk, pack=True,
        )
        packed = kernels.stream_packed_bits(plan)
        assert packed.shape == (len(SITES), len(mixed_pool), 126)
        assert packed.transpose(1, 0, 2).flags.c_contiguous
        visible = _exact(mixed_pool, SITES, grid)
        assert np.array_equal(packed, np.packbits(visible, axis=2))

    def test_all_culled_c_ordered_slabs(self):
        elements = _shell(16, 2, 5.0)
        site = [SITES[3]]
        plan = _plan(elements, site, 16, pack=True)
        assert plan.nothing_visible
        visible = _exact(elements, site)
        assert np.array_equal(
            kernels.stream_packed_bits(plan), np.packbits(visible, axis=2)
        )

    def test_fleet_scoped_subset_build(self, mixed_pool):
        fleet = np.array([3, 17, 24, 30, 47])
        query = SubsetQuery.build(
            BatchPropagator(mixed_pool),
            kernels.SiteGeometry(SITES, GRID),
            GRID,
            fleet,
            chunk_size=8,
        )
        visible = _exact([mixed_pool[index] for index in fleet], SITES)
        assert np.array_equal(query.packed, np.packbits(visible, axis=2))

    def test_packed_visibility_plans_adaptive_chunk(self, monkeypatch):
        elements = _shell(600, 20, 53.0)
        plans = []
        plan_stream = kernels.plan_stream

        def spy(*args, **kwargs):
            plans.append(plan_stream(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(kernels, "plan_stream", spy)
        packed_visibility(elements, SITES, GRID)
        (plan,) = plans
        expected = kernels.default_chunk_size(len(SITES), len(elements))
        assert expected < kernels.MAX_STREAM_CHUNK  # Not the old fixed default.
        assert plan.chunk_size == expected


class TestDegenerateSites:
    def test_empty_site_set_streams(self, mixed_pool):
        plan = _plan(mixed_pool, [], 13)
        coverage = kernels.stream_site_coverage(plan)
        assert coverage.shape == (0, GRID.count)
        activity = kernels.stream_satellite_activity(plan)
        assert activity.shape == (len(mixed_pool), GRID.count)
        assert not activity.any()  # No sites: no satellite is ever active.
        counts = kernels.stream_visible_counts(_plan(mixed_pool, [], 13))
        assert counts.shape == (0, GRID.count)

    def test_engine_still_rejects_empty_sites(self, mixed_pool):
        with pytest.raises(ValueError, match="at least one ground site"):
            VisibilityEngine(GRID).site_coverage(mixed_pool, [])

    def test_single_site_single_satellite(self):
        elements = _shell(1, 1, 53.0)
        site = [SITES[2]]
        visible = _exact(elements, site)
        for chunk in CHUNKS:
            plan = _plan(elements, site, chunk)
            assert np.array_equal(
                kernels.stream_site_coverage(plan), visible.any(axis=1)
            )

    def test_all_pairs_infeasible_short_circuits(self):
        """Polar site x equatorial shell: nothing visible, nothing propagated."""
        elements = _shell(16, 2, 5.0)
        site = [SITES[3]]  # 78 deg latitude.
        plan = _plan(elements, site, 13)
        assert plan.nothing_visible
        assert not kernels.stream_site_coverage(plan).any()


class TestCulling:
    def test_polar_low_inclination_pair_is_culled(self, mixed_pool):
        plan = _plan(mixed_pool, SITES, 13)
        # The 10 deg shell (24 satellites) can never reach the 78 deg site.
        assert plan.culled_pairs >= 24
        feasible = plan.feasible
        assert not feasible[3, :24].any()  # Every low-inclination pair culled.
        # The 53 deg shell overflies the equator/mid/Taipei latitudes.
        assert feasible[:3, 24:].all()

    def test_cull_skips_propagation_entirely(self):
        """A fully culled population costs zero state evaluations."""
        elements = _shell(16, 2, 5.0)
        plan = _plan(elements, [SITES[3]], 13)
        assert plan.nothing_visible
        evals = metrics.counter("orbits.propagator.state_evaluations")
        before = evals.value
        kernels.stream_site_coverage(plan)
        assert evals.value == before

    def test_partial_cull_propagates_only_reachable(self, mixed_pool):
        # One chunk: one propagation call over the whole grid.
        plan = _plan(mixed_pool, CULL_SITES, 100_000)
        assert plan.culled_satellites == 24
        assert plan.active_propagator.count == 24
        evals = metrics.counter("orbits.propagator.state_evaluations")
        rechecks = metrics.counter("sim.kernels.exact_rechecks")
        before, rechecks_before = evals.value, rechecks.value
        kernels.stream_site_coverage(plan)
        # Not 48 * count; each exact recheck re-evaluates one state.
        assert (
            evals.value - before
            == 24 * GRID.count + rechecks.value - rechecks_before
        )

    def test_culled_results_bit_identical(self, mixed_pool):
        expected = _exact(mixed_pool, CULL_SITES)
        for chunk in (13, 100_000):
            culled = _plan(mixed_pool, CULL_SITES, chunk, cull=True)
            unculled = _plan(mixed_pool, CULL_SITES, chunk, cull=False)
            assert culled.culled_satellites == 24
            assert unculled.culled_satellites == 0
            assert np.array_equal(
                kernels.stream_site_coverage(culled),
                kernels.stream_site_coverage(unculled),
            )
        assert np.array_equal(
            kernels.stream_site_coverage(_plan(mixed_pool, CULL_SITES, 13)),
            expected.any(axis=1),
        )

    def test_cull_metrics_accounted(self, mixed_pool):
        pairs = metrics.counter("sim.visibility.culled_pairs")
        sats = metrics.counter("sim.visibility.culled_satellites")
        evaluated = metrics.counter("sim.kernels.pairs_evaluated")
        before_pairs, before_sats = pairs.value, sats.value
        before_evaluated = evaluated.value
        plan = _plan(mixed_pool, CULL_SITES, 13)
        assert pairs.value - before_pairs == plan.culled_pairs > 0
        assert sats.value - before_sats == plan.culled_satellites == 24
        # The counters ``obs diff`` derives the cull ratio from cover
        # every pair of the plan.
        assert (
            pairs.value - before_pairs + evaluated.value - before_evaluated
            == plan.geometry.n_sites * plan.propagator.count
        )

    def test_eccentric_pool_streams_unculled_but_identical(self):
        """Eccentric orbits: the cull counts pairs but must not subset the
        batch Kepler solve; results still match the exact reference."""
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0 + 10.0 * index,
                inclination_deg=8.0,
                raan_deg=36.0 * index,
                mean_anomaly_deg=24.0 * index,
                eccentricity=0.01,
            )
            for index in range(10)
        ]
        propagator = BatchPropagator(elements)
        assert not propagator.all_circular
        plan = _plan(elements, SITES, 13)
        assert plan.culled_pairs > 0  # The polar site can't see an 8 deg shell...
        assert plan.culled_satellites == 0  # ...but no satellite is dropped.
        visible = _exact(elements, SITES)
        assert np.array_equal(
            kernels.stream_site_coverage(plan), visible.any(axis=1)
        )

    def test_cull_mask_is_conservative(self, mixed_pool):
        """No satellite with any actual visibility may ever be culled."""
        visible = _exact(mixed_pool, SITES)
        plan = _plan(mixed_pool, SITES, 13)
        seen = visible.any(axis=2)  # (S, N) pairs with real contact time
        assert not (seen & ~plan.feasible).any()


class TestDefaultChunkSize:
    def test_large_population_gets_memory_bounded_chunk(self):
        assert (
            kernels.default_chunk_size(22, 4408) == kernels.DEFAULT_STREAM_CHUNK
        )

    def test_small_population_gets_wide_chunk(self):
        assert kernels.default_chunk_size(21, 12) == kernels.MAX_STREAM_CHUNK

    def test_always_a_multiple_of_eight_within_bounds(self):
        for sites, sats in ((1, 1), (3, 700), (22, 4408), (0, 50), (5, 0)):
            chunk = kernels.default_chunk_size(sites, sats)
            assert chunk % 8 == 0
            assert (
                kernels.DEFAULT_STREAM_CHUNK
                <= chunk
                <= kernels.MAX_STREAM_CHUNK
            )

    def test_plan_uses_adaptive_default(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        plan = kernels.plan_stream(
            BatchPropagator(mixed_pool), geometry, GRID, chunk_size=None
        )
        assert plan.chunk_size == kernels.default_chunk_size(
            len(SITES), len(mixed_pool)
        )


class TestSiteGeometry:
    def test_radii_match_per_site_norms(self):
        geometry = kernels.SiteGeometry(SITES, GRID)
        expected = np.array(
            [np.linalg.norm(site.position_ecef) for site in SITES]
        )
        assert np.array_equal(geometry.radii_m, expected)

    def test_empty_sites(self):
        geometry = kernels.SiteGeometry([], GRID)
        assert geometry.n_sites == 0
        assert geometry.radii_m.shape == (0,)
        assert geometry.unit_ecef.shape == (0, 3)

    def test_track_slices_match_direct_chunks(self):
        geometry = kernels.SiteGeometry(SITES, GRID)
        direct = [
            geometry.units_chunk(offset, times)
            for offset, times in _offsets(GRID, 13)
        ]
        geometry.prime_track()
        for (offset, times), expected in zip(_offsets(GRID, 13), direct):
            assert np.array_equal(geometry.units_chunk(offset, times), expected)
            _, direct32 = kernels.SiteGeometry(SITES, GRID).screen_chunk(offset, times)
            _, cached32 = geometry.screen_chunk(offset, times)
            assert cached32.dtype == np.float32
            assert np.array_equal(cached32, direct32)

    def test_thresholds_cached_per_propagator(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        propagator = BatchPropagator(mixed_pool)
        first = geometry.thresholds(propagator)
        assert geometry.thresholds(propagator) is first
        assert geometry.thresholds(BatchPropagator(mixed_pool)) is not first

    def test_invalid_chunk_sizes_rejected(self, mixed_pool):
        geometry = kernels.SiteGeometry(SITES, GRID)
        propagator = BatchPropagator(mixed_pool)
        for bad in (0, -5):
            with pytest.raises(ValueError, match="chunk_size"):
                kernels.plan_stream(propagator, geometry, GRID, chunk_size=bad)


def _offsets(grid, chunk):
    offset = 0
    for times in grid.chunks(chunk):
        yield offset, times
        offset += times.size


#: Samples per sampled chunk of the full-pool week below.
WEEK_CHUNK = 16


@pytest.fixture(scope="module")
def full_pool_week():
    """The experiments' 4 408-satellite pool, 22 sites, 1 week at 120 s,
    and six chunk offsets spread over the week, the last ending on its
    final sample (largest propagation arguments)."""
    config = ExperimentConfig()
    grid = config.grid()
    sites = [
        city.terminal(min_elevation_deg=config.min_elevation_deg)
        for city in ALL_SITES
    ]
    propagator = BatchPropagator(
        starlink_like_constellation(rng=np.random.default_rng(0)).elements
    )
    geometry = kernels.SiteGeometry(sites, grid)
    geometry.prime_track()
    offsets = np.linspace(0, grid.count - WEEK_CHUNK, 6).astype(int)
    return propagator, geometry, offsets


def _chunk_times(geometry, offset):
    return geometry.grid.times_s[offset : offset + WEEK_CHUNK]


def _stepper_error(propagator, geometry, offset, size, block):
    """Worst |screen dot - float64 dot| over one chunk of ``size`` samples
    from ``offset``, stepped ``block`` samples at a time."""
    times = geometry.grid.times_s[offset : offset + size]
    stepper = ScreenStepper(propagator, geometry.grid.step_s, block)
    blocks, sat64 = stepper.chunk(times)
    assert sat64 is None  # The pool is circular: the phasor path.
    site64, site32 = geometry.screen_chunk(offset, times)
    worst, covered = 0.0, 0
    for begin, sat32 in blocks:
        end = begin + sat32.shape[0]
        screen = np.matmul(site32[begin:end], sat32)  # (Tb, S, N)
        exact = kernels.exact_dots(
            propagator.unit_positions_eci(times[begin:end])[None],
            site64[:, None, begin:end],
        )  # (S, N, Tb)
        worst = max(worst, float(np.abs(screen - exact.transpose(2, 0, 1)).max()))
        covered = end
    assert covered == size
    return worst


class TestScreenPremises:
    """What the float32 screen's exactness rests on."""

    def test_unit_positions_at_bit_equal_to_grid(self, full_pool_week):
        propagator, geometry, offsets = full_pool_week
        for offset in offsets:
            times = _chunk_times(geometry, offset)
            grid_units = propagator.unit_positions_eci(times)  # (N, Tc, 3)
            sat, sample = np.meshgrid(
                np.arange(propagator.count), np.arange(times.size), indexing="ij"
            )
            at = propagator.unit_positions_at(sat.ravel(), times[sample.ravel()])
            assert np.array_equal(at, grid_units.reshape(-1, 3))

    def test_screen_error_far_under_margin(self, full_pool_week):
        """The phasor stepper at the full pool's own screen block, over
        chunks spread across the week up to its final sample."""
        propagator, geometry, offsets = full_pool_week
        plan = kernels.plan_stream(
            propagator, geometry, geometry.grid, chunk_size=WEEK_CHUNK
        )
        block = kernels.screen_block_size(plan)
        assert block < WEEK_CHUNK  # Each chunk advances the base in-chunk.
        worst = max(
            _stepper_error(propagator, geometry, offset, WEEK_CHUNK, block)
            for offset in offsets
        )
        assert worst <= kernels.SCREEN_MARGIN / 10

    def test_screen_error_over_a_long_chunk(self, full_pool_week):
        """One 2048-sample chunk ending on the week's last sample, stepped
        8 samples at a time: 255 advances, more than any default plan
        makes (small pools, the ones given 2048-sample chunks, get blocks
        of hundreds of samples)."""
        propagator, geometry, _ = full_pool_week
        small = propagator.subset(np.arange(0, propagator.count, 16))
        offset = geometry.grid.count - 2048
        worst = _stepper_error(small, geometry, offset, 2048, 8)
        assert worst <= kernels.SCREEN_MARGIN / 10

    def test_exact_dots_independent_of_shape(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 7, 3))
        b = rng.normal(size=(7, 3))
        whole = kernels.exact_dots(a, b)
        for i in range(5):
            for j in range(7):
                assert kernels.exact_dots(a[i, j], b[j]) == whole[i, j]

    @pytest.mark.parametrize("eccentricity", (0.0, 0.01))
    def test_threshold_tie_is_decided_exactly(self, eccentricity):
        """A threshold equal to a pair's exact dot reads visible; one ulp
        above it reads not visible.  Both sit deep inside the screen band,
        so the exact path decides them (eccentric pools from the chunk's
        own float64 Kepler solve)."""
        elements = [
            OrbitalElements.from_degrees(
                altitude_km=550.0,
                inclination_deg=53.0,
                raan_deg=45.0 * index,
                mean_anomaly_deg=40.0 * index,
                eccentricity=eccentricity,
            )
            for index in range(8)
        ]
        propagator = BatchPropagator(elements)
        geometry = kernels.SiteGeometry(SITES, GRID)
        dots = kernels.exact_dots(
            propagator.unit_positions_eci(GRID.times_s)[None],
            geometry.units_eci(GRID.times_s)[:, None],
        )
        s, n, t = np.unravel_index(np.argmax(dots), dots.shape)
        # The plan reads the geometry's cached threshold table.
        thresholds = geometry.thresholds(propagator)
        rechecks = metrics.counter("sim.kernels.exact_rechecks")
        for value, expected in (
            (dots[s, n, t], True),
            (np.nextafter(dots[s, n, t], np.inf), False),
        ):
            thresholds[s, n] = value
            before = rechecks.value
            plan = kernels.plan_stream(
                propagator, geometry, GRID, chunk_size=13, cull=False
            )
            bits = np.concatenate(
                [slab[s, n] for _, slab in kernels.iter_slabs(plan)]
            )
            assert bits[t] == expected
            assert rechecks.value > before
            assert np.array_equal(
                bits, kernels.exact_visibility(propagator, geometry)[s, n]
            )

    def test_eccentric_pool_streams_exact_reference(self):
        elements = _eccentric_pool()
        visible = _exact(elements, SITES)
        for chunk in (13, 64):
            assert np.array_equal(
                kernels.stream_visible_counts(_plan(elements, SITES, chunk)),
                visible.sum(axis=1),
            )
            assert np.array_equal(
                kernels.stream_packed_bits(_plan(elements, SITES, chunk, pack=True)),
                np.packbits(visible, axis=2),
            )


def _blocked_pools():
    starlink = starlink_like_constellation(rng=np.random.default_rng(0)).elements
    # The 10 deg shell is out of every CULL_SITES site's reach, so whole
    # satellites are culled and the stepper runs on a subset.
    culled = starlink[::150] + _shell(8, 2, 10.0)
    return {"culled": culled, "eccentric": _eccentric_pool()}


BLOCKED_POOLS = _blocked_pools()


@pytest.fixture(scope="module")
def blocked_reference():
    """Exact (S, N, T) tensors over one week, per (pool, step), cached."""
    cache = {}

    def get(pool, step_s):
        if (pool, step_s) not in cache:
            grid = TimeGrid.one_week(step_s)
            cache[pool, step_s] = _exact(BLOCKED_POOLS[pool], CULL_SITES, grid)
        return cache[pool, step_s]

    return get


class TestBlockedScreen:
    """Screening a chunk in time blocks is bit-neutral: the packed store
    and the site coverage equal the exact reference whether a chunk is
    one block or many, on a culled circular pool (phasor stepper on the
    active subset) and an eccentric one (slices of the Kepler solve)."""

    @pytest.mark.parametrize("pool", sorted(BLOCKED_POOLS))
    @pytest.mark.parametrize("step_s", (60.0, 120.0, 300.0))
    @pytest.mark.parametrize("chunk", (13, 64, 2048))
    @pytest.mark.parametrize("block", (None, 5))
    def test_streams_equal_exact(
        self, blocked_reference, monkeypatch, pool, step_s, chunk, block
    ):
        elements = BLOCKED_POOLS[pool]
        grid = TimeGrid.one_week(step_s)
        if block is not None:
            # A budget of exactly `block` samples: most chunks split into
            # several blocks, the last one short.
            sample_bytes = 4 * len(CULL_SITES) * len(elements)
            monkeypatch.setattr(kernels, "SCREEN_BLOCK_BYTES", block * sample_bytes)
        expected = blocked_reference(pool, step_s)

        def plan(pack=False):
            return kernels.plan_stream(
                BatchPropagator(list(elements)),
                kernels.SiteGeometry(CULL_SITES, grid),
                grid,
                chunk_size=chunk,
                pack=pack,
            )

        coverage_plan = plan()
        assert coverage_plan.cull_applied == (pool == "culled")
        if block is not None:
            assert kernels.screen_block_size(coverage_plan) == min(block, chunk)
        assert np.array_equal(
            kernels.stream_site_coverage(coverage_plan), expected.any(axis=1)
        )
        assert np.array_equal(
            kernels.stream_packed_bits(plan(pack=True)), np.packbits(expected, axis=2)
        )


#: (elements, sites, grid) per threaded-build case.  GRID's 125 samples
#: are not a multiple of 8; the short grid is under one task at every
#: worker count; CULL_SITES culls the 10 deg shell (an active subset);
#: the 5 deg shell is out of the polar site's reach (nothing visible).
#: The culled and eccentric pools are large enough for exact rechecks.
THREADED_CASES = {
    "unaligned": (_shell(24, 3, 10.0) + _shell(24, 3, 53.0), SITES, GRID),
    "short_grid": (
        _shell(24, 3, 53.0), SITES, TimeGrid(duration_s=1_200.0, step_s=60.0)
    ),
    "culled": (_shell(24, 3, 10.0) + _shell(200, 10, 53.0), CULL_SITES, GRID),
    "eccentric": (_eccentric_pool(60), SITES, GRID),
    "nothing_visible": (_shell(16, 2, 5.0), SITES[3:], GRID),
}

#: Counters a packed build's worker threads must leave to the caller.
THREAD_COUNTERS = (
    "sim.kernels.slabs_streamed",
    "sim.kernels.slab_bytes",
    "sim.kernels.exact_rechecks",
    "orbits.propagator.state_evaluations",
)


def _threaded_plan(case, chunk):
    elements, sites, grid = THREADED_CASES[case]
    return kernels.plan_stream(
        BatchPropagator(list(elements)), kernels.SiteGeometry(sites, grid),
        grid, chunk_size=chunk, pack=True,
    )


class TestThreadedPack:
    """``stream_packed_bits`` splits each chunk into tasks on one worker
    thread per available CPU.  The store must be the same bytes for any
    worker count, and the workers must leave the counters and every
    traced callable to the calling thread."""

    @pytest.mark.parametrize("case", sorted(THREADED_CASES))
    @pytest.mark.parametrize("chunk", (64, 136))
    @pytest.mark.parametrize("cpus", (1, 2, 3))
    def test_store_identical_for_any_worker_count(
        self, monkeypatch, case, chunk, cpus
    ):
        monkeypatch.setattr(kernels, "_available_cpus", lambda: cpus)
        plan = _threaded_plan(case, chunk)
        assert kernels._pack_workers(plan) == cpus
        assert plan.nothing_visible == (case == "nothing_visible")
        assert (plan.active_indices is not None) == (case == "culled")
        elements, sites, grid = THREADED_CASES[case]
        expected = np.packbits(_exact(elements, sites, grid), axis=2)
        packed = kernels.stream_packed_bits(plan)
        assert packed.transpose(1, 0, 2).flags.c_contiguous
        assert np.array_equal(packed, expected)

    @pytest.mark.parametrize("cpus", (2, 3))
    def test_one_sample_screen_blocks(self, monkeypatch, cpus):
        """A block budget under one sample per worker still screens."""
        monkeypatch.setattr(kernels, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "SCREEN_BLOCK_BYTES", 1)
        elements, sites, grid = THREADED_CASES["culled"]
        assert np.array_equal(
            kernels.stream_packed_bits(_threaded_plan("culled", 64)),
            np.packbits(_exact(elements, sites, grid), axis=2),
        )

    @pytest.mark.parametrize("case", ("culled", "eccentric", "nothing_visible"))
    def test_counters_equal_a_one_worker_build(self, monkeypatch, case):
        def deltas(cpus):
            monkeypatch.setattr(kernels, "_available_cpus", lambda: cpus)
            plan = _threaded_plan(case, 64)
            before = [metrics.counter(name).value for name in THREAD_COUNTERS]
            kernels.stream_packed_bits(plan)
            return [
                metrics.counter(name).value - value
                for name, value in zip(THREAD_COUNTERS, before)
            ]

        one = deltas(1)
        plan = _threaded_plan(case, 64)
        slabs, slab_bytes, rechecks, evaluations = one
        assert slabs == -(-GRID.count // 64)  # One slab per plan chunk.
        assert slab_bytes == plan.n_sites * plan.n_satellites * GRID.count
        if case == "nothing_visible":
            assert rechecks == evaluations == 0
        else:
            assert rechecks > 0  # The exact path ran.
            # Circular pools re-evaluate each recheck's direction.
            refreshed = rechecks if case == "culled" else 0
            active = plan.active_propagator.count
            assert evaluations == GRID.count * active + refreshed
        assert deltas(2) == one
        assert deltas(3) == one

    def test_one_cpu_builds_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU build started a thread pool")

        monkeypatch.setattr(kernels, "_available_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        elements, sites, grid = THREADED_CASES["unaligned"]
        assert np.array_equal(
            kernels.stream_packed_bits(_threaded_plan("unaligned", 64)),
            np.packbits(_exact(elements, sites, grid), axis=2),
        )

    @pytest.mark.parametrize("failing_offset", (0, 32, 96))
    def test_a_failed_task_raises_its_own_error(self, monkeypatch, failing_offset):
        """A worker that fails mid-build must not leave the other waiting
        at a stage barrier, and its error, not the broken barrier, is what
        the caller sees.  With two workers and 32-sample tasks, worker 0
        screens offsets 0, 64, ... and worker 1 offsets 32, 96, ..."""
        screen = kernels._screen_chunk

        def failing(plan, buffers, offset, times):
            if offset == failing_offset:
                raise ValueError("screen failed")
            return screen(plan, buffers, offset, times)

        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        monkeypatch.setattr(kernels, "_screen_chunk", failing)
        with pytest.raises(ValueError, match="screen failed"):
            kernels.stream_packed_bits(_threaded_plan("unaligned", 64))

    def test_workers_keep_eight_samples_a_task(self, monkeypatch):
        monkeypatch.setattr(kernels, "_available_cpus", lambda: 16)
        assert kernels._pack_workers(_threaded_plan("unaligned", 64)) == 8
        assert kernels._pack_workers(_threaded_plan("unaligned", 8)) == 1

    def test_traced_callables_stay_on_the_calling_thread(self, monkeypatch):
        """Benchmark tracers wrap these callables and keep one unlocked
        span stack, so a call from a worker thread would corrupt it."""
        calls = []

        def record(fn):
            name = fn.__name__
            if inspect.isgeneratorfunction(fn):

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    for item in fn(*args, **kwargs):
                        calls.append((name, threading.get_ident()))
                        yield item

                return wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        for module, name in (
            (kernels, "iter_slabs"),
            (kernels, "plan_stream"),
            (kernels, "stream_packed_bits"),
            (visibility, "packed_visibility"),
            (intervals, "find_contact_intervals"),
        ):
            monkeypatch.setattr(module, name, record(getattr(module, name)))
        for name in ("unit_positions_at", "unit_positions_eci_unspanned"):
            monkeypatch.setattr(
                BatchPropagator, name, record(getattr(BatchPropagator, name))
            )
        monkeypatch.setattr(kernels, "_available_cpus", lambda: 2)
        rechecks = metrics.counter("sim.kernels.exact_rechecks")
        before = rechecks.value
        # Circular pools re-evaluate near-threshold samples; eccentric
        # ones solve Kepler's equation per task.
        for case in ("culled", "eccentric"):
            elements, sites, grid = THREADED_CASES[case]
            visibility.packed_visibility(elements, sites, grid, chunk_size=64)
            intervals.find_contact_intervals(elements, sites, grid, chunk_size=64)
        assert rechecks.value > before
        assert {"packed_visibility", "plan_stream", "stream_packed_bits"} <= {
            name for name, _ in calls
        }
        assert {ident for _, ident in calls} == {threading.get_ident()}


class TestPropagatorDerived:
    def test_subset_refreshes_derived_state(self, mixed_pool):
        propagator = BatchPropagator(mixed_pool)
        subset = propagator.subset(np.arange(24, 48))
        assert subset.all_circular
        times = GRID.times_s[:16]
        assert np.array_equal(
            subset.unit_positions_eci(times),
            propagator.unit_positions_eci(times)[24:48],
        )

    def test_all_circular_flag(self):
        circular = BatchPropagator(_shell(4, 2, 53.0))
        assert circular.all_circular
        eccentric = BatchPropagator(
            [
                OrbitalElements.from_degrees(
                    altitude_km=550.0, inclination_deg=53.0, eccentricity=0.01
                )
            ]
        )
        assert not eccentric.all_circular
