"""Tests for the figure experiment harness.

These use a coarse configuration (15-minute steps, 3 runs) so the whole
module runs in a few seconds; the benchmark suite runs the full-fidelity
versions.  Assertions target structure and the figure-level qualitative
shapes that survive coarse sampling.
"""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments import fig2_coverage_vs_size as fig2
from repro.experiments.common import ExperimentConfig
from repro.experiments.fig2_coverage_vs_size import run_fig2
from repro.experiments.fig3_idle_vs_cities import run_fig3
from repro.experiments.fig4a_single_addition import run_fig4a
from repro.experiments.fig4b_phase_sweep import run_fig4b
from repro.experiments.fig4c_design_factors import run_fig4c
from repro.experiments.fig5_withdrawal import run_fig5
from repro.experiments.fig6_party_skew import run_fig6
from repro.experiments.sharing_upside import run_sharing_upside
from repro.obs import timeline as obs_timeline
from repro.sim.events import intervals_from_mask

COARSE = ExperimentConfig(runs=3, step_s=900.0, seed=7)


@pytest.fixture(scope="module", autouse=True)
def _clear_caches_after():
    yield
    common.clear_caches()


class TestCommon:
    def test_pool_cached(self):
        assert common.starlink_pool() is common.starlink_pool()

    def test_visibility_cached(self):
        a = common.pool_visibility(COARSE)
        b = common.pool_visibility(COARSE)
        assert a is b

    def test_city_weights_sum_to_one(self):
        assert common.city_weights().sum() == pytest.approx(1.0)

    def test_all_sites_layout(self):
        assert common.ALL_SITES[common.TAIPEI_INDEX].name == "Taipei"
        assert len(common.CITY_INDICES) == 21

    def test_default_duration_is_one_week(self):
        assert ExperimentConfig().duration_s == pytest.approx(7 * 86400.0)
        assert ExperimentConfig().grid().duration_s == pytest.approx(7 * 86400.0)

    def test_duration_flows_into_grid(self):
        config = ExperimentConfig(step_s=900.0, duration_s=2 * 86400.0)
        assert config.grid().duration_s == 2 * 86400.0
        assert config.grid().count == 192

    def test_config_rng_streams_are_seed_plus_salt(self):
        config = ExperimentConfig(seed=11)
        draw = config.rng(salt=3).uniform(size=4)
        assert np.array_equal(draw, np.random.default_rng(14).uniform(size=4))
        assert np.array_equal(draw, config.rng(salt=3).uniform(size=4))
        assert not np.array_equal(draw, config.rng().uniform(size=4))

    def test_duration_in_visibility_cache_key(self):
        """Regression: two configs differing only in horizon must not alias
        to one cached tensor (the key once omitted duration_s)."""
        short = ExperimentConfig(runs=1, step_s=1800.0, duration_s=86400.0)
        week = ExperimentConfig(runs=1, step_s=1800.0)
        vis_short = common.pool_visibility(short)
        vis_week = common.pool_visibility(week)
        assert vis_short is not vis_week
        assert vis_short.n_times == short.grid().count
        assert vis_week.n_times == week.grid().count
        # Each entry still hits on an exact-match config.
        assert common.pool_visibility(short) is vis_short


class TestFig2:
    def test_monotone_coverage(self):
        result = run_fig2(COARSE, sizes=(10, 100, 1000))
        uncovered = [p.mean_uncovered_percent for p in result.points]
        assert uncovered[0] > uncovered[1] > uncovered[2]

    def test_paper_anchor_100_sats(self):
        result = run_fig2(COARSE, sizes=(100,))
        assert result.points[0].mean_uncovered_percent > 40.0

    def test_paper_anchor_1000_sats(self, grid_anchor):
        result = run_fig2(COARSE, sizes=(1000,))
        assert result.points[0].mean_uncovered_percent < 5.0

    def test_points_follow_requested_order(self):
        result = run_fig2(COARSE, sizes=(10, 100))
        assert [p.satellites for p in result.points] == [10, 100]

    def test_oversize_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool"):
            run_fig2(COARSE, sizes=(10_000,))

    def test_narration_equals_the_per_store_reference(self, engine, monkeypatch):
        """The first run of each size narrates the same gap and contact
        events as a reference built from the store's own form: unpacked
        masks on the grid, analytic windows on the intervals engine."""
        narrate = fig2._narrate_run
        reference = (
            _mask_narration if engine == common.ENGINE_GRID else _window_narration
        )
        compared = []

        def both(store, indices, union, pool):
            obs_timeline.reset()
            narrate(store, indices, union, pool)
            actual = [event.to_dict() for event in obs_timeline.events()]
            compared.append((actual, reference(store, indices, pool)))

        monkeypatch.setattr(fig2, "_narrate_run", both)
        try:
            run_fig2(COARSE, sizes=(1, 10, 100, 1000, 2000))
        finally:
            obs_timeline.reset()
        assert len(compared) == 5
        for actual, expected in compared:
            assert actual == expected
        # The large sizes trace the full quota of satellites.
        traced = {
            event["subject"]
            for event in compared[-1][0]
            if event["kind"] == obs_timeline.CONTACT_BEGIN
        }
        assert len(traced) == fig2.MAX_TRACED_SATELLITES


def _gap_events(gaps, start_s, end_s):
    """gap.open / gap.close records of (start, stop) gaps on Taipei."""
    site_name = common.ALL_SITES[common.TAIPEI_INDEX].name
    records = []
    for gap_start_s, gap_stop_s in gaps:
        gap_s = float(gap_stop_s - gap_start_s)
        open_attrs = {"gap_s": gap_s}
        if gap_start_s <= start_s:
            open_attrs["at_run_start"] = True
        close_attrs = {"gap_s": gap_s}
        if gap_stop_s >= end_s:
            close_attrs["at_run_end"] = True
        records.append(
            {"t_s": gap_start_s, "kind": "gap.open", "subject": site_name,
             "attrs": open_attrs}
        )
        records.append(
            {"t_s": gap_stop_s, "kind": "gap.close", "subject": site_name,
             "attrs": close_attrs}
        )
    return records


def _contact_events(windows):
    """contact.begin / contact.end records of (start, stop, sat id)
    windows, in (start, satellite id) order."""
    site_name = common.ALL_SITES[common.TAIPEI_INDEX].name
    records = []
    for start_s, stop_s, sat_id in sorted(windows, key=lambda w: (w[0], w[2])):
        records.append(
            {"t_s": start_s, "kind": "contact.begin", "subject": sat_id,
             "attrs": {"site": site_name, "duration_hint_s": stop_s - start_s}}
        )
        records.append(
            {"t_s": stop_s, "kind": "contact.end", "subject": sat_id,
             "attrs": {"site": site_name}}
        )
    return records


def _mask_narration(store, indices, pool):
    """Fig. 2's grid narration as it read over unpacked masks: gaps are
    the uncovered runs of the union mask, contacts the visible runs of
    the first traced satellites' masks (every sampled row unpacked)."""
    grid = store.grid
    end_s = grid.start_s + grid.step_s * store.n_times
    mask = store.site_mask(common.TAIPEI_INDEX, indices)
    records = _gap_events(
        intervals_from_mask(~mask, grid.step_s, grid.start_s), grid.start_s, end_s
    )
    sat_masks = store.satellite_masks(indices, [common.TAIPEI_INDEX])
    active = np.flatnonzero(sat_masks.any(axis=1))[: fig2.MAX_TRACED_SATELLITES]
    windows = [
        (start_s, stop_s, pool.sat_ids[int(indices[row])])
        for row in active
        for start_s, stop_s in intervals_from_mask(
            sat_masks[row], grid.step_s, grid.start_s
        )
    ]
    return records + _contact_events(windows)


def _window_narration(store, indices, pool):
    """Fig. 2's intervals narration: gaps are the complement of the
    analytic union, contacts the first traced satellites' windows."""
    union = store.site_union(common.TAIPEI_INDEX, indices)
    holes = union.complement()
    records = _gap_events(
        zip(holes.starts.tolist(), holes.stops.tolist()), union.start_s, union.end_s
    )
    traced = [
        int(sat) for sat in indices if store.pair_count(common.TAIPEI_INDEX, int(sat))
    ][: fig2.MAX_TRACED_SATELLITES]
    windows = []
    for sat in traced:
        rises, sets, _, _ = store.pair_windows(common.TAIPEI_INDEX, sat)
        windows.extend(
            (rise, stop, pool.sat_ids[sat])
            for rise, stop in zip(rises.tolist(), sets.tolist())
        )
    return records + _contact_events(windows)


class TestFig3:
    def test_idle_decreases_with_cities(self):
        result = run_fig3(COARSE, city_counts=(1, 10, 21), sample_size=200)
        idle = [p.mean_idle_percent for p in result.points]
        assert idle[0] > idle[1] > idle[2]

    def test_paper_anchor_one_city(self):
        result = run_fig3(COARSE, city_counts=(1,), sample_size=200)
        assert result.points[0].mean_idle_percent > 97.0

    def test_bad_city_count_rejected(self):
        with pytest.raises(ValueError, match="city count"):
            run_fig3(COARSE, city_counts=(25,))

    def test_bad_sample_rejected(self):
        with pytest.raises(ValueError, match="sample_size"):
            run_fig3(COARSE, sample_size=10_000)

    def test_points_follow_requested_order(self):
        result = run_fig3(COARSE, city_counts=(1, 21), sample_size=200)
        assert [p.cities for p in result.points] == [1, 21]


class TestFig4a:
    def test_diminishing_returns(self):
        result = run_fig4a(COARSE, base_sizes=(1, 500))
        gains = {p.base_satellites: p.mean_gain_hours for p in result.points}
        assert gains[1] > gains[500]

    def test_gains_nonnegative(self):
        result = run_fig4a(COARSE, base_sizes=(1, 100))
        assert all(p.min_gain_hours >= 0.0 for p in result.points)

    def test_max_at_least_mean(self):
        result = run_fig4a(COARSE, base_sizes=(100,))
        point = result.points[0]
        assert point.max_gain_hours >= point.mean_gain_hours

    def test_points_follow_requested_order(self):
        result = run_fig4a(COARSE, base_sizes=(1, 100))
        assert [p.base_satellites for p in result.points] == [1, 100]


class TestFig4b:
    def test_midpoint_wins(self):
        result = run_fig4b(ExperimentConfig(runs=1, step_s=300.0))
        assert result.best_offset_deg() == pytest.approx(15.0, abs=2.0)

    def test_symmetry(self):
        result = run_fig4b(ExperimentConfig(runs=1, step_s=300.0))
        gains = [p.gain_hours for p in result.points]
        # Gain at offset d ~ gain at offset 30 - d.
        for g1, g2 in zip(gains, reversed(gains)):
            assert g1 == pytest.approx(g2, abs=0.15)

    def test_all_gains_nonnegative(self):
        result = run_fig4b(ExperimentConfig(runs=1, step_s=300.0))
        assert all(p.gain_hours >= 0.0 for p in result.points)


class TestFig4c:
    def test_inclination_wins(self):
        result = run_fig4c(ExperimentConfig(runs=1, step_s=300.0))
        ranking = result.ranking()
        assert ranking[0][0] == "inclination"

    def test_all_factors_help(self):
        result = run_fig4c(ExperimentConfig(runs=1, step_s=300.0))
        assert all(gain > 0.25 for gain in result.gains_hours.values())


class TestFig5:
    def test_loss_decreases_with_scale(self):
        result = run_fig5(COARSE, sizes=(200, 2000))
        losses = {p.satellites: p.mean_reduction_percent for p in result.points}
        assert losses[200] > losses[2000]

    def test_paper_anchor_small_constellation(self, grid_anchor):
        result = run_fig5(COARSE, sizes=(200,))
        assert result.points[0].mean_reduction_percent > 10.0

    def test_paper_anchor_large_constellation(self, grid_anchor):
        result = run_fig5(COARSE, sizes=(2000,))
        assert result.points[0].mean_reduction_percent < 3.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            run_fig5(COARSE, withdraw_fraction=1.0)

    def test_points_follow_requested_order(self):
        result = run_fig5(COARSE, sizes=(200, 2000))
        assert [p.satellites for p in result.points] == [200, 2000]


class TestFig6:
    def test_skew_increases_loss(self):
        result = run_fig6(COARSE, skews=(1, 10))
        losses = {p.skew: p.mean_reduction_percent for p in result.points}
        assert losses[10] > losses[1]

    def test_largest_party_sizes(self):
        result = run_fig6(COARSE, skews=(1, 10))
        sizes = {p.skew: p.largest_party_satellites for p in result.points}
        assert sizes[1] == 91
        assert sizes[10] == 500

    def test_network_survives_worst_skew(self):
        """Paper: even at 10:1 the network remains service-able."""
        result = run_fig6(COARSE, skews=(10,))
        assert result.points[0].mean_reduction_percent < 15.0

    def test_points_follow_requested_order(self):
        result = run_fig6(COARSE, skews=(1, 10))
        assert [p.skew for p in result.points] == [1, 10]


class TestSharingUpside:
    def test_paper_claim(self):
        result = run_sharing_upside(COARSE)
        upside = result.upside
        assert upside.shared_coverage_fraction > upside.alone_coverage_fraction
        # 50 contributed satellites buy coverage worth >= 1000 (the claim).
        assert upside.equivalent_alone_satellites >= 1000
        assert upside.satellite_multiplier >= 20.0

    def test_calibration_monotone(self):
        result = run_sharing_upside(COARSE)
        coverages = [coverage for _, coverage in result.calibration]
        assert all(b >= a - 0.02 for a, b in zip(coverages, coverages[1:]))

    def test_bad_contribution_rejected(self):
        with pytest.raises(ValueError, match="contributed"):
            run_sharing_upside(COARSE, contributed=0)
