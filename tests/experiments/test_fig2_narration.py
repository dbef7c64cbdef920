"""Fig. 2's contact narration on either contact store.

``narrate_contacts`` puts each traced satellite's Taipei windows, as the
store's ``pair_windows`` lists them, on the shared timeline as
``contact.begin`` / ``contact.end`` pairs.  Like every test in this
directory, each runs once per engine: sampled windows on the grid,
analytic rise and set times on the intervals engine.
"""

import numpy as np
import pytest

from repro.experiments.common import (
    ALL_SITES,
    TAIPEI_INDEX,
    ExperimentConfig,
    ExperimentContext,
)
from repro.obs import timeline as obs_timeline
from repro.sim.contacts import narrate_contacts

SMALL = ExperimentConfig(runs=1, step_s=1800.0, duration_s=86400.0)
SITE = ALL_SITES[TAIPEI_INDEX].name


@pytest.fixture(scope="module")
def world(engine):
    context = ExperimentContext(engine=engine)
    contacts = context.store(SMALL)
    pool = context.pool()
    seen = [
        sat for sat in range(contacts.n_satellites)
        if contacts.pair_windows(TAIPEI_INDEX, sat)[0].size
    ]
    yield contacts, pool, seen
    context.clear()


@pytest.fixture
def narrate():
    """Run the narration on a clean timeline; return (begins, ends)."""

    def run(contacts, sats, pool):
        obs_timeline.reset()
        try:
            narrate_contacts(
                SITE,
                [
                    (pool.sat_ids[sat], contacts.pair_windows(TAIPEI_INDEX, sat))
                    for sat in sats
                ],
            )
            return (
                obs_timeline.events(kind=obs_timeline.CONTACT_BEGIN),
                obs_timeline.events(kind=obs_timeline.CONTACT_END),
            )
        finally:
            obs_timeline.reset()

    return run


def _windows(contacts, pool, sats):
    """(rise, set, sat_id) of every Taipei window of ``sats``."""
    rows = []
    for sat in sats:
        rises, sets, _, _ = contacts.pair_windows(TAIPEI_INDEX, sat)
        rows.extend(
            (float(rise), float(fall), pool.sat_ids[sat])
            for rise, fall in zip(rises, sets)
        )
    return rows


def test_world_has_taipei_passes(world):
    _, _, seen = world
    assert len(seen) >= 3


@pytest.mark.parametrize("count", [1, 2, 3])
def test_one_begin_end_pair_per_window(world, narrate, count):
    contacts, pool, seen = world
    begins, ends = narrate(contacts, seen[:count], pool)
    windows = _windows(contacts, pool, seen[:count])
    assert len(begins) == len(ends) == len(windows)


def test_begins_sit_on_the_analytic_rises(world, narrate):
    contacts, pool, seen = world
    begins, _ = narrate(contacts, seen[:3], pool)
    expected = sorted((rise, sat_id) for rise, _, sat_id in _windows(contacts, pool, seen[:3]))
    assert [(event.t_s, event.subject) for event in begins] == expected


def test_ends_sit_on_the_analytic_sets(world, narrate):
    contacts, pool, seen = world
    _, ends = narrate(contacts, seen[:3], pool)
    expected = sorted((fall, sat_id) for _, fall, sat_id in _windows(contacts, pool, seen[:3]))
    assert sorted((event.t_s, event.subject) for event in ends) == expected


def test_duration_hint_is_the_window_length(world, narrate):
    contacts, pool, seen = world
    begins, _ = narrate(contacts, seen[:1], pool)
    windows = sorted(_windows(contacts, pool, seen[:1]))
    hints = [event.attrs["duration_hint_s"] for event in begins]
    assert hints == pytest.approx([fall - rise for rise, fall, _ in windows])


def test_events_carry_the_site(world, narrate):
    contacts, pool, seen = world
    begins, ends = narrate(contacts, seen[:2], pool)
    assert {event.attrs["site"] for event in begins + ends} == {SITE}


def test_begins_in_time_order(world, narrate):
    contacts, pool, seen = world
    begins, _ = narrate(contacts, seen[:3][::-1], pool)
    times = [event.t_s for event in begins]
    assert times == sorted(times)


def test_satellite_without_passes_adds_nothing(world, narrate):
    contacts, pool, seen = world
    unseen = next(
        sat for sat in range(contacts.n_satellites)
        if not contacts.pair_windows(TAIPEI_INDEX, sat)[0].size
    )
    with_unseen = narrate(contacts, [seen[0], unseen], pool)
    alone = narrate(contacts, [seen[0]], pool)
    assert [len(events) for events in with_unseen] == [len(events) for events in alone]


def test_no_satellites_no_events(world, narrate):
    contacts, pool, _ = world
    assert narrate(contacts, np.array([], dtype=int), pool) == ([], [])
