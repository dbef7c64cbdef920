"""Batched subset queries: a ``(runs, k)`` index matrix on either store.

``coverage_fractions`` and ``withdrawal_coverage`` on the packed tensor and
on the contact windows accept one subset per row and answer with
``(runs, S)`` rows; row *i* must equal the 1-D call on row *i* bit for
bit.  The packed store gathers runs in blocks of
``visibility.BATCH_GATHER_BYTES``; the budget is shrunk here so a batch
splits into uneven blocks.
"""

import numpy as np
import pytest

from repro.constellation.walker import walker_delta
from repro.ground.cities import CITIES
from repro.sim import visibility
from repro.sim.clock import TimeGrid
from repro.sim.intervals import find_contact_intervals
from repro.sim.visibility import packed_visibility

#: 363 samples: the packed rows carry padding bits.
GRID = TimeGrid(duration_s=363 * 60.0, step_s=60.0)

BUILDS = {"grid": packed_visibility, "intervals": find_contact_intervals}


@pytest.fixture(scope="module", params=sorted(BUILDS))
def store(request):
    walker = walker_delta(40, 8, 1, inclination_deg=53.0, altitude_km=550.0)
    sites = [city.terminal() for city in CITIES[:5]]
    return BUILDS[request.param](walker, sites, GRID)


def _orders(runs: int, k: int, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(n)[:k] for _ in range(runs)])


def _uneven_budget(monkeypatch, store, k: int) -> None:
    """Three runs per gather block, so seven runs split 3 + 3 + 1."""
    if hasattr(store, "by_satellite"):
        run_bytes = k * store.n_sites * store.by_satellite.shape[2]
        monkeypatch.setattr(visibility, "BATCH_GATHER_BYTES", 3 * max(run_bytes, 1))


class TestRowsMatchOneDimensionalCalls:
    @pytest.mark.parametrize("runs", [1, 7])
    @pytest.mark.parametrize("k", [0, 1, 9, 40])
    def test_coverage_fractions(self, monkeypatch, store, runs, k):
        _uneven_budget(monkeypatch, store, k)
        orders = _orders(runs, k, store.n_satellites)
        got = store.coverage_fractions(orders)
        assert got.shape == (runs, store.n_sites)
        for row, order in zip(got, orders):
            np.testing.assert_array_equal(row, store.coverage_fractions(order))

    @pytest.mark.parametrize("runs", [1, 7])
    @pytest.mark.parametrize("k", [0, 1, 9, 40])
    def test_withdrawal_coverage(self, monkeypatch, store, runs, k):
        _uneven_budget(monkeypatch, store, k)
        orders = _orders(runs, k, store.n_satellites, seed=k)
        for withdrawn in sorted({0, k // 2, k}):
            base, kept = store.withdrawal_coverage(orders, withdrawn)
            assert base.shape == kept.shape == (runs, store.n_sites)
            for index, order in enumerate(orders):
                one_base, one_kept = store.withdrawal_coverage(order, withdrawn)
                np.testing.assert_array_equal(base[index], one_base)
                np.testing.assert_array_equal(kept[index], one_kept)

    def test_reversed_view_rows(self, store):
        """A non-contiguous matrix (reversed columns) reads like a copy."""
        orders = _orders(4, 12, store.n_satellites)
        view = orders[:, ::-1]
        np.testing.assert_array_equal(
            store.coverage_fractions(view),
            store.coverage_fractions(np.ascontiguousarray(view)),
        )

    def test_one_dimensional_input_keeps_its_shape(self, store):
        order = _orders(1, 9, store.n_satellites)
        assert store.coverage_fractions(order[0]).shape == (store.n_sites,)
        assert store.coverage_fractions(order).shape == (1, store.n_sites)
        base, kept = store.withdrawal_coverage(list(order[0]), 3)
        assert base.shape == kept.shape == (store.n_sites,)


class TestBatchValidation:
    @pytest.mark.parametrize("bad", ["high", "negative"])
    def test_bad_index_in_any_row_raises(self, store, bad):
        orders = _orders(3, 5, store.n_satellites)
        orders[2, 4] = store.n_satellites if bad == "high" else -1
        match = f"satellite index {orders[2, 4]} is out of range"
        with pytest.raises(IndexError, match=match):
            store.coverage_fractions(orders)
        with pytest.raises(IndexError, match=match):
            store.withdrawal_coverage(orders, 2)

    @pytest.mark.parametrize("withdrawn", [-1, 6])
    def test_bad_withdrawn_raises(self, store, withdrawn):
        with pytest.raises(ValueError, match="withdrawn"):
            store.withdrawal_coverage(_orders(3, 5, store.n_satellites), withdrawn)


#: Satellites per slice when a run is over the shrunk gather budget.
SLICE = 4


class TestOverBudgetRunsAreSliced:
    """A run larger than ``BATCH_GATHER_BYTES`` is gathered and OR-ed in
    slices of satellites; with the budget shrunk to ``SLICE`` satellites'
    rows, every answer must equal the one gathered whole."""

    @pytest.fixture(scope="class")
    def packed(self):
        walker = walker_delta(40, 8, 1, inclination_deg=53.0, altitude_km=550.0)
        sites = [city.terminal() for city in CITIES[:5]]
        return packed_visibility(walker, sites, GRID)

    def _tiny_budget(self, monkeypatch, packed):
        sat_bytes = packed.n_sites * packed.by_satellite.shape[2]
        monkeypatch.setattr(visibility, "BATCH_GATHER_BYTES", SLICE * sat_bytes)

    @pytest.mark.parametrize("runs", [None, 1, 3])
    def test_coverage_fractions(self, monkeypatch, packed, runs):
        orders = _orders(runs or 1, 38, packed.n_satellites)
        order = orders if runs else orders[0]
        whole = packed.coverage_fractions(order)
        self._tiny_budget(monkeypatch, packed)
        np.testing.assert_array_equal(packed.coverage_fractions(order), whole)

    @pytest.mark.parametrize("runs", [None, 1, 3])
    @pytest.mark.parametrize(
        "withdrawn", [0, 2 * SLICE, 2 * SLICE + 1, 38], ids=["zero", "boundary", "inside", "all"]
    )
    def test_withdrawal_coverage(self, monkeypatch, packed, runs, withdrawn):
        orders = _orders(runs or 1, 38, packed.n_satellites, seed=5)
        order = orders if runs else orders[0]
        whole = packed.withdrawal_coverage(order, withdrawn)
        self._tiny_budget(monkeypatch, packed)
        sliced = packed.withdrawal_coverage(order, withdrawn)
        for got, expected in zip(sliced, whole):
            np.testing.assert_array_equal(got, expected)
        assert np.shape(sliced[0]) == np.shape(whole[0])

    def test_slices_bound_each_gather(self, monkeypatch, packed):
        """No gather of an over-budget run holds more than SLICE rows."""
        self._tiny_budget(monkeypatch, packed)
        seen = []
        real = packed.by_satellite

        class Recording(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray):
                    seen.append(key.shape[-1])
                return np.ndarray.__getitem__(self, key)

        monkeypatch.setattr(packed, "by_satellite", real.view(Recording))
        packed.withdrawal_coverage(_orders(1, 38, packed.n_satellites)[0], 9)
        assert seen and max(seen) <= SLICE
