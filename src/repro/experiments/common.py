"""Shared experiment infrastructure.

The Monte-Carlo experiments all sample from the same synthetic Starlink-like
pool and evaluate coverage at the same sites (the 21 cities and/or Taipei),
so the expensive artifacts — the pool and its contact store (the packed
visibility tensor on the grid engine, analytic contact windows on the
intervals engine) — are owned by an :class:`ExperimentContext` and built
once per configuration.

A context is an explicit object with an explicit lifetime: the unified
runner (:mod:`repro.runner`) threads one through every scenario kernel, and
tests can create throwaway contexts that never touch each other.  The
module-level helpers (:func:`starlink_pool`, :func:`pool_visibility`,
:func:`clear_caches`) delegate to one process-default context so existing
call sites keep working.

Cache traffic is counted through :mod:`repro.obs` (counters
``experiments.visibility_cache.*``, ``experiments.interval_cache.*`` and
``experiments.pool_cache.*``); each store build is timed once, by its span
(``visibility.build`` or ``intervals.build``), and logged at INFO.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_MIN_ELEVATION_DEG, WEEK_S
from repro.constellation.satellite import Constellation
from repro.constellation.shells import starlink_like_constellation
from repro.ground.cities import (
    CITIES,
    TAIPEI,
    population_weights,
    terminals_for_cities,
)
from repro.ground.sites import GroundSite
from repro.obs import get_logger, metrics
from repro.obs.trace import span
from repro.orbits.propagator import BatchPropagator
from repro.sim import kernels
from repro.sim.clock import TimeGrid
from repro.sim.intervals import ContactIntervals, find_contact_intervals
from repro.sim.kernels import SiteGeometry
from repro.sim.visibility import PackedVisibility, packed_visibility

_LOG = get_logger(__name__)

_POOL_HITS = metrics.counter("experiments.pool_cache.hits")
_POOL_MISSES = metrics.counter("experiments.pool_cache.misses")
_POOL_EVICTIONS = metrics.counter("experiments.pool_cache.evictions")
_VIS_HITS = metrics.counter("experiments.visibility_cache.hits")
_VIS_MISSES = metrics.counter("experiments.visibility_cache.misses")
_VIS_EVICTIONS = metrics.counter("experiments.visibility_cache.evictions")
_GEO_HITS = metrics.counter("experiments.geometry_cache.hits")
_GEO_MISSES = metrics.counter("experiments.geometry_cache.misses")
_GEO_EVICTIONS = metrics.counter("experiments.geometry_cache.evictions")
_INT_HITS = metrics.counter("experiments.interval_cache.hits")
_INT_MISSES = metrics.counter("experiments.interval_cache.misses")
_INT_EVICTIONS = metrics.counter("experiments.interval_cache.evictions")

#: Contact-evaluation engines a context can run experiments on.
ENGINE_GRID = "grid"
ENGINE_INTERVALS = "intervals"
ENGINES = (ENGINE_GRID, ENGINE_INTERVALS)

#: Per engine: the store cache's hit and miss counters and build span.
_STORE_METRICS = {
    ENGINE_GRID: (_VIS_HITS, _VIS_MISSES, "visibility.build"),
    ENGINE_INTERVALS: (_INT_HITS, _INT_MISSES, "intervals.build"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every figure experiment.

    The paper runs 100 Monte-Carlo repetitions of each experiment at an
    unstated time step; the defaults here (20 runs, 120 s) keep a full
    benchmark pass in minutes on a laptop while leaving the statistics
    stable (means move by well under the figure-level differences).
    EXPERIMENTS.md records the configuration used for the reported numbers.
    """

    runs: int = 20
    step_s: float = 120.0
    seed: int = 2024
    min_elevation_deg: float = DEFAULT_MIN_ELEVATION_DEG
    duration_s: float = WEEK_S  # The paper's horizon: one simulated week.

    def grid(self) -> TimeGrid:
        return TimeGrid(duration_s=self.duration_s, step_s=self.step_s)

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)


#: All experiment sites: index 0 is Taipei (Fig. 2), 1..21 are the cities.
ALL_SITES = (TAIPEI,) + tuple(CITIES)
TAIPEI_INDEX = 0
CITY_INDICES = tuple(range(1, len(ALL_SITES)))

#: Satellites per store query when :meth:`ExperimentContext.
#: satellite_activity` fills its table: about one Fig. 3 run's sample.  A
#: batch of runs asks for nearly the whole pool at once, and the packed
#: store gathers a satellite's rows at every site before selecting sites,
#: so one unchunked fill would copy the whole store (23 MiB at the CLI
#: defaults).  In chunks it gathers no more at a time than one run did.
ACTIVITY_FILL_SATELLITES = 512

#: Cache key of one packed visibility tensor — every config field the tensor
#: depends on: pool seed, step, elevation mask, AND horizon.  Omitting the
#: horizon aliased differently sized grids onto one entry the moment
#: ``duration_s`` became configurable.
VisibilityKey = Tuple[int, float, float, float]


def visibility_cache_key(
    config: ExperimentConfig, pool_seed: int = 0
) -> VisibilityKey:
    """The exact-match key a config's visibility tensor is cached under."""
    return (pool_seed, config.step_s, config.min_elevation_deg, config.duration_s)


class ExperimentContext:
    """Owns the expensive experiment artifacts: pools + contact stores.

    One context is one cache domain.  The process-default context (module
    helpers below) serves the CLI and the benchmark suite; tests create
    throwaway contexts to keep cache state out of each other's way.

    Not thread-safe: experiments drive a context from one thread at a time.

    Args:
        engine: Which contact store :meth:`store` returns, and so what
            every scenario kernel reduces over: ``"grid"`` (the packed
            dense tensor, default) or ``"intervals"`` (analytic rise/set
            windows).  A context-level execution knob — never part of
            :class:`ExperimentConfig`, never in cache keys, set by the
            CLI's ``--engine``.  The engines agree within one coarse-scan
            step per contact edge (``oracle.intervals`` quantifies it).
    """

    def __init__(self, engine: str = ENGINE_GRID) -> None:
        self.engine = engine
        self._checked_engine()
        self._pools: Dict[int, Constellation] = {}
        self._propagators: Dict[int, BatchPropagator] = {}
        self._stores: Dict[str, Dict[VisibilityKey, object]] = {
            engine: {} for engine in ENGINES
        }
        self._geometry: Dict[
            Tuple[Tuple[GroundSite, ...], TimeGrid], SiteGeometry
        ] = {}
        self._activity: Dict[tuple, np.ndarray] = {}

    def pool(self, seed: int = 0) -> Constellation:
        """The cached synthetic Starlink-like pool (4408 satellites).

        Column-backed (:meth:`Constellation.from_columns`): building it
        creates no :class:`Satellite`, and the figure paths read only its
        length, columns and ids.
        """
        if seed not in self._pools:
            _POOL_MISSES.inc()
            _LOG.info("building starlink-like pool (seed=%d)", seed)
            self._pools[seed] = starlink_like_constellation(
                rng=np.random.default_rng(seed)
            )
        else:
            _POOL_HITS.inc()
        return self._pools[seed]

    def pool_propagator(self, seed: int = 0) -> BatchPropagator:
        """A cached :class:`BatchPropagator` over the pool.

        Reusing one propagator instance across Monte-Carlo rebuilds keeps
        :meth:`SiteGeometry.thresholds`' per-propagator cache hot (the
        threshold table only depends on the pool's radii and the sites).
        """
        if seed not in self._propagators:
            self._propagators[seed] = BatchPropagator.from_columns(
                self.pool(seed).columns
            )
        return self._propagators[seed]

    def site_geometry(
        self, sites: Sequence[GroundSite], grid: TimeGrid
    ) -> SiteGeometry:
        """The cached :class:`SiteGeometry` for a (sites, grid) pair.

        Sites and grid are fixed per experiment while the constellation
        sample varies, so the stacked unit vectors, radii, thresholds and
        the full ECI unit track are computed once and reused by every run.
        """
        key = (tuple(sites), grid)
        geometry = self._geometry.get(key)
        if geometry is None:
            _GEO_MISSES.inc()
            geometry = SiteGeometry(key[0], grid)
            geometry.prime_track()
            self._geometry[key] = geometry
        else:
            _GEO_HITS.inc()
        return geometry

    def store(self, config: ExperimentConfig, pool_seed: int = 0):
        """The engine's full-pool contact store for ``config``.

        A :class:`PackedVisibility` on the grid engine, a
        :class:`ContactIntervals` on the intervals engine.  Both answer
        ``coverage_fractions(sats)`` and ``satellite_active_fractions(sats,
        sites)`` with rows in :data:`ALL_SITES` order, and give one site's
        coverage as an interval set (``site_union(site, sats)``) and one
        pair's windows as aligned arrays (``pair_windows(site, sat)``), so
        a Monte-Carlo kernel written once over the store runs on either
        engine.
        """
        return self._cached_store(self._checked_engine(), config, pool_seed)

    def visibility(
        self, config: ExperimentConfig, pool_seed: int = 0
    ) -> PackedVisibility:
        """Packed visibility of the full pool at every experiment site.

        This is the one expensive computation (a week of the full pool
        takes ~0.8-1.1 s at 120 s steps and ~1.7 s at 60 s on a 2-CPU
        x86-64 host, on both CPUs; 1.1-1.5 s and 2.4-2.9 s on one);
        everything downstream is boolean reductions.
        Cached per (pool seed, step, elevation mask, horizon).
        """
        return self._cached_store(ENGINE_GRID, config, pool_seed)

    def contact_intervals(
        self, config: ExperimentConfig, pool_seed: int = 0
    ) -> ContactIntervals:
        """Analytic contact windows of the full pool at every site.

        The intervals-engine sibling of :meth:`visibility`: the coarse
        scan runs on the config's own grid (so both engines detect exactly
        the same passes) and every edge is refined by root-finding, on
        every CPU.  At 300 s steps over one day the build takes ~0.29 s on
        a 2-CPU x86-64 host and ~0.35 s on one of its CPUs (in process,
        medians of 10 builds); the refine is ~0.18 s and ~0.25 s of that.
        Cached under the same key as the packed tensor.
        """
        return self._cached_store(ENGINE_INTERVALS, config, pool_seed)

    def _checked_engine(self) -> str:
        # ``engine`` is a plain attribute the CLI and tests assign after
        # construction, so it is validated where it is read.
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        return self.engine

    def _cached_store(self, engine: str, config: ExperimentConfig, pool_seed: int):
        key = visibility_cache_key(config, pool_seed)
        cache = self._stores[engine]
        hits, misses, span_name = _STORE_METRICS[engine]
        if key in cache:
            hits.inc()
            return cache[key]
        misses.inc()
        _LOG.info(
            "%s store cache miss: building "
            "(pool_seed=%d step=%.0fs mask=%.1fdeg duration=%.0fs)",
            engine, *key,
        )
        propagator = self.pool_propagator(pool_seed)
        start = time.perf_counter()
        sites = terminals_for_cities(ALL_SITES, config.min_elevation_deg)
        grid = config.grid()
        geometry = self.site_geometry(sites, grid)
        build = (
            find_contact_intervals if engine == ENGINE_INTERVALS
            else packed_visibility
        )
        with span(span_name):
            cache[key] = build(propagator, sites, grid, geometry=geometry)
        _LOG.info(
            "%s store built in %.2f s", engine, time.perf_counter() - start
        )
        return cache[key]

    def satellite_activity(
        self,
        config: ExperimentConfig,
        sat_indices,
        site_indices,
        pool_seed: int = 0,
    ) -> np.ndarray:
        """Active fraction of each satellite in ``sat_indices`` at the sites.

        Equal to ``store(config, pool_seed).satellite_active_fractions(
        sat_indices, site_indices)``, read from a per-(store, engine, sites)
        table of every pool satellite that is filled on demand: the store
        is asked only for satellites not yet in the table.  A satellite's
        activity is its own popcount (grid) or its own event sweep
        (intervals), so the table's values do not depend on which
        satellites were asked together.  Fig. 3 asks once per sweep point,
        for all of its runs' samples at the point's site set, so the
        point's store work scales with the union of those samples rather
        than with the runs.  The store is asked for at most
        :data:`ACTIVITY_FILL_SATELLITES` satellites at a time.
        """
        store = self.store(config, pool_seed)
        sats = kernels.checked_indices(sat_indices, store.n_satellites, "satellite")
        sites = kernels.checked_indices(site_indices, store.n_sites, "site")
        key = (visibility_cache_key(config, pool_seed), self.engine, sites.tobytes())
        table = self._activity.get(key)
        if table is None:
            table = self._activity[key] = np.full(store.n_satellites, np.nan)
        active = table[sats]
        missing = np.isnan(active)
        if missing.any():
            # The distinct missing satellites, sorted: a mask over the pool
            # is cheaper than a hash-based np.unique on a batch's samples.
            need = np.zeros(store.n_satellites, dtype=bool)
            need[sats[missing]] = True
            fill = np.flatnonzero(need)
            for start in range(0, fill.size, ACTIVITY_FILL_SATELLITES):
                part = fill[start : start + ACTIVITY_FILL_SATELLITES]
                table[part] = store.satellite_active_fractions(part, sites)
            active = table[sats]
        return active

    def cached_visibility(self) -> Dict[VisibilityKey, PackedVisibility]:
        """A copy of the live visibility cache (tests inspect keying)."""
        return dict(self._stores[ENGINE_GRID])

    def cached_intervals(self) -> Dict[VisibilityKey, ContactIntervals]:
        """A copy of the live contact-interval cache (tests inspect keying)."""
        return dict(self._stores[ENGINE_INTERVALS])

    def cached_pool_seeds(self) -> Tuple[int, ...]:
        return tuple(sorted(self._pools))

    def clear(self) -> None:
        """Drop every cached pool/visibility/geometry this context owns."""
        _POOL_EVICTIONS.inc(len(self._pools))
        _VIS_EVICTIONS.inc(len(self._stores[ENGINE_GRID]))
        _GEO_EVICTIONS.inc(len(self._geometry))
        _INT_EVICTIONS.inc(len(self._stores[ENGINE_INTERVALS]))
        self._pools.clear()
        self._propagators.clear()
        for cache in self._stores.values():
            cache.clear()
        self._geometry.clear()
        self._activity.clear()


#: The process-default context behind the module-level helpers.
_DEFAULT_CONTEXT = ExperimentContext()


def default_context() -> ExperimentContext:
    """The process-default :class:`ExperimentContext`."""
    return _DEFAULT_CONTEXT


def starlink_pool(seed: int = 0) -> Constellation:
    """The default context's cached Starlink-like pool."""
    return _DEFAULT_CONTEXT.pool(seed)


def pool_visibility(config: ExperimentConfig, pool_seed: int = 0) -> PackedVisibility:
    """The default context's packed visibility for ``config``."""
    return _DEFAULT_CONTEXT.visibility(config, pool_seed)


def clear_caches() -> None:
    """Drop the default context's caches (tests use this to bound memory)."""
    _DEFAULT_CONTEXT.clear()


#: Lazily built, read-only normalized city-weight vector.  The weighted
#: coverage reduction below runs once per Monte-Carlo run of Figs. 4a/5/6
#: and the sharing experiment; rebuilding the vector per call was
#: measurable noise in exactly those hot loops.
_CITY_WEIGHTS: Optional[np.ndarray] = None

#: City rows of the visibility tensor (sites 1..21) as a fancy index.
_CITY_ROWS = np.array(CITY_INDICES)


def city_weights() -> np.ndarray:
    """Normalized population weights of the 21 cities (cached, read-only)."""
    global _CITY_WEIGHTS
    if _CITY_WEIGHTS is None:
        weights = np.array(population_weights(CITIES))
        weights.flags.writeable = False
        _CITY_WEIGHTS = weights
    return _CITY_WEIGHTS


def weighted_city_coverage(store, sat_indices) -> float:
    """Population-weighted city coverage of a satellite subset.

    ``store`` is any ``coverage_fractions`` source with rows in
    :data:`ALL_SITES` order, such as either engine's contact store
    (:meth:`ExperimentContext.store`).
    """
    fractions = store.coverage_fractions(sat_indices)
    return _weighted_cities(fractions)


def withdrawal_losses(store, orders, withdrawn: int) -> List[float]:
    """Weighted city coverage lost when each order's first ``withdrawn``
    satellites withdraw.

    ``orders`` is a ``(runs, k)`` matrix of withdrawal orders.  Entry *i*
    equals ``weighted_city_coverage(store, orders[i]) -
    weighted_city_coverage(store, orders[i][withdrawn:])``, all from one
    ``withdrawal_coverage`` query.  ``store`` is either engine's full-pool
    contact store.
    """
    base, kept = store.withdrawal_coverage(orders, withdrawn)
    return [
        whole - tail
        for whole, tail in zip(weighted_city_rows(base), weighted_city_rows(kept))
    ]


def weighted_city_rows(fractions: np.ndarray) -> List[float]:
    """:func:`weighted_city_coverage` of each row of a batched
    ``coverage_fractions`` result: one float per ``(S,)`` row."""
    return [_weighted_cities(row) for row in fractions]


def _weighted_cities(fractions: np.ndarray) -> float:
    return float(city_weights() @ fractions[_CITY_ROWS])
