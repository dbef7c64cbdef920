"""Seeded, stdlib-only property fuzzing of physical invariants.

A deliberately small property-testing harness — no hypothesis dependency,
no shrinking — built on the same stateless ``SeedSequence`` spawning as the
Monte-Carlo runner: invariant *k*, trial *t* of a run seeded with *s* draws
from ``SeedSequence(s, spawn_key=(FUZZ_STREAM, k, t))``, so a red trial is
replayed exactly by :func:`replay_trial` with the triple the report
records, regardless of trial count or ordering.

The invariants are physics the figures silently rely on:

* ``radius_bounds`` — propagated radii stay inside the ellipse's
  [a(1-e), a(1+e)] band (a vectorization bug that bends radii bends every
  coverage footprint).
* ``unit_norms`` — the visibility engine's direction vectors are unit
  length (the cos-threshold comparison assumes it).
* ``scalar_batch_state`` — batch positions match the scalar reference on
  random short horizons (the 24 h sweep lives in
  :func:`repro.validate.oracles.check_propagator_agreement`).
* ``visibility_split`` — computing visibility over a grid equals
  concatenating the tensors of the grid split at a random sample; also the
  chunk-size identity (chunking is pure tiling).
* ``raan_drift_sign`` — nodal regression for prograde orbits, advance for
  retrograde, batch rates equal to scalar rates.
* ``kepler_wrap`` — Kepler solutions converge and agree scalar-vs-batch
  across mean anomalies spanning wrap boundaries.
* ``interval_algebra`` — the :class:`~repro.sim.intervals.IntervalSet`
  algebra on adversarial inputs (zero-length intervals, touching
  endpoints, full-horizon contacts, empty sets): normalization,
  De Morgan / complement identities, inclusion-exclusion, and
  sample-membership against a brute-force point-in-interval loop.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

import numpy as np

from repro.obs import get_logger
from repro.orbits.kepler import solve_kepler, solve_kepler_batch
from repro.orbits.propagator import BatchPropagator, J2Propagator, j2_secular_rates
from repro.sim.clock import TimeGrid
from repro.sim.visibility import VisibilityEngine
from repro.validate import gen
from repro.validate.result import CheckResult, failed, passed

_LOG = get_logger(__name__)

#: Spawn-key stream id reserved for the fuzz harness (oracle checks use 1-3).
FUZZ_STREAM = 100

#: An invariant takes one trial rng and raises AssertionError on violation.
Invariant = Callable[[np.random.Generator], None]


def invariant_radius_bounds(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 12)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    grid = gen.random_grid(rng)
    radii = np.linalg.norm(
        BatchPropagator(elements).positions_eci(grid.times_s), axis=-1
    )
    axes = np.array([e.semi_major_axis_m for e in elements])[:, None]
    eccs = np.array([e.eccentricity for e in elements])[:, None]
    low = axes * (1.0 - eccs) * (1.0 - 1e-9)
    high = axes * (1.0 + eccs) * (1.0 + 1e-9)
    assert np.all(radii >= low), (
        f"radius below perigee bound by {float((low - radii).max()):.3e} m"
    )
    assert np.all(radii <= high), (
        f"radius above apogee bound by {float((radii - high).max()):.3e} m"
    )


def invariant_unit_norms(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 12)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    grid = gen.random_grid(rng)
    units = BatchPropagator(elements).unit_positions_eci(grid.times_s)
    norms = np.linalg.norm(units, axis=-1)
    worst = float(np.abs(norms - 1.0).max())
    assert worst < 1e-9, f"unit-vector norm off by {worst:.3e}"


def invariant_scalar_batch_state(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(1, 6)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    times = gen.random_grid(rng, min_samples=4, max_samples=32).times_s
    batch = BatchPropagator(elements).positions_eci(times)
    for sat, element in enumerate(elements):
        propagator = J2Propagator(element)
        for t, time_s in enumerate(times):
            error_m = float(
                np.linalg.norm(batch[sat, t] - propagator.position_eci(time_s))
            )
            assert error_m < 1e-3, (
                f"sat {sat} at t={time_s:.0f}s: scalar/batch differ by "
                f"{error_m:.3e} m"
            )


def invariant_visibility_split(rng: np.random.Generator) -> None:
    elements = gen.random_elements(rng, int(rng.integers(2, 10)))
    sites = gen.random_sites(rng, int(rng.integers(1, 5)))
    grid = gen.random_grid(rng, min_samples=8, max_samples=96)
    whole = VisibilityEngine(grid).visibility(elements, sites)

    # Chunk-size identity: chunking is pure tiling of the time axis.
    chunk = int(rng.integers(1, grid.count + 1))
    chunked = VisibilityEngine(grid, chunk_size=chunk).visibility(elements, sites)
    assert np.array_equal(whole, chunked), f"chunk_size={chunk} changed the tensor"

    # Time-grid split identity: [0, k) ++ [k, T) == [0, T).  Integer-second
    # steps (see gen.random_grid) make the split sample times bit-identical.
    split = int(rng.integers(1, grid.count))
    head = TimeGrid(start_s=0.0, duration_s=split * grid.step_s, step_s=grid.step_s)
    tail = TimeGrid(
        start_s=split * grid.step_s,
        duration_s=(grid.count - split) * grid.step_s,
        step_s=grid.step_s,
    )
    stitched = np.concatenate(
        [
            VisibilityEngine(head).visibility(elements, sites),
            VisibilityEngine(tail).visibility(elements, sites),
        ],
        axis=2,
    )
    assert np.array_equal(whole, stitched), (
        f"splitting the grid at sample {split} changed the tensor"
    )


def invariant_raan_drift_sign(rng: np.random.Generator) -> None:
    elements = gen.random_elements(
        rng, int(rng.integers(2, 16)), max_eccentricity=gen.MAX_DOMAIN_ECCENTRICITY
    )
    batch = BatchPropagator(elements)
    for index, element in enumerate(elements):
        rates = j2_secular_rates(element)
        inclination = element.inclination_deg
        if inclination < 89.9:
            assert rates.raan_rate < 0.0, (
                f"prograde orbit (i={inclination:.2f}) must regress, "
                f"got {rates.raan_rate:+.3e} rad/s"
            )
        elif inclination > 90.1:
            assert rates.raan_rate > 0.0, (
                f"retrograde orbit (i={inclination:.2f}) must advance, "
                f"got {rates.raan_rate:+.3e} rad/s"
            )
        batch_rate = float(batch.raan_rate[index])
        assert math.isclose(batch_rate, rates.raan_rate, rel_tol=1e-12, abs_tol=1e-18), (
            f"batch RAAN rate {batch_rate:+.6e} != scalar {rates.raan_rate:+.6e}"
        )


def invariant_kepler_wrap(rng: np.random.Generator) -> None:
    two_pi = 2.0 * math.pi
    # Mean anomalies hugging the wrap boundary from both sides, plus
    # uniform draws over several revolutions (including negatives).
    boundary = np.array([-1e-9, 0.0, 1e-9, two_pi - 1e-9, two_pi, two_pi + 1e-9])
    uniform = rng.uniform(-2.0 * two_pi, 4.0 * two_pi, size=24)
    means = np.concatenate([boundary, uniform])
    eccs = rng.uniform(0.0, gen.MAX_DOMAIN_ECCENTRICITY, size=means.size)

    batch = solve_kepler_batch(means, eccs)
    for mean, ecc, batch_e in zip(means, eccs, batch):
        scalar_e = solve_kepler(float(mean), float(ecc))
        residual = abs(scalar_e - ecc * math.sin(scalar_e) - (float(mean) % two_pi))
        assert residual < 1e-10, (
            f"solve_kepler residual {residual:.3e} at M={mean:.6f}, e={ecc:.4f}"
        )
        assert math.isclose(scalar_e, float(batch_e), rel_tol=0.0, abs_tol=1e-9), (
            f"scalar {scalar_e!r} != batch {float(batch_e)!r} "
            f"at M={mean:.6f}, e={ecc:.4f}"
        )


def invariant_interval_algebra(rng: np.random.Generator) -> None:
    from repro.sim.intervals import IntervalSet

    start_s = float(rng.uniform(-1_000.0, 1_000.0))
    span = float(rng.uniform(10.0, 100_000.0))
    end_s = start_s + span

    def random_set() -> IntervalSet:
        """An adversarial interval soup: zero-length windows, touching
        endpoints, full-horizon contacts, and windows straddling (or
        entirely outside) the horizon — everything normalization must
        absorb."""
        starts: List[float] = []
        stops: List[float] = []
        for _ in range(int(rng.integers(0, 10))):
            kind = int(rng.integers(0, 4))
            if kind == 0:  # zero-length (must be dropped)
                at = float(rng.uniform(start_s, end_s))
                starts.append(at)
                stops.append(at)
            elif kind == 1:  # the full horizon
                starts.append(start_s)
                stops.append(end_s)
            elif kind == 2:  # straddles or misses the horizon (clipping)
                a = float(rng.uniform(start_s - span, end_s + span))
                starts.append(a)
                stops.append(a + float(rng.uniform(0.0, span)))
            else:  # interior window
                a = float(rng.uniform(start_s, end_s))
                starts.append(a)
                stops.append(a + float(rng.uniform(0.0, end_s - a)))
        if rng.random() < 0.5:  # a touching pair (must merge into one)
            mid = float(rng.uniform(start_s, end_s))
            width = float(rng.uniform(0.0, span / 4.0))
            starts.extend([mid - width, mid])
            stops.extend([mid, mid + width])
        return IntervalSet(starts, stops, start_s, end_s)

    a = random_set()
    b = random_set()
    empty = IntervalSet.empty(start_s, end_s)
    full = IntervalSet.full(start_s, end_s)

    # Normalization: clipped to the horizon, zero-length dropped, sorted,
    # pairwise disjoint with touching neighbours merged.
    for name, s in (("a", a), ("b", b)):
        assert np.all(s.starts < s.stops), f"{name}: zero-length kept"
        assert np.all(s.starts >= start_s) and np.all(s.stops <= end_s), (
            f"{name}: not clipped to horizon"
        )
        assert np.all(s.starts[1:] > s.stops[:-1]), (
            f"{name}: overlapping or touching neighbours survived"
        )
        assert math.isclose(
            s.total_s, float(s.durations_s().sum()), abs_tol=1e-9
        ), f"{name}: total_s != sum of durations"

    # Complement: involution, and the empty/full poles map to each other.
    assert a.complement().complement() == a, "complement not an involution"
    assert empty.complement() == full, "complement of empty != full"
    assert full.complement() == empty, "complement of full != empty"

    # Lattice identities with the poles, idempotence, commutativity.
    assert a.union(empty) == a and a.intersect(full) == a, "identity laws"
    assert a.union(full) == full and a.intersect(empty) == empty, (
        "absorption by the poles"
    )
    assert a.union(a) == a and a.intersect(a) == a, "idempotence"
    assert a.union(b) == b.union(a), "union not commutative"
    assert a.intersect(b) == b.intersect(a), "intersect not commutative"
    assert a.union(a.complement()) == full, "A | ~A != full"
    assert a.intersect(a.complement()) == empty, "A & ~A != empty"

    # Inclusion-exclusion on measures.
    lhs = a.union(b).total_s + a.intersect(b).total_s
    assert math.isclose(lhs, a.total_s + b.total_s, abs_tol=1e-6), (
        f"|A|+|B| = {a.total_s + b.total_s:.9f} != "
        f"|A|B|+|A&B| = {lhs:.9f}"
    )

    # Pointwise semantics: membership sampling must match a brute-force
    # point-in-interval loop, and distribute over union/intersection.
    times = rng.uniform(start_s - 1.0, end_s + 1.0, size=48)
    sampled = a.sample(times)
    for t, got in zip(times, sampled):
        manual = any(
            lo <= t < hi for lo, hi in zip(a.starts, a.stops)
        )
        assert bool(got) == manual, f"sample({t}) = {got}, brute force {manual}"
    assert np.array_equal(
        a.union(b).sample(times), a.sample(times) | b.sample(times)
    ), "union does not sample as OR"
    assert np.array_equal(
        a.intersect(b).sample(times), a.sample(times) & b.sample(times)
    ), "intersect does not sample as AND"


#: Registered invariants in a stable order (the index is the spawn key).
#: Append only — the index feeds the replay spawn key, so reordering or
#: inserting mid-list silently reseeds every later invariant.
INVARIANTS: Dict[str, Invariant] = {
    "radius_bounds": invariant_radius_bounds,
    "unit_norms": invariant_unit_norms,
    "scalar_batch_state": invariant_scalar_batch_state,
    "visibility_split": invariant_visibility_split,
    "raan_drift_sign": invariant_raan_drift_sign,
    "kepler_wrap": invariant_kepler_wrap,
    "interval_algebra": invariant_interval_algebra,
}


def _invariant_index(name: str) -> int:
    return list(INVARIANTS).index(name)


def replay_trial(seed: int, invariant: str, trial: int) -> None:
    """Re-run one (seed, invariant, trial) combination exactly.

    Raises the original AssertionError if the trial still fails — the
    debugging entry point for a red fuzz report.
    """
    rng = gen.trial_rng(seed, FUZZ_STREAM, _invariant_index(invariant), trial)
    INVARIANTS[invariant](rng)


def run_invariant(seed: int, name: str, trials: int) -> CheckResult:
    """Run one invariant for ``trials`` independent seeded trials."""
    failures: List[Dict[str, object]] = []
    index = _invariant_index(name)
    for trial in range(trials):
        rng = gen.trial_rng(seed, FUZZ_STREAM, index, trial)
        try:
            INVARIANTS[name](rng)
        except AssertionError as error:
            failures.append({"trial": trial, "message": str(error)})
            _LOG.warning("fuzz.%s trial %d failed: %s", name, trial, error)
    details = {
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "replay": f"repro.validate.fuzz.replay_trial({seed}, {name!r}, <trial>)",
    }
    if failures:
        return failed(f"fuzz.{name}", **details)
    return passed(f"fuzz.{name}", **details)
