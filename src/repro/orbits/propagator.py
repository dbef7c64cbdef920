"""Two-body + J2-secular orbit propagation.

Two implementations with identical semantics:

* :class:`J2Propagator` — readable scalar reference for a single satellite.
* :class:`BatchPropagator` — numpy implementation that propagates an entire
  constellation over a time grid in one shot; this is what the coverage
  engine uses (a week of 2000 satellites at 60 s steps is ~2e7 state
  evaluations).

:class:`ScreenStepper` serves the visibility kernels' float32 screen: the
same directions to ~2e-7, stepped by per-satellite phasors rather than
evaluated per sample.

The force model is Keplerian two-body motion plus the *secular* effects of
Earth's J2 oblateness: nodal regression (RAAN drift), apsidal rotation
(argument-of-perigee drift) and the mean-motion correction.  Short-periodic
J2 terms and drag are omitted — over the one-week horizons of the paper's
experiments they perturb positions by a few km, far below the ~1000 km scale
of coverage footprints (see DESIGN.md, substitution table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.constants import EARTH_RADIUS_M, J2, MU_EARTH
from repro.obs import metrics
from repro.obs.trace import span
from repro.orbits.elements import (
    ElementColumns,
    OrbitalElements,
    eccentric_to_true_anomaly,
    wrap_angle,
)
from repro.orbits.kepler import solve_kepler, solve_kepler_batch

#: Total (satellite, time) state evaluations across all batch propagations.
_STATE_EVALS = metrics.counter("orbits.propagator.state_evaluations")

_TWO_PI = 2.0 * math.pi


def _reduced(angle: np.ndarray) -> np.ndarray:
    """``angle`` reduced to [-pi, pi] in float64, in place."""
    turns = np.rint(angle / _TWO_PI)
    turns *= _TWO_PI
    angle -= turns
    return angle


@dataclass(frozen=True)
class J2Rates:
    """Secular drift rates (rad/s) induced by J2 for a given orbit."""

    raan_rate: float
    arg_perigee_rate: float
    mean_anomaly_rate: float  # Total rate: Keplerian n plus the J2 correction.


def j2_secular_rates(elements: OrbitalElements) -> J2Rates:
    """Compute the secular J2 drift rates for one orbit (Vallado, sec. 9.6)."""
    n = elements.mean_motion_rad_s
    p = elements.semi_latus_rectum_m
    cos_i = math.cos(elements.inclination_rad)
    sin_i = math.sin(elements.inclination_rad)
    factor = 1.5 * J2 * (EARTH_RADIUS_M / p) ** 2 * n
    raan_rate = -factor * cos_i
    arg_perigee_rate = factor * (2.0 - 2.5 * sin_i**2)
    mean_anomaly_rate = n + factor * math.sqrt(1.0 - elements.eccentricity**2) * (
        1.0 - 1.5 * sin_i**2
    )
    return J2Rates(raan_rate, arg_perigee_rate, mean_anomaly_rate)


def _perifocal_to_eci_rotation(
    raan_rad: float, inclination_rad: float, arg_perigee_rad: float
) -> np.ndarray:
    """3x3 rotation matrix from the perifocal (PQW) frame to ECI."""
    cos_o, sin_o = math.cos(raan_rad), math.sin(raan_rad)
    cos_i, sin_i = math.cos(inclination_rad), math.sin(inclination_rad)
    cos_w, sin_w = math.cos(arg_perigee_rad), math.sin(arg_perigee_rad)
    return np.array(
        [
            [
                cos_o * cos_w - sin_o * sin_w * cos_i,
                -cos_o * sin_w - sin_o * cos_w * cos_i,
                sin_o * sin_i,
            ],
            [
                sin_o * cos_w + cos_o * sin_w * cos_i,
                -sin_o * sin_w + cos_o * cos_w * cos_i,
                -cos_o * sin_i,
            ],
            [sin_w * sin_i, cos_w * sin_i, cos_i],
        ]
    )


class J2Propagator:
    """Scalar reference propagator for one satellite.

    Example:
        >>> from repro.orbits import OrbitalElements
        >>> elements = OrbitalElements.from_degrees(altitude_km=550, inclination_deg=53)
        >>> propagator = J2Propagator(elements)
        >>> position, velocity = propagator.state_eci(3600.0)
    """

    def __init__(self, elements: OrbitalElements) -> None:
        self.elements = elements
        self._rates = j2_secular_rates(elements)

    def elements_at(self, time_s: float) -> OrbitalElements:
        """Return the osculating (secularly drifted) elements at a time."""
        dt = time_s - self.elements.epoch_s
        return OrbitalElements(
            semi_major_axis_m=self.elements.semi_major_axis_m,
            eccentricity=self.elements.eccentricity,
            inclination_rad=self.elements.inclination_rad,
            raan_rad=wrap_angle(self.elements.raan_rad + self._rates.raan_rate * dt),
            arg_perigee_rad=wrap_angle(
                self.elements.arg_perigee_rad + self._rates.arg_perigee_rate * dt
            ),
            mean_anomaly_rad=wrap_angle(
                self.elements.mean_anomaly_rad + self._rates.mean_anomaly_rate * dt
            ),
            epoch_s=time_s,
        )

    def state_eci(self, time_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return (position_m, velocity_m_s) in ECI at a simulation time."""
        current = self.elements_at(time_s)
        ecc = current.eccentricity
        eccentric = solve_kepler(current.mean_anomaly_rad, ecc)
        true_anomaly = eccentric_to_true_anomaly(eccentric, ecc)

        p = current.semi_latus_rectum_m
        radius = p / (1.0 + ecc * math.cos(true_anomaly))
        position_pqw = np.array(
            [radius * math.cos(true_anomaly), radius * math.sin(true_anomaly), 0.0]
        )
        speed_factor = math.sqrt(MU_EARTH / p)
        velocity_pqw = np.array(
            [
                -speed_factor * math.sin(true_anomaly),
                speed_factor * (ecc + math.cos(true_anomaly)),
                0.0,
            ]
        )
        rotation = _perifocal_to_eci_rotation(
            current.raan_rad, current.inclination_rad, current.arg_perigee_rad
        )
        return rotation @ position_pqw, rotation @ velocity_pqw

    def position_eci(self, time_s: float) -> np.ndarray:
        """Return the ECI position (meters) at a simulation time."""
        return self.state_eci(time_s)[0]


class BatchPropagator:
    """Vectorized propagation of many satellites over a time grid.

    All per-satellite elements are stored as flat numpy arrays, taken from
    :class:`~repro.orbits.elements.ElementColumns` (:meth:`from_columns`;
    the element-list constructor converts and delegates).  Propagation to
    a time grid of T instants returns an (N, T, 3) ECI position array (or the
    caller can ask for time chunks to bound memory — the visibility engine
    does).
    """

    def __init__(self, elements: Sequence[OrbitalElements]) -> None:
        self._set_columns(ElementColumns.from_elements(elements))

    @classmethod
    def from_columns(cls, columns: ElementColumns) -> "BatchPropagator":
        """A propagator over element columns, with no per-satellite objects.

        Bit-identical to ``BatchPropagator(elements)`` for the elements
        those columns hold.
        """
        propagator = cls.__new__(cls)
        propagator._set_columns(columns)
        return propagator

    def _set_columns(self, columns: ElementColumns) -> None:
        if not len(columns):
            raise ValueError("BatchPropagator needs at least one satellite")
        self.count = len(columns)
        self.semi_major_axis_m = columns.semi_major_axis_m
        self.eccentricity = columns.eccentricity
        self.inclination_rad = columns.inclination_rad
        self.raan_rad = columns.raan_rad
        self.arg_perigee_rad = columns.arg_perigee_rad
        self.mean_anomaly_rad = columns.mean_anomaly_rad
        self.epoch_s = columns.epoch_s

        n = np.sqrt(MU_EARTH / self.semi_major_axis_m**3)
        p = self.semi_major_axis_m * (1.0 - self.eccentricity**2)
        cos_i = np.cos(self.inclination_rad)
        sin_i = np.sin(self.inclination_rad)
        factor = 1.5 * J2 * (EARTH_RADIUS_M / p) ** 2 * n
        self.raan_rate = -factor * cos_i
        self.arg_perigee_rate = factor * (2.0 - 2.5 * sin_i**2)
        self.mean_anomaly_rate = n + factor * np.sqrt(1.0 - self.eccentricity**2) * (
            1.0 - 1.5 * sin_i**2
        )
        self._refresh_derived()

    def _refresh_derived(self) -> None:
        """Hoist per-satellite values that every propagation call needs.

        These were recomputed on every chunked call; with the streaming
        visibility kernels propagating in ~64-sample chunks that trig would
        run hundreds of times per run.  Derived from the element arrays, so
        must be refreshed whenever those change (:meth:`subset`).
        """
        self._cos_i = np.cos(self.inclination_rad)
        self._sin_i = np.sin(self.inclination_rad)
        self._u0 = self.arg_perigee_rad + self.mean_anomaly_rad
        self._u_rate = self.arg_perigee_rate + self.mean_anomaly_rate
        #: True when every orbit is exactly circular.  Gates the circular
        #: fast path and the pair-culling satellite subsetting (the batch
        #: Kepler solve converges batch-globally, so subsets of eccentric
        #: pools are not guaranteed bit-identical; circular pools skip the
        #: solver entirely).
        self.all_circular = bool(np.all(self.eccentricity == 0.0))

    def _latitude_args(self, times_s: np.ndarray):
        """Shared propagation core.

        Returns (radius, cos_u, sin_u, raan) as (N, T) arrays where ``u`` is
        the argument of latitude.  Circular constellations (every e == 0, the
        overwhelmingly common case here) take an exact fast path that skips
        the Kepler solve and the perifocal trig: with e == 0 the true anomaly
        equals the mean anomaly and the radius is the semi-major axis, so
        ``u = omega(t) + M(t)`` directly.
        """
        times = np.atleast_1d(np.asarray(times_s, dtype=np.float64))
        dt = times[None, :] - self.epoch_s[:, None]  # (N, T)
        raan = self.raan_rad[:, None] + self.raan_rate[:, None] * dt

        if self.all_circular:
            u = self._u0[:, None] + self._u_rate[:, None] * dt
            radius = np.broadcast_to(
                self.semi_major_axis_m[:, None], u.shape
            )
            return radius, np.cos(u), np.sin(u), raan

        mean = self.mean_anomaly_rad[:, None] + self.mean_anomaly_rate[:, None] * dt
        ecc = self.eccentricity[:, None]
        eccentric = solve_kepler_batch(mean, ecc)
        cos_e = np.cos(eccentric)
        sin_e = np.sin(eccentric)

        # True anomaly via the half-angle-free formulation:
        #   cos v = (cos E - e) / (1 - e cos E);  sin v = sqrt(1-e^2) sin E / (1 - e cos E)
        one_minus = 1.0 - ecc * cos_e
        cos_v = (cos_e - ecc) / one_minus
        sin_v = np.sqrt(1.0 - ecc**2) * sin_e / one_minus
        radius = self.semi_major_axis_m[:, None] * one_minus  # (N, T)

        # Argument of latitude u = omega(t) + v, with drifting omega.
        arg_perigee = (
            self.arg_perigee_rad[:, None] + self.arg_perigee_rate[:, None] * dt
        )
        cos_w = np.cos(arg_perigee)
        sin_w = np.sin(arg_perigee)
        cos_u = cos_w * cos_v - sin_w * sin_v
        sin_u = sin_w * cos_v + cos_w * sin_v
        return radius, cos_u, sin_u, raan

    def _assemble_eci(self, cos_u, sin_u, raan, radius=None) -> np.ndarray:
        """Rotate argument-of-latitude coordinates into ECI: (N, T, 3).

        Unit vectors when ``radius`` is None.  Scaling the unit vector in
        place afterwards is bit-identical to scaling each component as it
        is formed (one product either way).
        """
        cos_o = np.cos(raan)
        sin_o = np.sin(raan)
        cos_i = self._cos_i[:, None]
        sin_i = self._sin_i[:, None]

        out = np.empty(cos_u.shape + (3,))
        # x = cos O cos u - sin O sin u cos i; reuse temporaries to keep
        # peak memory at ~4 (N, T) arrays.
        sin_u_cos_i = sin_u * cos_i
        out[..., 0] = cos_o * cos_u - sin_o * sin_u_cos_i
        out[..., 1] = sin_o * cos_u + cos_o * sin_u_cos_i
        out[..., 2] = sin_u * sin_i
        if radius is not None:
            out *= radius[..., None]
        return out

    def positions_eci(self, times_s: np.ndarray) -> np.ndarray:
        """Propagate every satellite to every time.

        Args:
            times_s: 1-D array of T simulation times (seconds).

        Returns:
            Array of shape (N, T, 3): ECI positions in meters.
        """
        with span("propagation.batch"):
            radius, cos_u, sin_u, raan = self._latitude_args(times_s)
            out = self._assemble_eci(cos_u, sin_u, raan, radius)
        _STATE_EVALS.inc(out.shape[0] * out.shape[1])
        return out

    def unit_positions_eci(self, times_s: np.ndarray) -> np.ndarray:
        """Like :meth:`positions_eci` but normalized to unit vectors.

        Coverage tests only need directions; returning unit vectors lets the
        visibility engine compare dot products against a cosine threshold
        without re-normalizing.  Unit vectors are assembled directly (no
        radius factor) rather than normalizing after the fact.
        """
        with span("propagation.batch"):
            out = self.unit_positions_eci_unspanned(times_s)
        return out

    def unit_positions_eci_unspanned(self, times_s: np.ndarray) -> np.ndarray:
        """:meth:`unit_positions_eci` without the span record.

        For callers that propagate chunk by chunk, where a span record per
        chunk would flood the tracer's record ring.  State evaluations
        still count.  The streaming visibility kernels use the uncounted
        :meth:`_unit_positions_eci` instead.
        """
        out = self._unit_positions_eci(times_s)
        _STATE_EVALS.inc(out.shape[0] * out.shape[1])
        return out

    def _unit_positions_eci(self, times_s: np.ndarray) -> np.ndarray:
        """:meth:`unit_positions_eci_unspanned`, uncounted.

        The visibility kernels' worker threads call this and
        :meth:`_unit_positions_at` rather than the public methods: the
        state counter's increment is not atomic, and benchmark tracers
        wrap the public methods with one span stack for all threads.  The
        kernels count the evaluations on their calling thread.
        """
        _, cos_u, sin_u, raan = self._latitude_args(times_s)
        return self._assemble_eci(cos_u, sin_u, raan)

    def unit_positions_at(
        self, sat_indices: np.ndarray, times_s: np.ndarray
    ) -> np.ndarray:
        """Unit ECI directions for paired (satellite, time) queries.

        Unlike the grid methods above, which evaluate *every* satellite at
        *every* time, this evaluates satellite ``sat_indices[k]`` at time
        ``times_s[k]`` only — the access pattern of the contact-interval
        root-finder, where each rise/set edge refines one (pair, time)
        bracket.  Returns a (K, 3) array of unit vectors.
        """
        out = self._unit_positions_at(sat_indices, times_s)
        _STATE_EVALS.inc(out.size // 3)
        return out

    def _unit_positions_at(
        self, sat_indices: np.ndarray, times_s: np.ndarray
    ) -> np.ndarray:
        """:meth:`unit_positions_at`, uncounted (see :meth:`_unit_positions_eci`)."""
        idx = np.asarray(sat_indices, dtype=np.intp)
        times = np.asarray(times_s, dtype=np.float64)
        if idx.shape != times.shape:
            raise ValueError("sat_indices and times_s must have the same shape")
        dt = times - self.epoch_s[idx]
        raan = self.raan_rad[idx] + self.raan_rate[idx] * dt

        if self.all_circular:
            u = self._u0[idx] + self._u_rate[idx] * dt
            cos_u = np.cos(u)
            sin_u = np.sin(u)
        else:
            mean = self.mean_anomaly_rad[idx] + self.mean_anomaly_rate[idx] * dt
            ecc = self.eccentricity[idx]
            eccentric = solve_kepler_batch(mean, ecc)
            cos_e = np.cos(eccentric)
            sin_e = np.sin(eccentric)
            one_minus = 1.0 - ecc * cos_e
            cos_v = (cos_e - ecc) / one_minus
            sin_v = np.sqrt(1.0 - ecc**2) * sin_e / one_minus
            arg_perigee = self.arg_perigee_rad[idx] + self.arg_perigee_rate[idx] * dt
            cos_w = np.cos(arg_perigee)
            sin_w = np.sin(arg_perigee)
            cos_u = cos_w * cos_v - sin_w * sin_v
            sin_u = sin_w * cos_v + cos_w * sin_v

        cos_o = np.cos(raan)
        sin_o = np.sin(raan)
        cos_i = self._cos_i[idx]
        sin_i = self._sin_i[idx]
        out = np.empty(times.shape + (3,))
        sin_u_cos_i = sin_u * cos_i
        out[..., 0] = cos_o * cos_u - sin_o * sin_u_cos_i
        out[..., 1] = sin_o * cos_u + cos_o * sin_u_cos_i
        out[..., 2] = sin_u * sin_i
        return out

    def subset(self, indices: np.ndarray) -> "BatchPropagator":
        """Return a new propagator restricted to the given satellite indices."""
        clone = object.__new__(BatchPropagator)
        clone.count = int(np.asarray(indices).size)
        if clone.count == 0:
            raise ValueError("subset must keep at least one satellite")
        for name in (
            "semi_major_axis_m",
            "eccentricity",
            "inclination_rad",
            "raan_rad",
            "arg_perigee_rad",
            "mean_anomaly_rad",
            "epoch_s",
            "raan_rate",
            "arg_perigee_rate",
            "mean_anomaly_rate",
        ):
            setattr(clone, name, getattr(self, name)[indices])
        clone._refresh_derived()
        return clone


def _unit_powers(turn: np.ndarray, count: int) -> np.ndarray:
    """``exp(i·j·turn)`` for ``j < count``, as complex64 (count,) + turn.shape.

    Each row is a product of two float64 phasors, ``exp(i·(w·h)·turn)``
    times ``exp(i·l·turn)`` for ``j = w·h + l`` with ``w ~ sqrt(count)``,
    so float64 trig runs on ~2·sqrt(count) rows instead of ``count``
    (the tables of small pools span whole 2048-sample chunks).  Every
    entry is within ~3e-16 of its own float64 trig before the cast.
    """
    width = math.isqrt(count - 1) + 1  # ceil(sqrt(count))
    low = np.exp(1j * np.multiply.outer(np.arange(width), turn))
    high = np.exp(1j * np.multiply.outer(width * np.arange(-(-count // width)), turn))
    out = np.empty((high.shape[0], width) + turn.shape, dtype=np.complex64)
    np.multiply(high[:, None], low[None], out=out, casting="same_kind")
    return out.reshape((-1,) + turn.shape)[:count]


class ScreenStepper:
    """Float32 unit ECI directions of a pool on a uniform grid, block by block.

    The visibility kernels screen every dot product in float32 and decide
    the few near their threshold exactly (:mod:`repro.sim.kernels`).  A
    stepper serves that screen: :meth:`chunk` yields a chunk's directions
    ``block`` samples at a time, laid out (Tb, 3, N) for the matmul.  It
    only steers; exact directions come from :meth:`BatchPropagator.
    unit_positions_at` (circular pools) or the chunk's float64 Kepler
    solve (eccentric pools).

    On a circular pool the argument of latitude ``u`` and the RAAN ``O``
    are linear in time, and a unit direction is a sum of three phasors::

        x = A cos(u + O) + B cos(u - O)
        y = A sin(u + O) - B sin(u - O)
        z = sin i · sin u,        A = (1 + cos i) / 2,  B = (1 - cos i) / 2

    Sample ``j`` of a block is its base phasors times ``exp(i·rate·j·step)``
    per satellite.  Per chunk, the base angles are formed and reduced to
    [-pi, pi] in float64 and their trig runs in float64 on (3, N) arrays;
    between blocks the base advances by one complex128 multiply.  The step
    tables, ``exp(i·rate·j·step)`` for ``j < block`` in float64
    (:func:`_unit_powers`), are cast to complex64 once per stepper.  So a
    block costs one complex64 multiply and three sums: no (T, N) float64
    array, no reduction and no float32 trig.  Each component is within
    ~2e-7 of the float64 direction (``SCREEN_MARGIN`` in
    :mod:`repro.sim.kernels` has the budget).

    Eccentric pools solve Kepler's equation once per chunk, in float64,
    and the blocks are slices of that solution's cast.

    A yielded block is a reused buffer, valid until the next one.
    """

    def __init__(self, propagator: BatchPropagator, step_s: float, block: int) -> None:
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        self.propagator = propagator
        self.block = block
        if not propagator.all_circular:
            return
        cos_i = propagator._cos_i
        #: (3, N) phasor amplitudes and rates (rad/s): u + O, u - O, u.
        self._amplitude = np.stack(
            ((1.0 + cos_i) / 2.0, (1.0 - cos_i) / 2.0, propagator._sin_i)
        )
        u_rate, raan_rate = propagator._u_rate, propagator.raan_rate
        rates = np.stack((u_rate + raan_rate, u_rate - raan_rate, u_rate))
        turn = step_s * rates  # Phase per sample.
        self._steps = _unit_powers(turn, block)
        self._advance = np.exp(1j * block * turn)
        self._phasors = np.empty(self._steps.shape, dtype=np.complex64)
        self._out = np.empty(self._steps.shape, dtype=np.float32)

    def chunk(
        self, times_s: np.ndarray
    ) -> Tuple[Iterator[Tuple[int, np.ndarray]], Optional[np.ndarray]]:
        """``(blocks, units64)`` for one chunk of uniformly spaced times.

        ``blocks`` yields ``(begin, units32)``: the float32 (Tb, 3, N)
        directions of samples ``begin:begin + Tb``.  ``units64`` is None on
        circular pools; on eccentric ones it is the chunk's (N, Tc, 3)
        float64 Kepler solution, from which exact directions must come (a
        solve over another batch may stop at a different iteration).
        Uncounted: the caller accounts the chunk's ``Tc · N`` state
        evaluations on its own thread, as the kernels run steppers on
        worker threads.
        """
        times = np.atleast_1d(np.asarray(times_s, dtype=np.float64))
        if self.propagator.all_circular:
            return self._stepped(times), None
        exact = self.propagator._unit_positions_eci(times)
        units = np.ascontiguousarray(exact.transpose(1, 2, 0), dtype=np.float32)
        return self._sliced(units), exact

    def _sliced(self, units: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        for begin in range(0, units.shape[0], self.block):
            yield begin, units[begin : begin + self.block]

    def _stepped(self, times: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        prop = self.propagator
        dt = times[0] - prop.epoch_s
        u = _reduced(prop._u0 + prop._u_rate * dt)
        raan = _reduced(prop.raan_rad + prop.raan_rate * dt)
        base = self._amplitude * np.exp(1j * np.stack((u + raan, u - raan, u)))
        for begin in range(0, times.size, self.block):
            size = min(self.block, times.size - begin)
            phasors = np.multiply(
                self._steps[:size], base.astype(np.complex64), out=self._phasors[:size]
            )
            out = self._out[:size]
            np.add(phasors.real[:, 0], phasors.real[:, 1], out=out[:, 0])
            np.subtract(phasors.imag[:, 0], phasors.imag[:, 1], out=out[:, 1])
            out[:, 2] = phasors.imag[:, 2]
            yield begin, out
            base *= self._advance
