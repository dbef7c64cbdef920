"""One cold benchmark child: a fresh interpreter runs one workload in-process.

Usage (the driver, ``bench.py``, is the only intended caller)::

    python coldbench/child.py '<spec json>'    # run a workload
    python coldbench/child.py --warmup         # import only, then exit

The spec holds the engine, the figures and the generated
``ExperimentConfig`` fields, seed included; when it names a ``trace`` path
the child installs the layer wrappers of :mod:`spans` and writes its spans
there at exit.  The last stdout line is one JSON object: ``setup_s``
(clock from before ``import repro`` until the contact store is ready),
``analysis_s`` (store ready to last figure returned) and ``figures`` (each
figure's result snapshot, or its error).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from spans import Tracer  # noqa: E402

#: Modules imported before timing figures (and before wrappers install, so
#: that every binding the wrappers patch already exists).
MODULES = (
    "repro.experiments.common",
    "repro.experiments.fig2_coverage_vs_size",
    "repro.experiments.fig3_idle_vs_cities",
    "repro.experiments.fig4a_single_addition",
    "repro.experiments.fig4b_phase_sweep",
    "repro.experiments.fig4c_design_factors",
    "repro.experiments.fig5_withdrawal",
    "repro.experiments.fig6_party_skew",
    "repro.experiments.sharing_upside",
    "repro.orbits.groundtrack",
    "repro.sim.contacts",
    "repro.sim.intervals",
    "repro.sim.kernels.subsets",
    "repro.sim.visibility",
)


def _import_all() -> None:
    import importlib

    for name in MODULES:
        importlib.import_module(name)


def _points(result) -> dict:
    return {"points": [dataclasses.asdict(point) for point in result.points]}


def _fig1a(config) -> dict:
    from repro.orbits.elements import OrbitalElements
    from repro.orbits.groundtrack import compute_ground_track, nodal_shift_deg_per_orbit

    # The same satellite and sampling as the CLI's fig1a.
    elements = OrbitalElements.from_degrees(altitude_km=546.0, inclination_deg=53.0)
    track = compute_ground_track(elements, 3 * 3600.0, step_s=min(config.step_s, 30.0))
    return {
        "period_min": elements.period_s / 60.0,
        "max_latitude_deg": track.max_latitude_deg,
        "nodal_shift_deg_per_orbit": nodal_shift_deg_per_orbit(elements),
        "samples": len(track),
    }


def _sharing(config) -> dict:
    from repro.experiments.sharing_upside import run_sharing_upside

    result = run_sharing_upside(config)
    return {
        "upside": dataclasses.asdict(result.upside),
        "calibration": [[size, coverage] for size, coverage in result.calibration],
    }


def _figure_runners():
    from repro.experiments.fig2_coverage_vs_size import run_fig2
    from repro.experiments.fig3_idle_vs_cities import run_fig3
    from repro.experiments.fig4a_single_addition import run_fig4a
    from repro.experiments.fig4b_phase_sweep import run_fig4b
    from repro.experiments.fig4c_design_factors import run_fig4c
    from repro.experiments.fig5_withdrawal import run_fig5
    from repro.experiments.fig6_party_skew import run_fig6

    return {
        "fig1a": _fig1a,
        "fig2": lambda config: _points(run_fig2(config)),
        "fig3": lambda config: _points(run_fig3(config)),
        "fig4a": lambda config: _points(run_fig4a(config)),
        "fig4b": lambda config: _points(run_fig4b(config)),
        "fig4c": lambda config: {"gains_hours": dict(run_fig4c(config).gains_hours)},
        "fig5": lambda config: _points(run_fig5(config)),
        "fig6": lambda config: _points(run_fig6(config)),
        "sharing": _sharing,
    }


def run(spec: dict) -> dict:
    """Run one workload spec in this process; returns the child's result."""
    tracer = Tracer(spec["name"]) if spec.get("trace") else None

    def step(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    with step("setup.import"):
        _import_all()
        from repro.experiments.common import ALL_SITES, ExperimentConfig, default_context
        if tracer is not None:
            tracer.install()
    config = ExperimentConfig(**spec["config"])
    context = default_context()
    context.engine = spec["engine"]
    sites = [city.terminal(min_elevation_deg=config.min_elevation_deg) for city in ALL_SITES]
    with step("setup.pool"):
        context.pool()
    with step("setup.propagator"):
        context.pool_propagator()
    with step("setup.geometry"):
        context.site_geometry(sites, config.grid())
    with step("setup.store"):
        if spec["engine"] == "intervals":
            store = context.contact_intervals(config)
            store_bytes = store.nbytes()
            windows = store.n_contacts
        else:
            store = context.visibility(config)
            store_bytes = store.packed.nbytes
            windows = 0
    ready = time.perf_counter()

    runners = _figure_runners()
    figures = {}
    for figure in spec["figures"]:
        with step(f"experiments.{figure}"):
            try:
                figures[figure] = {"values": runners[figure](config)}
            except Exception:  # one figure's failure is a failed op, not a crash
                figures[figure] = {"error": traceback.format_exc()}
    done = time.perf_counter()

    if tracer is not None:
        from repro.obs.trace import TRACER

        store_mib = store_bytes / 2**20
        engine_key = "sim.intervals" if spec["engine"] == "intervals" else "sim.visibility"
        tracer.write(
            spec["trace"],
            {
                f"{engine_key}.store_mib": store_mib,
                "sim.store.mib": store_mib,
                "sim.intervals.windows": windows,
                "obs.spans_dropped": TRACER.dropped_records,
            },
        )
    return {"setup_s": ready - T0, "analysis_s": done - ready, "figures": figures}


def main(argv) -> int:
    if argv[1:] == ["--warmup"]:
        _import_all()
        return 0
    result = run(json.loads(argv[1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
