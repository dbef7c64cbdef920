#!/usr/bin/env python3
"""How many satellites would Taiwan need? (the paper's §2 motivation)

Reproduces the Fig. 2 analysis at reduced fidelity: a receiver in central
Taipei, one simulated week, random Starlink-like samples of increasing
size.  Then asks the MP-LEO question: what does a 50-satellite
*contribution* buy inside a shared 1000-satellite constellation?

Run:
    python examples/taiwan_constellation_sizing.py
"""

from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentConfig
from repro.experiments.fig2_coverage_vs_size import run_fig2
from repro.experiments.sharing_upside import run_sharing_upside


def main() -> None:
    config = ExperimentConfig(runs=5, step_s=300.0, seed=1)

    print("Simulating one week of coverage at Taipei "
          f"({config.runs} runs per point; this takes ~10s)...")
    result = run_fig2(config, sizes=(10, 50, 100, 500, 1000, 2000))

    table = Table(
        "Go-it-alone constellation sizing for Taipei",
        ["satellites", "time without coverage (%)", "longest gap (min)"],
        precision=2,
    )
    for point in result.points:
        table.add_row(
            point.satellites,
            point.mean_uncovered_percent,
            point.mean_max_gap_s / 60.0,
        )
    table.print()

    print("\nConclusion: continuous national coverage needs ~1000+ satellites")
    print("(billions of dollars), almost all of it idle over other regions.\n")

    upside = run_sharing_upside(config, contributed=50, network_size=1000).upside
    print("The MP-LEO alternative: contribute 50 satellites to a shared")
    print("1000-satellite constellation instead:")
    print(f"  coverage alone (50 sats):   {100 * upside.alone_coverage_fraction:.1f}%")
    print(f"  coverage shared (network):  {100 * upside.shared_coverage_fraction:.1f}%")
    print(f"  equivalent go-it-alone constellation: "
          f">= {upside.equivalent_alone_satellites} satellites "
          f"({upside.satellite_multiplier:.0f}x the contribution)")


if __name__ == "__main__":
    main()
