"""Experiment harness: one module per paper figure.

Each module encapsulates the exact methodology of the corresponding figure
in *A Call for Decentralized Satellite Networks* (HotNets '24) as a
:class:`repro.runner.Scenario` — a sweep axis, a kernel over one sweep
point's runs, and a reduction — executed by the unified
:class:`repro.runner.MonteCarloRunner`.
Each module keeps a thin ``run_figN()`` entry point returning the
structured result the benchmark suite prints as paper-style rows.

* :mod:`repro.experiments.common` — ExperimentConfig + ExperimentContext
  (pool/visibility caches).
* :mod:`repro.experiments.fig2_coverage_vs_size` — Fig. 2.
* :mod:`repro.experiments.fig3_idle_vs_cities` — Fig. 3.
* :mod:`repro.experiments.fig4a_single_addition` — Fig. 4a.
* :mod:`repro.experiments.fig4b_phase_sweep` — Fig. 4b.
* :mod:`repro.experiments.fig4c_design_factors` — Fig. 4c.
* :mod:`repro.experiments.fig5_withdrawal` — Fig. 5.
* :mod:`repro.experiments.fig6_party_skew` — Fig. 6.
* :mod:`repro.experiments.sharing_upside` — the §2 sharing-upside claim.
"""

from repro.experiments.common import ExperimentConfig, ExperimentContext

__all__ = ["ExperimentConfig", "ExperimentContext"]
