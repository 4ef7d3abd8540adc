"""The paper's evaluation, experiment by experiment.

Every data-bearing table/figure in the paper has a module here that
regenerates it (same rows/series, scaled-down run lengths).  Experiments
register themselves in a name-keyed registry; the CLI
(``python -m repro``) runs them through :mod:`repro.runner`.

Figures 1-4 and 13 are architecture diagrams with no data series; the
remaining artifacts map to:

===================  ==========================================
``fig5_bandwidth_3g``   Fig. 5  bandwidth + speed-up, 3-Gigabit NIC
``sec5c_bandwidth_1g``  Sec. V-C text, 1-Gigabit NIC bandwidth
``fig6_missrate_1g``    Fig. 6  L2 miss rate, 1-Gigabit NIC
``fig7_missrate_3g``    Fig. 7  L2 miss rate, 3-Gigabit NIC
``fig8_cpuutil_1g``     Fig. 8  CPU utilization, 1-Gigabit NIC
``fig9_cpuutil_3g``     Fig. 9  CPU utilization, 3-Gigabit NIC
``fig10_unhalted_1g``   Fig. 10 CPU_CLK_UNHALTED, 1-Gigabit NIC
``fig11_unhalted_3g``   Fig. 11 CPU_CLK_UNHALTED, 3-Gigabit NIC
``fig12_multiclient``   Fig. 12 multi-client scalability
``fig14_memsim``        Fig. 14 memory-simulation sweep
``sec3_model``          Sec. III analytic bounds vs simulator
``ablation_policies``   Sec. III four-policy comparison
``ablation_costmodel``  sensitivity to M/P and NIC bandwidth
===================  ==========================================

Beyond the paper's figures, the resilience sweeps probe SAIs' graceful
degradation on a faulty fabric (see :mod:`repro.faults`):

==============================  ==========================================
``resilience_loss_sweep``        bandwidth retention under loss +
                                 option stripping + reordering
``resilience_straggler_sweep``   bandwidth retention with one slow /
                                 transiently-failing I/O server
==============================  ==========================================

The steering sweeps pit every registered policy — including the modern
NIC-steering schemes (rss, flow_director, rps_rfs, rdma_zerointr) —
against each other (see :mod:`repro.experiments.steering`):

==============================  ==========================================
``steering_comparison``          all registered policies, Fig. 5 point
``steering_reorder_pathology``   Flow Director ATR reordering vs RSS
==============================  ==========================================

The sweep family samples *generated* scenarios from declarative specs
(:mod:`repro.scenarios`, cookbook in ``docs/SCENARIOS.md``) and scores
each with a baseline-vs-SAIs A/B (see :mod:`repro.experiments.sweep`
and the ``sais-repro sweep`` subcommand):

==============================  ==========================================
``sweep_homogeneous``            homogeneous paper-testbed clusters
``sweep_heterogeneous``          heterogeneous client classes, mixed links
``sweep_leafspine``              oversubscribed leaf–spine fabrics
``sweep_custom``                 the ambient ``sweep --spec`` request
==============================  ==========================================
"""

from .base import ExperimentResult, all_experiment_ids

# Importing the modules registers their experiments.
from . import (  # noqa: E402,F401  (registration side effects)
    ablations,
    extension_mechanisms,
    extension_modern_hw,
    fig5_bandwidth,
    fig6_7_missrate,
    fig8_9_cpuutil,
    fig10_11_unhalted,
    fig12_multiclient,
    fig14_memsim,
    resilience,
    sec3_model,
    steering,
    sweep,
)

__all__ = ["ExperimentResult", "all_experiment_ids"]
