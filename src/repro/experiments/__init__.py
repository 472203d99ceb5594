"""Experiment reproductions: one module per figure/table of the paper.

Each module exposes the sweep protocol (``grid()``, ``run_point()``,
``merge()``; see :mod:`repro.experiments.parallel`) and a ``render``
function producing the text table/series the paper reports.  The
``python -m repro`` CLI reads them through
:data:`~repro.experiments.parallel.SWEEPS`, and
``SWEEPS[id].result()`` computes one merged figure in process.  The
claim tests in ``tests/paper/`` call these at full scale and assert
the paper's results; EXPERIMENTS.md records paper-reported vs measured
values.

=====================  =====================================================
module                 reproduces
=====================  =====================================================
``fig1_memory``        Fig. 1 -- peak-memory distribution of the Polytropic
                       Gas run (erratic growth, cross-rank imbalance)
``fig4_timeline``      Fig. 4 -- placement decisions on an idle-then-busy
                       staging timeline
``fig5_app_layer``     Fig. 5 -- adaptive spatial resolution under runtime
                       memory availability
``fig6_entropy``       Fig. 6 -- entropy-based down-sampling and fidelity
``fig7_placement``     Fig. 7 -- end-to-end time: static vs adaptive
                       placement at 2K-16K cores
``fig8_data_movement`` Fig. 8 -- total data movement, in-transit vs adaptive
``fig9_resource``      Fig. 9 + Eq. 12 -- adaptive staging allocation and
                       utilization efficiency
``fig10_global``       Fig. 10 -- global cross-layer vs local middleware
                       adaptation
``fig11_global_movement`` Fig. 11 -- data movement, global vs local
``table2_utilization`` Table 2 -- per-step staging core usage histogram
``ablations``          design-choice sweeps (staging ratio, monitor
                       interval, entropy threshold, coordination scheme)
``objectives``         user-preference objectives compared under global
                       adaptation
``fig_triggers``       monitoring overhead vs adaptation lag across the
                       trigger-detection policies
``fig_tenants``        multi-tenant contention across admission policies
=====================  =====================================================
"""

__all__ = [
    "ablations",
    "common",
    "fig1_memory",
    "fig4_timeline",
    "fig5_app_layer",
    "fig6_entropy",
    "fig7_placement",
    "fig8_data_movement",
    "fig9_resource",
    "fig10_global",
    "fig11_global_movement",
    "fig_tenants",
    "fig_triggers",
    "objectives",
    "table2_utilization",
]
