"""Reproductions of the paper's figures and additional ablations.

One module per figure (``fig1`` … ``fig9``), each exposing ``run(...)`` that
returns an :class:`~repro.experiments.results.ExperimentResult`;
:mod:`repro.experiments.ablations` adds design-choice sweeps. See DESIGN.md
for the experiment index and ``repro.cli`` to run them from a shell.
"""

from repro.experiments import (
    ablations,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    multiseed,
    robustness,
)
from repro.experiments.common import DEFAULTS, Scenario, run_schedulers
from repro.experiments.results import ExperimentResult

FIGURES = {
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig6-stats": multiseed.fig6_with_spread,
    "ablation-alpha": ablations.alpha_sweep,
    "ablation-admission": ablations.admission_sweep,
    "ablation-migration": ablations.migration_strategies,
    "ablation-barrier": ablations.barrier_sweep,
    "ablation-consistency": ablations.consistency_rate,
    "ablation-rules": ablations.rule_budget_sweep,
    "ablation-compile": ablations.compile_sweep,
    "ablation-learned": ablations.learned_sweep,
    "robustness-topology": robustness.topology_sweep,
    "robustness-oracle": robustness.oracle_comparison,
    "robustness-failures": robustness.failure_sweep,
}

__all__ = [
    "DEFAULTS",
    "ExperimentResult",
    "FIGURES",
    "Scenario",
    "run_schedulers",
]
