"""Reproductions of the paper's figures and additional ablations.

One module per figure (``fig1`` … ``fig9``), each exposing ``run(...)`` that
returns an :class:`~repro.experiments.results.ExperimentResult`;
:mod:`repro.experiments.ablations` adds design-choice sweeps. See DESIGN.md
for the experiment index and ``repro.cli`` to run them from a shell.
"""

import importlib

from repro.experiments.common import DEFAULTS, Scenario, run_schedulers
from repro.experiments.results import ExperimentResult

#: Figure id -> ``module:function`` in this package. ``FIGURES`` maps each
#: id to its function; it is built on first read, so importing this
#: package (as :mod:`repro.experiments.common`'s users do) compiles no
#: figure, ablation or robustness module.
_FIGURE_HOMES = {f"fig{i}": f"fig{i}:run" for i in range(1, 10)} | {
    "fig6-stats": "multiseed:fig6_with_spread",
    "ablation-alpha": "ablations:alpha_sweep",
    "ablation-admission": "ablations:admission_sweep",
    "ablation-migration": "ablations:migration_strategies",
    "ablation-barrier": "ablations:barrier_sweep",
    "ablation-consistency": "ablations:consistency_rate",
    "ablation-rules": "ablations:rule_budget_sweep",
    "ablation-compile": "ablations:compile_sweep",
    "ablation-learned": "ablations:learned_sweep",
    "robustness-topology": "robustness:topology_sweep",
    "robustness-oracle": "robustness:oracle_comparison",
    "robustness-failures": "robustness:failure_sweep",
}


def __getattr__(name: str):
    if name != "FIGURES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    figures: dict = {}
    for figure, home in _FIGURE_HOMES.items():
        module, __, function = home.partition(":")
        figures[figure] = getattr(
            importlib.import_module(f"{__name__}.{module}"), function)
    globals()["FIGURES"] = figures
    return figures


__all__ = [
    "DEFAULTS",
    "ExperimentResult",
    "FIGURES",
    "Scenario",
    "run_schedulers",
]
