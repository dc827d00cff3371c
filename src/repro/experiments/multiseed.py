"""Multi-seed statistics for the headline comparison (Fig. 6's 30-event
point) — effect sizes with spread instead of single-trace numbers.

The paper reports single curves without error bars; this experiment runs
the same FIFO/LMTF/P-LMTF comparison across independent seeds (independent
background, events, churn and sampling) and reports each reduction as
``mean ± stdev`` with a 95% interval, using
:mod:`repro.analysis.stats`.

Trials are seed-isolated and embarrassingly parallel: the (trial,
scheduler) cells run through :mod:`repro.experiments.runner`, in ``jobs``
worker processes. Merged results are byte-identical whatever ``jobs`` is.
"""

from __future__ import annotations

from repro.analysis.stats import reduction_summary
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.sched import standard_scheduler_specs
from repro.traces.events import heterogeneous_config

#: (metric attribute, human label) pairs reported per scheduler.
METRICS = (
    ("average_ect", "avg ECT"),
    ("tail_ect", "tail ECT"),
    ("total_cost", "total cost"),
    ("average_queuing_delay", "avg queuing delay"),
    ("worst_queuing_delay", "worst queuing delay"),
)


def trial_seed(seed: int, trial: int) -> int:
    """Deterministic seed derivation: trial *i* uses ``seed + 1000 * i``,
    spacing trials far enough apart that their derived component seeds
    (background, events, churn, sampling offsets) never collide."""
    return seed + 1000 * trial


def fig6_with_spread(seed: int = 0, events: int = 30,
                     utilization: float = 0.7, alpha: int | None = None,
                     seeds: int = 3,
                     jobs: int | None = None) -> ExperimentResult:
    """The Fig. 6 30-event comparison across ``seeds`` independent trials.

    Args:
        seed: base seed; trial *i* uses :func:`trial_seed`.
        seeds: number of independent trials (>= 1).
        jobs: fan (trial, scheduler) cells out to this many worker
            processes; ``None`` runs them all in this process.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    rows = []
    for trial in range(seeds):
        tseed = trial_seed(seed, trial)
        rows.append(GridRow(
            key=f"trial={trial}",
            scenario=Scenario(utilization=utilization, seed=tseed,
                              events=events, churn=True,
                              event_config=heterogeneous_config()),
            schedulers=standard_scheduler_specs(tseed, alpha=alpha)))
    grid = run_scheduler_grid(rows, jobs=jobs)
    runs: dict[str, list] = {"fifo": [], "lmtf": [], "plmtf": []}
    for trial in range(seeds):
        metrics = grid[f"trial={trial}"]
        for name in runs:
            runs[name].append(metrics[name])

    result = ExperimentResult(
        name="fig6-stats",
        title=f"Fig. 6 reductions vs FIFO over {seeds} seeds "
              f"({events} events, alpha={alpha}, "
              f"utilization ~{utilization:.0%})",
        columns=["scheduler", "metric", "reduction_mean%",
                 "reduction_stdev", "ci95_low%", "ci95_high%"],
        params={"seed": seed, "seeds": seeds, "events": events,
                "alpha": alpha})
    for name in ("lmtf", "plmtf"):
        for attribute, label in METRICS:
            summary = reduction_summary(runs["fifo"], runs[name],
                                        attribute)
            result.add_row(
                scheduler=name, metric=label,
                **{"reduction_mean%": summary.mean,
                   "reduction_stdev": summary.stdev,
                   "ci95_low%": summary.low,
                   "ci95_high%": summary.high})
    result.notes.append("paired reductions: trial i of each scheduler "
                        "shares trial i's background, events and churn "
                        "with FIFO")
    return result
