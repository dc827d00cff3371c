"""Fig. 8 — event queuing-delay reductions vs FIFO across queue lengths.

Same setup as Fig. 6 (α=4, utilization fluctuating 50–70%, heterogeneous
events, 10–50 queued). The paper reports LMTF reducing average queuing delay
by 20–40% and worst-case by 10–30%, and P-LMTF by 67–83% / 60–74%.
"""

from __future__ import annotations

from repro.analysis.normalize import percent_reduction
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.sched import standard_scheduler_specs
from repro.traces.events import heterogeneous_config

EVENT_COUNTS = (10, 20, 30, 40, 50)


def run(seed: int = 0, utilization: float = 0.7, alpha: int | None = None,
        event_counts=EVENT_COUNTS,
        jobs: int | None = None) -> ExperimentResult:
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    result = ExperimentResult(
        name="fig8",
        title=f"queuing-delay reduction vs FIFO (alpha={alpha}, "
              f"utilization ~{utilization:.0%})",
        columns=["events",
                 "lmtf_avg_qd_red%", "plmtf_avg_qd_red%",
                 "lmtf_worst_qd_red%", "plmtf_worst_qd_red%"],
        params={"seed": seed, "utilization": utilization, "alpha": alpha})
    rows = [
        GridRow(key=f"events={count}",
                scenario=Scenario(utilization=utilization,
                                  seed=seed + count, events=count,
                                  churn=True,
                                  event_config=heterogeneous_config()),
                schedulers=standard_scheduler_specs(seed, alpha=alpha))
        for count in event_counts
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    for count in event_counts:
        metrics = grid[f"events={count}"]
        fifo, lmtf, plmtf = (metrics[n] for n in ("fifo", "lmtf", "plmtf"))
        result.add_row(
            events=count,
            **{"lmtf_avg_qd_red%": percent_reduction(
                   fifo.average_queuing_delay, lmtf.average_queuing_delay),
               "plmtf_avg_qd_red%": percent_reduction(
                   fifo.average_queuing_delay, plmtf.average_queuing_delay),
               "lmtf_worst_qd_red%": percent_reduction(
                   fifo.worst_queuing_delay, lmtf.worst_queuing_delay),
               "plmtf_worst_qd_red%": percent_reduction(
                   fifo.worst_queuing_delay, plmtf.worst_queuing_delay)})
    result.notes.append(
        "paper bands: LMTF -20..40% avg / -10..30% worst; "
        "P-LMTF -67..83% avg / -60..74% worst")
    return result
