"""Fig. 6 — LMTF and P-LMTF vs FIFO across queue lengths.

The paper's central result: with α=4, utilization fluctuating between 50%
and 70%, and 10–50 heterogeneous events queued, it reports the reduction vs
FIFO in (a) total update cost, (b) average ECT and (c) tail ECT, plus
(d) the absolute total plan time of each scheduler.

Paper bands: P-LMTF reduces total cost by 34–45%, average ECT by 69–80% and
tail ECT by 35–48%; LMTF reduces average ECT by 22–36% and tail ECT by
5–26%; LMTF/P-LMTF spend about 4.5x / 2x FIFO's plan time.
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
        event_counts=EVENT_COUNTS, jobs: int | None = None,
        checkpoint=None, resume: bool = False,
        listener=None) -> ExperimentResult:
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    result = ExperimentResult(
        name="fig6",
        title=f"LMTF / P-LMTF vs FIFO (alpha={alpha}, utilization "
              f"~{utilization:.0%}, dynamic background)",
        columns=["events",
                 "lmtf_cost_red%", "plmtf_cost_red%",
                 "lmtf_avg_ect_red%", "plmtf_avg_ect_red%",
                 "lmtf_tail_ect_red%", "plmtf_tail_ect_red%",
                 "fifo_plan_s", "lmtf_plan_s", "plmtf_plan_s"],
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
    grid = run_scheduler_grid(rows, jobs=jobs, checkpoint=checkpoint,
                              resume=resume, listener=listener)
    for count in event_counts:
        metrics = grid[f"events={count}"]
        fifo, lmtf, plmtf = (metrics[n] for n in ("fifo", "lmtf", "plmtf"))
        result.add_row(
            events=count,
            **{"lmtf_cost_red%": percent_reduction(fifo.total_cost,
                                                   lmtf.total_cost),
               "plmtf_cost_red%": percent_reduction(fifo.total_cost,
                                                    plmtf.total_cost),
               "lmtf_avg_ect_red%": percent_reduction(fifo.average_ect,
                                                      lmtf.average_ect),
               "plmtf_avg_ect_red%": percent_reduction(fifo.average_ect,
                                                       plmtf.average_ect),
               "lmtf_tail_ect_red%": percent_reduction(fifo.tail_ect,
                                                       lmtf.tail_ect),
               "plmtf_tail_ect_red%": percent_reduction(fifo.tail_ect,
                                                        plmtf.tail_ect),
               "fifo_plan_s": fifo.total_plan_time,
               "lmtf_plan_s": lmtf.total_plan_time,
               "plmtf_plan_s": plmtf.total_plan_time})
    result.notes.append(
        "paper bands: P-LMTF cost -34..45%, avg ECT -69..80%, tail "
        "-35..48%; LMTF avg ECT -22..36%, tail -5..26%; plan time "
        "LMTF~4.5x, P-LMTF~2x FIFO")
    return result
