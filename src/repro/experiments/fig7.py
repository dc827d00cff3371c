"""Fig. 7 — P-LMTF vs FIFO across utilization and event types.

The paper fixes 30 queued events and α=4, keeps the background traffic
*static*, and sweeps network utilization from 50% to 90% for two event
types: heterogeneous (10–100 flows) and synchronous (50–60 flows). P-LMTF
reduces average ECT by 60–70% (heterogeneous) / 40–50% (synchronous) and
tail ECT by 40–60% / 30–50%, largely independent of utilization.
"""

from __future__ import annotations

from repro.analysis.normalize import percent_reduction
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.traces.events import heterogeneous_config, synchronous_config

UTILIZATIONS = (0.5, 0.6, 0.7, 0.8, 0.9)


def run(seed: int = 0, events: int = 30, alpha: int | None = None,
        utilizations=UTILIZATIONS,
        jobs: int | None = None) -> ExperimentResult:
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    result = ExperimentResult(
        name="fig7",
        title=f"P-LMTF vs FIFO for event types across utilization "
              f"({events} events, alpha={alpha}, static background)",
        columns=["target_util", "achieved_util", "event_type",
                 "avg_ect_red%", "tail_ect_red%"],
        params={"seed": seed, "events": events, "alpha": alpha})
    types = (("heterogeneous", heterogeneous_config()),
             ("synchronous", synchronous_config()))
    rows = [
        GridRow(key=f"util={util}/{type_name}",
                scenario=Scenario(utilization=util,
                                  seed=seed + int(util * 100),
                                  events=events, churn=False,
                                  event_config=config),
                schedulers=(
                    {"kind": "fifo"},
                    {"kind": "plmtf", "alpha": alpha, "seed": seed + 9},
                ))
        for util in utilizations
        for type_name, config in types
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    for util in utilizations:
        for type_name, __config in types:
            row = grid[f"util={util}/{type_name}"]
            fifo, plmtf = row["fifo"], row["plmtf"]
            result.add_row(
                target_util=util,
                achieved_util=round(row.achieved_utilization, 2),
                event_type=type_name,
                **{"avg_ect_red%": percent_reduction(fifo.average_ect,
                                                     plmtf.average_ect),
                   "tail_ect_red%": percent_reduction(fifo.tail_ect,
                                                      plmtf.tail_ect)})
    result.notes.append(
        "paper bands: heterogeneous -60..70% avg / -40..60% tail; "
        "synchronous -40..50% avg / -30..50% tail; roughly independent of "
        "utilization")
    result.notes.append(
        "targets above ~0.83 saturate the loader; achieved_util reports "
        "the fabric utilization actually reached")
    return result
