"""Fig. 4 — flow-level vs event-level scheduling as events grow.

The paper queues 10 update events at ~70% network utilization and sweeps the
average number of flows per event from 15 to 75, reporting normalized
average and tail ECT for the flow-level and event-level (FIFO) schedulers.
The event-level method ends up to 10x faster on average ECT and up to 6x on
tail ECT.
"""

from __future__ import annotations

from repro.analysis.normalize import normalize_by_max, speedup
from repro.experiments.common import Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.traces.events import mean_flows_config

MEAN_FLOWS = (15, 30, 45, 60, 75)


def run(seed: int = 0, events: int = 10, utilization: float = 0.7,
        mean_flows=MEAN_FLOWS, jobs: int | None = None,
        checkpoint=None, resume: bool = False,
        listener=None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig4",
        title="avg/tail ECT of flow-level vs event-level scheduling, "
              f"{events} events, utilization ~{utilization:.0%}",
        columns=["mean_flows", "flow_avg_ect", "event_avg_ect",
                 "flow_tail_ect", "event_tail_ect",
                 "avg_speedup", "tail_speedup",
                 "flow_avg_norm", "event_avg_norm",
                 "flow_tail_norm", "event_tail_norm"],
        params={"seed": seed, "events": events, "utilization": utilization})
    rows = [
        GridRow(key=f"mean_flows={mean}",
                scenario=Scenario(utilization=utilization, seed=seed + mean,
                                  events=events,
                                  event_config=mean_flows_config(mean)),
                schedulers=({"kind": "fifo"}, {"kind": "flow-level"}))
        for mean in mean_flows
    ]
    grid = run_scheduler_grid(rows, jobs=jobs, checkpoint=checkpoint,
                              resume=resume, listener=listener)
    raw = [(mean, grid[row.key]["flow-level"], grid[row.key]["fifo"])
           for mean, row in zip(mean_flows, rows)]

    flow_avg_max = [m.average_ect for __, m, _e in raw]
    flow_tail_max = [m.tail_ect for __, m, _e in raw]
    for (mean, flow, event) in raw:
        result.add_row(
            mean_flows=mean,
            flow_avg_ect=flow.average_ect, event_avg_ect=event.average_ect,
            flow_tail_ect=flow.tail_ect, event_tail_ect=event.tail_ect,
            avg_speedup=speedup(flow.average_ect, event.average_ect),
            tail_speedup=speedup(flow.tail_ect, event.tail_ect),
            flow_avg_norm=normalize_by_max(
                [flow.average_ect], flow_avg_max)[0],
            event_avg_norm=normalize_by_max(
                [event.average_ect], flow_avg_max)[0],
            flow_tail_norm=normalize_by_max(
                [flow.tail_ect], flow_tail_max)[0],
            event_tail_norm=normalize_by_max(
                [event.tail_ect], flow_tail_max)[0])
    result.notes.append("paper: event-level up to 10x faster average ECT "
                        "and up to 6x faster tail ECT")
    return result
