"""Fig. 5 — flow-level vs event-level scheduling as the queue grows.

The paper fixes utilization at 70%, gives every event 10–100 flows, and
sweeps the number of queued events from 10 to 50. Both methods' average and
tail ECT grow with queue length; event-level stays ~5x / ~2x better on
average, and the flow-level curves jump sharply around 30 events.
"""

from __future__ import annotations

from repro.analysis.normalize import speedup
from repro.experiments.common import Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.traces.events import heterogeneous_config

EVENT_COUNTS = (10, 20, 30, 40, 50)


def run(seed: int = 0, utilization: float = 0.7,
        event_counts=EVENT_COUNTS,
        jobs: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig5",
        title="avg/tail ECT of flow-level vs event-level scheduling vs "
              f"queue length, utilization ~{utilization:.0%}",
        columns=["events", "flow_avg_ect", "event_avg_ect",
                 "flow_tail_ect", "event_tail_ect",
                 "avg_speedup", "tail_speedup"],
        params={"seed": seed, "utilization": utilization})
    specs = ({"kind": "fifo"}, {"kind": "flow-level"})
    rows = [
        GridRow(key=f"events={count}",
                scenario=Scenario(utilization=utilization,
                                  seed=seed + count, events=count,
                                  event_config=heterogeneous_config()),
                schedulers=specs)
        for count in event_counts
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    for count in event_counts:
        metrics = grid[f"events={count}"]
        flow, event = metrics["flow-level"], metrics["fifo"]
        result.add_row(
            events=count,
            flow_avg_ect=flow.average_ect, event_avg_ect=event.average_ect,
            flow_tail_ect=flow.tail_ect, event_tail_ect=event.tail_ect,
            avg_speedup=speedup(flow.average_ect, event.average_ect),
            tail_speedup=speedup(flow.tail_ect, event.tail_ect))
    result.notes.append("paper: event-level ~5x better average and ~2x "
                        "better tail ECT on average over the sweep")
    return result
