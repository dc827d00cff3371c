"""Fig. 9 — per-event queuing delay for 30 queued events.

Same setup as Fig. 6 at 30 events: the paper plots each event's queuing
delay under FIFO, LMTF and P-LMTF, showing that nearly every individual
event waits less under LMTF and especially under P-LMTF — the fairness
story, not just the averages.
"""

from __future__ import annotations

from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.sched import standard_scheduler_specs
from repro.traces.events import heterogeneous_config


def run(seed: int = 0, events: int = 30, utilization: float = 0.7,
        alpha: int | None = None, jobs: int | None = None) -> ExperimentResult:
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    grid = run_scheduler_grid([
        GridRow(key="run", scenario=scenario,
                schedulers=standard_scheduler_specs(seed, alpha=alpha)),
    ], jobs=jobs)
    metrics = grid["run"]
    fifo, lmtf, plmtf = (metrics[n] for n in ("fifo", "lmtf", "plmtf"))
    result = ExperimentResult(
        name="fig9",
        title=f"per-event queuing delay, {events} events "
              f"(alpha={alpha}, utilization ~{utilization:.0%})",
        columns=["event_index", "fifo_qd_s", "lmtf_qd_s", "plmtf_qd_s"],
        params={"seed": seed, "events": events, "alpha": alpha})
    for index in range(events):
        result.add_row(event_index=index,
                       fifo_qd_s=fifo.per_event_delay[index],
                       lmtf_qd_s=lmtf.per_event_delay[index],
                       plmtf_qd_s=plmtf.per_event_delay[index])
    improved_lmtf = sum(
        1 for i in range(events)
        if lmtf.per_event_delay[i] <= fifo.per_event_delay[i])
    improved_plmtf = sum(
        1 for i in range(events)
        if plmtf.per_event_delay[i] <= fifo.per_event_delay[i])
    result.notes.append(
        f"events with queuing delay <= FIFO's: LMTF {improved_lmtf}/"
        f"{events}, P-LMTF {improved_plmtf}/{events}")
    return result
