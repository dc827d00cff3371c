"""Robustness experiments beyond the paper (DESIGN.md §7).

* :func:`topology_sweep` — the Fig. 6-style FIFO/LMTF/P-LMTF comparison on
  leaf-spine and Jellyfish fabrics, showing the event-level abstraction is
  not Fat-Tree-specific.
* :func:`oracle_comparison` — LMTF against oracle shortest-event-first
  baselines that sort by perfectly observed size signals, quantifying how
  much of LMTF's benefit comes from migration cost being a *proxy* for
  event heaviness.
"""

from __future__ import annotations

import random

from repro.analysis.normalize import percent_reduction
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import (
    Cell,
    GridRow,
    run_cells,
    run_scheduler_grid,
)
from repro.network.routing.provider import PathProvider
from repro.network.topology.jellyfish import JellyfishTopology
from repro.network.topology.leafspine import LeafSpineTopology
from repro.sched import (
    build_scheduler,
    scheduler_name,
    standard_scheduler_specs,
)
from repro.sched.oracle import SIGNALS
from repro.sim.metrics import RunMetrics
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.timing import TimingModel
from repro.traces.background import BackgroundLoader
from repro.traces.benson import BensonLikeTrace
from repro.traces.events import EventGenerator, heterogeneous_config
from repro.traces.yahoo import YahooLikeTrace

#: Alternative fabrics sized comparably to a k=8 Fat-Tree's host count.
TOPOLOGY_BUILDERS = {
    "leaf-spine": lambda: LeafSpineTopology(leaves=16, spines=8,
                                            hosts_per_leaf=8),
    "jellyfish": lambda: JellyfishTopology(switches=40, degree=6,
                                           hosts_per_switch=3, seed=7),
}


def topology_cell(topology: str, seed: int, events: int,
                  utilization: float, scheduler: dict) -> dict:
    """Worker: one scheduler on one named fabric of
    :data:`TOPOLOGY_BUILDERS`, from spec to metrics."""
    try:
        built = TOPOLOGY_BUILDERS[topology]()
    except KeyError:
        raise ValueError(f"unknown topology {topology!r}; pick one of "
                         f"{sorted(TOPOLOGY_BUILDERS)}") from None
    provider = PathProvider(built)
    network = built.network()
    trace = YahooLikeTrace(built.hosts(), seed=seed, duration_median=80.0)
    loader = BackgroundLoader(network, provider, trace,
                              random.Random(seed + 100))
    loader.load_to_utilization(utilization, permanent=False)
    generator = EventGenerator(
        BensonLikeTrace(built.hosts(), seed=seed + 1, duration_median=1.0),
        config=heterogeneous_config(), seed=seed + 2)
    queue = generator.generate(events)
    churn = YahooLikeTrace(built.hosts(), seed=seed + 50,
                           duration_median=80.0)
    simulator = UpdateSimulator(
        network.copy(), provider, build_scheduler(scheduler),
        timing=TimingModel(migration_rule_s=0.02, drain_s_per_mbps=0.05),
        config=SimulationConfig(seed=seed + 5, background_churn=True),
        churn_trace=churn)
    simulator.submit(queue)
    return {"metrics": simulator.run().to_dict()}


def topology_sweep(seed: int = 0, events: int = 20,
                   utilization: float = 0.6, jobs: int | None = None,
                   checkpoint=None, resume: bool = False,
                   listener=None) -> ExperimentResult:
    """LMTF/P-LMTF vs FIFO on non-Fat-Tree fabrics."""
    result = ExperimentResult(
        name="robustness-topology",
        title=f"scheduler gains on alternative fabrics ({events} events, "
              f"utilization ~{utilization:.0%})",
        columns=["topology", "lmtf_avg_ect_red%", "plmtf_avg_ect_red%",
                 "plmtf_tail_ect_red%", "plmtf_qd_red%"],
        params={"seed": seed, "events": events})
    cells = []
    labels = []
    for name in TOPOLOGY_BUILDERS:
        for sched in standard_scheduler_specs(seed):
            sname = scheduler_name(sched)
            cells.append(Cell(
                key=f"{name}/{sname}",
                fn="repro.experiments.robustness:topology_cell",
                params={"topology": name, "seed": seed, "events": events,
                        "utilization": utilization,
                        "scheduler": dict(sched)}))
            labels.append((name, sname))
    outcomes = run_cells(cells, jobs=jobs or 1, checkpoint=checkpoint,
                         resume=resume, listener=listener)
    rows: dict[str, dict] = {}
    for cell, (name, sname) in zip(cells, labels):
        rows.setdefault(name, {})[sname] = RunMetrics.from_dict(
            outcomes[cell.key].value["metrics"])
    for name, metrics in rows.items():
        fifo = metrics["fifo"]
        result.add_row(
            topology=name,
            **{"lmtf_avg_ect_red%": percent_reduction(
                   fifo.average_ect, metrics["lmtf"].average_ect),
               "plmtf_avg_ect_red%": percent_reduction(
                   fifo.average_ect, metrics["plmtf"].average_ect),
               "plmtf_tail_ect_red%": percent_reduction(
                   fifo.tail_ect, metrics["plmtf"].tail_ect),
               "plmtf_qd_red%": percent_reduction(
                   fifo.average_queuing_delay,
                   metrics["plmtf"].average_queuing_delay)})
    result.notes.append("the event-level abstraction and both schedulers "
                        "are topology-agnostic; gains persist off Fat-Tree")
    return result


#: Control-plane unreliability used by the failure sweep: a few percent of
#: rule installs / migration drains fail per attempt, with a little
#: per-attempt latency jitter. Held fixed across fault rates so the sweep
#: isolates the *fault-rate* axis.
FAILURE_SWEEP_CONTROL_PLANE = {
    "install_failure_prob": 0.02,
    "migration_failure_prob": 0.02,
    "jitter_s": 0.01,
}


def failure_cell(seed: int, events: int, utilization: float,
                 fault_rate: float, horizon: float, scheduler: dict,
                 control_plane: dict | None, max_deferrals: int) -> dict:
    """Worker: one scheduler under one fault rate on the paper scenario.

    ``fault_rate`` is expected link faults per simulated second, realized
    by a :class:`~repro.sim.faults.FaultProcess` seeded from the cell
    params — the whole cell is a pure function of its JSON spec, so the
    parallel runner's determinism guarantee extends to faulted runs.
    """
    from repro.experiments.common import Scenario
    from repro.sim.controlplane import build_control_plane
    from repro.sim.faults import build_fault_source
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    queue = scenario.generate_events()
    faults = build_fault_source(
        {"rate": fault_rate, "horizon": horizon, "seed": seed + 77}
        if fault_rate > 0 else None)
    simulator = scenario.simulator(
        build_scheduler(scheduler),
        control_plane=build_control_plane(control_plane),
        faults=faults, max_deferrals=max_deferrals)
    simulator.submit(queue)
    return {"metrics": simulator.run().to_dict()}


def failure_sweep(seed: int = 0, events: int = 20,
                  utilization: float = 0.6,
                  fault_rates=(0.0, 0.02, 0.05, 0.1),
                  horizon: float = 120.0, max_deferrals: int = 5,
                  jobs: int | None = None, checkpoint=None,
                  resume: bool = False, listener=None) -> ExperimentResult:
    """FIFO/LMTF/P-LMTF under rising mid-run fault rates.

    Every cell runs with the same mildly unreliable control plane
    (:data:`FAILURE_SWEEP_CONTROL_PLANE`) and a seeded link-fault process
    at its row's rate; stranded traffic is re-homed through auto-generated
    repair events competing in the ordinary update queue. Always routed
    through the cell runner, so results are invariant to ``jobs`` and to
    interruption/resume.
    """
    schedulers = standard_scheduler_specs(seed)
    cells = []
    labels = []
    for rate in fault_rates:
        for sched in schedulers:
            sname = scheduler_name(sched)
            cells.append(Cell(
                key=f"rate={rate}/{sname}",
                fn="repro.experiments.robustness:failure_cell",
                params={"seed": seed, "events": events,
                        "utilization": utilization, "fault_rate": rate,
                        "horizon": horizon, "scheduler": dict(sched),
                        "control_plane": dict(FAILURE_SWEEP_CONTROL_PLANE),
                        "max_deferrals": max_deferrals}))
            labels.append((rate, sname))
    outcomes = run_cells(cells, jobs=jobs or 1, checkpoint=checkpoint,
                         resume=resume, listener=listener)
    result = ExperimentResult(
        name="robustness-failures",
        title=f"schedulers under mid-run failures ({events} events, "
              f"utilization ~{utilization:.0%}, horizon {horizon:.0f}s)",
        columns=["fault_rate", "scheduler", "avg_ect", "faults", "retries",
                 "deferrals", "dropped", "stranded_mbps"],
        params={"seed": seed, "events": events,
                "control_plane": dict(FAILURE_SWEEP_CONTROL_PLANE),
                "max_deferrals": max_deferrals})
    for cell, (rate, sname) in zip(cells, labels):
        run = RunMetrics.from_dict(outcomes[cell.key].value["metrics"])
        result.add_row(fault_rate=rate, scheduler=sname,
                       avg_ect=run.average_ect,
                       faults=run.faults_injected, retries=run.retries,
                       deferrals=run.deferrals, dropped=run.dropped_events,
                       stranded_mbps=run.stranded_traffic)
    result.notes.append("faults strand flows mid-run; repairs are enqueued "
                        "as ordinary update events, so the scheduler's "
                        "queueing policy also governs recovery time")
    return result


def oracle_comparison(seed: int = 0, events: int = 30,
                      utilization: float = 0.7, jobs: int | None = None,
                      checkpoint=None, resume: bool = False,
                      listener=None) -> ExperimentResult:
    """LMTF vs perfect-knowledge shortest-event-first baselines."""
    from repro.experiments.common import Scenario
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    specs = [{"kind": "fifo"},
             {"kind": "lmtf", "alpha": 4, "seed": seed + 9}]
    specs += [{"kind": "oracle-sjf", "signal": s} for s in SIGNALS]
    grid = run_scheduler_grid(
        [GridRow(key="run", scenario=scenario, schedulers=tuple(specs))],
        jobs=jobs, checkpoint=checkpoint, resume=resume, listener=listener)
    metrics = grid["run"].metrics
    fifo = metrics["fifo"]
    result = ExperimentResult(
        name="robustness-oracle",
        title=f"LMTF vs oracle SJF baselines ({events} events, "
              f"utilization ~{utilization:.0%})",
        columns=["scheduler", "avg_ect_red%", "tail_ect_red%", "plan_s"],
        params={"seed": seed, "events": events})
    for name, run in metrics.items():
        if name == "fifo":
            continue
        result.add_row(
            scheduler=name,
            **{"avg_ect_red%": percent_reduction(fifo.average_ect,
                                                 run.average_ect),
               "tail_ect_red%": percent_reduction(fifo.tail_ect,
                                                  run.tail_ect),
               "plan_s": run.total_plan_time})
    result.notes.append("oracles sort the whole queue by a directly "
                        "observed size signal; LMTF's sampled cost probes "
                        "are a *live congestion* signal and typically beat "
                        "static size ordering while keeping partial "
                        "FIFO fairness")
    return result
