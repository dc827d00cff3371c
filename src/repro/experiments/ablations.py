"""Ablations for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the knobs the paper fixes or
leaves implicit:

* ``alpha_sweep`` — LMTF/P-LMTF sensitivity to the sample size α (the paper
  fixes α=4 and remarks α=2 already works: the power of two choices).
* ``admission_sweep`` — P-LMTF opportunistic-admission policies
  (shared / nocontention / hybrid / free / feasible).
* ``migration_strategies`` — best-fit vs smallest-first vs largest-first
  migration-set selection, measured on planner cost directly.
* ``barrier_sweep`` — completion-barrier vs setup-barrier round semantics
  (the two readings of the paper's timing model; see DESIGN.md §5).
* ``consistency_rate`` — how often an event plan could be applied as a
  single Reitblatt-style version flip without transient congestion, vs
  needing the sequential (Dionysus-style) step order our executor uses.
* ``rule_budget_sweep`` — what per-switch forwarding-table (TCAM) budgets
  do to flow placement: an extra resource dimension the paper's
  bandwidth-only model abstracts away.
* ``compile_sweep`` — what congestion-free staged schedules
  (:mod:`repro.core.compile`) cost, and how much ε headroom buys back
  (Henzinger & Pourdamghani's augmentation–speed curve).
* ``learned_sweep`` — L-LMTF's probe budget and drift threshold
  (:mod:`repro.sched.learned`) against exact LMTF's schedule.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.analysis.normalize import percent_reduction
from repro.core.migration import MigrationConfig
from repro.core.planner import EventPlanner, PlannerConfig
from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import GridRow, run_scheduler_grid
from repro.sched import staged_scheduler_spec, standard_scheduler_specs
from repro.sched.plmtf import ADMIT_MODES
from repro.traces.events import EventGeneratorConfig, heterogeneous_config


def alpha_sweep(seed: int = 0, events: int = 30, utilization: float = 0.7,
                alphas=(1, 2, 4, 8),
                jobs: int | None = None) -> ExperimentResult:
    """How much of LMTF/P-LMTF's benefit α=2 already captures."""
    result = ExperimentResult(
        name="ablation-alpha",
        title=f"alpha sensitivity ({events} events, "
              f"utilization ~{utilization:.0%})",
        columns=["alpha", "lmtf_avg_ect_red%", "plmtf_avg_ect_red%",
                 "lmtf_plan_s", "plmtf_plan_s"],
        params={"seed": seed, "events": events})
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    rows = [GridRow(key="fifo", scenario=scenario,
                    schedulers=({"kind": "fifo"},))]
    rows += [
        GridRow(key=f"alpha={alpha}", scenario=scenario,
                schedulers=(
                    {"kind": "lmtf", "alpha": alpha, "seed": seed + 9},
                    {"kind": "plmtf", "alpha": alpha, "seed": seed + 9},
                ))
        for alpha in alphas
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    fifo = grid["fifo"]["fifo"]
    for alpha in alphas:
        metrics = grid[f"alpha={alpha}"]
        result.add_row(
            alpha=alpha,
            **{"lmtf_avg_ect_red%": percent_reduction(
                   fifo.average_ect, metrics["lmtf"].average_ect),
               "plmtf_avg_ect_red%": percent_reduction(
                   fifo.average_ect, metrics["plmtf"].average_ect),
               "lmtf_plan_s": metrics["lmtf"].total_plan_time,
               "plmtf_plan_s": metrics["plmtf"].total_plan_time})
    return result


def admission_sweep(seed: int = 0, events: int = 30,
                    utilization: float = 0.7,
                    modes=ADMIT_MODES,
                    jobs: int | None = None) -> ExperimentResult:
    """The efficiency/cost tradeoff of P-LMTF admission policies."""
    result = ExperimentResult(
        name="ablation-admission",
        title=f"P-LMTF admission policies ({events} events, "
              f"utilization ~{utilization:.0%})",
        columns=["admit", "avg_ect_red%", "tail_ect_red%", "cost_red%",
                 "plan_s", "rounds"],
        params={"seed": seed, "events": events})
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    rows = [GridRow(key="fifo", scenario=scenario,
                    schedulers=({"kind": "fifo"},))]
    rows += [
        GridRow(key=f"admit={mode}", scenario=scenario,
                schedulers=({"kind": "plmtf", "alpha": 4, "seed": seed + 9,
                             "admit": mode},))
        for mode in modes
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    fifo = grid["fifo"]["fifo"]
    for mode in modes:
        metrics = grid[f"admit={mode}"]["plmtf"]
        result.add_row(
            admit=mode,
            **{"avg_ect_red%": percent_reduction(fifo.average_ect,
                                                 metrics.average_ect),
               "tail_ect_red%": percent_reduction(fifo.tail_ect,
                                                  metrics.tail_ect),
               "cost_red%": percent_reduction(fifo.total_cost,
                                              metrics.total_cost),
               "plan_s": metrics.total_plan_time,
               "rounds": metrics.rounds})
    return result


def migration_strategies(seed: int = 0, events: int = 10,
                         utilization: float = 0.75) -> ExperimentResult:
    """Planner-level comparison of migration-set selection heuristics."""
    result = ExperimentResult(
        name="ablation-migration",
        title=f"migration-set heuristics (planner cost, "
              f"utilization ~{utilization:.0%})",
        columns=["strategy", "total_cost", "migrations", "blocked_flows"],
        params={"seed": seed, "events": events})
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=False, event_config=heterogeneous_config())
    queue = scenario.generate_events()
    for strategy in ("best_fit", "smallest_first", "largest_first"):
        planner = EventPlanner(
            scenario.provider,
            PlannerConfig(migration=MigrationConfig(strategy=strategy)))
        network = scenario.loaded_network()
        rng = random.Random(seed + 3)
        total_cost = 0.0
        migrations = 0
        blocked = 0
        for event in queue:
            plan = planner.plan_event(network, event, rng, commit=True)
            total_cost += plan.cost
            migrations += plan.migration_count
            blocked += len(plan.blocked)
        result.add_row(strategy=strategy, total_cost=total_cost,
                       migrations=migrations, blocked_flows=blocked)
    return result


def consistency_rate(seed: int = 0, events: int = 10,
                     utilizations=(0.5, 0.6, 0.7, 0.8)) -> ExperimentResult:
    """One-shot flip safety of event plans across utilization levels."""
    from repro.core.consistency import (
        is_one_shot_safe,
        sequential_order_is_safe,
        transient_overloads,
    )
    result = ExperimentResult(
        name="ablation-consistency",
        title="one-shot (atomic version flip) safety of event plans",
        columns=["utilization", "plans", "one_shot_safe%",
                 "sequential_safe%", "avg_overloaded_links"],
        params={"seed": seed, "events": events})
    for utilization in utilizations:
        scenario = Scenario(utilization=utilization, seed=seed,
                            events=events, churn=False,
                            event_config=heterogeneous_config())
        network = scenario.loaded_network()
        planner = EventPlanner(scenario.provider)
        rng = random.Random(seed + 3)
        one_shot = sequential = 0
        overload_counts = []
        total = 0
        for event in scenario.generate_events():
            # Judge each plan against the pre-commit state, then apply it
            # and let the event's flows "complete" (remove them) so later
            # events see the post-round state of a FIFO run: migrations
            # persist, event traffic drains.
            plan = planner.plan_event(network, event, rng, commit=False)
            if not plan.feasible:
                continue
            total += 1
            if is_one_shot_safe(network, plan):
                one_shot += 1
            if sequential_order_is_safe(network, plan):
                sequential += 1
            overload_counts.append(len(transient_overloads(network, plan)))
            from repro.core.executor import apply_plan
            apply_plan(network, plan)
            for flow_plan in plan.flow_plans:
                network.remove(flow_plan.flow.flow_id)
        if total == 0:
            continue
        result.add_row(
            utilization=round(scenario.achieved_utilization, 2),
            plans=total,
            **{"one_shot_safe%": 100.0 * one_shot / total,
               "sequential_safe%": 100.0 * sequential / total,
               "avg_overloaded_links": sum(overload_counts)
               / len(overload_counts)})
    result.notes.append(
        "sequential application (what the executor does) is safe by "
        "construction; the one-shot column shows when the cheaper atomic "
        "flip would also have been congestion-free")
    result.notes.append(
        "any plan with a migration is one-shot-unsafe by construction: "
        "the migration exists precisely because its link cannot hold both "
        "the old flow and the new one — ordered transitions (Dionysus's "
        "premise) are structurally necessary, not an implementation detail")
    return result


def rule_budget_sweep(seed: int = 0,
                      budgets=(None, 120, 90, 60)) -> ExperimentResult:
    """Placement success vs per-switch rule budget on a k=4 Fat-Tree.

    Background is loaded to 50% fabric utilization (or until rule tables
    fill), then 200 Benson-style flows are probed for placement.
    """
    from repro.network.network import Network
    from repro.network.routing.provider import PathProvider
    from repro.network.topology.fattree import FatTreeTopology
    from repro.traces.background import BackgroundLoader
    from repro.traces.benson import BensonLikeTrace
    from repro.traces.yahoo import YahooLikeTrace

    result = ExperimentResult(
        name="ablation-rules",
        title="flow placement under per-switch rule-table budgets "
              "(fat-tree k=4, background target 50%)",
        columns=["rule_budget", "bg_flows_placed", "achieved_util",
                 "max_table_fill%", "probe_success%"],
        params={"seed": seed})
    topology = FatTreeTopology(k=4)
    provider = PathProvider(topology)
    for budget in budgets:
        network = Network(topology.graph(), default_rule_capacity=budget)
        trace = YahooLikeTrace(topology.hosts(), seed=seed)
        loader = BackgroundLoader(network, provider, trace,
                                  random.Random(seed + 100))
        report = loader.load_to_utilization(0.5, max_rejects=400)
        probe_trace = BensonLikeTrace(topology.hosts(), seed=seed + 7)
        probes = probe_trace.flows(200)
        successes = sum(1 for flow in probes
                        if loader.would_fit(flow)
                        and _placeable(network, provider, flow))
        if budget is not None:
            fill = max(network.rules_used(sw) / budget
                       for sw in topology.switches()) * 100.0
        else:
            fill = 0.0
        result.add_row(rule_budget=budget if budget is not None
                       else "unlimited",
                       bg_flows_placed=len(report.placed),
                       achieved_util=round(report.utilization, 2),
                       **{"max_table_fill%": fill,
                          "probe_success%": 100.0 * successes
                          / len(probes)})
    result.notes.append(
        "tight rule tables cap placement before bandwidth does — a "
        "resource dimension the paper's model abstracts away; the planner "
        "routes around full switches automatically")
    return result


def _placeable(network, provider, flow) -> bool:
    """True when some candidate path fits both bandwidth and rule space."""
    from repro.core.exceptions import InsufficientBandwidthError
    with network.trial():
        for path in provider.paths(flow.src, flow.dst):
            try:
                network.place(flow, path)
            except InsufficientBandwidthError:
                continue
            return True
    return False


def barrier_sweep(seed: int = 0, events: int = 30,
                  utilization: float = 0.7,
                  jobs: int | None = None) -> ExperimentResult:
    """Completion-barrier vs setup-barrier round semantics."""
    result = ExperimentResult(
        name="ablation-barrier",
        title=f"round-barrier semantics ({events} events, "
              f"utilization ~{utilization:.0%})",
        columns=["barrier", "scheduler", "avg_ect_s", "tail_ect_s",
                 "total_cost", "plan_s"],
        params={"seed": seed, "events": events})
    scenario = Scenario(utilization=utilization, seed=seed, events=events,
                        churn=True, event_config=heterogeneous_config())
    barriers = ("completion", "setup")
    grid = run_scheduler_grid(
        [GridRow(key=f"barrier={barrier}", scenario=scenario,
                 schedulers=standard_scheduler_specs(seed),
                 round_barrier=barrier)
         for barrier in barriers],
        jobs=jobs)
    for barrier in barriers:
        metrics = grid[f"barrier={barrier}"]
        for name in ("fifo", "lmtf", "plmtf"):
            m = metrics[name]
            result.add_row(barrier=barrier, scheduler=name,
                           avg_ect_s=m.average_ect, tail_ect_s=m.tail_ect,
                           total_cost=m.total_cost,
                           plan_s=m.total_plan_time)
    return result


def compile_sweep(seed: int = 0, events: int = 20,
                  utilization: float = 0.85, alpha: int = 4,
                  epsilons=(0.05, 0.1, 0.2),
                  schedulers=("lmtf", "plmtf", "staged-lmtf",
                              "staged-plmtf"),
                  jobs: int | None = None) -> ExperimentResult:
    """What congestion-free staged schedules cost, and what ε buys back.

    Every scheduler runs one frozen k=4 workload under atomic, strict
    staged and augmented(ε) plan compilation. Churn is off, so nothing
    drifts between planning and execution: the compiled step order is the
    plan order and each run's cost is comparable to the same scheduler's
    atomic run.
    """
    result = ExperimentResult(
        name="ablation-compile",
        title=f"plan-compilation modes on a 4-ary Fat-Tree ({events} "
              f"events, utilization ~{utilization:.0%})",
        columns=["mode", "epsilon", "scheduler", "total_cost", "cost_delta",
                 "avg_ect", "stages", "avg_stages", "max_stage",
                 "one_shot_safe", "overload"],
        params={"seed": seed, "events": events, "utilization": utilization,
                "alpha": alpha, "epsilons": list(epsilons),
                "schedulers": list(schedulers)})
    scenario = Scenario(
        utilization=utilization, seed=seed, events=events, churn=False,
        event_config=EventGeneratorConfig(min_flows=3, max_flows=8),
        defaults=replace(DEFAULTS, k=4))
    points = [("atomic", 0.0), ("staged", 0.0)]
    points += [("augmented", eps) for eps in epsilons]
    rows = [
        GridRow(key=f"mode={mode}/eps={eps}", scenario=scenario,
                compile_mode=mode, compile_epsilon=eps,
                schedulers=tuple(
                    staged_scheduler_spec(kind, seed, alpha, mode, eps)
                    if kind.startswith("staged-") else
                    {"kind": kind, "alpha": alpha, "seed": seed + 9}
                    for kind in schedulers))
        for mode, eps in points
    ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    atomic = grid[rows[0].key]
    for row, (mode, eps) in zip(rows, points):
        for name, m in grid[row.key].metrics.items():
            per_event = m.per_event_stages
            result.add_row(
                mode=mode, epsilon=eps, scheduler=name,
                total_cost=m.total_cost,
                cost_delta=m.total_cost - atomic[name].total_cost,
                avg_ect=m.average_ect, stages=m.total_stages,
                avg_stages=m.total_stages / len(per_event),
                max_stage=m.max_stage_count,
                one_shot_safe=sum(1 for s in per_event if s <= 1)
                / len(per_event),
                overload=m.max_transient_overload)
    result.notes.append(
        "staged execution replays the identical settled steps, so "
        "cost_delta is 0 for the exact schedulers: consistency costs time "
        "(per-stage install latency in avg_ect), not migration traffic")
    result.notes.append(
        "1 - one_shot_safe under staged is the traffic the paper's "
        "one-shot abstraction pushes through transient over-subscription; "
        "overload stays <= epsilon and augmented schedules are never "
        "longer than the strict staged ones")
    return result


def learned_sweep(seed: int = 0, events: int = 24, utilization: float = 0.7,
                  alpha: int = 4, budgets=(1, 2, 3), thresholds=(0.5, 2.0),
                  jobs: int | None = None) -> ExperimentResult:
    """L-LMTF's probe budget and drift threshold vs exact LMTF's schedule.

    L-LMTF exactly probes only the top-``budget`` of the α+1 sampled
    candidates once its cost model's error sits under ``threshold``, and
    falls back to probing all of them otherwise. Each (budget, threshold)
    point runs the same queue as exact LMTF on a static background and on
    a churning one (the fig5 and fig6 regimes), so the cost delta is due
    to the trimmed probing alone.
    """
    result = ExperimentResult(
        name="ablation-learned",
        title=f"L-LMTF probe budget x drift threshold vs exact LMTF "
              f"({events} events, utilization ~{utilization:.0%}, "
              f"alpha={alpha})",
        columns=["queue", "budget", "threshold", "cost_delta_pct",
                 "probes_skipped", "fallback_share", "mean_pred_err"],
        params={"seed": seed, "events": events, "utilization": utilization,
                "alpha": alpha, "budgets": list(budgets),
                "thresholds": list(thresholds)})
    points = [(b, t) for b in budgets for t in thresholds]
    rows = []
    for queue, churn in (("static", False), ("churning", True)):
        scenario = Scenario(
            utilization=utilization, seed=seed, events=events, churn=churn,
            event_config=EventGeneratorConfig(min_flows=10, max_flows=40))
        rows.append(GridRow(
            key=f"{queue}/exact", scenario=scenario,
            schedulers=({"kind": "lmtf", "alpha": alpha,
                         "seed": seed + 9},)))
        # A 32-sample training window (not the scheduler's default 64)
        # lets the trimmed regime cover most of a short run.
        rows += [
            GridRow(key=f"{queue}/budget={b}/threshold={t}",
                    scenario=scenario,
                    schedulers=({"kind": "learned", "alpha": alpha,
                                 "seed": seed + 9, "budget": b,
                                 "warmup": 32, "error_threshold": t},))
            for b, t in points
        ]
    grid = run_scheduler_grid(rows, jobs=jobs)
    for queue in ("static", "churning"):
        exact = grid[f"{queue}/exact"]["lmtf"].total_cost
        for b, t in points:
            m = grid[f"{queue}/budget={b}/threshold={t}"]["l-lmtf"]
            result.add_row(
                queue=queue, budget=b, threshold=t,
                cost_delta_pct=(100.0 * (m.total_cost - exact) / exact
                                if exact else 0.0),
                probes_skipped=m.probes_skipped,
                fallback_share=m.fallback_rounds / m.rounds,
                mean_pred_err=m.mean_prediction_error)
    result.notes.append(
        "a trimmed shortlist can deviate from cheapest-of-(alpha+1) in "
        "either direction; a zero delta with a high fallback share is the "
        "drift guard probing everything and reproducing exact LMTF")
    return result
