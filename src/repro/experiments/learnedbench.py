"""Learned-ranking benchmark (``repro learned-bench``).

The Cost(U) probe is the scheduler's hot loop: every round LMTF exactly
plans α+1 sampled candidates, and on a churning network the PR-7 probe
cache cannot amortize much of it — version drift invalidates entries as
fast as they are filled. L-LMTF attacks the loop from the other side: a
feature-ranked shortlist means only ``budget`` of the α+1 candidates are
ever exactly probed. This module quantifies the trade along the three
axes the ablation cares about:

* **rounds/sec** — ``probe_round_cell`` times steady-state ``select()``
  rounds over a live network with deterministic background churn (a
  seeded remove/re-place of background flows each round bumps link
  versions, keeping probe-cache misses honest for both policies).
* **schedule quality** — ``quality_cell`` runs the same event queue
  through exact LMTF and L-LMTF on identical network copies (fig5-style
  static queue and fig6-style dynamic background) and reports the total
  migration-cost delta.
* **prediction accuracy** — every learned cell reports the model's mean
  absolute error (log1p-cost scale) and the share of rounds that fell
  back to full probing; ``adversarial_cell`` trains on a calm workload
  and then evaluates on a hot, shifted one to prove the drift guard
  actually re-engages full probing.

Every grid cell runs through the PR-2 cell runner
(:func:`repro.experiments.runner.run_cells`), so ``--jobs N`` fans cells
out to the worker pool and ``--resume`` reuses checkpointed cells. Cells
are hermetic: each rebuilds its scheduler from a spec, so a cell's
numbers depend only on its parameters (timings, of course, on the
machine).

The CLI merges measurements into a ``BENCH_<pr>.json`` snapshot under the
``learned_bench`` key (``--out``), alongside the microbenchmark medians
written by ``scripts/bench_snapshot.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import Cell, SweepListener, run_cells
from repro.traces.events import EventGeneratorConfig

#: Default ablation grid: probe budget x confidence threshold.
BUDGETS = (1, 2, 3)
THRESHOLDS = (0.5, 2.0)

#: Headline configuration (the BENCH_8 acceptance row).
DEFAULT_BUDGET = 2
DEFAULT_THRESHOLD = 2.0
DEFAULT_WARMUP = 64


def scheduler_spec(policy: str, alpha: int = 4, seed: int = 0,
                   budget: int = DEFAULT_BUDGET,
                   warmup: int = DEFAULT_WARMUP,
                   error_threshold: float = DEFAULT_THRESHOLD) -> dict:
    """The scheduler spec one bench cell runs."""
    if policy == "lmtf":
        return {"kind": "lmtf", "alpha": alpha, "seed": seed + 9}
    if policy == "learned":
        return {"kind": "learned", "alpha": alpha, "seed": seed + 9,
                "budget": budget, "warmup": warmup,
                "error_threshold": error_threshold}
    raise ValueError(f"unsupported bench policy {policy!r}; "
                     f"pick lmtf or learned")


def schedule_digest(metrics) -> str:
    """A stable fingerprint of one run's realized schedule.

    Hashes the deterministic outcome fields of a :class:`RunMetrics`
    (per-event completion times, delays and costs, plus the aggregate
    cost and round count) — wall-clock fields are excluded, so two runs
    of the same seeded workload must collide iff they admitted the same
    events at the same simulated times. Used by the determinism
    acceptance test (same seed + model => identical digest across
    ``--jobs`` counts).
    """
    payload = {
        "scheduler": metrics.scheduler,
        "event_count": metrics.event_count,
        "total_cost": metrics.total_cost,
        "rounds": metrics.rounds,
        "per_event_ect": list(metrics.per_event_ect),
        "per_event_delay": list(metrics.per_event_delay),
        "per_event_cost": list(metrics.per_event_cost),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _bench_scenario(events: int, utilization: float, seed: int, k: int,
                    min_flows: int, max_flows: int,
                    churn: bool) -> Scenario:
    return Scenario(
        utilization=utilization, seed=seed, events=events, churn=churn,
        event_config=EventGeneratorConfig(min_flows=min_flows,
                                          max_flows=max_flows),
        defaults=replace(DEFAULTS, k=k))


def probe_round_cell(policy: str = "learned", events: int = 24,
                     utilization: float = 0.6, seed: int = 0, k: int = 4,
                     min_flows: int = 8, max_flows: int = 16,
                     alpha: int = 4, budget: int = DEFAULT_BUDGET,
                     warmup: int = DEFAULT_WARMUP,
                     error_threshold: float = DEFAULT_THRESHOLD,
                     warmup_rounds: int = 30, rounds: int = 120,
                     perturb: int = 8) -> dict:
    """Time steady-state ``select()`` rounds over a live network.

    The queue stays at constant depth (admissions are computed, not
    applied), so every timed round is one full probe cycle: sample α+1
    candidates, rank/probe, pick. Before each round, ``perturb``
    deterministically-chosen background flows are removed and re-placed
    on their own paths — a no-op for capacities but a version bump for
    every touched link, which invalidates overlapping probe-cache
    entries exactly like real churn does. Both policies face the same
    perturbation stream, so the contrast isolates how many exact probes
    each pays per round.

    ``warmup_rounds`` are untimed; for the learned policy they double as
    the online-training window, so the timed region measures the
    *confident* regime (fallback rounds inside the window are reported,
    not hidden).
    """
    from repro.core.planner import EventPlanner
    from repro.sched import build_scheduler
    from repro.sched.base import QueuedEvent, SchedulingContext

    scenario = _bench_scenario(events, utilization, seed, k,
                               min_flows, max_flows, churn=False)
    queue = [QueuedEvent(event, seq=i)
             for i, event in enumerate(scenario.generate_events())]
    network = scenario.loaded_network()
    planner = EventPlanner(scenario.provider)
    scheduler = build_scheduler(scheduler_spec(
        policy, alpha=alpha, seed=seed, budget=budget, warmup=warmup,
        error_threshold=error_threshold))

    background = sorted(network.flow_ids())
    perturb_rng = random.Random(seed + 77)

    def churn_once() -> None:
        for _ in range(min(perturb, len(background))):
            placement = network.remove(perturb_rng.choice(background))
            network.place(placement.flow, placement.path)

    stats = {"probes_skipped": 0, "fallback_rounds": 0,
             "prediction_samples": 0, "prediction_error_sum": 0.0}

    def run_rounds(count: int, start: int) -> None:
        for i in range(count):
            churn_once()
            ctx = SchedulingContext(now=float(start + i), queue=queue,
                                    planner=planner, network=network,
                                    rng=random.Random(seed + 5))
            decision = scheduler.select(ctx)
            stats["probes_skipped"] += decision.probes_skipped
            stats["fallback_rounds"] += int(decision.fallback)
            stats["prediction_samples"] += decision.prediction_samples
            stats["prediction_error_sum"] += decision.prediction_error_sum

    run_rounds(warmup_rounds, start=0)
    timed_from = dict(stats)
    t0 = time.perf_counter()
    run_rounds(rounds, start=warmup_rounds)
    elapsed = time.perf_counter() - t0

    cache = getattr(scheduler, "cache", None)
    totals = cache.totals if cache is not None else None
    timed_fallback = stats["fallback_rounds"] - timed_from["fallback_rounds"]
    samples = stats["prediction_samples"]
    return {
        "policy": policy,
        "scheduler": scheduler.name,
        "alpha": alpha,
        "budget": budget if policy == "learned" else None,
        "error_threshold": error_threshold if policy == "learned" else None,
        "rounds": rounds,
        "elapsed_s": round(elapsed, 6),
        "rounds_per_s": round(rounds / elapsed, 3) if elapsed > 0 else 0.0,
        "probes_skipped": stats["probes_skipped"],
        "fallback_rounds_total": stats["fallback_rounds"],
        "fallback_share_timed": round(timed_fallback / rounds, 4),
        "mean_prediction_error":
            round(stats["prediction_error_sum"] / samples, 4)
            if samples else 0.0,
        "cache_hits": totals.hits if totals is not None else 0,
        "cache_misses": totals.misses if totals is not None else 0,
        "perturb": perturb,
    }


def quality_cell(style: str = "fig5", events: int = 24,
                 utilization: float = 0.7, seed: int = 0, k: int = 8,
                 min_flows: int = 10, max_flows: int = 40,
                 alpha: int = 4, budget: int = DEFAULT_BUDGET,
                 warmup: int = 32,
                 error_threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Total migration cost of L-LMTF vs exact LMTF on one workload.

    ``style="fig5"`` freezes the background (static queue regime);
    ``style="fig6"`` keeps background churn on (the paper's dynamic
    network state). Both schedulers see identical copies of the loaded
    network and the identical event queue, so the cost delta is
    attributable to the trimmed probing alone. The default training
    window is shorter than the throughput cells' (32 samples) so the
    confident, trimmed regime covers most of a small run instead of
    hiding behind cold-start fallback.
    """
    from repro.experiments.common import run_schedulers
    from repro.sched import build_scheduler

    if style not in ("fig5", "fig6"):
        raise ValueError(f"style must be fig5 or fig6, got {style!r}")
    scenario = _bench_scenario(events, utilization, seed, k,
                               min_flows, max_flows,
                               churn=style == "fig6")
    exact = build_scheduler(scheduler_spec("lmtf", alpha=alpha, seed=seed))
    learned = build_scheduler(scheduler_spec(
        "learned", alpha=alpha, seed=seed, budget=budget, warmup=warmup,
        error_threshold=error_threshold))
    metrics = run_schedulers(scenario, [exact, learned])
    base, trial = metrics["lmtf"], metrics["l-lmtf"]
    delta = ((trial.total_cost - base.total_cost) / base.total_cost * 100.0
             if base.total_cost else 0.0)
    return {
        "style": style,
        "events": events,
        "cost_lmtf": round(base.total_cost, 3),
        "cost_learned": round(trial.total_cost, 3),
        "cost_delta_pct": round(delta, 3),
        "probes_skipped": trial.probes_skipped,
        "fallback_rounds": trial.fallback_rounds,
        "rounds": trial.rounds,
        "mean_prediction_error": round(trial.mean_prediction_error, 4),
        "digest_lmtf": schedule_digest(base),
        "digest_learned": schedule_digest(trial),
    }


def adversarial_cell(seed: int = 0, k: int = 4, alpha: int = 4,
                     budget: int = DEFAULT_BUDGET,
                     warmup: int = 16,
                     error_threshold: float = 0.35,
                     train_events: int = 20,
                     eval_events: int = 20) -> dict:
    """Train on a calm workload, then evaluate on a hot, shifted one.

    The tight ``error_threshold`` means the model earns confidence on the
    calm distribution (small, low-demand events at 30% load) and then
    must *lose* it when the workload shifts (large events at 85% load,
    different seed): the drift guard has to push the EWMA error past the
    threshold and re-engage full probing. ``fallback_triggered`` is the
    assertion CI checks.
    """
    from repro.sched import build_scheduler

    scheduler = build_scheduler(scheduler_spec(
        "learned", alpha=alpha, seed=seed, budget=budget, warmup=warmup,
        error_threshold=error_threshold))

    calm = _bench_scenario(train_events, utilization=0.3, seed=seed, k=k,
                           min_flows=2, max_flows=5, churn=False)
    sim = calm.simulator(scheduler)
    sim.submit(calm.generate_events())
    train = sim.run()

    hot = _bench_scenario(eval_events, utilization=0.85, seed=seed + 31,
                          k=k, min_flows=10, max_flows=24, churn=True)
    sim = hot.simulator(scheduler)  # same scheduler: model carries over
    sim.submit(hot.generate_events())
    evaluation = sim.run()

    return {
        "error_threshold": error_threshold,
        "train_fallback_rounds": train.fallback_rounds,
        "train_rounds": train.rounds,
        "train_mean_error": round(train.mean_prediction_error, 4),
        "eval_fallback_rounds": evaluation.fallback_rounds,
        "eval_rounds": evaluation.rounds,
        "eval_mean_error": round(evaluation.mean_prediction_error, 4),
        "fallback_triggered": evaluation.fallback_rounds > 0,
    }


def ablation_cell(budget: int, error_threshold: float, seed: int = 0,
                  alpha: int = 4, warmup: int = 32,
                  events: int = 16, rounds: int = 60,
                  warmup_rounds: int = 20) -> dict:
    """One (budget, threshold) point: accuracy vs quality vs rounds/sec.

    Combines a short probe-loop timing with a small fig5-style quality
    run so each grid point reports all three ablation axes.
    """
    speed = probe_round_cell(
        policy="learned", events=events, seed=seed, alpha=alpha,
        budget=budget, warmup=warmup, error_threshold=error_threshold,
        warmup_rounds=warmup_rounds, rounds=rounds)
    quality = quality_cell(
        style="fig5", events=events, seed=seed, k=4, min_flows=8,
        max_flows=16, alpha=alpha, budget=budget, warmup=warmup,
        error_threshold=error_threshold)
    return {
        "budget": budget,
        "error_threshold": error_threshold,
        "rounds_per_s": speed["rounds_per_s"],
        "probes_skipped": speed["probes_skipped"],
        "fallback_share_timed": speed["fallback_share_timed"],
        "mean_prediction_error": speed["mean_prediction_error"],
        "cost_delta_pct": quality["cost_delta_pct"],
    }


def run_learned_bench(budgets=BUDGETS, thresholds=THRESHOLDS,
                      alpha: int | None = None, seed: int = 0,
                      events: int = 24, rounds: int = 120,
                      warmup_rounds: int = 30,
                      budget: int = DEFAULT_BUDGET,
                      error_threshold: float = DEFAULT_THRESHOLD,
                      quality_events: int = 24,
                      ablation: bool = True,
                      jobs: int | None = None, checkpoint=None,
                      resume: bool = False,
                      listener: SweepListener | None = None,
                      ) -> ExperimentResult:
    """The full learned-bench grid through the cell runner.

    Headline rows: probe-round throughput of exact LMTF vs L-LMTF at the
    matched workload (the BENCH_8 speedup claim), fig5/fig6-style cost
    parity, and the adversarial drift check. ``ablation=True`` appends
    the (budget x threshold) grid.
    """
    alpha = alpha if alpha is not None else DEFAULTS.alpha
    shared = {"events": events, "seed": seed, "alpha": alpha,
              "rounds": rounds, "warmup_rounds": warmup_rounds}
    cells = [
        Cell(key="throughput/lmtf",
             fn="repro.experiments.learnedbench:probe_round_cell",
             params={"policy": "lmtf", **shared}),
        Cell(key="throughput/learned",
             fn="repro.experiments.learnedbench:probe_round_cell",
             params={"policy": "learned", "budget": budget,
                     "error_threshold": error_threshold, **shared}),
        Cell(key="quality/fig5",
             fn="repro.experiments.learnedbench:quality_cell",
             params={"style": "fig5", "events": quality_events,
                     "seed": seed, "alpha": alpha, "budget": budget,
                     "error_threshold": error_threshold}),
        Cell(key="quality/fig6",
             fn="repro.experiments.learnedbench:quality_cell",
             params={"style": "fig6", "events": quality_events,
                     "seed": seed, "alpha": alpha, "budget": budget,
                     "error_threshold": error_threshold}),
        Cell(key="adversarial/drift",
             fn="repro.experiments.learnedbench:adversarial_cell",
             params={"seed": seed, "alpha": alpha, "budget": budget}),
    ]
    if ablation:
        cells.extend(
            Cell(key=f"ablation/budget={b}/threshold={t}",
                 fn="repro.experiments.learnedbench:ablation_cell",
                 params={"budget": b, "error_threshold": t, "seed": seed,
                         "alpha": alpha})
            for b in budgets for t in thresholds)

    outcomes = run_cells(cells, jobs=jobs or 1, checkpoint=checkpoint,
                         resume=resume, listener=listener)
    measured = {cell.key: outcomes[cell.key].value for cell in cells}

    result = ExperimentResult(
        name="learned-bench",
        title=f"L-LMTF learned ranking vs exact LMTF (alpha={alpha}, "
              f"budget={budget}, threshold={error_threshold}, "
              f"{rounds} timed probe rounds/cell)",
        columns=["cell", "rounds_per_s", "speedup", "cost_delta_pct",
                 "mean_pred_err", "fallback_share"],
        params={"alpha": alpha, "seed": seed, "events": events,
                "rounds": rounds, "budget": budget,
                "error_threshold": error_threshold,
                "quality_events": quality_events})

    base = measured["throughput/lmtf"]
    trial = measured["throughput/learned"]
    speedup = (round(trial["rounds_per_s"] / base["rounds_per_s"], 2)
               if base["rounds_per_s"] else None)
    result.add_row(cell="throughput/lmtf",
                   rounds_per_s=base["rounds_per_s"], speedup=1.0,
                   cost_delta_pct=None, mean_pred_err=None,
                   fallback_share=None)
    result.add_row(cell="throughput/learned",
                   rounds_per_s=trial["rounds_per_s"], speedup=speedup,
                   cost_delta_pct=None,
                   mean_pred_err=trial["mean_prediction_error"],
                   fallback_share=trial["fallback_share_timed"])
    for style in ("fig5", "fig6"):
        q = measured[f"quality/{style}"]
        result.add_row(cell=f"quality/{style}", rounds_per_s=None,
                       speedup=None, cost_delta_pct=q["cost_delta_pct"],
                       mean_pred_err=q["mean_prediction_error"],
                       fallback_share=None)
    drift = measured["adversarial/drift"]
    result.add_row(cell="adversarial/drift", rounds_per_s=None,
                   speedup=None, cost_delta_pct=None,
                   mean_pred_err=drift["eval_mean_error"],
                   fallback_share=round(
                       drift["eval_fallback_rounds"]
                       / max(drift["eval_rounds"], 1), 4))
    if ablation:
        for b in budgets:
            for t in thresholds:
                a = measured[f"ablation/budget={b}/threshold={t}"]
                result.add_row(
                    cell=f"ablation/b={b}/t={t}",
                    rounds_per_s=a["rounds_per_s"], speedup=None,
                    cost_delta_pct=a["cost_delta_pct"],
                    mean_pred_err=a["mean_prediction_error"],
                    fallback_share=a["fallback_share_timed"])
    result.notes.append(
        "throughput cells time select() over a constant-depth queue with "
        "seeded background churn (both policies face the same "
        "perturbation stream); speedup is L-LMTF rounds/sec over exact "
        "LMTF at the matched workload. Quality cells require the cost "
        "delta to stay within 5%. adversarial/drift trains on a calm "
        "workload and must re-engage full probing on the shifted one.")
    result.extras["measurements"] = measured
    result.extras["speedup"] = speedup
    result.extras["fallback_triggered"] = drift["fallback_triggered"]
    return result


def merge_snapshot(path: str | Path, result: ExperimentResult) -> Path:
    """Merge the grid's measurements into ``path`` under ``learned_bench``.

    The file is typically a ``BENCH_<pr>.json`` microbenchmark snapshot
    written by ``scripts/bench_snapshot.py``; its existing keys (which
    the CI bench-regression gate reads) are preserved. A missing file is
    created with only the ``learned_bench`` section.
    """
    target = Path(path)
    data: dict = {}
    if target.exists():
        data = json.loads(target.read_text(encoding="utf-8"))
    data["learned_bench"] = {
        "params": result.params,
        "speedup": result.extras.get("speedup"),
        "fallback_triggered": result.extras.get("fallback_triggered"),
        "measurements": result.extras["measurements"],
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target
