"""Integration: every figure at paper-scale parameters has the paper's shape.

Each test regenerates one figure (or ablation / robustness sweep) once —
simulations are seeded, so a second run would measure nothing new — and
asserts its qualitative *shape*: who wins, by roughly what factor, where
the orderings fall. Runners that take ``jobs`` run their hermetic cells in
two worker processes (the same bytes as the bare call); the rest run with
the id counters reset. Either way the table is the one ``repro figN``
prints and EXPERIMENTS.md records, whatever ran before it. Run with ``-s``
to print the tables. The reduced-scale smoke of the same
code paths is ``test_experiments.py``.
"""

import inspect

import pytest

from repro.experiments import (
    ablations,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    robustness,
)
from repro.experiments.runner import hermetic_ids


def run(fn, **kwargs):
    if "jobs" in inspect.signature(fn).parameters:
        kwargs["jobs"] = 2
    with hermetic_ids():
        result = fn(**kwargs)
    print(f"\n{result.to_table()}")
    return result


def mean(result, column):
    return sum(result.column(column)) / len(result.rows)


# ------------------------------------------------------------------ figures


def test_fig1_success_probability():
    """Success probability (on the flow's desired path, without migration)
    falls as utilization rises, for every flow size and both traces — the
    paper's motivating observation."""
    result = run(fig1.run, seed=0, probes=200,
                 utilizations=(0.2, 0.4, 0.6, 0.8))

    for trace in ("yahoo", "benson"):
        for size in fig1.FLOW_SIZES:
            series = [(row["utilization"], row["desired_path_success"])
                      for row in result.rows
                      if row["trace"] == trace and row["flow_mbps"] == size]
            series.sort()
            lows = [s for __, s in series[:2]]
            highs = [s for __, s in series[-2:]]
            assert sum(lows) >= sum(highs), (
                f"success should fall with utilization for {trace}/{size}")
    # the paper's probabilities drop well below 1 at high utilization
    high_rows = [row["desired_path_success"] for row in result.rows
                 if row["utilization"] >= 0.6]
    assert min(high_rows) < 0.9


def test_fig2_toy_ordering():
    """Exactly the paper's numbers (22/3 vs 32/3 average ECT)."""
    result = run(fig2.run)
    avg = result.rows[-1]
    assert avg["event_level_ect"] == pytest.approx(22 / 3)
    assert avg["flow_level_ect"] == pytest.approx(32 / 3)


def test_fig3_toy_reorder():
    """Exactly the paper's numbers (avg ECT 7 s vs 5 s, tail 9 s)."""
    result = run(fig3.run)
    avg = result.rows[-1]
    assert avg["fifo_ect"] == pytest.approx(7.0)
    assert avg["cost_order_ect"] == pytest.approx(5.0)
    tails = [max(row["fifo_ect"] for row in result.rows[:-1]),
             max(row["cost_order_ect"] for row in result.rows[:-1])]
    assert tails == [9.0, 9.0]


def test_fig4_flow_vs_event():
    """Event-level wins on both average and tail ECT at every point, with
    a large (multi-x) average-ECT advantage at the biggest events — the
    paper reports up to 10x average and 6x tail."""
    result = run(fig4.run, seed=0, events=10, mean_flows=(15, 45, 75))

    for row in result.rows:
        assert row["avg_speedup"] > 1.0
        assert row["tail_speedup"] > 1.0
    # the advantage is large, not marginal: >= 4x average at the heaviest
    heaviest = result.rows[-1]
    assert heaviest["avg_speedup"] >= 4.0
    assert heaviest["tail_speedup"] >= 2.0
    # normalization convention: flow-level curve peaks at 1
    assert max(row["flow_avg_norm"] for row in result.rows) == 1.0


def test_fig5_event_count():
    """Both methods' ECTs grow with queue length; event-level stays
    multiple-x better on average ECT throughout (the paper reports ~5x
    average / ~2x tail over the sweep)."""
    result = run(fig5.run, seed=0, event_counts=(10, 30, 50))

    for row in result.rows:
        assert row["avg_speedup"] > 1.5
        assert row["tail_speedup"] > 1.0
    # ECTs grow with the queue for both schedulers
    flow_avgs = [row["flow_avg_ect"] for row in result.rows]
    event_avgs = [row["event_avg_ect"] for row in result.rows]
    assert flow_avgs[0] < flow_avgs[-1]
    assert event_avgs[0] < event_avgs[-1]


def test_fig6_lmtf_plmtf():
    """The paper's four panels:
      (a) both LMTF and P-LMTF reduce total update cost vs FIFO;
      (b) P-LMTF's average-ECT reduction is large and exceeds LMTF's;
      (c) both reduce tail ECT, P-LMTF more;
      (d) plan time orders FIFO < P-LMTF, FIFO < LMTF.
    """
    result = run(fig6.run, seed=0, event_counts=(10, 30, 50))

    # (a) total update cost: LMTF always reduces; P-LMTF reduces at the
    # paper's queue depths of 30+, where opportunistic batching amortizes
    # (at 10 events batching trades a little extra migration for a lot of
    # ECT — a divergence discussed in EXPERIMENTS.md)
    assert mean(result, "lmtf_cost_red%") > 0
    deep = [row for row in result.rows if row["events"] >= 30]
    assert sum(r["plmtf_cost_red%"] for r in deep) / len(deep) > 0
    # (b) average ECT: P-LMTF strongest, LMTF positive
    assert mean(result, "plmtf_avg_ect_red%") > 30
    assert mean(result, "lmtf_avg_ect_red%") > 0
    assert mean(result, "plmtf_avg_ect_red%") > \
        mean(result, "lmtf_avg_ect_red%")
    # (c) tail ECT
    assert mean(result, "plmtf_tail_ect_red%") > 15
    assert mean(result, "plmtf_tail_ect_red%") > \
        mean(result, "lmtf_tail_ect_red%")
    # (d) plan time: the sampling schedulers pay more than FIFO
    for row in result.rows:
        assert row["lmtf_plan_s"] > row["fifo_plan_s"]
        assert row["plmtf_plan_s"] > row["fifo_plan_s"]


def test_fig7_event_types():
    """P-LMTF reduces average and tail ECT for both event types at every
    utilization level, and the benefit does not collapse at high
    utilization (the paper: "almost not affected by the network
    utilization"). Checked over three seeds: the per-seed direction holds
    at every seed, the >10% magnitude on each row's three-seed mean (a
    single seed dips below it: synchronous@0.8 at seed 0, synchronous@0.9
    at seed 1 — EXPERIMENTS.md § Fig. 7 has the per-seed table)."""
    results = [run(fig7.run, seed=seed, events=30) for seed in (0, 1, 2)]

    for result in results:
        for row in result.rows:
            assert row["avg_ect_red%"] > 0, row
            # tail reductions shrink toward zero at very high load; allow
            # small negative noise
            assert row["tail_ect_red%"] >= -5, row
        # robustness across utilization: the benefit shrinks at high load
        # in our model (migration admission gets harder) but never
        # collapses — the heterogeneous avg-ECT reduction stays within ~45
        # points of its low-load value (EXPERIMENTS.md discusses the gap
        # vs the paper's near-flat curves)
        het = {row["target_util"]: row["avg_ect_red%"]
               for row in result.rows
               if row["event_type"] == "heterogeneous"}
        assert abs(het[0.9] - het[0.5]) < 45

    for rows in zip(*(result.rows for result in results)):
        seed_mean = sum(row["avg_ect_red%"] for row in rows) / len(rows)
        assert seed_mean > 10, rows


def test_fig8_queuing_delay():
    """P-LMTF reduces both average and worst-case event queuing delay
    substantially more than LMTF, and both beat FIFO on average."""
    result = run(fig8.run, seed=0, event_counts=(10, 30, 50))

    assert mean(result, "plmtf_avg_qd_red%") > 30
    assert mean(result, "plmtf_worst_qd_red%") > 15
    assert mean(result, "plmtf_avg_qd_red%") > \
        mean(result, "lmtf_avg_qd_red%")
    assert mean(result, "lmtf_avg_qd_red%") > 0


def test_fig9_per_event_delay():
    """A majority of individual events wait no longer under LMTF or P-LMTF
    than under FIFO, and the aggregate waiting time drops — the per-event
    fairness picture, not just the averages. (Per-event waits are noisy
    under background churn; the paper's near-universal per-event wins are
    discussed in EXPERIMENTS.md.)"""
    result = run(fig9.run, seed=0, events=30)

    events = len(result.rows)
    lmtf_better = sum(1 for row in result.rows
                      if row["lmtf_qd_s"] <= row["fifo_qd_s"] + 1e-9)
    plmtf_better = sum(1 for row in result.rows
                       if row["plmtf_qd_s"] <= row["fifo_qd_s"] + 1e-9)
    assert plmtf_better >= 0.55 * events
    assert lmtf_better >= 0.5 * events
    # aggregate delay orders P-LMTF < FIFO
    total = {name: sum(result.column(f"{name}_qd_s"))
             for name in ("fifo", "lmtf", "plmtf")}
    assert total["plmtf"] < total["fifo"]


# ---------------------------------------------------------------- ablations
# Not paper figures: the knobs the paper fixes — α (sample size), the
# P-LMTF admission policy, the migration-set heuristic, and the
# round-barrier reading of the timing model.


def test_alpha_sweep():
    result = run(ablations.alpha_sweep, seed=0, events=30, alphas=(1, 2, 4))
    by_alpha = {row["alpha"]: row for row in result.rows}
    # the paper's power-of-two-choices remark: alpha=2 already captures a
    # solid share of alpha=4's P-LMTF benefit
    assert by_alpha[2]["plmtf_avg_ect_red%"] > 0
    # plan time grows with alpha for LMTF
    assert by_alpha[4]["lmtf_plan_s"] > by_alpha[1]["lmtf_plan_s"]


def test_admission_sweep():
    result = run(ablations.admission_sweep, seed=0, events=30)
    by_mode = {row["admit"]: row for row in result.rows}
    # 'feasible' maximizes parallelism (fewest rounds) but pays in cost
    assert by_mode["feasible"]["rounds"] <= by_mode["free"]["rounds"]
    assert by_mode["feasible"]["cost_red%"] <= by_mode["free"]["cost_red%"]
    # 'shared' admission plans the least (probe-plan reuse)
    assert by_mode["shared"]["plan_s"] <= by_mode["nocontention"]["plan_s"]


def test_migration_strategies():
    result = run(ablations.migration_strategies, seed=0, events=10)
    by_strategy = {row["strategy"]: row for row in result.rows}
    # the paper's minimum-traffic goal: best_fit never migrates more
    # traffic than largest_first
    assert by_strategy["best_fit"]["total_cost"] <= \
        by_strategy["largest_first"]["total_cost"] + 1e-6


def test_barrier_sweep():
    result = run(ablations.barrier_sweep, seed=0, events=30)
    completion = {row["scheduler"]: row for row in result.rows
                  if row["barrier"] == "completion"}
    setup = {row["scheduler"]: row for row in result.rows
             if row["barrier"] == "setup"}
    # the pipelined reading excludes flow transmissions from ECT
    for name in ("fifo", "lmtf", "plmtf"):
        assert setup[name]["avg_ect_s"] < completion[name]["avg_ect_s"]


# --------------------------------------------------------------- robustness
# DESIGN.md §7: topology-agnosticism and oracle baselines.


def test_topology_sweep():
    """P-LMTF keeps a positive average-ECT gain off Fat-Tree."""
    result = run(robustness.topology_sweep, seed=0, events=20,
                 utilization=0.6)
    for row in result.rows:
        assert row["plmtf_avg_ect_red%"] > 0, row
        assert row["plmtf_qd_red%"] > 0, row


def test_oracle_comparison():
    """LMTF is competitive with the perfect-knowledge SJF oracles: its
    cost probes are a live congestion signal, not merely a size proxy."""
    result = run(robustness.oracle_comparison, seed=0, events=30,
                 utilization=0.7)
    by_name = {row["scheduler"]: row for row in result.rows}
    lmtf = by_name["lmtf"]["avg_ect_red%"]
    best_oracle = max(row["avg_ect_red%"] for name, row in by_name.items()
                      if name.startswith("oracle"))
    # LMTF approximates the oracles: within 25 points of the best one and
    # positive in its own right
    assert lmtf > 0
    assert best_oracle - lmtf < 25
