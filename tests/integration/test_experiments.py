"""Integration: every figure module runs end-to-end at reduced scale.

The paper-scale parameters and shape assertions live in
``test_paper_shapes.py``; here each experiment runs with shrunken sweeps
to prove the figure code paths work and produce well-formed tables, and
the two ablations that carry a contract (``ablation-compile``,
``ablation-learned``) have it asserted.
"""

import pytest

from repro.experiments import FIGURES, fig1, fig2, fig3, fig4, fig5
from repro.experiments import fig6, fig7, fig8, fig9, ablations


class TestToyFigures:
    def test_fig2_exact(self):
        result = fig2.run()
        avg_row = result.rows[-1]
        assert avg_row["event_level_ect"] == pytest.approx(22 / 3)
        assert avg_row["flow_level_ect"] == pytest.approx(32 / 3)

    def test_fig3_exact(self):
        result = fig3.run()
        avg_row = result.rows[-1]
        assert avg_row["fifo_ect"] == pytest.approx(7.0)
        assert avg_row["cost_order_ect"] == pytest.approx(5.0)


class TestSimFiguresSmoke:
    def test_fig1_small(self):
        result = fig1.run(seed=1, probes=40,
                          utilizations=(0.2, 0.6), flow_sizes=(10.0, 50.0))
        assert len(result.rows) == 8  # 2 traces x 2 utils x 2 sizes
        for row in result.rows:
            assert 0.0 <= row["desired_path_success"] <= 1.0
            assert row["any_path_success"] >= row["desired_path_success"]
        # success at low utilization must dominate high utilization
        by_key = {(r["trace"], r["utilization"], r["flow_mbps"]):
                  r["desired_path_success"] for r in result.rows}
        lows = [v for (t, u, s), v in by_key.items() if u <= 0.3]
        highs = [v for (t, u, s), v in by_key.items() if u >= 0.5]
        assert sum(lows) / len(lows) >= sum(highs) / len(highs)

    def test_fig4_small(self):
        result = fig4.run(seed=1, events=4, mean_flows=(10,), jobs=2)
        row = result.rows[0]
        assert row["avg_speedup"] > 1.0
        assert row["flow_avg_norm"] == pytest.approx(1.0)

    def test_fig5_small(self):
        result = fig5.run(seed=1, event_counts=(5,), jobs=2)
        assert result.rows[0]["avg_speedup"] > 1.0

    def test_fig6_small(self):
        result = fig6.run(seed=1, event_counts=(8,), jobs=2)
        row = result.rows[0]
        assert row["fifo_plan_s"] < row["lmtf_plan_s"]
        assert row["plmtf_avg_ect_red%"] > 0

    def test_fig7_small(self):
        result = fig7.run(seed=1, events=8, utilizations=(0.6,),
                          jobs=2)
        assert len(result.rows) == 2  # heterogeneous + synchronous
        for row in result.rows:
            assert row["avg_ect_red%"] > 0

    def test_fig8_small(self):
        result = fig8.run(seed=1, event_counts=(8,), jobs=2)
        assert result.rows[0]["plmtf_avg_qd_red%"] > 0

    def test_fig9_small(self):
        result = fig9.run(seed=1, events=8, jobs=2)
        assert len(result.rows) == 8
        assert result.notes


class TestAblationsSmoke:
    def test_alpha_sweep(self):
        result = ablations.alpha_sweep(seed=1, events=8, alphas=(1, 2),
                                       jobs=2)
        assert [row["alpha"] for row in result.rows] == [1, 2]

    def test_admission_sweep(self):
        result = ablations.admission_sweep(seed=1, events=8,
                                           modes=("shared", "feasible"),
                                           jobs=2)
        assert len(result.rows) == 2

    def test_migration_strategies(self):
        result = ablations.migration_strategies(seed=1, events=4)
        assert {row["strategy"] for row in result.rows} == \
            {"best_fit", "smallest_first", "largest_first"}

    def test_barrier_sweep(self):
        result = ablations.barrier_sweep(seed=1, events=6, jobs=2)
        assert len(result.rows) == 6  # 2 barriers x 3 schedulers

    def test_consistency_rate(self):
        result = ablations.consistency_rate(seed=1, events=4,
                                            utilizations=(0.5,))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["sequential_safe%"] == 100.0
        assert 0.0 <= row["one_shot_safe%"] <= 100.0

    def test_rule_budget_sweep(self):
        result = ablations.rule_budget_sweep(seed=1,
                                             budgets=(None, 60))
        assert len(result.rows) == 2
        unlimited, tight = result.rows
        assert tight["bg_flows_placed"] <= unlimited["bg_flows_placed"]
        assert tight["probe_success%"] <= unlimited["probe_success%"]


class TestCompileContract:
    """What plan compilation promises, on a small audited
    ``ablation-compile`` grid with one worker process per cell."""

    @pytest.fixture(scope="class")
    def rows(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_AUDIT", "1")
            result = ablations.compile_sweep(
                events=10, utilization=0.85, epsilons=(0.1,),
                schedulers=("lmtf", "staged-lmtf"), jobs=2)
        assert len(result.rows) == 6  # 3 modes x 2 schedulers
        return result.rows

    def test_atomic_plans_are_single_stage(self, rows):
        for row in rows:
            if row["mode"] == "atomic":
                assert row["max_stage"] == 1, row

    def test_staged_never_overloads(self, rows):
        for row in rows:
            if row["mode"] == "staged":
                assert row["overload"] == 0.0, row

    def test_augmented_overload_within_epsilon(self, rows):
        for row in rows:
            if row["mode"] == "augmented":
                assert row["overload"] <= row["epsilon"] + 1e-9, row

    def test_exact_scheduler_cost_equals_its_atomic_cost(self, rows):
        for row in rows:
            if row["scheduler"] == "lmtf":
                assert row["cost_delta"] == pytest.approx(
                    0.0, abs=1e-6 * max(1.0, row["total_cost"])), row

    def test_augmented_no_longer_than_staged(self, rows):
        stages = {(row["mode"], row["scheduler"]): row["stages"]
                  for row in rows}
        for name in ("lmtf", "staged-lmtf"):
            assert stages["augmented", name] <= stages["staged", name]


class TestLearnedContract:
    def test_trimmed_probing_keeps_cost_within_five_percent(self):
        result = ablations.learned_sweep(events=12, budgets=(1, 2),
                                         thresholds=(2.0,))
        headline = [row for row in result.rows if row["budget"] == 2]
        assert [row["queue"] for row in headline] == ["static", "churning"]
        for row in headline:
            assert row["cost_delta_pct"] <= 5.0, row
            assert row["probes_skipped"] > 0, row


class TestRegistry:
    def test_every_figure_registered(self):
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                     "fig7", "fig8", "fig9"):
            assert name in FIGURES

    def test_tables_render(self):
        table = fig2.run().to_table()
        assert "fig2" in table
