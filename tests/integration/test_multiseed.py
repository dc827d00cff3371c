"""Integration: the multi-seed statistical experiment."""

import pytest

from repro.experiments.multiseed import METRICS, fig6_with_spread


class TestFig6WithSpread:
    def test_small_run(self):
        result = fig6_with_spread(seed=1, events=5, seeds=2, jobs=2)
        # 2 schedulers x len(METRICS) rows
        assert len(result.rows) == 2 * len(METRICS)
        for row in result.rows:
            assert row["ci95_low%"] <= row["reduction_mean%"] \
                <= row["ci95_high%"]
            assert row["reduction_stdev"] >= 0

    def test_single_seed_has_zero_spread(self):
        result = fig6_with_spread(seed=1, events=5, seeds=1, jobs=2)
        assert all(row["reduction_stdev"] == 0 for row in result.rows)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            fig6_with_spread(seeds=0)

    def test_registered(self):
        from repro.experiments import FIGURES
        assert "fig6-stats" in FIGURES
