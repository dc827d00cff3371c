"""Integration tests pinning the parallel runner's core guarantee on a
real experiment: ``jobs=N`` is byte-identical to ``jobs=1``.

Uses a tiny ``fig6_with_spread`` configuration (2 trials x 4 events) to
keep the wall-clock cost of the process fan-out acceptable.
"""

import pytest

from repro.experiments import fig5, fig6
from repro.experiments.multiseed import fig6_with_spread


SWEEP = dict(seed=1, events=4, seeds=2)


class TestParallelDeterminism:
    def test_jobs2_matches_jobs1_byte_identical(self):
        sequential = fig6_with_spread(**SWEEP, jobs=1)
        parallel = fig6_with_spread(**SWEEP, jobs=2)
        assert parallel.to_json() == sequential.to_json()

    def test_runner_result_is_stable_across_repeat_calls(self):
        # hermetic cells: a second in-process run in the same (dirty)
        # process produces the same bytes
        first = fig6_with_spread(**SWEEP, jobs=1)
        second = fig6_with_spread(**SWEEP, jobs=1)
        assert first.to_json() == second.to_json()


@pytest.mark.parametrize("figure", [fig5, fig6], ids=["fig5", "fig6"])
def test_rows_depend_on_their_own_spec_only(figure):
    """The bare call equals ``jobs=2``, and a row equals the same row run
    alone: no row depends on ``jobs`` or on the rows before it."""
    grid = dict(seed=0, utilization=0.6)
    bare = figure.run(**grid, event_counts=(6, 8))
    parallel = figure.run(**grid, event_counts=(6, 8), jobs=2)
    alone = figure.run(**grid, event_counts=(8,), jobs=2)
    assert bare.to_json() == parallel.to_json()
    assert bare.rows[1] == alone.rows[0]
