"""Integration tests pinning the parallel runner's core guarantees on a
real experiment: ``jobs=N`` is byte-identical to ``jobs=1``, and a resumed
sweep recomputes only what the checkpoint lost.

Uses a tiny ``fig6_with_spread`` configuration (2 trials x 4 events) to
keep the wall-clock cost of the process fan-out acceptable.
"""

import json

import pytest

from repro.experiments import fig5, fig6
from repro.experiments.multiseed import fig6_with_spread
from repro.experiments.runner import SweepListener


class Recorder(SweepListener):
    def __init__(self):
        self.started = []
        self.resumed = []

    def on_cell_start(self, key, attempt):
        self.started.append(key)

    def on_cell_resumed(self, key):
        self.resumed.append(key)


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


class TestCheckpointResume:
    def test_resume_recomputes_only_lost_cells(self, tmp_path):
        ck = tmp_path / "fig6.jsonl"
        reference = fig6_with_spread(**SWEEP, jobs=2, checkpoint=ck)
        lines = ck.read_text().splitlines()
        assert len(lines) == 6  # 2 trials x 3 schedulers

        # simulate a kill mid-append: last full record lost, torn tail left
        ck.write_text("\n".join(lines[:-1]) + '\n{"key": "torn...\n')
        lost_key = json.loads(lines[-1])["key"]

        listener = Recorder()
        with pytest.warns(RuntimeWarning, match="malformed"):
            resumed = fig6_with_spread(**SWEEP, jobs=1, checkpoint=ck,
                                       resume=True, listener=listener)
        assert resumed.to_json() == reference.to_json()
        assert listener.started == [lost_key]
        assert len(listener.resumed) == 5

    def test_full_checkpoint_resumes_without_any_recompute(self, tmp_path):
        ck = tmp_path / "fig6.jsonl"
        reference = fig6_with_spread(**SWEEP, jobs=2, checkpoint=ck)
        listener = Recorder()
        resumed = fig6_with_spread(**SWEEP, jobs=2, checkpoint=ck,
                                   resume=True, listener=listener)
        assert resumed.to_json() == reference.to_json()
        assert listener.started == []
        assert len(listener.resumed) == 6

    def test_changed_sweep_params_invalidate_checkpoint(self, tmp_path):
        ck = tmp_path / "fig6.jsonl"
        fig6_with_spread(**SWEEP, jobs=1, checkpoint=ck)
        listener = Recorder()
        # different alpha -> different cell fingerprints for lmtf/plmtf
        fig6_with_spread(**SWEEP, alpha=2, jobs=1, checkpoint=ck,
                         resume=True, listener=listener)
        # fifo cells are alpha-independent and stay cached
        assert len(listener.resumed) == 2
        assert len(listener.started) == 4
