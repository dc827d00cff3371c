"""Tests for the lifecycle-invariant auditor (:mod:`repro.sim.audit`).

The positive cases prove the auditor stays silent on healthy runs (fault
pipeline included); the desync cases tamper the queue, the event rows, the
round count or the engine mid-run — through a hook subscriber wired
*before* the auditor — and assert the very next ``PostRound`` audit raises
:class:`AuditError` naming the drifted invariant in its machine-readable
diff.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, diamond_setup  # noqa: E402

from repro.core.event import make_event
from repro.core.exceptions import SimulationError
from repro.sched.fifo import FIFOScheduler
from repro.sim.audit import AuditError, LifecycleAuditor
from repro.sim.hooks import PostRound
from repro.sim.lifecycle import EventState
from repro.sim.simulator import SimulationConfig, UpdateSimulator


def simple_events(count=3, demand=10.0, duration=2.0):
    return [make_event([ab_flow(f"e{i}f{j}", demand, duration)
                        for j in range(2)], label=f"e{i}")
            for i in range(count)]


def build_simulator(events=None, audit=None, config=None):
    net, provider = diamond_setup()
    sim = UpdateSimulator(net, provider, FIFOScheduler(),
                          config=config or SimulationConfig(
                              verify_invariants=True),
                          audit=audit)
    sim.submit(events if events is not None else simple_events())
    return sim


class _Tamper:
    """Hook plugin corrupting state on the ``at_round``-th PostRound.

    Attached *before* the auditor so the corruption is visible to the
    audit of the same round.
    """

    def __init__(self, corrupt, at_round=1):
        self._corrupt = corrupt
        self._at_round = at_round

    def attach(self, sim):
        self._sim = sim
        sim.hooks.subscribe(PostRound, self._on_post_round)

    def _on_post_round(self, hook):
        if hook.index == self._at_round:
            self._corrupt(self._sim)


def run_tampered(corrupt, at_round=1):
    """Run a sim with ``corrupt`` applied just before the ``at_round``-th
    audit."""
    sim = build_simulator()
    sim.attach(_Tamper(corrupt, at_round))
    auditor = LifecycleAuditor()
    sim.attach(auditor)
    with pytest.raises(AuditError) as excinfo:
        sim.run()
    return excinfo.value


class TestCleanRuns:
    def test_auditor_silent_on_clean_run(self):
        sim = build_simulator()
        auditor = LifecycleAuditor()
        sim.attach(auditor)
        metrics = sim.run()
        assert metrics.event_count == 3
        assert auditor.audits == metrics.rounds == 3
        auditor.assert_drained()

    def test_audit_kwarg_attaches_auditor(self):
        sim = build_simulator(audit=True)
        assert sim.auditor is not None
        sim.run()
        assert sim.auditor.audits == 3
        sim.auditor.assert_drained()

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert build_simulator().auditor is None

    def test_env_var_enables_audit(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        sim = build_simulator()
        assert sim.auditor is not None
        sim.run()
        assert sim.auditor.audits == 3

    def test_env_var_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert build_simulator().auditor is None

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert build_simulator(audit=False).auditor is None

    def test_every_dilutes_audits(self):
        sim = build_simulator()
        auditor = LifecycleAuditor(every=2)
        sim.attach(auditor)
        sim.run()
        assert auditor.audits == 1  # only round 2 of rounds 1..3

    def test_every_validated(self):
        with pytest.raises(ValueError, match="every"):
            LifecycleAuditor(every=0)

    def test_detached_auditor_raises(self):
        with pytest.raises(SimulationError, match="not attached"):
            LifecycleAuditor().audit()

    def test_audit_identical_schedule(self):
        plain = build_simulator().run()
        audited = build_simulator(audit=True).run()
        assert audited == plain


class TestDesyncDetection:
    def test_waiting_ledger_missing_a_queued_event(self):
        # A lost requeue move: the event is back in the queue, its row
        # still says EXECUTING (the per-state counts still agree).
        seen = []

        def corrupt(sim):
            queued = sim.pipeline.queued_event_ids()
            seen.append(queued[-1])
            sim.lifecycle.row(queued[-1]).state = EventState.EXECUTING
        err = run_tampered(corrupt)
        assert err.diff == {"queued_event_row_state": (
            (seen[0], "executing"), None)}

    def test_waiting_ledger_holding_a_completed_event(self):
        # A completed event's row moved back to QUEUED (counts included):
        # a QUEUED row the queue does not hold.
        def corrupt(sim):
            (done,) = [event_id for event_id, row
                       in sim.metrics_collector.records.items()
                       if row.state is EventState.COMPLETED]
            sim.lifecycle.row(done).state = EventState.QUEUED
            sim.lifecycle._counts[EventState.COMPLETED] -= 1
            sim.lifecycle._counts[EventState.QUEUED] += 1
        err = run_tampered(corrupt, at_round=2)
        assert err.diff == {"queue_depth_vs_queued_rows": (1, 2)}

    def test_queued_row_missing_from_queue(self):
        # A lost queue entry: the row is QUEUED, the queue no longer
        # holds the event.
        def corrupt(sim):
            pipeline = sim.pipeline
            assert pipeline.queue_depth == 2
            pipeline._queue.remove(pipeline._queue[-1])
        err = run_tampered(corrupt)
        assert err.diff == {"queue_depth_vs_queued_rows": (1, 2)}

    def test_lifecycle_count_drift(self):
        # A lost count update: the lifecycle thinks one more event is
        # queued than the pipeline's queue holds.
        def corrupt(sim):
            sim.lifecycle._counts[EventState.QUEUED] += 1
            sim.lifecycle._counts[EventState.EXECUTING] -= 1
        err = run_tampered(corrupt)
        assert "queue_depth_vs_queued_rows" in err.diff

    def test_mid_round_state_leak(self):
        def corrupt(sim):
            sim.lifecycle._counts[EventState.QUEUED] -= 1
            sim.lifecycle._counts[EventState.ADMITTED] += 1
        err = run_tampered(corrupt)
        assert "mid_round_states" in err.diff
        observed, _ = err.diff["mid_round_states"]
        assert observed == {"admitted": 1}

    def test_engine_tombstone_drift(self):
        # The legacy cancel-after-execute bug: pending undercounts the heap.
        err = run_tampered(lambda sim: setattr(
            sim.engine, "_cancelled", sim.engine._cancelled + 1))
        assert "engine_pending_vs_heap_recount" in err.diff

    def test_round_count_drift(self):
        err = run_tampered(lambda sim: sim.metrics_collector.totals.update(
            rounds=sim.metrics_collector.round_count + 1))
        assert "metrics_rounds_vs_round_index" in err.diff

    def test_round_settling_inside_open_trial(self, monkeypatch):
        """A scheduler that opens a network trial and never resolves it
        fails the first audited round under ``REPRO_AUDIT=1``."""
        class LeakyTrialFIFO(FIFOScheduler):
            def select(self, ctx):
                ctx.network.trial()
                return super().select(ctx)

        monkeypatch.setenv("REPRO_AUDIT", "1")
        net, provider = diamond_setup()
        sim = UpdateSimulator(net, provider, LeakyTrialFIFO(),
                              config=SimulationConfig())
        sim.submit(simple_events())
        with pytest.raises(AuditError) as excinfo:
            sim.run()
        assert excinfo.value.diff == {"network_trial_open": (True, False)}
        assert "round 1" in str(excinfo.value)

    def test_error_message_names_all_failures(self):
        def corrupt(sim):
            sim.lifecycle._counts[EventState.QUEUED] += 1
            sim.lifecycle._counts[EventState.EXECUTING] -= 1
            sim.metrics_collector.totals["rounds"] += 1
        err = run_tampered(corrupt)
        assert set(err.diff) == {"queue_depth_vs_queued_rows",
                                 "metrics_rounds_vs_round_index"}
        message = str(err)
        assert "queue_depth_vs_queued_rows" in message
        assert "metrics_rounds_vs_round_index" in message
        assert "round 1" in message

    def drained(self):
        sim = build_simulator()
        auditor = LifecycleAuditor()
        sim.attach(auditor)
        sim.run()
        auditor.assert_drained()
        return sim, auditor

    def test_events_remaining_drift(self):
        # The rows are all terminal, but a lost count update leaves one
        # event "remaining": the drain audit names the count, not a row.
        sim, auditor = self.drained()
        sim.lifecycle._counts[EventState.COMPLETED] -= 1
        with pytest.raises(AuditError) as excinfo:
            auditor.assert_drained()
        assert excinfo.value.diff == {"events_remaining_zero": (1, 0)}

    def test_assert_drained_catches_leftovers(self):
        sim, auditor = self.drained()
        for i in range(5):
            sim.lifecycle.register(f"left{i}", at=sim.now)
        with pytest.raises(AuditError) as excinfo:
            auditor.assert_drained()
        assert excinfo.value.diff["events_remaining_zero"] == (5, 0)
        assert excinfo.value.diff["live_rows"] == (
            [f"left{i}" for i in range(5)], [])
