"""Tests for the lifecycle-invariant auditor (:mod:`repro.sim.audit`).

The positive cases prove the auditor stays silent on healthy runs (fault
pipeline included); the desync cases tamper one ledger mid-run — through a
hook subscriber wired *before* the auditor — and assert the very next
``PostRound`` audit raises :class:`AuditError` naming the drifted invariant
in its machine-readable diff.
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
    """Hook plugin corrupting one ledger on the first PostRound.

    Attached *before* the auditor so the corruption is visible to the
    audit of the same round.
    """

    def __init__(self, corrupt):
        self._corrupt = corrupt
        self._done = False

    def attach(self, sim):
        self._sim = sim
        sim.hooks.subscribe(PostRound, self._on_post_round)

    def _on_post_round(self, hook):
        if not self._done:
            self._done = True
            self._corrupt(self._sim)


def run_tampered(corrupt):
    """Run a sim with ``corrupt`` applied just before the first audit."""
    sim = build_simulator()
    sim.attach(_Tamper(corrupt))
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
    def test_events_remaining_drift(self):
        err = run_tampered(lambda sim: setattr(
            sim.pipeline, "_events_remaining",
            sim.pipeline.events_remaining + 1))
        assert "events_remaining_vs_lifecycle_live" in err.diff
        observed, expected = err.diff["events_remaining_vs_lifecycle_live"]
        assert observed == expected + 1

    def test_lifecycle_count_drift(self):
        # A lost transition: the lifecycle thinks one more event is queued
        # than the pipeline's queue holds.
        def corrupt(sim):
            sim.lifecycle._counts[EventState.QUEUED] += 1
            sim.lifecycle._counts[EventState.EXECUTING] -= 1
        err = run_tampered(corrupt)
        assert "queue_depth_vs_lifecycle_queued" in err.diff

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

    def test_metrics_record_drift(self):
        err = run_tampered(
            lambda sim: sim.metrics_collector._records.pop(
                next(iter(sim.metrics_collector._records))))
        assert "metrics_records_vs_lifecycle_registered" in err.diff

    def test_round_count_drift(self):
        err = run_tampered(lambda sim: sim.metrics_collector.totals.update(
            rounds=sim.metrics_collector.round_count + 1))
        assert "metrics_rounds_vs_round_index" in err.diff

    def test_error_message_names_all_failures(self):
        def corrupt(sim):
            sim.pipeline._events_remaining += 1
            sim.metrics_collector.totals["rounds"] += 1
        err = run_tampered(corrupt)
        assert set(err.diff) == {"events_remaining_vs_lifecycle_live",
                                 "metrics_rounds_vs_round_index"}
        message = str(err)
        assert "events_remaining_vs_lifecycle_live" in message
        assert "metrics_rounds_vs_round_index" in message
        assert "round 1" in message

    def test_assert_drained_catches_leftovers(self):
        sim = build_simulator()
        auditor = LifecycleAuditor()
        sim.attach(auditor)
        sim.run()
        sim.pipeline._events_remaining = 5
        with pytest.raises(AuditError) as excinfo:
            auditor.assert_drained()
        assert excinfo.value.diff["events_remaining_zero"] == (5, 0)
