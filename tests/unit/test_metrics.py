"""Unit tests for metric collection and aggregation."""

import operator
from dataclasses import fields, replace

import pytest

from repro.experiments.common import DEFAULTS, Scenario
from repro.experiments.runner import hermetic_ids
from repro.sched import build_scheduler
from repro.sim import export as export_mod
from repro.sim.hooks import (
    EventAdmitted,
    EventArrived,
    EventCompleted,
    HookBus,
    PreRound,
)
from repro.sim.lifecycle import (
    EventLifecycle,
    EventState,
    IllegalTransitionError,
)
from repro.sim.metrics import (
    EventRecord,
    RUN_COUNTERS,
    MetricsCollector,
    RunMetrics,
    percentile,
)
from repro.traces.events import EventGeneratorConfig


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_max(self):
        assert percentile([5.0, 1.0, 3.0], 100) == 5.0

    def test_p95_of_hundred(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 95) == 95.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150)


class TestEventRecord:
    def test_ect_and_delay(self):
        record = EventRecord(event_id="U1", arrival_time=10.0, flow_count=3,
                             exec_start_time=15.0, completion_time=30.0)
        assert record.ect == 20.0
        assert record.queuing_delay == 5.0

    def test_incomplete_raises(self):
        record = EventRecord(event_id="U1", arrival_time=0.0, flow_count=1)
        with pytest.raises(ValueError):
            __ = record.ect
        with pytest.raises(ValueError):
            __ = record.queuing_delay


PROBED, ADMITTED, EXECUTING = (
    EventState.PROBED, EventState.ADMITTED, EventState.EXECUTING)


class Feed:
    """A collector over its own bus and lifecycle, fed the way the
    pipeline feeds them: each row is written before its hook goes out."""

    def __init__(self, name="s"):
        self.bus = HookBus()
        self.lifecycle = EventLifecycle()
        self.collector = MetricsCollector(name, self.bus, self.lifecycle)

    def arrive(self, event_id, now, flow_count):
        self.lifecycle.register(event_id, now, flow_count=flow_count)
        self.bus.emit(EventArrived(now, event_id, flow_count, "submitted"))

    def round_(self, plan_time, hits=0, misses=0, invalidations=0):
        self.bus.emit(PreRound(
            now=0.0, index=0, admitted=(), planning_ops=0,
            plan_time=plan_time, queue_depth=0, cache_hits=hits,
            cache_misses=misses, cache_invalidations=invalidations))

    def admit(self, event_id, exec_start, cost=0.0, migrations=0,
              setup_done=None):
        """Admit the whole event and charge its one admission."""
        for state in (PROBED, ADMITTED, EXECUTING):
            row = self.lifecycle.advance(event_id, state, exec_start)
        row.exec_start_time = exec_start
        row.cost, row.migrations = cost, migrations
        row.setup_done_time = (exec_start if setup_done is None
                               else setup_done)
        self.bus.emit(EventAdmitted(exec_start, event_id, cost, migrations,
                                    flows=1,
                                    setup_done_time=row.setup_done_time))

    def complete(self, event_id, now):
        self.lifecycle.advance(event_id, EventState.COMPLETED, now)
        self.bus.emit(EventCompleted(now, event_id))


def flow_level_run():
    """A drained flow-level run on a loaded k=4 fat-tree, whose events are
    admitted across several rounds; returns ``(records, admissions)``
    with every event's ``EventAdmitted`` hooks in emission order."""
    with hermetic_ids():
        scenario = Scenario(
            utilization=0.5, seed=1, events=20, churn=False,
            event_config=EventGeneratorConfig(min_flows=2, max_flows=4),
            defaults=replace(DEFAULTS, k=4))
        sim = scenario.simulator(build_scheduler({"kind": "flow-level"}))
        admissions = {}
        sim.hooks.subscribe(EventAdmitted, lambda hook: admissions.setdefault(
            hook.event_id, []).append(hook))
        sim.submit(scenario.generate_events())
        sim.run()
    return sim.metrics_collector.records, admissions


class TestCollector:
    def _collect_two_events(self) -> MetricsCollector:
        feed = Feed("test-sched")
        feed.arrive("U1", 0.0, flow_count=2)
        feed.arrive("U2", 0.0, flow_count=3)
        feed.round_(plan_time=0.1)
        feed.admit("U1", 1.0, cost=50.0, migrations=2, setup_done=2.0)
        feed.complete("U1", 5.0)
        feed.round_(plan_time=0.2)
        feed.admit("U2", 6.0, cost=10.0, migrations=1)
        feed.complete("U2", 11.0)
        return feed.collector

    def test_finalize_aggregates(self):
        metrics = self._collect_two_events().finalize()
        assert metrics.event_count == 2
        assert metrics.total_cost == pytest.approx(60.0)
        assert metrics.total_migrations == 3
        assert metrics.average_ect == pytest.approx((5.0 + 11.0) / 2)
        assert metrics.tail_ect == pytest.approx(11.0)
        assert metrics.average_queuing_delay == pytest.approx((1 + 6) / 2)
        assert metrics.worst_queuing_delay == pytest.approx(6.0)
        assert metrics.total_plan_time == pytest.approx(0.3)
        assert metrics.rounds == 2
        assert metrics.makespan == pytest.approx(11.0)
        assert metrics.scheduler == "test-sched"

    def test_exec_start_idempotent(self):
        """Only an event's first admission sets its execution start."""
        records, admissions = flow_level_run()
        assert max(len(hooks) for hooks in admissions.values()) > 1
        for event_id, hooks in admissions.items():
            assert records[event_id].exec_start_time == hooks[0].exec_start

    def test_admission_accumulates(self):
        """Cost, migrations and stages sum over an event's admissions;
        the setup-done time is the last one's."""
        records, admissions = flow_level_run()
        for event_id, hooks in admissions.items():
            record, cost = records[event_id], 0.0
            for hook in hooks:
                cost += hook.cost
            assert record.cost == cost
            assert record.migrations == sum(h.migrations for h in hooks)
            assert record.stage_count == sum(h.stage_count for h in hooks)
            assert record.setup_done_time == hooks[-1].setup_done_time
        assert sum(r.migrations for r in records.values()) > 0

    def test_double_enqueue_rejected(self):
        feed = Feed()
        feed.arrive("U1", 0.0, 1)
        with pytest.raises(IllegalTransitionError, match="twice"):
            feed.arrive("U1", 1.0, 1)

    def test_unknown_event_rejected(self):
        with pytest.raises(IllegalTransitionError, match="unknown"):
            Feed().complete("ghost", 1.0)

    def test_finalize_requires_completion(self):
        feed = Feed()
        feed.arrive("U1", 0.0, 1)
        assert feed.collector.incomplete_events() == ["U1"]
        with pytest.raises(ValueError, match="never completed"):
            feed.collector.finalize()

    def test_summary_is_one_line(self):
        metrics = self._collect_two_events().finalize()
        assert "\n" not in metrics.summary()
        assert "test-sched" in metrics.summary()

    def test_per_event_series_in_arrival_order(self):
        feed = Feed()
        feed.arrive("late", 5.0, 1)
        feed.arrive("early", 1.0, 1)
        for eid, start, done in (("late", 6.0, 8.0), ("early", 2.0, 3.0)):
            feed.admit(eid, start)
            feed.complete(eid, done)
        metrics = feed.collector.finalize()
        # "early" arrived first, so it leads the per-event series
        assert metrics.per_event_ect[0] == pytest.approx(2.0)
        assert metrics.per_event_ect[1] == pytest.approx(3.0)


class TestCollectorCheckpointing:
    def build(self):
        """U1 dropped, U2 executing, U3 completed and U4 still queued when
        the one round settles."""
        feed = Feed()
        lifecycle = feed.lifecycle
        for eid in ("U1", "U2", "U3", "U4"):
            feed.arrive(eid, 1.0, 2)   # equal arrivals: order ties
        feed.round_(0.5)
        for state in (PROBED, ADMITTED, EXECUTING):
            lifecycle.advance("U2", state, 1.5)
        feed.admit("U3", 1.5, cost=7.0, migrations=1)
        feed.complete("U3", 4.0)
        lifecycle.advance("U1", EventState.DEFERRED, 4.5).deferrals += 1
        lifecycle.advance("U1", EventState.DROPPED, 5.0)
        lifecycle.settle_round()
        return feed.collector

    def test_export_carries_open_records_only(self):
        """Records never reach the export: a closed one leaves through
        ``export_record`` into its terminal journal record, the open ones
        stay on the lifecycle, and the export carries only the counters."""
        collector = self.build()
        assert collector.export_state() == {"totals": collector.totals}
        assert collector.records["U4"].rounds_waited == 1
        assert collector.incomplete_events() == ["U2", "U4"]
        assert collector.export_record("U3")["cost"] == 7.0
        dropped = collector.export_record("U1")
        assert dropped["dropped"] is True and dropped["deferrals"] == 1
        assert list(dropped) == [
            "event_id", "arrival_time", "flow_count", "exec_start_time",
            "setup_done_time", "completion_time", "cost", "migrations",
            "rounds_waited", "deferrals", "dropped", "stage_count",
            "max_transient_overload"]
        assert (collector.completed_count, collector.dropped_count,
                collector.record_count) == (1, 1, 4)


class TestRunCounterDeclarations:
    """A typo in a declaration fails here, not at the first emission."""

    #: RunMetrics fields ``finalize()`` computes from the event records.
    FROM_RECORDS = {
        "scheduler", "event_count", "total_cost", "total_migrations",
        "average_ect", "tail_ect", "p95_ect", "p99_ect",
        "average_queuing_delay", "worst_queuing_delay", "makespan",
        "per_event_ect", "per_event_delay", "per_event_cost",
        "per_event_stages", "dropped_events"}

    def test_names_unique_and_reads_name_payload_fields(self):
        names = [counter.name for counter in RUN_COUNTERS]
        assert len(names) == len(set(names))
        for counter in RUN_COUNTERS:
            assert counter.fold in (operator.add, max), counter.name
            assert type(counter.zero) in (int, float), counter.name
            if counter.read is not None:
                assert counter.read in {
                    f.name for f in fields(counter.hook)}, counter.name

    def test_every_summary_counter_is_declared_with_its_type(self):
        zeros = {counter.name: counter.zero for counter in RUN_COUNTERS}
        for field in fields(RunMetrics):
            if field.name not in self.FROM_RECORDS:
                assert type(zeros[field.name]).__name__ == field.type, \
                    field.name

    def test_every_exporter_source_resolves(self):
        zeros = {counter.name: counter.zero for counter in RUN_COUNTERS}
        for name, _, source in export_mod._COUNTERS:
            if isinstance(source, str):
                # Scraped counters are integral.
                assert type(zeros[source]) is int, name
            else:
                assert source is None or callable(source), name


class TestRunMetricsSerialization:
    def _metrics(self):
        feed = Feed("test-sched")
        feed.arrive("U1", 0.0, 2)
        feed.arrive("U2", 0.1, 3)
        feed.round_(0.25, hits=3, misses=1, invalidations=1)
        feed.admit("U1", 1.0, cost=12.5, migrations=2)
        feed.complete("U1", 2.5)
        feed.admit("U2", 2.5, cost=0.125, migrations=0)
        feed.complete("U2", 4.0)
        return feed.collector.finalize()

    def test_summary_reports_cost_as_volume(self):
        summary = self._metrics().summary()
        # total_cost is migrated traffic volume (Mbit), not a rate
        assert "Mbit " in summary or summary.rstrip().endswith("Mbit")
        assert "Mbps" not in summary
        assert "Mbit/s" not in summary

    def test_from_dict_is_exact_inverse_of_to_dict(self):
        import json
        metrics = self._metrics()
        assert RunMetrics.from_dict(metrics.to_dict()) == metrics
        # and exact through a JSON round-trip (repr-based float encoding)
        rebuilt = RunMetrics.from_dict(json.loads(
            json.dumps(metrics.to_dict())))
        assert rebuilt == metrics
        assert rebuilt.total_cost == metrics.total_cost
        assert rebuilt.per_event_ect == metrics.per_event_ect

    def test_to_dict_hit_rate_is_derived_not_stored(self):
        metrics = self._metrics()
        payload = metrics.to_dict()
        assert payload["probe_cache_hit_rate"] == pytest.approx(0.75)
        rebuilt = RunMetrics.from_dict(payload)
        assert rebuilt.probe_cache_hit_rate == pytest.approx(0.75)
