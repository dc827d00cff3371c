"""Unit tests for metric collection and aggregation."""

import operator
from dataclasses import fields

import pytest

from repro.sim import export as export_mod
from repro.sim.hooks import (
    EventAdmitted,
    EventArrived,
    EventCompleted,
    EventDeferred,
    EventDropped,
    HookBus,
    PostRound,
    PreRound,
    StateTransition,
)
from repro.sim.lifecycle import EventState, TransitionRecord
from repro.sim.metrics import (
    EventRecord,
    RUN_COUNTERS,
    MetricsCollector,
    RunMetrics,
    percentile,
)


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


def feed(name="s"):
    """A collector on its own bus, fed the way the pipeline feeds it."""
    bus = HookBus()
    return bus, MetricsCollector(name, bus)


def arrive(bus, event_id, now, flow_count):
    bus.emit(EventArrived(now, event_id, flow_count, "submitted"))


def round_(bus, plan_time, hits=0, misses=0, invalidations=0):
    bus.emit(PreRound(now=0.0, index=0, admitted=(), planning_ops=0,
                      plan_time=plan_time, queue_depth=0, cache_hits=hits,
                      cache_misses=misses,
                      cache_invalidations=invalidations))


def admit(bus, event_id, exec_start, cost=0.0, migrations=0,
          setup_done=None):
    bus.emit(EventAdmitted(
        exec_start, event_id, cost, migrations, flows=1,
        setup_done_time=exec_start if setup_done is None else setup_done))


def complete(bus, event_id, now):
    bus.emit(EventCompleted(now, event_id))


def moves(bus, event_id, *path, at=0.0):
    """Announce ``event_id``'s lifecycle moves along ``path`` (``None``
    first for the registration), as the pipeline does."""
    for frm, to in zip(path, path[1:]):
        bus.emit(StateTransition(TransitionRecord(event_id, frm, to, at)))


QUEUED, PROBED, ADMITTED, EXECUTING = (
    EventState.QUEUED, EventState.PROBED, EventState.ADMITTED,
    EventState.EXECUTING)


class TestCollector:
    def _collect_two_events(self) -> MetricsCollector:
        bus, collector = feed("test-sched")
        arrive(bus, "U1", 0.0, flow_count=2)
        arrive(bus, "U2", 0.0, flow_count=3)
        round_(bus, plan_time=0.1)
        admit(bus, "U1", 1.0, cost=50.0, migrations=2, setup_done=2.0)
        complete(bus, "U1", 5.0)
        round_(bus, plan_time=0.2)
        admit(bus, "U2", 6.0, cost=10.0, migrations=1)
        complete(bus, "U2", 11.0)
        return collector

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
        bus, collector = feed()
        arrive(bus, "U1", 0.0, 1)
        admit(bus, "U1", 3.0)
        admit(bus, "U1", 9.0)  # later rounds don't move it
        assert collector.records["U1"].exec_start_time == 3.0

    def test_admission_accumulates(self):
        bus, collector = feed()
        arrive(bus, "U1", 0.0, 1)
        admit(bus, "U1", 1.0, cost=5.0, migrations=1)
        admit(bus, "U1", 2.0, cost=7.0, migrations=2)
        record = collector.records["U1"]
        assert record.cost == pytest.approx(12.0)
        assert record.migrations == 3

    def test_double_enqueue_rejected(self):
        bus, _ = feed()
        arrive(bus, "U1", 0.0, 1)
        with pytest.raises(ValueError):
            arrive(bus, "U1", 1.0, 1)

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            complete(feed()[0], "ghost", 1.0)

    def test_finalize_requires_completion(self):
        bus, collector = feed()
        arrive(bus, "U1", 0.0, 1)
        assert collector.incomplete_events() == ["U1"]
        with pytest.raises(ValueError, match="never completed"):
            collector.finalize()

    def test_summary_is_one_line(self):
        metrics = self._collect_two_events().finalize()
        assert "\n" not in metrics.summary()
        assert "test-sched" in metrics.summary()

    def test_per_event_series_in_arrival_order(self):
        bus, collector = feed()
        arrive(bus, "late", 5.0, 1)
        arrive(bus, "early", 1.0, 1)
        for eid, start, done in (("late", 6.0, 8.0), ("early", 2.0, 3.0)):
            admit(bus, eid, start)
            complete(bus, eid, done)
        metrics = collector.finalize()
        # "early" arrived first, so it leads the per-event series
        assert metrics.per_event_ect[0] == pytest.approx(2.0)
        assert metrics.per_event_ect[1] == pytest.approx(3.0)


class TestCollectorCheckpointing:
    def build(self):
        """U1 dropped, U2 executing, U3 completed and U4 still queued when
        the one round settles."""
        bus, collector = feed()
        for eid in ("U1", "U2", "U3", "U4"):
            moves(bus, eid, None, QUEUED)
            arrive(bus, eid, 1.0, 2)   # equal arrivals: order ties
        round_(bus, 0.5)
        moves(bus, "U2", QUEUED, PROBED, ADMITTED, EXECUTING)
        moves(bus, "U3", QUEUED, PROBED, ADMITTED, EXECUTING)
        admit(bus, "U3", 1.5, cost=7.0, migrations=1)
        moves(bus, "U3", EXECUTING, EventState.COMPLETED)
        complete(bus, "U3", 4.0)
        moves(bus, "U1", QUEUED, EventState.DEFERRED)
        bus.emit(EventDeferred(4.5, "U1", 1))
        moves(bus, "U1", EventState.DEFERRED, EventState.DROPPED)
        bus.emit(EventDropped(5.0, "U1", stranded_demand=3.0))
        bus.emit(PostRound(5.0, 1))
        return bus, collector

    def test_export_carries_open_records_only(self):
        """Records never reach the export: a closed one leaves through
        ``export_record`` into its terminal journal record, the open ones
        stay in the collector, and the export carries only the counters."""
        _, collector = self.build()
        assert collector.export_state() == {"totals": collector.totals}
        assert collector.records["U4"].rounds_waited == 1
        assert collector.incomplete_events() == ["U2", "U4"]
        assert collector.export_record("U3")["cost"] == 7.0
        assert collector.export_record("U1")["dropped"] is True


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
        bus, collector = feed("test-sched")
        arrive(bus, "U1", 0.0, 2)
        arrive(bus, "U2", 0.1, 3)
        round_(bus, 0.25, hits=3, misses=1, invalidations=1)
        admit(bus, "U1", 1.0, cost=12.5, migrations=2)
        complete(bus, "U1", 2.5)
        admit(bus, "U2", 2.5, cost=0.125, migrations=0)
        complete(bus, "U2", 4.0)
        return collector.finalize()

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
