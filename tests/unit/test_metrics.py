"""Unit tests for metric collection and aggregation."""

import pytest

from repro.sim.metrics import (
    EventRecord,
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


class TestCollector:
    def _collect_two_events(self) -> MetricsCollector:
        collector = MetricsCollector("test-sched")
        collector.on_enqueue("U1", 0.0, flow_count=2)
        collector.on_enqueue("U2", 0.0, flow_count=3)
        collector.on_round(plan_time=0.1)
        collector.on_exec_start("U1", 1.0)
        collector.on_admission("U1", cost=50.0, migrations=2)
        collector.on_setup_done("U1", 2.0)
        collector.on_completion("U1", 5.0)
        collector.on_round(plan_time=0.2)
        collector.on_exec_start("U2", 6.0)
        collector.on_admission("U2", cost=10.0, migrations=1)
        collector.on_completion("U2", 11.0)
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
        collector = MetricsCollector("s")
        collector.on_enqueue("U1", 0.0, 1)
        collector.on_exec_start("U1", 3.0)
        collector.on_exec_start("U1", 9.0)  # later rounds don't move it
        assert collector.records["U1"].exec_start_time == 3.0

    def test_admission_accumulates(self):
        collector = MetricsCollector("s")
        collector.on_enqueue("U1", 0.0, 1)
        collector.on_admission("U1", cost=5.0, migrations=1)
        collector.on_admission("U1", cost=7.0, migrations=2)
        record = collector.records["U1"]
        assert record.cost == pytest.approx(12.0)
        assert record.migrations == 3

    def test_double_enqueue_rejected(self):
        collector = MetricsCollector("s")
        collector.on_enqueue("U1", 0.0, 1)
        with pytest.raises(ValueError):
            collector.on_enqueue("U1", 1.0, 1)

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector("s").on_completion("ghost", 1.0)

    def test_finalize_requires_completion(self):
        collector = MetricsCollector("s")
        collector.on_enqueue("U1", 0.0, 1)
        assert collector.incomplete_events() == ["U1"]
        with pytest.raises(ValueError, match="never completed"):
            collector.finalize()

    def test_summary_is_one_line(self):
        metrics = self._collect_two_events().finalize()
        assert "\n" not in metrics.summary()
        assert "test-sched" in metrics.summary()

    def test_per_event_series_in_arrival_order(self):
        collector = MetricsCollector("s")
        collector.on_enqueue("late", 5.0, 1)
        collector.on_enqueue("early", 1.0, 1)
        for eid, start, done in (("late", 6.0, 8.0), ("early", 2.0, 3.0)):
            collector.on_exec_start(eid, start)
            collector.on_completion(eid, done)
        metrics = collector.finalize()
        # "early" arrived first, so it leads the per-event series
        assert metrics.per_event_ect[0] == pytest.approx(2.0)
        assert metrics.per_event_ect[1] == pytest.approx(3.0)


class TestCollectorCheckpointing:
    def build(self):
        collector = MetricsCollector("s")
        for eid in ("U1", "U2", "U3", "U4"):
            collector.on_enqueue(eid, 1.0, 2)   # equal arrivals: order ties
        collector.on_round(0.5)
        collector.on_exec_start("U3", 1.5)
        collector.on_admission("U3", 7.0, 1)
        collector.on_completion("U3", 4.0)
        collector.on_deferral("U1")
        collector.on_drop("U1", 5.0, stranded_demand=3.0)
        collector.on_wait("U4")
        return collector

    def test_export_carries_open_records_only(self):
        collector = self.build()
        state = collector.export_state()
        assert [r["event_id"] for r in state["records"]] == ["U2", "U4"]
        assert state["records"][1]["rounds_waited"] == 1
        assert state["completed"] == 1 and state["dropped"] == 1
        assert collector.incomplete_events() == ["U2", "U4"]
        assert collector.export_record("U3")["cost"] == 7.0
        assert collector.export_record("U1")["dropped"] is True

    def test_restore_rebuilds_registration_order(self):
        collector = self.build()
        settled = [{"index": index, "record": collector.export_record(eid)}
                   for index, eid in ((2, "U3"), (0, "U1"))]
        restored = MetricsCollector("s")
        restored.restore_state(collector.export_state(), settled)
        assert (list(restored.records.items())
                == list(collector.records.items()))
        assert restored.incomplete_events() == ["U2", "U4"]
        for each in (collector, restored):
            for eid in ("U2", "U4"):
                each.on_exec_start(eid, 2.0)
                each.on_completion(eid, 6.0)
        assert restored.finalize() == collector.finalize()


class TestRunMetricsSerialization:
    def _metrics(self):
        collector = MetricsCollector("test-sched")
        collector.on_enqueue("U1", 0.0, 2)
        collector.on_enqueue("U2", 0.1, 3)
        collector.on_round(0.25, cache_hits=3, cache_misses=1,
                           cache_invalidations=1)
        collector.on_exec_start("U1", 1.0)
        collector.on_admission("U1", cost=12.5, migrations=2)
        collector.on_completion("U1", 2.5)
        collector.on_exec_start("U2", 2.5)
        collector.on_admission("U2", cost=0.125, migrations=0)
        collector.on_completion("U2", 4.0)
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
