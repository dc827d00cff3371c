"""Tests for service mode: streams, backpressure, snapshots, exporters.

Runs on the small diamond network (no Fat-Tree background load) so the
whole suite stays fast; the integration smoke test exercises the full
``repro serve`` CLI path on a real scenario.
"""

import json
import sys
from hashlib import sha256
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, diamond_setup  # noqa: E402

from repro.core.event import event_id_state, make_event, set_event_id_state
from repro.core.exceptions import SimulationError
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.core.ioutil import fingerprinted_json, payload_fingerprint
from repro.sched.fifo import FIFOScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sim.export import CounterExporter, StatsLine
from repro.sim.service import (
    ServiceConfig,
    ServiceReport,
    SimulationService,
)
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.traces.arrivals import (
    STREAM_KINDS,
    SyntheticTrace,
    make_stream,
    replayed_stream,
)
from repro.traces.events import EventGenerator, EventGeneratorConfig

DIAMOND_HOSTS = ("a", "b", "c", "d", "e", "f")


def fresh_ids():
    set_flow_id_state(0)
    set_event_id_state(0)


@pytest.fixture(autouse=True)
def _hermetic_ids():
    """Pin the global id counters so streamed flows are reproducible and
    cannot collide with ids minted by other tests."""
    saved = (flow_id_state(), event_id_state())
    fresh_ids()
    yield
    set_flow_id_state(saved[0])
    set_event_id_state(saved[1])


def build_sim(max_deferrals=None, config=None, audit=None):
    net, provider = diamond_setup()
    return UpdateSimulator(
        net, provider, FIFOScheduler(),
        config=config or SimulationConfig(verify_invariants=True,
                                          max_deferrals=max_deferrals),
        audit=audit)


def diamond_stream(rate=1.0, seed=3, min_flows=1, max_flows=3,
                   demand_range=(2.0, 10.0)):
    trace = SyntheticTrace(DIAMOND_HOSTS, seed=seed,
                           demand_range=demand_range)
    generator = EventGenerator(
        trace, config=EventGeneratorConfig(min_flows=min_flows,
                                           max_flows=max_flows),
        seed=seed + 1)
    return generator.stream(rate)


class TestServiceConfig:
    def test_watermarks_validated(self):
        with pytest.raises(ValueError, match="resume_depth"):
            ServiceConfig(queue_cap=4, resume_depth=4)
        with pytest.raises(ValueError, match="queue_cap"):
            ServiceConfig(queue_cap=0)

    def test_snapshots_need_a_dir(self):
        with pytest.raises(ValueError, match="snapshot_dir"):
            ServiceConfig(snapshot_every=5.0)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_events"):
            ServiceConfig(max_events=-1)
        with pytest.raises(ValueError, match="horizon"):
            ServiceConfig(horizon=-1.0)

    def test_service_revalidates_duck_typed_watermarks(self):
        """Equal watermarks must be rejected at service construction.

        ``ServiceConfig.__post_init__`` validates the pair, but the
        service accepts any config-shaped object; with
        ``resume_depth == queue_cap`` the backpressure hysteresis
        collapses (every round releases the held arrival while the
        queue still sits at the cap), so the service itself must
        re-assert the ordering instead of trusting the object's type.
        """
        def smuggled(**overrides):
            config = ServiceConfig()
            for name, value in overrides.items():
                object.__setattr__(config, name, value)
            return config

        equal = smuggled(queue_cap=8, resume_depth=8)
        with pytest.raises(ValueError, match="resume_depth"):
            SimulationService(build_sim(), diamond_stream(), equal)
        inverted = smuggled(queue_cap=8, resume_depth=9)
        with pytest.raises(ValueError, match="resume_depth"):
            SimulationService(build_sim(), diamond_stream(), inverted)
        zero_cap = smuggled(queue_cap=0, resume_depth=0)
        with pytest.raises(ValueError, match="queue_cap"):
            SimulationService(build_sim(), diamond_stream(), zero_cap)


class TestBoundedServe:
    def test_drains_bounded_stream_with_clean_audit(self):
        service = SimulationService(
            build_sim(), diamond_stream(),
            ServiceConfig(max_events=6, queue_cap=8, resume_depth=2))
        report = service.serve()
        assert isinstance(report, ServiceReport)
        assert report.stopped == "max_events"
        assert report.ingested == 6
        assert report.completed + report.dropped == 6
        assert report.audits == report.rounds > 0
        assert report.counters["events_arrived"] == 6
        assert report.metrics is not None
        assert report.metrics.event_count == report.completed

    def test_finite_stream_reports_stream_stop(self):
        events = [make_event([ab_flow(f"s{i}", 5.0, 1.0)],
                             arrival_time=float(i), label=f"s{i}")
                  for i in range(3)]
        service = SimulationService(build_sim(), replayed_stream(events),
                                    ServiceConfig(queue_cap=8,
                                                  resume_depth=2))
        report = service.serve()
        assert report.stopped == "stream"
        assert report.ingested == 3
        assert report.completed == 3

    def test_horizon_stops_ingestion(self):
        service = SimulationService(
            build_sim(), diamond_stream(rate=1.0),
            ServiceConfig(horizon=3.0, queue_cap=8, resume_depth=2))
        report = service.serve()
        assert report.stopped == "horizon"
        assert report.completed + report.dropped == report.ingested
        # Poisson(1/s) over 3s ingests a few events, never dozens.
        assert 0 <= report.ingested <= 10

    def test_request_stop_drains_gracefully(self):
        sim = build_sim()
        service = SimulationService(sim, diamond_stream(rate=5.0),
                                    ServiceConfig(queue_cap=16,
                                                  resume_depth=4))
        sim.engine.schedule_callback(2.0, service.request_stop,
                                     tag="test:stop")
        report = service.serve()
        assert report.stopped == "signal"
        assert report.completed + report.dropped == report.ingested
        assert sim.pipeline.events_remaining == 0

    def test_serve_is_single_use(self):
        service = SimulationService(build_sim(), diamond_stream(),
                                    ServiceConfig(max_events=1))
        service.serve()
        with pytest.raises(SimulationError, match="already ran"):
            service.serve()

    def test_streaming_replay_matches_batch_run(self):
        # The service's lazy-ingest path must reproduce the batch result
        # bit-for-bit on an identical event list and network.
        events = [make_event([ab_flow(f"r{i}f{j}", 8.0, 1.5)
                              for j in range(2)],
                             arrival_time=0.5 * i, label=f"r{i}")
                  for i in range(4)]
        batch_sim = build_sim()
        batch_sim.submit(events)
        batch = batch_sim.run()
        service = SimulationService(build_sim(), replayed_stream(events),
                                    ServiceConfig(queue_cap=16,
                                                  resume_depth=4))
        report = service.serve()
        assert report.metrics == batch


class TestBackpressure:
    def test_queue_cap_pauses_and_resumes(self):
        # Arrivals far faster than service: the queue hits the cap, the
        # service holds the next arrival, and resumes after drain.
        service = SimulationService(
            build_sim(), diamond_stream(rate=50.0),
            ServiceConfig(max_events=12, queue_cap=3, resume_depth=1))
        report = service.serve()
        assert report.backpressure_pauses >= 1
        assert report.ingested == 12
        assert report.completed + report.dropped == 12

    def test_unplaceable_event_dropped_despite_snapshot_timer(self, tmp_path):
        # A pending snapshot timer hides the stall from the pipeline's
        # pending==0 deadlock check; the snapshot callback must hand the
        # stalled queue back to the pipeline, which defers then drops.
        events = [make_event([ab_flow("fat", 500.0, 1.0)],
                             arrival_time=0.0, label="fat")]
        service = SimulationService(
            build_sim(max_deferrals=1), replayed_stream(events),
            ServiceConfig(queue_cap=4, resume_depth=1,
                          snapshot_every=5.0, snapshot_dir=tmp_path))
        report = service.serve()
        assert report.dropped == 1
        assert report.completed == 0
        assert report.stopped == "stream"


class TestSnapshots:
    def test_snapshot_files_and_fingerprints(self, tmp_path):
        service = SimulationService(
            build_sim(), diamond_stream(rate=2.0),
            ServiceConfig(max_events=8, queue_cap=8, resume_depth=2,
                          snapshot_every=1.0, snapshot_dir=tmp_path))
        report = service.serve()
        assert report.snapshots >= 2  # periodic plus the final one
        lines = (tmp_path / "snapshots.jsonl").read_text().splitlines()
        assert len(lines) == report.snapshots
        for line in lines:
            payload = json.loads(line)
            claimed = payload.pop("fingerprint")
            assert payload_fingerprint(payload) == claimed
        latest = json.loads((tmp_path / "latest.json").read_text())
        assert latest["final"] is True
        assert latest["events_remaining"] == 0
        assert latest["lifecycle"]["completed"] == report.completed
        prom = (tmp_path / "metrics.prom").read_text()
        assert f"repro_events_completed_total {report.completed}" in prom
        assert "# TYPE repro_queue_depth gauge" in prom

    def test_snapshots_are_deterministic(self, tmp_path):
        def one(directory):
            fresh_ids()
            service = SimulationService(
                build_sim(), diamond_stream(rate=2.0),
                ServiceConfig(max_events=5, queue_cap=8, resume_depth=2,
                              snapshot_every=1.0, snapshot_dir=directory))
            service.serve()
            return (directory / "latest.json").read_text()

        first = one(tmp_path / "one")
        second = one(tmp_path / "two")
        assert first == second


class TestExporter:
    def test_namespace_validated(self):
        with pytest.raises(ValueError, match="namespace"):
            CounterExporter(namespace="not-an-identifier")

    def test_counters_accumulate_over_batch_run(self):
        sim = build_sim()
        exporter = CounterExporter()
        sim.attach(exporter)
        sim.submit([make_event([ab_flow(f"x{i}", 5.0, 1.0)],
                               label=f"x{i}") for i in range(3)])
        sim.run()
        counts = exporter.counters
        assert counts["events_arrived"] == 3
        assert counts["events_completed"] == 3
        assert counts["rounds"] == 3
        assert counts["flows_finished"] == 3
        rendered = exporter.render()
        assert "# TYPE repro_events_arrived_total counter" in rendered
        assert "repro_events_completed_total 3" in rendered
        assert "repro_engine_pending 0" in rendered

    def test_plan_stage_counter_tracks_admissions(self):
        # Atomic mode: every admission applies exactly one stage, so the
        # stage counter equals the admission counter.
        sim = build_sim()
        exporter = CounterExporter()
        sim.attach(exporter)
        sim.submit([make_event([ab_flow(f"s{i}", 5.0, 1.0)],
                               label=f"s{i}") for i in range(3)])
        sim.run()
        counts = exporter.counters
        assert counts["admissions"] == 3
        assert counts["plan_stages"] == 3
        rendered = exporter.render()
        assert "repro_plan_stages_total 3" in rendered

    def test_compile_gauges_rendered(self):
        sim = build_sim(config=SimulationConfig(
            verify_invariants=True, compile_mode="augmented",
            compile_epsilon=0.25))
        exporter = CounterExporter()
        sim.attach(exporter)
        sim.submit([make_event([ab_flow("g0", 5.0, 1.0)], label="g0")])
        sim.run()
        rendered = exporter.render()
        assert "# TYPE repro_compile_epsilon gauge" in rendered
        assert "repro_compile_epsilon 0.25" in rendered
        assert "# TYPE repro_max_transient_overload gauge" in rendered
        # Single-flow diamond events never over-subscribe a link.
        assert "repro_max_transient_overload 0.0" in rendered

    def test_exposition_and_summary_bytes_are_pinned(self):
        """``metrics.prom`` and the ``RunMetrics`` JSON of one small LMTF
        run, byte for byte. Both hashes were taken at the commit before
        the exporter became a reader of the run ledger."""
        net, provider = diamond_setup()
        sim = UpdateSimulator(
            net, provider, LMTFScheduler(alpha=2, seed=5),
            config=SimulationConfig(verify_invariants=True))
        exporter = CounterExporter()
        sim.attach(exporter)
        sim.submit([make_event([ab_flow(f"p{i}", 5.0, 1.0)],
                               label=f"p{i}") for i in range(6)])
        summary = json.dumps(sim.run().to_dict())
        assert sha256(exporter.render().encode()).hexdigest() == (
            "5f1ca158b7181a6f83a016ca063c656d"
            "3ad1113125f24dc8c81b3bead8198987")
        assert sha256(summary.encode()).hexdigest() == (
            "048931c4ffa2a268dcbdf03f9191ac5e"
            "10def60b1aa1d756b75547e134d7eb6c")

    def test_unknown_external_reader_rejected(self):
        with pytest.raises(ValueError, match="externally owned"):
            CounterExporter(readers={"restart": lambda: 1})

    def test_help_text_escaped_per_exposition_format(self, monkeypatch):
        """``# HELP`` lines must escape ``\\`` and newlines, not write
        them verbatim — a raw newline tears the line-oriented exposition
        into an unparseable tail line."""
        from repro.sim import export as export_mod

        monkeypatch.setattr(
            export_mod, "_COUNTERS",
            (("events_arrived", "line one\nline two \\ backslash",
              "admissions"),))
        exporter = CounterExporter()
        rendered = exporter.render()
        help_lines = [line for line in rendered.splitlines()
                      if line.startswith("# HELP")]
        assert help_lines == [
            "# HELP repro_events_arrived_total "
            "line one\\nline two \\\\ backslash"]
        # Every physical line still starts with a comment marker or the
        # metric name: nothing leaked onto its own line.
        for line in rendered.splitlines():
            assert line.startswith(("# HELP", "# TYPE", "repro_"))

    def test_escape_help_is_order_correct(self):
        # Backslashes must be doubled before newline substitution, or the
        # substituted "\n" would itself get re-escaped.
        from repro.sim.export import _escape_help

        assert _escape_help("a\\nb") == "a\\\\nb"
        assert _escape_help("a\nb") == "a\\nb"
        assert _escape_help("plain text.") == "plain text."

    def test_stats_line_every_n_rounds(self):
        sink = []
        sim = build_sim()
        sim.attach(StatsLine(every=2, sink=sink.append))
        sim.submit([make_event([ab_flow(f"y{i}", 5.0, 1.0)],
                               label=f"y{i}") for i in range(5)])
        sim.run()
        # 5 FIFO rounds -> digests at rounds 2 and 4.
        assert len(sink) == 2
        assert "round=2" in sink[0] and "round=4" in sink[1]
        # The digest carries the cumulative compiled-stage count.
        assert "stages=2" in sink[0] and "stages=4" in sink[1]

    def test_stats_line_validation(self):
        with pytest.raises(ValueError, match="every"):
            StatsLine(every=0)


class TestStreams:
    def test_event_generator_stream_is_monotone(self):
        stream = diamond_stream(rate=2.0)
        events = [next(stream) for __ in range(20)]
        times = [e.arrival_time for e in events]
        assert times == sorted(times)
        assert all(len(e.flows) in (1, 2, 3) for e in events)

    def test_stream_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            next(diamond_stream(rate=0.0))

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_make_stream_kinds(self, kind):
        stream = make_stream(kind, DIAMOND_HOSTS, rate=1.0, seed=0,
                             config=EventGeneratorConfig(min_flows=1,
                                                         max_flows=2))
        event = next(stream)
        assert event.arrival_time > 0.0
        assert 1 <= len(event.flows) <= 2

    def test_make_stream_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown stream kind"):
            make_stream("nonsense", DIAMOND_HOSTS, rate=1.0)

    def test_synthetic_trace_validation(self):
        with pytest.raises(ValueError, match="demand"):
            SyntheticTrace(DIAMOND_HOSTS, demand_range=(0.0, 5.0))
        with pytest.raises(ValueError, match="duration"):
            SyntheticTrace(DIAMOND_HOSTS, duration_median=0.0)


class TestPayloadFingerprint:
    def test_key_order_independent(self):
        assert payload_fingerprint({"a": 1, "b": 2}) == \
            payload_fingerprint({"b": 2, "a": 1})

    def test_content_sensitive(self):
        assert payload_fingerprint({"a": 1}) != payload_fingerprint({"a": 2})

    def test_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            payload_fingerprint({}, length=2)
        assert len(payload_fingerprint({}, length=8)) == 8


class TestFingerprintedJson:
    def test_one_object_carrying_the_hash_of_the_rest(self):
        payload = {"b": [1, 2.5, None], "a": {"z": "é", "y": True}}
        parsed = json.loads(fingerprinted_json(payload))
        claimed = parsed.pop("fingerprint")
        assert parsed == payload
        assert claimed == payload_fingerprint(payload)
        assert claimed == payload_fingerprint(parsed)

    def test_refuses_a_payload_it_cannot_sign(self):
        for payload in ({}, {"fingerprint": "x", "a": 1}):
            with pytest.raises(ValueError, match="fingerprint"):
                fingerprinted_json(payload)
