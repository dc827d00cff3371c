"""Unit tests for the simulation trace log."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import ab_flow, diamond_setup  # noqa: E402

from repro.core.event import make_event
from repro.sched.fifo import FIFOScheduler
from repro.sched.plmtf import PLMTFScheduler
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.tracelog import TraceLog, TraceRecord


def run_with_log(scheduler=None, capture_flows=False, events=3):
    net, provider = diamond_setup()
    log = TraceLog(capture_flows=capture_flows)
    sim = UpdateSimulator(net, provider, scheduler or FIFOScheduler(),
                          config=SimulationConfig(seed=1), listener=log)
    queue = [make_event([ab_flow(f"e{i}f{j}", 5.0, 1.0) for j in range(2)],
                        label=f"e{i}") for i in range(events)]
    sim.submit(queue)
    metrics = sim.run()
    return log, metrics


class TestTraceLog:
    def test_records_rounds_and_admissions(self):
        log, metrics = run_with_log()
        rounds = log.of_kind("round")
        assert len(rounds) == metrics.rounds
        assert rounds[0].data["queue"] == 3
        admissions = log.of_kind("admission")
        assert len(admissions) == 3
        assert all(a.data["flows"] == 2 for a in admissions)

    def test_records_completions(self):
        log, metrics = run_with_log()
        completions = log.of_kind("complete")
        assert len(completions) == metrics.event_count
        # completion times line up with the measured ECTs
        times = sorted(r.time for r in completions)
        assert times[-1] == pytest.approx(metrics.makespan)

    def test_flow_capture_off_by_default(self):
        log, __ = run_with_log(capture_flows=False)
        assert log.of_kind("flow_finish") == []

    def test_flow_capture_on(self):
        log, __ = run_with_log(capture_flows=True)
        assert len(log.of_kind("flow_finish")) == 6  # 3 events x 2 flows

    def test_plmtf_batching_visible(self):
        log, __ = run_with_log(PLMTFScheduler(alpha=4))
        first_round = log.of_kind("round")[0]
        assert len(first_round.data["decided"]) == 3

    def test_jsonl_round_trips(self):
        log, __ = run_with_log()
        lines = log.to_jsonl().splitlines()
        assert len(lines) == len(log)
        for line in lines:
            record = json.loads(line)
            assert "t" in record and "kind" in record

    def test_save(self, tmp_path):
        log, __ = run_with_log()
        target = tmp_path / "run.jsonl"
        log.save(target)
        assert len(target.read_text().strip().splitlines()) == len(log)

    def test_records_in_time_order(self):
        log, __ = run_with_log()
        times = [record.time for record in log.records]
        assert times == sorted(times)


class TestDecidedIsNotExecuted:
    def test_failed_execution_is_decided_but_never_admitted(self):
        """A ``round`` record names what the round *decided*: an event
        whose execution then fails (rolled back and deferred) is listed
        there, and no ``admission`` record follows until a later round
        decides it again and executes it."""
        from repro.sim.controlplane import ScriptedControlPlane
        log = TraceLog()
        net, provider = diamond_setup()
        config = SimulationConfig(verify_invariants=True,
                                  exec_max_retries=0, max_deferrals=5)
        sim = UpdateSimulator(net, provider, FIFOScheduler(),
                              config=config, listener=log,
                              control_plane=ScriptedControlPlane([False]),
                              faults=None)
        event = make_event([ab_flow(f"e0f{j}", 10.0, 2.0)
                            for j in range(2)], label="e0")
        sim.submit([event])
        assert sim.run().deferrals == 1
        rounds = [i for i, r in enumerate(log.records) if r.kind == "round"]
        first, second = (log.records[i] for i in rounds[:2])
        assert first.data["decided"] == [event.event_id]
        assert "admitted" not in first.data
        between = [r.kind for r in log.records[rounds[0] + 1:rounds[1]]]
        assert "exec_failure" in between and "admission" not in between
        assert second.data["decided"] == [event.event_id]
        admissions = log.of_kind("admission")
        assert [a.data["event"] for a in admissions] == [event.event_id]
        assert log.records.index(admissions[0]) > rounds[1]


class TestListenerInterface:
    def test_record_json(self):
        record = TraceRecord(time=1.234567891, kind="x", data={"a": 1})
        payload = json.loads(record.to_json())
        assert payload["kind"] == "x"
        assert payload["a"] == 1


class TestAtomicSave:
    def test_save_replaces_atomically(self, tmp_path):
        log, __ = run_with_log()
        target = tmp_path / "trace.jsonl"
        target.write_text("stale contents that must fully disappear\n")
        log.save(target)
        lines = target.read_text().splitlines()
        assert "stale" not in lines[0]
        assert all(json.loads(line) for line in lines)
        # no temp-file droppings left behind
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_save_failure_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.core.ioutil as ioutil
        log, __ = run_with_log()
        real_replace = ioutil.os.replace

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(ioutil.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            log.save(tmp_path / "trace.jsonl")
        monkeypatch.setattr(ioutil.os, "replace", real_replace)
        assert list(tmp_path.iterdir()) == []
