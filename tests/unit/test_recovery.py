"""Tests for crash recovery: resume by re-run, the stop record, tampering.

Every resume re-runs the spec from its start and checks it record by
record against the whole journal. A signalled stop is a journal record
too: runs that are signalled (:func:`signal_after`) and then die in their
drain (:func:`stopped_state`) resume to the same stop. The final report
(``checkpoint.json``) a finished run leaves is only checked.

Every crash here is injected *in-process* (``REPRO_CRASH_MODE=raise``
turns the SIGKILL crash points into a catchable exception) so the suite
stays fast and fork-free; ``scripts/check_crash_recovery.py`` and the CI
smoke job exercise the same kill points with real SIGKILLs through the
``repro serve`` subprocess path.

Runs on the small diamond network like the rest of the service suite.
"""

import errno
import json
import os
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import diamond_setup, record_rounds  # noqa: E402

from repro.core.event import event_id_state, set_event_id_state
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.core.ioutil import fingerprinted_json
from repro.sched.fifo import FIFOScheduler
from repro.sched.lmtf import LMTFScheduler
from repro.sim import crashpoint
from repro.sim import metrics as metrics_mod
from repro.sim import service as service_mod
from repro.sim.crashpoint import CrashInjected
from repro.sim.hooks import PostRound, PreRound
from repro.sim.journal import (
    JournalCorruptionError,
    JournalWriter,
    encode_record,
    scan_journal,
)
from repro.sim.lifecycle import EventState
from repro.sim.service import ServiceConfig, ServiceReport, SimulationService
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.snapshot import (
    CHECKPOINT_FILE,
    CHECKPOINT_VERSION,
    HEARTBEAT_FILE,
    JOURNAL_FILE,
    RecoveryError,
    discard_state,
    load_checkpoint,
)
from repro.traces.arrivals import SyntheticTrace
from repro.traces.events import EventGenerator, EventGeneratorConfig

DIAMOND_HOSTS = ("a", "b", "c", "d", "e", "f")

#: The journal's terminal record kinds and the state each one settles.
OUTCOME_STATES = {"complete": EventState.COMPLETED,
                  "drop": EventState.DROPPED}


@pytest.fixture(autouse=True)
def _hermetic_ids():
    saved = (flow_id_state(), event_id_state())
    set_flow_id_state(0)
    set_event_id_state(0)
    yield
    set_flow_id_state(saved[0])
    set_event_id_state(saved[1])


@pytest.fixture(autouse=True)
def _clean_crashpoints(monkeypatch):
    monkeypatch.delenv(crashpoint.ENV_VAR, raising=False)
    monkeypatch.delenv(crashpoint.MODE_VAR, raising=False)
    crashpoint.reset_counts()
    yield
    crashpoint.reset_counts()


def build_service(state_dir, resume=False, scheduler=None, max_events=12,
                  snapshot_every=2.0, compile_mode="atomic", capacity=100.0,
                  max_deferrals=4, engine_step_cap=50_000_000,
                  snapshot_dir=None):
    """A deterministic diamond-network service; rebuildable bit-identically."""
    net, provider = diamond_setup(capacity)
    sim = UpdateSimulator(
        net, provider, scheduler or FIFOScheduler(),
        config=SimulationConfig(verify_invariants=True,
                                max_deferrals=max_deferrals,
                                compile_mode=compile_mode))
    trace = SyntheticTrace(DIAMOND_HOSTS, seed=3, demand_range=(2.0, 10.0))
    generator = EventGenerator(
        trace, config=EventGeneratorConfig(min_flows=1, max_flows=3),
        seed=4)
    config = ServiceConfig(queue_cap=8, resume_depth=4,
                           max_events=max_events,
                           snapshot_every=snapshot_every,
                           snapshot_dir=snapshot_dir,
                           state_dir=state_dir, resume=resume,
                           engine_step_cap=engine_step_cap)
    return SimulationService(sim, generator.stream(1.0), config)


def crash_at(monkeypatch, label, n):
    monkeypatch.setenv(crashpoint.ENV_VAR, f"{label}:{n}")
    monkeypatch.setenv(crashpoint.MODE_VAR, "raise")


def disarm(monkeypatch):
    monkeypatch.delenv(crashpoint.ENV_VAR, raising=False)
    monkeypatch.delenv(crashpoint.MODE_VAR, raising=False)
    crashpoint.reset_counts()


class Served(NamedTuple):
    """One :func:`serve_fresh` run."""

    service: SimulationService
    report: ServiceReport
    #: every ``PreRound`` this run emitted (a resume re-runs them all)
    rounds: list[PreRound]


def signal_after(service, rounds):
    """Stop ``service`` the way SIGTERM does once its ``rounds``-th round
    settles. In a resume the journal's stop record has already ended
    ingestion by then (or will, once the replay reaches it)."""
    settled = []

    def stopper(hook):
        settled.append(hook.index)
        if len(settled) == rounds:
            service.request_stop()

    service._sim.hooks.subscribe(PostRound, stopper)


def stop_at_records(service, records):
    """Stop ``service`` at the first engine-step boundary at which it has
    journaled ``records`` records: where a signal that landed during a
    replay of a ``records``-record journal takes effect."""
    engine = service._sim.engine
    step = engine.step

    def stepping():
        more = step()
        if service._journal_records >= records:
            service.request_stop()
        return more

    engine.step = stepping


def serve_fresh(state_dir, stop_after=None, **kwargs):
    """One run from zeroed id counters, its rounds recorded off the hook
    bus; ``stop_after`` signals a stop once that many rounds settled."""
    set_flow_id_state(0)
    set_event_id_state(0)
    service = build_service(state_dir, **kwargs)
    rounds = record_rounds(service._sim)
    if stop_after is not None:
        signal_after(service, stop_after)
    return Served(service, service.serve(), rounds)


def run_baseline(tmp_path):
    return serve_fresh(tmp_path / "baseline").report


def lmtf():
    return LMTFScheduler(alpha=2, seed=5)


def assert_same_run(baseline, resumed):
    """Everything a resume re-runs, not only the digest: the same rounds
    from the first, the same ``RunMetrics`` (probe-cache counts included),
    the same records in the same order, the same lifecycle counts and
    every counter but the two only a resume counts.

    Record *order* is part of the contract: ``finalize()`` stable-sorts by
    arrival time and backpressure re-stamps held arrivals to equal times,
    so registration order breaks ties and fixes float summation order.
    """
    base, res = baseline.report, resumed.report
    base_sim, res_sim = baseline.service._sim, resumed.service._sim
    assert res.digest == base.digest
    assert (res.ingested, res.stopped) == (base.ingested, base.stopped)
    assert resumed.rounds == baseline.rounds
    assert res.metrics.to_dict() == base.metrics.to_dict()
    assert (list(res_sim.metrics_collector.records.items())
            == list(base_sim.metrics_collector.records.items()))
    assert res_sim.lifecycle.counts() == base_sim.lifecycle.counts()
    assert scrapeable(res.counters) == scrapeable(base.counters)


#: What only a resumed run counts.
RESUME_ONLY = ("restarts", "recovery_replayed_events")


def scrapeable(counters):
    """The exporter's counters a resume has to carry over exactly."""
    return {name: value for name, value in counters.items()
            if name not in RESUME_ONLY}


def resign(path, edit):
    """Apply ``edit`` to the report at ``path`` and fingerprint the
    result, as a build with a different payload shape would have."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["fingerprint"]
    edit(payload)
    path.write_text(fingerprinted_json(payload) + "\n", encoding="utf-8")


def crash_state(tmp_path, monkeypatch, label="post-round", n=3, **kwargs):
    """Run into the crash at ``label:n``; returns the state dir it left."""
    state = tmp_path / "crashed"
    crash_at(monkeypatch, label, n)
    with pytest.raises(CrashInjected):
        serve_fresh(state, **kwargs)
    disarm(monkeypatch)
    return state


def stop_records(state):
    """The ``stop`` records of the journal in ``state``."""
    return [r for r in scan_journal(state / JOURNAL_FILE).records
            if r["kind"] == "stop"]


def stopped_state(tmp_path, monkeypatch, stop_after=5, crash_round=6,
                  **kwargs):
    """Signal a stop once round ``stop_after`` settles, then crash in the
    drain at round ``crash_round``: the journal holds the stop record and
    outcomes past it, and there is no report."""
    state = crash_state(tmp_path, monkeypatch, "post-round", crash_round,
                        stop_after=stop_after, **kwargs)
    assert len(stop_records(state)) == 1
    assert not (state / CHECKPOINT_FILE).exists()
    return state


def finished_state(tmp_path, **kwargs):
    """A signalled run that drained: the state dir holds its journal,
    stop record included, and its final report."""
    state = tmp_path / "finished"
    serve_fresh(state, stop_after=5, **kwargs)
    assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "final"
    return state


def crash_and_resume(tmp_path, monkeypatch, label, n, scheduler=None,
                     audit=False, **kwargs):
    """Crash at ``label:n``, resume, require the resumed run to equal the
    uninterrupted one (:func:`assert_same_run`), and return the
    (baseline, resumed) reports. ``scheduler`` is a factory: every build
    needs its own instance."""
    make = scheduler or FIFOScheduler
    baseline = serve_fresh(tmp_path / "baseline", scheduler=make(), **kwargs)
    state = crash_state(tmp_path, monkeypatch, label, n, scheduler=make(),
                        **kwargs)
    if audit:
        monkeypatch.setenv("REPRO_AUDIT", "1")
    resumed = serve_fresh(state, resume=True, scheduler=make(), **kwargs)
    assert_same_run(baseline, resumed)
    return baseline.report, resumed.report


def settled_records(records):
    """The ``complete``/``drop`` records among journal ``records``."""
    return [r for r in records if r["kind"] in OUTCOME_STATES]


class TestExactResume:
    def test_crash_mid_round_resumes_bit_identical(self, tmp_path,
                                                   monkeypatch):
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "post-round", 3)
        assert resumed.digest == baseline.digest
        assert resumed.completed == baseline.completed
        assert resumed.dropped == baseline.dropped
        assert resumed.final_time == baseline.final_time
        assert resumed.restarts == 1
        assert baseline.restarts == 0

    def test_restored_queue_keeps_its_waits(self, tmp_path, monkeypatch):
        """Killed in its drain after a stop, with queued events that have
        waited rounds: the re-run charges every queue stay again, so the
        records :func:`assert_same_run` compares count the rounds waited
        on both sides of the crash, under the per-round audit."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=6)
        waited = [r.rounds_waited for r in
                  baseline.service._sim.metrics_collector.records.values()]
        assert max(waited) > 0
        state = stopped_state(tmp_path, monkeypatch, stop_after=6,
                              crash_round=7)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        resumed = serve_fresh(state, resume=True, stop_after=6)
        assert_same_run(baseline, resumed)
        assert resumed.service._sim.auditor.audits > 0

    def test_crash_mid_journal_append_leaves_torn_tail(self, tmp_path,
                                                       monkeypatch):
        """The armed append flushes half a frame before dying; the resume
        must truncate it and still land on the baseline digest."""
        baseline = run_baseline(tmp_path)
        state = tmp_path / "crashed"
        crash_at(monkeypatch, "journal-append", 4)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        scan = scan_journal(state / JOURNAL_FILE)
        assert scan.torn_bytes > 0
        assert len(scan.records) == 3
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.digest == baseline.digest

    def test_crash_mid_checkpoint_write_keeps_previous(self, tmp_path,
                                                       monkeypatch):
        """A signalled run dies writing its final report: what was on disk
        before stays — the journal, stop record included, and no report —
        and the resume re-runs it to the signalled run."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=5)
        state = crash_state(tmp_path, monkeypatch, "snapshot", 1,
                            stop_after=5)
        assert not (state / CHECKPOINT_FILE).exists()
        assert len(stop_records(state)) == 1
        resumed = serve_fresh(state, resume=True, stop_after=5)
        assert_same_run(baseline, resumed)

    def test_crash_before_first_checkpoint_replays_whole_journal(
            self, tmp_path, monkeypatch):
        """The run dies writing its only checkpoint, the final one: the
        resume is a fresh deterministic re-run verified record-by-record
        against the full journal."""
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "snapshot", 1)
        assert resumed.digest == baseline.digest
        assert resumed.restarts == 1
        # The run had drained: the whole journal is replay-verified, and
        # the resume appends nothing.
        assert (resumed.counters["recovery_replayed_events"]
                == resumed.counters["journal_records"] > 0)

    def test_resume_counters_surface_recovery_metrics(self, tmp_path,
                                                      monkeypatch):
        _, resumed = crash_and_resume(tmp_path, monkeypatch,
                                      "post-round", 3)
        counters = resumed.counters
        assert counters["restarts"] == 1
        assert counters["recovery_replayed_events"] > 0
        # journal_records covers every record: replay-verified + appended.
        assert (counters["journal_records"]
                == len(scan_journal(tmp_path / "crashed"
                                    / JOURNAL_FILE).records))

    def test_resume_passes_restore_audit(self, tmp_path, monkeypatch):
        """REPRO_AUDIT=1 runs the per-round audits on the resumed service
        (the chaos-grid configuration)."""
        baseline = run_baseline(tmp_path)
        state = tmp_path / "crashed"
        crash_at(monkeypatch, "post-round", 3)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        monkeypatch.setenv("REPRO_AUDIT", "1")
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.digest == baseline.digest
        assert resumed.audits > 0

    def test_lmtf_scheduler_state_round_trips(self, tmp_path, monkeypatch):
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "post-round", 3, scheduler=lmtf)
        assert resumed.digest == baseline.digest

    @pytest.mark.parametrize("scheduler", [FIFOScheduler, lmtf],
                             ids=["fifo", "lmtf"])
    @pytest.mark.parametrize("label, n, builds, stop_after", [
        # Died writing the final report, before it landed: the resume
        # re-runs from the journal alone.
        ("snapshot", 1, 1, 0),
        # Mid-run and late in the run: the snapshot timer fired but built
        # no report.
        ("post-round", 5, 0, 0),
        ("post-round", 10, 0, 0),
        # Signalled after round 5, killed in its drain: the journal's
        # stop record ends the re-run's ingestion at the same step.
        ("post-round", 7, 0, 5),
    ])
    def test_resume_equals_uninterrupted_run(
            self, tmp_path, monkeypatch, scheduler, label, n, builds,
            stop_after):
        stop = stop_after or None
        baseline = serve_fresh(tmp_path / "baseline", scheduler=scheduler(),
                               stop_after=stop)
        built = []
        build = service_mod.build_checkpoint

        def recording(*args, **kwargs):
            built.append(kwargs["journal_offset"])
            return build(*args, **kwargs)

        monkeypatch.setattr(service_mod, "build_checkpoint", recording)
        state = crash_state(tmp_path, monkeypatch, label, n,
                            scheduler=scheduler(), stop_after=stop)
        monkeypatch.setattr(service_mod, "build_checkpoint", build)
        assert len(built) == builds
        assert not (state / CHECKPOINT_FILE).exists()
        assert len(stop_records(state)) == (1 if stop else 0)
        # Outcomes the replay re-checks byte for byte, settled entries
        # included.
        assert settled_records(scan_journal(state / JOURNAL_FILE).records)
        resumed = serve_fresh(state, resume=True, scheduler=scheduler(),
                              stop_after=stop)
        assert_same_run(baseline, resumed)
        assert resumed.report.restarts == 1

    def test_resume_equals_uninterrupted_run_audited(self, tmp_path,
                                                     monkeypatch):
        """Same equalities with REPRO_AUDIT=1, so the auditor checks the
        re-run's ledgers every round."""
        _, resumed = crash_and_resume(tmp_path, monkeypatch, "post-round",
                                      10, audit=True)
        assert resumed.audits > 0

    @pytest.mark.parametrize("first, second, stop_after, grows", [
        # The resume dies while it still re-checks the journal: nothing
        # on disk changed, and the next resume replays the same journal.
        (6, 3, None, False),
        # It dies after it caught up and appended records of its own.
        (6, 9, None, True),
        # A resume of a signalled run dies in its drain again, past the
        # journal's stop record.
        (6, 7, 5, True),
    ], ids=["mid-replay", "past-replay", "stopped-drain"])
    def test_crash_during_resume_resumes_again(self, tmp_path, monkeypatch,
                                               first, second, stop_after,
                                               grows):
        """A resume killed part way through leaves a state dir the next
        resume continues to the uninterrupted run."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=stop_after)
        state = crash_state(tmp_path, monkeypatch, "post-round", first,
                            stop_after=stop_after)
        journaled = (state / JOURNAL_FILE).read_bytes()
        crash_at(monkeypatch, "post-round", second)
        with pytest.raises(CrashInjected):
            serve_fresh(state, resume=True, stop_after=stop_after)
        disarm(monkeypatch)
        after = (state / JOURNAL_FILE).read_bytes()
        assert after.startswith(journaled)
        assert (len(after) > len(journaled)) is grows
        assert not (state / CHECKPOINT_FILE).exists()
        resumed = serve_fresh(state, resume=True, stop_after=stop_after)
        assert_same_run(baseline, resumed)
        assert resumed.report.restarts == 1

    @pytest.mark.parametrize("label, n", [
        ("post-round", 6), ("journal-append", 10),
        # The last line was written after the last journal record: a
        # tick fired after the 7th record, then the 8th append died; the
        # final line landed, the final checkpoint did not. The replay has
        # caught up before it re-reaches that seq.
        ("journal-append", 8), ("snapshot", 1)])
    def test_replay_rewrites_no_snapshot_line(self, tmp_path, monkeypatch,
                                              label, n):
        """The ticks a resume re-runs wrote their lines before the crash:
        the resume counts every seq the file already holds without
        writing it again, so the file keeps the crashed run's lines and
        its seqs never step back or repeat."""
        baseline = serve_fresh(tmp_path / "baseline",
                               snapshot_dir=tmp_path / "baseline")
        state = crash_state(tmp_path, monkeypatch, label, n,
                            snapshot_dir=tmp_path / "crashed")
        written = (state / "snapshots.jsonl").read_text(encoding="utf-8")
        assert written
        resumed = serve_fresh(state, resume=True, snapshot_dir=state)
        lines = (state / "snapshots.jsonl").read_text(encoding="utf-8")
        assert lines.startswith(written)

        def seqs(directory):
            return [json.loads(line)["seq"] for line in (
                directory / "snapshots.jsonl").read_text(
                    encoding="utf-8").splitlines()]

        assert seqs(state) == seqs(tmp_path / "baseline")
        assert resumed.report.snapshots == baseline.report.snapshots


#: Tight links and no deferral budget: backpressure and stall drops put
#: up to nine records on one engine instant, written by more than one
#: engine step.
GROUPED = {"capacity": 6.0, "max_deferrals": 0, "max_events": 24}


def is_journal_fd(service, fd):
    journal = service._journal
    return (journal is not None and journal._handle is not None
            and fd == journal._handle.fileno())


def watch_durable_io(monkeypatch, service, fail_sync=None):
    """Log, with the clock, every journal append (``"append"``), every
    fsync of the journal file (``"sync"``), every other fsync
    (``"fsync"``) and every ``checkpoint.json`` write (``"checkpoint"``,
    with whether the journal was dirty). ``fail_sync=k`` makes the k-th
    journal fsync raise ``EIO``."""
    log = []
    engine = service._sim.engine
    real_fsync, real_append = os.fsync, JournalWriter.append
    real_write = service_mod.atomic_write_text

    def fsync(fd):
        if is_journal_fd(service, fd):
            log.append(("sync", engine.now))
            if sum(kind == "sync" for kind, *_ in log) == fail_sync:
                raise OSError(errno.EIO, "injected fsync failure")
        else:
            log.append(("fsync", engine.now))
        real_fsync(fd)

    def append(journal, record):
        log.append(("append", engine.now))
        return real_append(journal, record)

    def write(path, text):
        if Path(path).name == CHECKPOINT_FILE:
            log.append(("checkpoint", engine.now, service._journal.dirty))
        real_write(path, text)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(JournalWriter, "append", append)
    monkeypatch.setattr(service_mod, "atomic_write_text", write)
    return log


class TestGroupCommit:
    """The journal fsyncs once per engine instant that holds records,
    after the instant's last step, and before any checkpoint."""

    def test_one_journal_fsync_per_instant(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        service = build_service(state, snapshot_dir=state, **GROUPED)
        log = watch_durable_io(monkeypatch, service)
        service.serve()
        appended = [now for kind, now, *_ in log if kind == "append"]
        instants = sorted(set(appended))
        assert len(instants) < len(appended)
        assert [now for kind, now, *_ in log if kind == "sync"] == instants
        # The rest: the state dir's entry when the journal is created,
        # then the final checkpoint's file and directory. The snapshot
        # ticks fsync nothing.
        assert [kind for kind, *_ in log if kind != "append"
                and kind != "sync"] == ["fsync", "checkpoint", "fsync",
                                        "fsync"]

    def test_no_record_unsynced_past_its_instant(self, tmp_path,
                                                 monkeypatch):
        state = tmp_path / "state"
        service = build_service(state, **GROUPED)
        engine = service._sim.engine
        step = engine.step
        moves = {"clean": 0, "dirty": 0}

        def stepping():
            upcoming = engine.next_time
            if upcoming is not None and upcoming > engine.now:
                moves["dirty" if service._journal.dirty else "clean"] += 1
            return step()

        engine.step = stepping
        service.serve()
        assert moves["clean"] > 0 and moves["dirty"] == 0

    def test_journal_clean_at_every_checkpoint(self, tmp_path,
                                               monkeypatch):
        """A stop lands between two steps of one instant, with the
        instant's records not yet synced: the stop record is synced with
        them before the drain goes on, and the final report syncs
        first too."""
        state = tmp_path / "state"
        service = build_service(state, **GROUPED)
        log = watch_durable_io(monkeypatch, service)
        engine = service._sim.engine
        step = engine.step
        entered = []

        def stepping():
            more = step()
            # Work at this instant that the stop does not cancel.
            staying = [handle for time, _, handle in engine._heap
                       if time == engine.now and not handle.cancelled
                       and handle is not service._arrival_handle]
            if (not entered and service._journal_records >= 10
                    and service._journal.dirty and staying):
                entered.append(engine.now)
                service.request_stop()
            return more

        stop = service._stop
        clean = []

        def stopping(steps):
            stop(steps)
            clean.append((engine.now, service._journal.dirty))

        engine.step = stepping
        service._stop = stopping
        service.serve()
        assert entered and clean == [(entered[0], False)]
        checkpoints = [entry for entry in log if entry[0] == "checkpoint"]
        assert [dirty for *_, dirty in checkpoints] == [False]
        assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "final"
        assert len(stop_records(state)) == 1


class TestHostileStorage:
    """The disk fails under the group commit: ``serve()`` raises the
    error, neither retries the fsync nor writes a checkpoint after it,
    and a resume from what is on disk ends where the uninterrupted run
    does."""

    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_failed_barrier_fsync(self, tmp_path, monkeypatch, k):
        baseline = serve_fresh(tmp_path / "baseline", **GROUPED)
        state = tmp_path / "state"
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(state, **GROUPED)
        log = watch_durable_io(monkeypatch, service, fail_sync=k)
        with pytest.raises(OSError) as failure:
            service.serve()
        assert failure.value.errno == errno.EIO
        assert [kind for kind, *_ in log].count("sync") == k
        assert log[-1][0] == "sync"  # nothing after the failed barrier
        assert service._journal.dirty
        assert not (state / CHECKPOINT_FILE).exists()
        monkeypatch.undo()
        disarm(monkeypatch)
        resumed = serve_fresh(state, resume=True, **GROUPED)
        assert_same_run(baseline, resumed)

    @pytest.mark.parametrize("n", [2, 9, 30])
    def test_full_disk_on_a_frame_write(self, tmp_path, monkeypatch, n):
        baseline = serve_fresh(tmp_path / "baseline", **GROUPED)
        state = tmp_path / "state"
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(state, **GROUPED)
        log = watch_durable_io(monkeypatch, service)
        real_open = JournalWriter.open

        def opening(journal):
            scan = real_open(journal)
            journal._handle = FullDisk(journal._handle, n)
            return scan

        monkeypatch.setattr(JournalWriter, "open", opening)
        with pytest.raises(OSError) as failure:
            service.serve()
        assert failure.value.errno == errno.ENOSPC
        assert log[-1][0] == "append"  # nothing after the failed write
        assert [kind for kind, *_ in log].count("append") == n
        assert len(scan_journal(state / JOURNAL_FILE).records) == n - 1
        assert not (state / CHECKPOINT_FILE).exists()
        monkeypatch.undo()
        disarm(monkeypatch)
        resumed = serve_fresh(state, resume=True, **GROUPED)
        assert_same_run(baseline, resumed)


class FullDisk:
    """A journal file handle whose ``n``-th write fails with ENOSPC."""

    def __init__(self, handle, n):
        self._handle = handle
        self._writes_left = n

    def write(self, data):
        self._writes_left -= 1
        if self._writes_left == 0:
            raise OSError(errno.ENOSPC, "injected: no space left")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestHeldArrivalRelease:
    """A stall pass that drops the queue empty announces no ``PostRound``;
    the drop itself must release the backpressure-held arrival, or the
    service never ingests the rest of its stream."""

    def test_drops_release_the_held_arrival(self):
        service = build_service(None, capacity=6.0, max_deferrals=0,
                                max_events=24, snapshot_every=0)
        report = service.serve()
        assert report.ingested == 24
        assert not service.paused
        assert report.stopped == "max_events"
        assert report.completed + report.dropped == 24

    def test_snapshot_timer_does_not_keep_a_drained_service_alive(
            self, tmp_path):
        # Without the release the snapshot timer is the only pending
        # engine event and fires forever; the step cap turns that into a
        # fast failure instead of a hang.
        service = build_service(tmp_path / "state", capacity=6.0,
                                max_deferrals=0, max_events=24,
                                snapshot_every=2.0, engine_step_cap=2_000)
        report = service.serve()
        assert report.ingested == 24
        assert not service.paused
        assert report.completed + report.dropped == 24


class TestSignalStop:
    def test_signal_stop_writes_resumable_state(self, tmp_path):
        """A SIGTERM-shaped stop is a synced ``stop`` record before the
        drain. A resume with no signal of its own re-runs to the same
        stop: the record alone ends its ingestion."""
        state = tmp_path / "state"
        original = serve_fresh(state, stop_after=3, max_events=None)
        report = original.report
        assert report.stopped == "signal"
        assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "final"
        scan = scan_journal(state / JOURNAL_FILE)
        kinds = [r["kind"] for r in scan.records]
        assert kinds.count("ingest") == report.ingested
        # One stop, and no arrival after it.
        assert kinds.count("stop") == 1
        assert "ingest" not in kinds[kinds.index("stop"):]
        resumed = serve_fresh(state, resume=True, max_events=None)
        assert_same_run(original, resumed)
        assert resumed.report.counters["recovery_replayed_events"] == len(
            scan.records)

    @pytest.mark.parametrize("stop_after", [3, 5])
    def test_stop_record_written_before_the_drain(self, tmp_path,
                                                  monkeypatch, stop_after):
        """Killed in its drain, a signalled run resumes to the
        uninterrupted signalled run, with no signal of its own."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=stop_after)
        assert baseline.report.stopped == "signal"
        state = stopped_state(tmp_path, monkeypatch, stop_after=stop_after,
                              crash_round=stop_after + 1)
        resumed = serve_fresh(state, resume=True)
        assert_same_run(baseline, resumed)

    def test_signal_during_replay_waits_for_the_journal(self, tmp_path,
                                                         monkeypatch):
        """A resume signalled while it still re-checks the journal stops
        once it has re-produced the last journaled record, and journals
        its stop there. A crash in its drain resumes again, to the run
        stopped at that record."""
        state = crash_state(tmp_path, monkeypatch, "post-round", 6)
        records = len(scan_journal(state / JOURNAL_FILE).records)
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(tmp_path / "baseline")
        rounds = record_rounds(service._sim)
        stop_at_records(service, records)
        baseline = Served(service, service.serve(), rounds)
        assert baseline.report.stopped == "signal"
        crash_at(monkeypatch, "post-round", 7)
        with pytest.raises(CrashInjected):
            serve_fresh(state, resume=True, stop_after=3)
        disarm(monkeypatch)
        journaled = scan_journal(state / JOURNAL_FILE).records
        assert [r["kind"] for r in journaled].index("stop") == records
        resumed = serve_fresh(state, resume=True, stop_after=3)
        assert_same_run(baseline, resumed)
        assert resumed.report.restarts == 1

    @pytest.mark.parametrize("step", [1, 10 ** 9], ids=["early", "never"])
    def test_stop_record_the_rerun_does_not_reach_rejected(
            self, tmp_path, monkeypatch, step):
        """A stop record that names another step than the one the re-run
        stops at is refused: stopped early, the re-run journals a stop
        where the journal holds an arrival; never stopped, an arrival
        where it holds the stop."""
        state = stopped_state(tmp_path, monkeypatch)
        records = scan_journal(state / JOURNAL_FILE).records
        for record in records:
            if record["kind"] == "stop":
                record["step"] = step
        (state / JOURNAL_FILE).write_bytes(
            b"".join(encode_record(r) for r in records))
        with pytest.raises(RecoveryError, match="diverged"):
            serve_fresh(state, resume=True)


class TestTampering:
    """Damage a finished run's state dir (journal and final report), or,
    where no report is involved, a crashed run's journal."""

    def test_truncated_journal_below_checkpoint_rejected(self, tmp_path):
        state = finished_state(tmp_path)
        journal = state / JOURNAL_FILE
        scan = scan_journal(journal)
        offset = load_checkpoint(state / CHECKPOINT_FILE)["journal"]["offset"]
        assert scan.valid_size == offset
        journal.write_bytes(journal.read_bytes()[:offset - 1])
        with pytest.raises(RecoveryError,
                           match=f"{JOURNAL_FILE} is truncated below"):
            serve_fresh(state, resume=True)

    def test_truncated_history_below_checkpoint_rejected(self, tmp_path):
        """Dropping the last covered record on a clean frame boundary
        leaves a valid log with no torn tail; only the report's record
        count can notice."""
        state = finished_state(tmp_path)
        journal = state / JOURNAL_FILE
        covered = load_checkpoint(state / CHECKPOINT_FILE)["journal"]
        records = scan_journal(journal).records[:covered["records"] - 1]
        assert records
        journal.write_bytes(b"".join(encode_record(r) for r in records))
        assert scan_journal(journal).valid_size == journal.stat().st_size
        with pytest.raises(RecoveryError,
                           match=f"{JOURNAL_FILE} is truncated below"):
            serve_fresh(state, resume=True)

    def test_corrupted_journal_frame_rejected(self, tmp_path, monkeypatch):
        state = crash_state(tmp_path, monkeypatch)
        journal = state / JOURNAL_FILE
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0xFF
        journal.write_bytes(bytes(data))
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            build_service(state, resume=True).serve()

    def test_stale_fingerprint_rejected(self, tmp_path):
        state = finished_state(tmp_path)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["service"]["ingested"] += 1  # tamper without re-signing
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="fingerprint"):
            build_service(state, resume=True).serve()

    def test_unknown_version_rejected(self, tmp_path):
        state = finished_state(tmp_path)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="version"):
            build_service(state, resume=True).serve()

    def test_version_1_checkpoint_rejected(self, tmp_path):
        """Versions 1 to 6 carried live state for a restore (version 6
        from a signalled stop); no reader is kept for any of them, the
        version error tells the operator what to do."""
        state = finished_state(tmp_path)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4, 5, 6):
            payload["version"] = version
            path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                            encoding="utf-8")
            with pytest.raises(RecoveryError,
                               match=f"version {version}.*--fresh"):
                serve_fresh(state, resume=True)

    def test_different_counter_set_rejected_by_name(self, tmp_path):
        """What a build with one counter more or fewer would meet: the
        operator gets the key names, not a KeyError or a zeroed series."""
        state = finished_state(tmp_path)

        def edit(payload):
            totals = payload["metrics"]["totals"]
            del totals["fallback_rounds"]
            totals["spans_recorded"] = 0

        resign(state / CHECKPOINT_FILE, edit)
        with pytest.raises(RecoveryError) as excinfo:
            serve_fresh(state, resume=True)
        message = str(excinfo.value)
        assert "missing ['fallback_rounds']" in message
        assert "unknown ['spans_recorded']" in message
        assert "--fresh" in message

    def test_undecodable_checkpoint_rejected(self, tmp_path):
        """A flipped byte that breaks UTF-8 is a damaged report like any
        other, not a UnicodeDecodeError traceback."""
        state = finished_state(tmp_path)
        path = state / CHECKPOINT_FILE
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="unreadable.*--fresh"):
            serve_fresh(state, resume=True)

    def test_journal_of_another_run_rejected(self, tmp_path):
        """Whole valid frames, enough of them, but not the ones the
        report was written over."""
        state = finished_state(tmp_path)
        records = scan_journal(state / JOURNAL_FILE).records
        covered = load_checkpoint(state / CHECKPOINT_FILE)["journal"]
        assert covered["records"] == len(records) >= 3
        (state / JOURNAL_FILE).write_bytes(
            b"".join(encode_record(r) for r in records[1:] + records[1:]))
        with pytest.raises(RecoveryError,
                           match=f"{JOURNAL_FILE} does not line up"):
            serve_fresh(state, resume=True)

    def test_hostile_journal(self, tmp_path):
        """Cut ``journal.wal`` of a signalled run at every frame boundary,
        the bytes either side of it and every header byte; flip every
        header byte and one payload byte per frame. The journal holds a
        stop record, and each damage is tried with and without the final
        report beside it. A resume either equals the uninterrupted run (no
        report: the re-run re-produces what was cut) or refuses with an
        actionable error (the report covers every byte) — never a third
        outcome."""
        baseline = serve_fresh(tmp_path / "baseline", max_events=6,
                               stop_after=3)
        files = {path.name: path.read_bytes()
                 for path in (tmp_path / "baseline").iterdir()}
        log = files[JOURNAL_FILE]
        records = scan_journal(tmp_path / "baseline" / JOURNAL_FILE).records
        kinds = [r["kind"] for r in records]
        # Outcomes on both sides of the stop.
        assert "stop" in kinds
        assert settled_records(records[:kinds.index("stop")])
        assert settled_records(records[kinds.index("stop"):])
        starts = [0]
        for record in records:
            starts.append(starts[-1] + len(encode_record(record)))
        assert starts[-1] == len(log)
        header = 8
        cuts = sorted({cut for start in starts
                       for cut in range(start - 1, start + header)
                       if 0 <= cut < len(log)})

        def flipped(at):
            return log[:at] + bytes([log[at] ^ 0x01]) + log[at + 1:]

        length_flips = [flipped(start + i) for start in starts[:-1]
                        for i in range(4)]
        crc_flips = [flipped(start + i) for start in starts[:-1]
                     for i in range(4, header)]
        payload_flips = [flipped(end - 5) for end in starts[1:]]
        outcomes = {}
        attempts = ([("cut", log[:cut]) for cut in cuts]
                    + [("length", damaged) for damaged in length_flips]
                    + [("refused", damaged)
                       for damaged in crc_flips + payload_flips])
        for with_report in (False, True):
            for kind, damaged in attempts:
                state = tmp_path / "attempt"
                shutil.rmtree(state, ignore_errors=True)
                state.mkdir()
                for name, data in files.items():
                    if with_report or name != CHECKPOINT_FILE:
                        (state / name).write_bytes(data)
                (state / JOURNAL_FILE).write_bytes(damaged)
                try:
                    resumed = serve_fresh(state, resume=True, max_events=6,
                                          stop_after=3)
                except (RecoveryError, JournalCorruptionError):
                    outcome = "refused"
                else:
                    assert_same_run(baseline, resumed)
                    outcome = "resumed"
                if kind == "cut":
                    # An empty journal and no report: nothing to resume.
                    assert outcome == ("refused" if with_report
                                       or not damaged else "resumed")
                elif kind == "refused":
                    assert outcome == "refused"
                key = (with_report, kind, outcome)
                outcomes[key] = outcomes.get(key, 0) + 1
        # A longer length reads as a torn tail at that frame, a shorter
        # one fails its CRC.
        assert outcomes[False, "length", "refused"]
        assert outcomes[False, "length", "resumed"]
        assert not outcomes.get((True, "length", "resumed"))

    def test_scheduler_mismatch_rejected(self, tmp_path):
        state = finished_state(tmp_path)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="scheduler"):
            build_service(state, resume=True,
                          scheduler=LMTFScheduler(alpha=2, seed=5)).serve()

    def test_compile_config_mismatch_rejected(self, tmp_path):
        """A report written under atomic compilation refuses to resume
        staged: the schedule would diverge from the journal."""
        state = finished_state(tmp_path)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="compile config"):
            build_service(state, resume=True,
                          compile_mode="staged").serve()


class TestStateDirGuards:
    def test_resume_without_state_raises_actionable_error(self, tmp_path):
        with pytest.raises(RecoveryError, match="--resume"):
            build_service(tmp_path / "empty", resume=True).serve()

    def test_fresh_start_refuses_existing_run(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="already holds a run"):
            build_service(state).serve()

    def test_discard_state_enables_fresh_start(self, tmp_path):
        state = finished_state(tmp_path)
        removed = discard_state(state)
        assert set(removed) == {CHECKPOINT_FILE, JOURNAL_FILE, HEARTBEAT_FILE}
        set_flow_id_state(0)
        set_event_id_state(0)
        report = build_service(state).serve()
        assert report.restarts == 0

    def test_fresh_start_refuses_a_leftover_journal(self, tmp_path,
                                                    monkeypatch):
        state = crash_state(tmp_path, monkeypatch, "post-round", 3)
        assert not (state / CHECKPOINT_FILE).exists()
        with pytest.raises(RecoveryError,
                           match=f"already holds a run .{JOURNAL_FILE}"):
            serve_fresh(state)

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            ServiceConfig(resume=True)
        # state_dir alone satisfies the snapshot_every requirement.
        ServiceConfig(snapshot_every=5.0, state_dir=tmp_path)


class TestCheckpointPayload:
    def test_checkpoint_is_versioned_and_fingerprinted(self, tmp_path):
        """The final report names the spec, the counters and the journal
        it covers; it carries no live state."""
        state = finished_state(tmp_path)
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"
        assert checkpoint["version"] == CHECKPOINT_VERSION == 7
        assert set(checkpoint) == {
            "version", "origin", "scheduler", "compile", "metrics",
            "journal", "service", "fingerprint"}
        assert set(checkpoint["metrics"]) == {"totals"}
        assert set(checkpoint["service"]) == {
            "ingested", "pauses", "snapshots", "stopped", "digest"}
        # Every run counter is reported once, in the metrics ledger.
        assert set(checkpoint["metrics"]["totals"]) == {
            counter.name for counter in metrics_mod.RUN_COUNTERS}
        assert checkpoint["journal"]["records"] == len(
            scan_journal(state / JOURNAL_FILE).records)

    def test_a_new_counter_is_one_declaration(self, tmp_path, monkeypatch):
        """Appending to ``RUN_COUNTERS`` is the whole edit: the total is
        folded, reported and re-run with no other change."""
        monkeypatch.setattr(
            metrics_mod, "RUN_COUNTERS",
            (*metrics_mod.RUN_COUNTERS,
             metrics_mod.RunCounter("planning_ops", PreRound,
                                    "planning_ops")))
        baseline = serve_fresh(tmp_path / "baseline", stop_after=5)
        total = baseline.service._sim.metrics_collector.totals["planning_ops"]
        assert total == sum(r.planning_ops for r in baseline.rounds) > 0
        reported = load_checkpoint(tmp_path / "baseline" / CHECKPOINT_FILE)
        assert reported["metrics"]["totals"]["planning_ops"] == total
        state = stopped_state(tmp_path, monkeypatch)
        resumed = serve_fresh(state, resume=True, stop_after=5)
        assert (resumed.service._sim.metrics_collector.totals
                ["planning_ops"]) == total

    def test_checkpoint_size_does_not_grow_with_service_age(
            self, tmp_path, monkeypatch):
        """The report carries counters and the journal's extent, no
        records: a stop after four times the events through the same
        queue cap leaves its size where it was."""
        def report_size(events):
            service = build_service(tmp_path / f"run-{events}",
                                    max_events=None)
            sizes = []

            def stopper(_hook):
                if service.ingested >= events:
                    service.request_stop()

            def recording(path, text, **kwargs):
                if Path(path).name == CHECKPOINT_FILE:
                    sizes.append(len(text))
                atomic_write_text(path, text, **kwargs)

            service._sim.hooks.subscribe(PostRound, stopper)
            monkeypatch.setattr(service_mod, "atomic_write_text", recording)
            set_flow_id_state(0)
            set_event_id_state(0)
            report = service.serve()
            assert report.stopped == "signal"
            assert events <= report.ingested < events + 8
            assert report.completed + report.dropped == report.ingested
            [size] = sizes
            return size

        atomic_write_text = service_mod.atomic_write_text
        short, long = report_size(40), report_size(160)
        assert long <= 1.5 * short

    def test_checkpoint_built_only_when_the_service_stops(
            self, tmp_path, monkeypatch):
        """The snapshot timer fires on its cadence and builds nothing, and
        neither does a signal: a run builds its final report only."""
        built = []
        build = service_mod.build_checkpoint

        def recording(*args, **kwargs):
            built.append(kwargs["journal_records"])
            return build(*args, **kwargs)

        ticks = []
        on_snapshot = SimulationService._on_snapshot

        def counting(service):
            ticks.append(service._sim.now)
            on_snapshot(service)

        monkeypatch.setattr(service_mod, "build_checkpoint", recording)
        monkeypatch.setattr(SimulationService, "_on_snapshot", counting)
        serve_fresh(tmp_path / "plain")
        assert len(ticks) >= 5
        assert built == [len(scan_journal(
            tmp_path / "plain" / JOURNAL_FILE).records)]
        built.clear()
        serve_fresh(tmp_path / "stopped", stop_after=5)
        assert built == [len(scan_journal(
            tmp_path / "stopped" / JOURNAL_FILE).records)]

    def test_durable_serve_keeps_one_log(self, tmp_path):
        """The state dir holds the journal, the checkpoint and the
        heartbeat, and nothing else."""
        run_baseline(tmp_path)
        assert sorted(path.name for path in
                      (tmp_path / "baseline").iterdir()) == sorted(
            [JOURNAL_FILE, CHECKPOINT_FILE, HEARTBEAT_FILE])

    def test_heartbeat_at_most_once_per_wall_second(self, tmp_path,
                                                    monkeypatch):
        """The heartbeat is rewritten only once ``HEARTBEAT_INTERVAL_S``
        of wall time passed since the last write; the first and the final
        write always land, and the final one names the last round."""
        writes = []
        replace = service_mod.replace_text

        def recording(path, text):
            if path.name == HEARTBEAT_FILE:
                writes.append(json.loads(text)["round"])
            replace(path, text)

        clock = [0.0]
        monkeypatch.setattr(service_mod, "replace_text", recording)
        monkeypatch.setattr(service_mod.time, "monotonic", lambda: clock[0])
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(tmp_path / "state")

        def tick(hook):  # 0.4 s of wall time per settled round
            clock[0] += 0.4

        service._sim.hooks.subscribe(PostRound, tick)
        report = service.serve()
        assert report.rounds >= 8
        # Round r's write sees 0.4 * (r - 1) s: rounds 4, 7, 10, ...
        assert writes == [0, *range(4, report.rounds + 1, 3), report.rounds]
        assert json.loads((tmp_path / "state" / HEARTBEAT_FILE)
                          .read_text())["round"] == report.rounds

    @pytest.mark.parametrize("spec", [
        # Tight links and no deferral budget: some events drop.
        {"capacity": 10.0, "max_deferrals": 0, "max_events": 24},
        {"compile_mode": "staged"},
    ], ids=["drops", "staged"])
    def test_terminal_record_entry_is_final(self, tmp_path, spec):
        """What a ``complete``/``drop`` record carries when the event
        settles is what the ledgers hold at the end of the run."""
        served = serve_fresh(tmp_path / "state", **spec)
        sim = served.service._sim
        records = sim.metrics_collector.records
        order = list(records)
        settled = settled_records(
            scan_journal(tmp_path / "state" / JOURNAL_FILE).records)
        assert len(settled) == len(records)
        assert ([r["kind"] for r in settled].count("drop")
                == served.report.dropped)
        if "max_deferrals" in spec:
            assert served.report.dropped > 0
        for entry in settled:
            eid = entry["event"]
            assert entry["record"] == sim.metrics_collector.export_record(
                eid)
            assert OUTCOME_STATES[entry["kind"]] is sim.lifecycle.state(eid)
            assert entry["index"] == order.index(eid)
            assert entry["origin"] == sim.lifecycle.row(eid).origin

    def test_completed_run_leaves_final_checkpoint(self, tmp_path):
        report = run_baseline(tmp_path)
        checkpoint = load_checkpoint(tmp_path / "baseline"
                                     / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"
        assert checkpoint["service"]["digest"] == report.digest
