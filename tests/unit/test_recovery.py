"""Tests for crash recovery: journal replay, stop-checkpoint restore,
tampering.

A run that crashes leaves no checkpoint: its resume re-runs the spec and
checks it record by record against the whole journal. A checkpoint is
written only at a signalled stop and at the end, so the restore path is
exercised by runs that are signalled (:func:`signal_after`) and then die
in their drain (:func:`stopped_state`).

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
from dataclasses import replace
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
from repro.sim.lifecycle import OUTCOME_STATES, TERMINAL_STATES
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
    #: every ``PreRound`` this run emitted (a restored run: only the
    #: rounds past its checkpoint; a replay: all of them)
    rounds: list[PreRound]


def signal_after(service, rounds):
    """Stop ``service`` the way SIGTERM does once its ``rounds``-th round
    settles. A restored run has stopped already, so there it is a no-op."""
    settled = []

    def stopper(hook):
        settled.append(hook.index)
        if len(settled) == rounds:
            service.request_stop("signal")

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
            service.request_stop("signal")
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


def restored_round_index(state):
    """The round index a resume of ``state`` restarts from: its stop
    checkpoint's, or 0 when the run crashed without one (a replay)."""
    path = state / CHECKPOINT_FILE
    if not path.exists():
        return 0
    return load_checkpoint(path)["pipeline"]["round_index"]


def without_cache_telemetry(metrics, rounds):
    """``RunMetrics.to_dict()`` and the ``PreRound`` records minus the
    probe-cache counters. The cache restarts cold after a resume by design
    (``LMTFScheduler.export_state``: entries never change decisions, only
    wall-clock), so a resumed run may count a would-be hit or invalidation
    as a plain miss. They are the one part of either ledger a resume does
    not reproduce — at the parent commit as well."""
    summary = {key: value for key, value in metrics.to_dict().items()
               if not key.startswith("probe_cache_")}
    return summary, [replace(r, cache_hits=0, cache_misses=0,
                             cache_invalidations=0) for r in rounds]


def assert_same_run(baseline, resumed, resumed_at):
    """Everything a restore touches, not only the digest: a checkpoint that
    restored the wrong ledger still chains the right digest from then on.

    ``resumed_at`` is the round index the resume restored
    (:func:`restored_round_index`, read before the resume ran): the
    resumed run's rounds must be the baseline's from there on. Rounds
    before it are not persisted, so there is nothing of them to compare.

    Record *order* is part of the contract: ``finalize()`` stable-sorts by
    arrival time and backpressure re-stamps held arrivals to equal times,
    so registration order breaks ties and fixes float summation order.
    """
    base, res = baseline.report, resumed.report
    base_sim, res_sim = baseline.service._sim, resumed.service._sim
    assert res.digest == base.digest
    assert (without_cache_telemetry(res.metrics, resumed.rounds)
            == without_cache_telemetry(base.metrics,
                                       baseline.rounds[resumed_at:]))
    assert (list(res_sim.metrics_collector.records.items())
            == list(base_sim.metrics_collector.records.items()))
    assert res_sim.lifecycle.counts() == base_sim.lifecycle.counts()
    assert scrapeable(res.counters) == scrapeable(base.counters)


#: What only a resumed run counts, plus the cold-cache telemetry
#: :func:`without_cache_telemetry` masks.
RESUME_ONLY = ("restarts", "recovery_replayed_events", "probe_cache_hits",
               "probe_cache_misses", "probe_cache_invalidations")


def scrapeable(counters):
    """The exporter's counters a resume has to carry over exactly."""
    return {name: value for name, value in counters.items()
            if name not in RESUME_ONLY}


def resign(path, edit):
    """Apply ``edit`` to the checkpoint at ``path`` and fingerprint the
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


def stopped_state(tmp_path, monkeypatch, stop_after=5, crash_round=6,
                  **kwargs):
    """Signal a stop once round ``stop_after`` settles, then crash in the
    drain at round ``crash_round``: the state dir holds the stop checkpoint
    and journal records past it."""
    state = crash_state(tmp_path, monkeypatch, "post-round", crash_round,
                        stop_after=stop_after, **kwargs)
    assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "stop"
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
    resumed_at = restored_round_index(state)
    resumed = serve_fresh(state, resume=True, scheduler=make(), **kwargs)
    assert_same_run(baseline, resumed, resumed_at)
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
        """The stop checkpoint holds queued events that have already waited
        rounds; the resume reopens their queue stays at the restored round
        count, so the records :func:`assert_same_run` compares still count
        the rounds waited on both sides of the crash."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=6)
        state = stopped_state(tmp_path, monkeypatch, stop_after=6,
                              crash_round=7)
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        queued = {entry["event"]["event_id"]
                  for entry in checkpoint["pipeline"]["queue"]}
        waited = {r["event_id"]: r["rounds_waited"]
                  for r in checkpoint["metrics"]["records"]
                  if r["event_id"] in queued}
        assert waited and min(waited.values()) > 0
        monkeypatch.setenv("REPRO_AUDIT", "1")
        resumed = serve_fresh(state, resume=True, stop_after=6)
        assert_same_run(baseline, resumed,
                        checkpoint["pipeline"]["round_index"])
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
        """A signalled run dies writing its final checkpoint: the stop
        checkpoint it wrote first stays on disk, and the resume restores
        it."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=5)
        state = crash_state(tmp_path, monkeypatch, "snapshot", 2,
                            stop_after=5)
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "stop"
        resumed = serve_fresh(state, resume=True, stop_after=5)
        assert_same_run(baseline, resumed,
                        checkpoint["pipeline"]["round_index"])
        assert resumed.report.digest == baseline.report.digest

    def test_crash_before_first_checkpoint_replays_whole_journal(
            self, tmp_path, monkeypatch):
        """The run dies writing its only checkpoint, the final one: the
        resume is a fresh deterministic re-run verified record-by-record
        against the full journal."""
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "snapshot", 1)
        assert resumed.digest == baseline.digest
        assert resumed.restarts == 1
        # Everything journaled before the crash is replay-verified; the
        # suffix after the crash point is freshly appended on top.
        assert (0 < resumed.counters["recovery_replayed_events"]
                <= resumed.counters["journal_records"])

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
        """REPRO_AUDIT=1 runs assert_restored + per-round audits on the
        resumed service (the chaos-grid configuration)."""
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
        # Died writing the final checkpoint, before it landed: the resume
        # re-runs from the journal alone.
        ("snapshot", 1, 1, 0),
        # Mid-run and late in the run: the snapshot timer fired but built
        # no checkpoint, so the whole journal is the replay suffix.
        ("post-round", 5, 0, 0),
        ("post-round", 10, 0, 0),
        # Signalled after round 5, killed in its drain: the stop
        # checkpoint covers part of the journal, and outcomes since the
        # stop are only in the suffix.
        ("post-round", 7, 1, 5),
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
        covered = 0
        if stop:
            # The stop checkpoint landed; the final one was never built.
            journal = load_checkpoint(state / CHECKPOINT_FILE)["journal"]
            assert journal["offset"] == built[0]
            covered = journal["records"]
        else:
            assert not (state / CHECKPOINT_FILE).exists()
        # Outcomes past the checkpoint: the replay re-checks their
        # settled entries byte for byte.
        journaled = scan_journal(state / JOURNAL_FILE).records
        assert settled_records(journaled[covered:])
        resumed_at = restored_round_index(state)
        resumed = serve_fresh(state, resume=True, scheduler=scheduler(),
                              stop_after=stop)
        assert_same_run(baseline, resumed, resumed_at)
        assert resumed.report.restarts == 1

    def test_resume_equals_uninterrupted_run_audited(self, tmp_path,
                                                     monkeypatch):
        """Same equalities with REPRO_AUDIT=1, so ``assert_restored``
        cross-checks the journal's outcomes against the restored lifecycle
        and metrics counts."""
        _, resumed = crash_and_resume(tmp_path, monkeypatch, "post-round",
                                      10, audit=True)
        assert resumed.audits > 0

    @pytest.mark.parametrize("first, second, stop_after, grows", [
        # The resume dies while it still re-checks the journal: nothing
        # on disk changed, and the next resume replays the same journal.
        (6, 3, None, False),
        # It dies after it caught up and appended records of its own.
        (6, 9, None, True),
        # A restore from the stop checkpoint dies in the drain again.
        (6, 2, 5, True),
    ], ids=["mid-replay", "past-replay", "restored-drain"])
    def test_crash_during_resume_resumes_again(self, tmp_path, monkeypatch,
                                               first, second, stop_after,
                                               grows):
        """A resume killed part way through leaves a state dir the next
        resume continues to the uninterrupted run."""
        baseline = serve_fresh(tmp_path / "baseline", stop_after=stop_after)
        state = crash_state(tmp_path, monkeypatch, "post-round", first,
                            stop_after=stop_after)
        resumed_at = restored_round_index(state)
        journaled = (state / JOURNAL_FILE).read_bytes()
        crash_at(monkeypatch, "post-round", second)
        with pytest.raises(CrashInjected):
            serve_fresh(state, resume=True, stop_after=stop_after)
        disarm(monkeypatch)
        after = (state / JOURNAL_FILE).read_bytes()
        assert after.startswith(journaled)
        assert (len(after) > len(journaled)) is grows
        assert restored_round_index(state) == resumed_at
        resumed = serve_fresh(state, resume=True, stop_after=stop_after)
        assert_same_run(baseline, resumed, resumed_at)
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
        instant's records not yet synced: the stop checkpoint syncs them
        before it is written, and so does the final one."""
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
                service.request_stop("signal")
            return more

        engine.step = stepping
        service.serve()
        assert entered
        checkpoints = [entry for entry in log if entry[0] == "checkpoint"]
        assert [dirty for *_, dirty in checkpoints] == [False, False]
        assert checkpoints[0][1] == entered[0]
        assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "final"


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
        assert_same_run(baseline, resumed, 0)

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
        assert_same_run(baseline, resumed, 0)


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
        """Satellite: SIGTERM-shaped stop = checkpoint + flushed journal
        before the drain; the state dir left behind must be resumable."""
        state = tmp_path / "state"
        service = build_service(state, max_events=None)
        signal_after(service, 3)
        report = service.serve()
        assert report.stopped == "signal"
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"  # drain completed cleanly
        # Journal is complete and consistent with the report.
        scan = scan_journal(state / JOURNAL_FILE)
        ingests = [r for r in scan.records if r["kind"] == "ingest"]
        assert len(ingests) == report.ingested
        # And the dir resumes (a drained run resumes to an immediate,
        # digest-preserving no-op).
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True, max_events=None).serve()
        assert resumed.digest == report.digest
        assert resumed.stopped == "signal"

    def test_stop_checkpoint_written_mid_drain(self, tmp_path, monkeypatch):
        """A crash *after* the signal stop but before the drain finishes
        resumes from the stop checkpoint and completes the drain."""
        # The "stop" checkpoint written right after round 3's signal is
        # the one on disk when the crash lands in round 4.
        state = stopped_state(tmp_path, monkeypatch, stop_after=3,
                              crash_round=4)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.stopped == "signal"
        # The stopped run ingested a prefix of the baseline's events, so
        # its digest differs — but the resumed drain must terminate every
        # ingested event and satisfy the drain audit (serve asserts it).
        assert resumed.completed + resumed.dropped == resumed.ingested

    def test_signal_during_replay_waits_for_the_journal(self, tmp_path,
                                                         monkeypatch):
        """A resume signalled while it still re-checks the journal stops
        once it has re-produced the last journaled record. Its stop
        checkpoint then covers the whole journal, so a crash in its drain
        resumes again, to the run stopped at that record."""
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
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "stop"
        assert checkpoint["journal"]["records"] >= records
        resumed = serve_fresh(state, resume=True, stop_after=3)
        assert_same_run(baseline, resumed,
                        checkpoint["pipeline"]["round_index"])
        assert resumed.report.stopped == "signal"
        assert resumed.report.restarts == 2


class TestTampering:
    """Damage a state dir that holds a stop checkpoint, or, where no
    checkpoint is involved, a crashed run's journal."""

    def test_truncated_journal_below_checkpoint_rejected(self, tmp_path,
                                                         monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
        journal = state / JOURNAL_FILE
        scan = scan_journal(journal)
        # Chop whole frames until we are below the checkpoint's offset.
        offset = load_checkpoint(state / CHECKPOINT_FILE)["journal"]["offset"]
        assert scan.valid_size >= offset
        journal.write_bytes(journal.read_bytes()[:offset - 1])
        with pytest.raises(RecoveryError,
                           match=f"{JOURNAL_FILE} is truncated below"):
            serve_fresh(state, resume=True)

    def test_truncated_history_below_checkpoint_rejected(self, tmp_path,
                                                         monkeypatch):
        """The journal is the settled history now. Dropping the last
        covered record on a clean frame boundary leaves a valid log with
        no torn tail; only the checkpoint's record count can notice."""
        state = stopped_state(tmp_path, monkeypatch)
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

    def test_stale_fingerprint_rejected(self, tmp_path, monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["service"]["ingested"] += 1  # tamper without re-signing
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="fingerprint"):
            build_service(state, resume=True).serve()

    def test_unknown_version_rejected(self, tmp_path, monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                        encoding="utf-8")
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="version"):
            build_service(state, resume=True).serve()

    def test_version_1_checkpoint_rejected(self, tmp_path, monkeypatch):
        """Version 1 carried settled history inline, version 2 a second
        copy of the counters, version 3 closed round logs in its history
        frames, version 4 settled events in a second log and version 5 may
        re-enter a run at a snapshot tick; no reader is kept for any of
        them, the version error tells the operator what to do."""
        state = stopped_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4, 5):
            payload["version"] = version
            path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                            encoding="utf-8")
            with pytest.raises(RecoveryError,
                               match=f"version {version}.*--fresh"):
                serve_fresh(state, resume=True)

    def test_mid_stream_checkpoint_rejected(self, tmp_path, monkeypatch):
        """A checkpoint is written only once ingestion ended; one that
        says otherwise (resigned as a build with tick checkpoints would
        have written it) is refused instead of restored without its
        arrival stream."""
        state = stopped_state(tmp_path, monkeypatch)

        def edit(payload):
            payload["service"]["stream_done"] = False

        resign(state / CHECKPOINT_FILE, edit)
        with pytest.raises(RecoveryError, match="still ingested.*--fresh"):
            serve_fresh(state, resume=True)

    def test_different_counter_set_rejected_by_name(self, tmp_path,
                                                    monkeypatch):
        """What a build with one counter more or fewer would meet: the
        operator gets the key names, not a KeyError or a zeroed series."""
        state = stopped_state(tmp_path, monkeypatch)

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

    def test_undecodable_checkpoint_rejected(self, tmp_path, monkeypatch):
        """A flipped byte that breaks UTF-8 is a damaged checkpoint like
        any other, not a UnicodeDecodeError traceback."""
        state = stopped_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="unreadable.*--fresh"):
            serve_fresh(state, resume=True)

    def test_journal_of_another_run_rejected(self, tmp_path, monkeypatch):
        """Whole valid frames, enough of them, but not the ones the
        checkpoint was written over."""
        state = stopped_state(tmp_path, monkeypatch)
        records = scan_journal(state / JOURNAL_FILE).records
        covered = load_checkpoint(state / CHECKPOINT_FILE)["journal"]
        assert 3 <= covered["records"] < len(records)
        (state / JOURNAL_FILE).write_bytes(
            b"".join(encode_record(r) for r in records[1:] + records[1:]))
        with pytest.raises(RecoveryError,
                           match=f"{JOURNAL_FILE} does not line up"):
            serve_fresh(state, resume=True)

    def test_hostile_journal(self, tmp_path, monkeypatch):
        """Cut ``journal.wal`` at every frame boundary, the bytes either
        side of it and every header byte; flip every header byte and one
        payload byte per frame: a resume either equals the uninterrupted
        run (the damage sat in the suffix no checkpoint covers) or refuses
        with an actionable error — never a third outcome."""
        baseline = serve_fresh(tmp_path / "baseline", max_events=6,
                               stop_after=3)
        crashed = stopped_state(tmp_path, monkeypatch, stop_after=3,
                                crash_round=4, max_events=6)
        files = {path.name: path.read_bytes() for path in crashed.iterdir()}
        log = files[JOURNAL_FILE]
        records = scan_journal(crashed / JOURNAL_FILE).records
        covered = load_checkpoint(crashed / CHECKPOINT_FILE)["journal"]
        offset = covered["offset"]
        resumed_at = restored_round_index(crashed)
        # Settled entries on both sides of the checkpoint: restore reads
        # some, the replay re-checks the others.
        assert settled_records(records[:covered["records"]])
        assert settled_records(records[covered["records"]:])
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
        for kind, damaged in attempts:
            state = tmp_path / "attempt"
            shutil.rmtree(state, ignore_errors=True)
            state.mkdir()
            for name, data in files.items():
                (state / name).write_bytes(data)
            (state / JOURNAL_FILE).write_bytes(damaged)
            try:
                resumed = serve_fresh(state, resume=True, max_events=6,
                                      stop_after=3)
            except (RecoveryError, JournalCorruptionError):
                outcome = "refused"
            else:
                assert_same_run(baseline, resumed, resumed_at)
                outcome = "resumed"
            if kind == "cut":
                # A cut anywhere in the covered prefix refuses; one past
                # it leaves a shorter suffix to replay.
                assert outcome == ("resumed" if len(damaged) >= offset
                                   else "refused")
            elif kind == "refused":
                assert outcome == "refused"
            outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
        assert outcomes["cut", "refused"] and outcomes["cut", "resumed"]
        # A longer length reads as a torn tail at that frame, a shorter
        # one fails its CRC.
        assert outcomes["length", "refused"]

    def test_scheduler_mismatch_rejected(self, tmp_path, monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="scheduler"):
            build_service(state, resume=True,
                          scheduler=LMTFScheduler(alpha=2, seed=5)).serve()

    def test_compile_config_mismatch_rejected(self, tmp_path, monkeypatch):
        """A checkpoint written under atomic compilation refuses to resume
        staged: the schedule would diverge from the journaled prefix."""
        state = stopped_state(tmp_path, monkeypatch)
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

    def test_discard_state_enables_fresh_start(self, tmp_path, monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
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
    def test_checkpoint_is_versioned_and_fingerprinted(self, tmp_path,
                                                       monkeypatch):
        state = stopped_state(tmp_path, monkeypatch)
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "stop"
        assert checkpoint["version"] == CHECKPOINT_VERSION == 6
        for key in ("engine", "pipeline", "lifecycle", "metrics", "network",
                    "sched", "sim_rng", "ids", "journal", "service",
                    "fingerprint"):
            assert key in checkpoint
        # Settled state lives in the journal's terminal records only.
        assert "history" not in checkpoint
        # Every run counter is checkpointed once, in the metrics ledger.
        assert "counters" not in checkpoint
        assert set(checkpoint["metrics"]["totals"]) == {
            counter.name for counter in metrics_mod.RUN_COUNTERS}

    def test_a_new_counter_is_one_declaration(self, tmp_path, monkeypatch):
        """Appending to ``RUN_COUNTERS`` is the whole edit: the total is
        folded, checkpointed and restored with no other change."""
        monkeypatch.setattr(
            metrics_mod, "RUN_COUNTERS",
            (*metrics_mod.RUN_COUNTERS,
             metrics_mod.RunCounter("planning_ops", PreRound,
                                    "planning_ops")))
        baseline = serve_fresh(tmp_path / "baseline", stop_after=5)
        total = baseline.service._sim.metrics_collector.totals["planning_ops"]
        assert total == sum(r.planning_ops for r in baseline.rounds) > 0
        state = stopped_state(tmp_path, monkeypatch)
        carried = load_checkpoint(state / CHECKPOINT_FILE)["metrics"]
        assert 0 < carried["totals"]["planning_ops"] < total
        resumed = serve_fresh(state, resume=True, stop_after=5)
        assert (resumed.service._sim.metrics_collector.totals
                ["planning_ops"]) == total

    def test_checkpoint_size_does_not_grow_with_service_age(
            self, tmp_path, monkeypatch):
        """A checkpoint carries live state only, so a stop after four
        times the events through the same queue cap leaves its size where
        it was."""
        def stop_checkpoint(events):
            service = build_service(tmp_path / f"run-{events}",
                                    max_events=None)
            lifecycle = service._sim.lifecycle
            sizes = {}

            def stopper(_hook):
                if service.ingested >= events:
                    service.request_stop("signal")

            def recording(path, text, **kwargs):
                if Path(path).name == CHECKPOINT_FILE:
                    checkpoint = json.loads(text)
                    carried = ([r["event_id"] for r
                                in checkpoint["metrics"]["records"]]
                               + list(checkpoint["lifecycle"]["states"]))
                    assert not [eid for eid in carried
                                if lifecycle.state(eid) in TERMINAL_STATES]
                    assert "rounds" not in checkpoint["pipeline"]
                    sizes[checkpoint["origin"]] = len(text)
                atomic_write_text(path, text, **kwargs)

            service._sim.hooks.subscribe(PostRound, stopper)
            monkeypatch.setattr(service_mod, "atomic_write_text", recording)
            set_flow_id_state(0)
            set_event_id_state(0)
            report = service.serve()
            assert report.stopped == "signal"
            assert events <= report.ingested < events + 8
            assert report.completed + report.dropped == report.ingested
            assert list(sizes) == ["stop", "final"]
            return sizes["stop"]

        atomic_write_text = service_mod.atomic_write_text
        short, long = stop_checkpoint(40), stop_checkpoint(160)
        assert long <= 1.5 * short

    def test_checkpoint_built_only_when_the_service_stops(
            self, tmp_path, monkeypatch):
        """The snapshot timer fires on its cadence and builds nothing: an
        uninterrupted run builds its final checkpoint only, a signalled
        one its stop checkpoint too."""
        built = []
        build = service_mod.build_checkpoint

        def recording(service, origin, **kwargs):
            built.append(origin)
            return build(service, origin, **kwargs)

        ticks = []
        on_snapshot = SimulationService._on_snapshot

        def counting(service):
            ticks.append(service._sim.now)
            on_snapshot(service)

        monkeypatch.setattr(service_mod, "build_checkpoint", recording)
        monkeypatch.setattr(SimulationService, "_on_snapshot", counting)
        serve_fresh(tmp_path / "plain")
        assert len(ticks) >= 5
        assert built == ["final"]
        built.clear()
        serve_fresh(tmp_path / "stopped", stop_after=5)
        assert built == ["stop", "final"]

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
            assert entry["record"] == vars(records[eid])
            assert OUTCOME_STATES[entry["kind"]] is sim.lifecycle.state(eid)
            assert entry["index"] == order.index(eid)
            assert entry["origin"] == sim.lifecycle.origin(eid)

    def test_completed_run_leaves_final_checkpoint(self, tmp_path):
        report = run_baseline(tmp_path)
        checkpoint = load_checkpoint(tmp_path / "baseline"
                                     / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "final"
        assert checkpoint["service"]["digest"] == report.digest
