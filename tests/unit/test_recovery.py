"""Tests for crash recovery: checkpoint/restore, journal replay, tampering.

Every crash here is injected *in-process* (``REPRO_CRASH_MODE=raise``
turns the SIGKILL crash points into a catchable exception) so the suite
stays fast and fork-free; ``scripts/check_crash_recovery.py`` and the CI
smoke job exercise the same kill points with real SIGKILLs through the
``repro serve`` subprocess path.

Runs on the small diamond network like the rest of the service suite.
"""

import json
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
from repro.sim.hooks import PreRound
from repro.sim.journal import (
    JournalCorruptionError,
    encode_record,
    scan_journal,
)
from repro.sim.lifecycle import OUTCOME_STATES, TERMINAL_STATES
from repro.sim.service import ServiceConfig, ServiceReport, SimulationService
from repro.sim.simulator import SimulationConfig, UpdateSimulator
from repro.sim.snapshot import (
    CHECKPOINT_FILE,
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
                  max_deferrals=4, engine_step_cap=50_000_000):
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
    #: every ``PreRound`` this run emitted (a resumed run: only the rounds
    #: past its checkpoint)
    rounds: list[PreRound]


def serve_fresh(state_dir, **kwargs):
    """One run from zeroed id counters, its rounds recorded off the hook
    bus."""
    set_flow_id_state(0)
    set_event_id_state(0)
    service = build_service(state_dir, **kwargs)
    rounds = record_rounds(service._sim)
    return Served(service, service.serve(), rounds)


def run_baseline(tmp_path):
    return serve_fresh(tmp_path / "baseline").report


def lmtf():
    return LMTFScheduler(alpha=2, seed=5)


def restored_round_index(state):
    """The round index a resume of ``state`` restarts from: its
    checkpoint's, or 0 when the run died before its first checkpoint."""
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
        """The checkpoint holds queued events that have already waited
        rounds; the resume reopens their queue stays at the restored round
        count, so the records :func:`assert_same_run` compares still count
        the rounds waited on both sides of the crash."""
        baseline = serve_fresh(tmp_path / "baseline")
        state = crash_state(tmp_path, monkeypatch, "post-round", 6)
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        queued = {entry["event"]["event_id"]
                  for entry in checkpoint["pipeline"]["queue"]}
        waited = {r["event_id"]: r["rounds_waited"]
                  for r in checkpoint["metrics"]["records"]
                  if r["event_id"] in queued}
        assert waited and min(waited.values()) > 0
        monkeypatch.setenv("REPRO_AUDIT", "1")
        resumed = serve_fresh(state, resume=True)
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
        baseline, resumed = crash_and_resume(tmp_path, monkeypatch,
                                             "snapshot", 2)
        assert resumed.digest == baseline.digest

    def test_crash_before_first_checkpoint_replays_whole_journal(
            self, tmp_path, monkeypatch):
        """No checkpoint on disk yet: the resume is a fresh deterministic
        re-run verified record-by-record against the full journal."""
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
    @pytest.mark.parametrize("label, n, ticks, checkpoints", [
        # Died at the first tick, before its checkpoint landed: the
        # resume re-runs from the journal alone.
        ("snapshot", 1, 1, 0),
        # Died at the third tick, between building its checkpoint and the
        # replace: the second checkpoint covers part of the journal.
        ("snapshot", 3, 3, 2),
        # Late in the run: five checkpoints landed, and outcomes since the
        # last tick that only the journal suffix knows about.
        ("post-round", 10, 5, 5),
    ])
    def test_resume_equals_uninterrupted_run(
            self, tmp_path, monkeypatch, scheduler, label, n, ticks,
            checkpoints):
        baseline = serve_fresh(tmp_path / "baseline", scheduler=scheduler())
        built = []
        build = service_mod.build_checkpoint

        def recording(*args, **kwargs):
            built.append(kwargs["journal_offset"])
            return build(*args, **kwargs)

        monkeypatch.setattr(service_mod, "build_checkpoint", recording)
        state = crash_state(tmp_path, monkeypatch, label, n,
                            scheduler=scheduler())
        monkeypatch.setattr(service_mod, "build_checkpoint", build)
        assert len(built) == ticks
        covered = 0
        if checkpoints:
            # The checkpoint on disk is the last one that landed.
            journal = load_checkpoint(state / CHECKPOINT_FILE)["journal"]
            assert journal["offset"] == built[checkpoints - 1]
            covered = journal["records"]
        else:
            assert not (state / CHECKPOINT_FILE).exists()
        # Outcomes past the checkpoint: the replay re-checks their
        # settled entries byte for byte.
        journaled = scan_journal(state / JOURNAL_FILE).records
        assert settled_records(journaled[covered:])
        resumed_at = restored_round_index(state)
        resumed = serve_fresh(state, resume=True, scheduler=scheduler())
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
        from repro.sim.hooks import PostRound

        state = tmp_path / "state"
        service = build_service(state, max_events=None)
        rounds = {"n": 0}

        def stopper(_hook):
            rounds["n"] += 1
            if rounds["n"] == 3:
                service.request_stop("signal")

        service._sim.hooks.subscribe(PostRound, stopper)
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
        from repro.sim.hooks import PostRound

        baseline = run_baseline(tmp_path)
        state = tmp_path / "state"
        # Round 4 settles before the next snapshot tick, so the "stop"
        # checkpoint written right after round 3's signal is still the
        # one on disk when the crash lands.
        crash_at(monkeypatch, "post-round", 4)
        set_flow_id_state(0)
        set_event_id_state(0)
        service = build_service(state)
        rounds = {"n": 0}

        def stopper(_hook):
            rounds["n"] += 1
            if rounds["n"] == 3:
                service.request_stop("signal")

        service._sim.hooks.subscribe(PostRound, stopper)
        with pytest.raises(CrashInjected):
            service.serve()
        assert load_checkpoint(state / CHECKPOINT_FILE)["origin"] == "stop"
        disarm(monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        resumed = build_service(state, resume=True).serve()
        assert resumed.stopped == "signal"
        # The stopped run ingested a prefix of the baseline's events, so
        # its digest differs — but the resumed drain must terminate every
        # ingested event and satisfy the drain audit (serve asserts it).
        assert resumed.completed + resumed.dropped == resumed.ingested


class TestTampering:
    crash_state = staticmethod(crash_state)

    def test_truncated_journal_below_checkpoint_rejected(self, tmp_path,
                                                         monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch, "post-round", 4)
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
        state = self.crash_state(tmp_path, monkeypatch, "post-round", 4)
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
        state = self.crash_state(tmp_path, monkeypatch)
        journal = state / JOURNAL_FILE
        data = bytearray(journal.read_bytes())
        data[-1] ^= 0xFF
        journal.write_bytes(bytes(data))
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            build_service(state, resume=True).serve()

    def test_stale_fingerprint_rejected(self, tmp_path, monkeypatch):
        state = self.crash_state(tmp_path, monkeypatch)
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
        state = self.crash_state(tmp_path, monkeypatch)
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
        frames and version 4 settled events in a second log; no reader is
        kept for any of them, the version error tells the operator what to
        do."""
        state = self.crash_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        payload = json.loads(path.read_text(encoding="utf-8"))
        for version in (1, 2, 3, 4):
            payload["version"] = version
            path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                            encoding="utf-8")
            with pytest.raises(RecoveryError,
                               match=f"version {version}.*--fresh"):
                serve_fresh(state, resume=True)

    def test_different_counter_set_rejected_by_name(self, tmp_path,
                                                    monkeypatch):
        """What a build with one counter more or fewer would meet: the
        operator gets the key names, not a KeyError or a zeroed series."""
        state = self.crash_state(tmp_path, monkeypatch)

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
        state = self.crash_state(tmp_path, monkeypatch)
        path = state / CHECKPOINT_FILE
        data = bytearray(path.read_bytes())
        data[len(data) // 2] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="unreadable.*--fresh"):
            serve_fresh(state, resume=True)

    def test_journal_of_another_run_rejected(self, tmp_path, monkeypatch):
        """Whole valid frames, enough of them, but not the ones the
        checkpoint was written over."""
        state = self.crash_state(tmp_path, monkeypatch, "post-round", 10)
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
        baseline = serve_fresh(tmp_path / "baseline", max_events=6)
        crashed = crash_state(tmp_path, monkeypatch, "snapshot", 3,
                              max_events=6)
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
                resumed = serve_fresh(state, resume=True, max_events=6)
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
        state = self.crash_state(tmp_path, monkeypatch)
        set_flow_id_state(0)
        set_event_id_state(0)
        with pytest.raises(RecoveryError, match="scheduler"):
            build_service(state, resume=True,
                          scheduler=LMTFScheduler(alpha=2, seed=5)).serve()

    def test_compile_config_mismatch_rejected(self, tmp_path, monkeypatch):
        """A checkpoint written under atomic compilation refuses to resume
        staged: the schedule would diverge from the journaled prefix."""
        state = self.crash_state(tmp_path, monkeypatch)
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
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        disarm(monkeypatch)
        removed = discard_state(state)
        assert set(removed) == {CHECKPOINT_FILE, JOURNAL_FILE, HEARTBEAT_FILE}
        set_flow_id_state(0)
        set_event_id_state(0)
        report = build_service(state).serve()
        assert report.restarts == 0

    def test_fresh_start_refuses_a_leftover_journal(self, tmp_path,
                                                    monkeypatch):
        state = crash_state(tmp_path, monkeypatch, "post-round", 3)
        (state / CHECKPOINT_FILE).unlink()
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
        state = tmp_path / "state"
        crash_at(monkeypatch, "post-round", 3)
        with pytest.raises(CrashInjected):
            build_service(state).serve()
        checkpoint = load_checkpoint(state / CHECKPOINT_FILE)
        assert checkpoint["origin"] == "snapshot-tick"
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
        baseline = serve_fresh(tmp_path / "baseline")
        total = baseline.service._sim.metrics_collector.totals["planning_ops"]
        assert total == sum(r.planning_ops for r in baseline.rounds) > 0
        state = crash_state(tmp_path, monkeypatch)
        carried = load_checkpoint(state / CHECKPOINT_FILE)["metrics"]
        assert 0 < carried["totals"]["planning_ops"] < total
        resumed = serve_fresh(state, resume=True)
        assert (resumed.service._sim.metrics_collector.totals
                ["planning_ops"]) == total

    def test_checkpoint_size_does_not_grow_with_service_age(
            self, tmp_path, monkeypatch):
        """A checkpoint carries live state only, so four times the events
        through the same queue cap leaves its size where it was."""
        def largest_tick_checkpoint(events):
            service = build_service(tmp_path / f"run-{events}",
                                    max_events=events)
            lifecycle = service._sim.lifecycle
            sizes = []

            def recording(path, text, **kwargs):
                if Path(path).name == CHECKPOINT_FILE:
                    checkpoint = json.loads(text)
                    carried = ([r["event_id"] for r
                                in checkpoint["metrics"]["records"]]
                               + list(checkpoint["lifecycle"]["states"]))
                    assert not [eid for eid in carried
                                if lifecycle.state(eid) in TERMINAL_STATES]
                    assert "rounds" not in checkpoint["pipeline"]
                    if checkpoint["origin"] == "snapshot-tick":
                        sizes.append(len(text))
                atomic_write_text(path, text, **kwargs)

            monkeypatch.setattr(service_mod, "atomic_write_text", recording)
            set_flow_id_state(0)
            set_event_id_state(0)
            report = service.serve()
            assert report.completed + report.dropped == events
            assert len(sizes) >= events // 4
            return max(sizes)

        atomic_write_text = service_mod.atomic_write_text
        short, long = (largest_tick_checkpoint(40),
                       largest_tick_checkpoint(160))
        assert long <= 1.5 * short

    def test_durable_serve_keeps_one_log(self, tmp_path):
        """The state dir holds the journal, the checkpoint and the
        heartbeat, and nothing else."""
        run_baseline(tmp_path)
        assert sorted(path.name for path in
                      (tmp_path / "baseline").iterdir()) == sorted(
            [JOURNAL_FILE, CHECKPOINT_FILE, HEARTBEAT_FILE])

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
