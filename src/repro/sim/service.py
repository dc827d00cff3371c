"""Long-running service mode: unbounded ingest with live observability.

The figure experiments are batch runs — generate a finite queue, ``run()``,
read the metrics. :class:`SimulationService` instead drives an
:class:`~repro.sim.simulator.UpdateSimulator` as a *daemon*: it pulls
update events lazily from an unbounded arrival stream (see
:mod:`repro.traces.arrivals`), applies bounded-queue backpressure, writes
periodic fingerprinted snapshots, and drains gracefully on SIGINT/SIGTERM
(a signalled stop is a ``stop`` journal record naming the serve-loop step
at which ingestion ended, so a resume stops at that same step).
The :class:`~repro.sim.audit.LifecycleAuditor` rides along by default so
bookkeeping drift crashes the service instead of silently corrupting weeks
of soak-test numbers.

Mechanically the service is an *open-loop* driver: exactly one pending
arrival callback sits in the engine at any time, and firing it enqueues
the event and schedules the next pull. Backpressure pauses that chain —
when the scheduler queue reaches ``queue_cap``, the next event is held
until the queue is back at ``resume_depth``, seen by ``PostRound`` or by a
drop outside any round (held arrivals are re-timestamped to the resume
time: an open system cannot deliver in the past). Everything the service
schedules is an ordinary engine event, so a service run is exactly as
deterministic as a batch run of the same spec.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from types import FrameType
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.exceptions import SimulationError
from repro.core.ioutil import (
    atomic_write_text,
    fingerprinted_json,
    replace_text,
)
from repro.sim.crashpoint import crash_point
from repro.sim.export import CounterExporter, StatsLine
from repro.sim.hooks import EventCompleted, EventDropped, PostRound
from repro.sim.journal import (
    JournalScan,
    JournalWriter,
    encode_record,
    read_frames,
)
from repro.sim.metrics import RunMetrics
from repro.sim.snapshot import (
    CHECKPOINT_FILE,
    HEARTBEAT_FILE,
    JOURNAL_FILE,
    RecoveryError,
    build_checkpoint,
    checked_prefix,
    load_checkpoint,
)

if TYPE_CHECKING:
    from repro.core.event import UpdateEvent
    from repro.sim.engine import EventHandle
    from repro.sim.simulator import UpdateSimulator

__all__ = ["ServiceConfig", "ServiceReport", "SimulationService"]

#: Starting value of the chained completed-event schedule digest.
_DIGEST_SEED = "0" * 64

#: Fewest wall seconds between two heartbeat writes (the first and the
#: final write excepted): the supervisor reads round progress at this
#: granularity, far below its stall timeout.
HEARTBEAT_INTERVAL_S = 1.0


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service run.

    Attributes:
        queue_cap: backpressure high watermark — ingestion pauses while the
            scheduler queue holds this many events.
        resume_depth: low watermark — a paused service resumes pulling once
            the queue drains to this depth (must be < ``queue_cap``).
        max_events: stop ingesting after this many events (``None`` = run
            until the stream ends or a stop is requested). The bounded CI
            smoke run uses this.
        horizon: stop ingesting once an arrival would land past this
            simulated time (``None`` = no horizon).
        snapshot_every: simulated seconds between live metric snapshots
            (0 disables).
        snapshot_dir: directory for ``snapshots.jsonl`` / ``latest.json`` /
            ``metrics.prom`` (``snapshot_every > 0`` needs it or a
            ``state_dir``).
        stats_every: settled rounds between one-line stats digests
            (0 disables).
        audit: attach a lifecycle auditor (crash on bookkeeping drift),
            auditing every round.
        install_signals: install SIGINT/SIGTERM handlers for graceful
            drain while serving (restored afterwards). Disable in tests
            and embedded callers.
        engine_step_cap: hard ceiling on engine events processed in one
            :meth:`SimulationService.serve` call — the runaway backstop
            for unbounded streams.
        state_dir: directory for the crash-recovery state — the
            write-ahead journal (``journal.wal``), the final report
            (``checkpoint.json``, written when a run ends) and the
            supervisor heartbeat (``heartbeat.json``). ``None`` disables
            crash recovery.
        resume: continue the run recorded in ``state_dir`` instead of
            starting fresh. The caller must rebuild the *identical*
            simulator and stream (same spec, same seeds); the service
            re-runs it from the start with the journal as its
            verification suffix, after checking the final report if
            there is one (a crash leaves none).
    """

    queue_cap: int = 64
    resume_depth: int = 32
    max_events: int | None = None
    horizon: float | None = None
    snapshot_every: float = 0.0
    snapshot_dir: str | Path | None = None
    stats_every: int = 0
    audit: bool = True
    install_signals: bool = False
    engine_step_cap: int = 50_000_000
    state_dir: str | Path | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be >= 1")
        if not 0 <= self.resume_depth < self.queue_cap:
            raise ValueError("need 0 <= resume_depth < queue_cap")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if (self.snapshot_every > 0 and self.snapshot_dir is None
                and self.state_dir is None):
            raise ValueError("snapshot_every needs a snapshot_dir or "
                             "state_dir")
        if self.resume and self.state_dir is None:
            raise ValueError("resume requires a state_dir to resume from")
        if self.stats_every < 0:
            raise ValueError("stats_every must be >= 0")
        if self.engine_step_cap < 1:
            raise ValueError("engine_step_cap must be >= 1")


@dataclass
class ServiceReport:
    """What one service run did, returned by :meth:`serve`.

    ``stopped`` records why ingestion ended: ``"stream"`` (the stream ran
    dry), ``"max_events"``, ``"horizon"``, or ``"signal"``. ``metrics`` is
    the standard batch aggregate over everything the service ingested
    (present whenever at least one event was ingested and the drain
    completed cleanly).
    """

    stopped: str
    ingested: int
    completed: int
    dropped: int
    rounds: int
    audits: int
    backpressure_pauses: int
    snapshots: int
    final_time: float
    metrics: RunMetrics | None = None
    counters: dict[str, int] = field(default_factory=dict)
    #: Chained SHA-256 over terminal outcomes (the schedule digest the
    #: chaos harness compares across interrupted and uninterrupted runs).
    digest: str = _DIGEST_SEED
    #: 1 when this run is a resume (a re-run of its journal), else 0: a
    #: re-run cannot count the resumes before it.
    restarts: int = 0


class SimulationService:
    """Drives a simulator from an unbounded arrival stream.

    Args:
        sim: a freshly built :class:`~repro.sim.simulator.UpdateSimulator`
            (no events submitted, never run). The service attaches its own
            exporter/stats/auditor subscribers per ``config``.
        stream: iterator of update events with monotonically non-decreasing
            ``arrival_time`` — typically
            :func:`repro.traces.arrivals.make_stream`. May be finite.
        config: service knobs.
    """

    def __init__(self, sim: "UpdateSimulator",
                 stream: Iterator["UpdateEvent"],
                 config: ServiceConfig | None = None) -> None:
        self._sim = sim
        self._stream = stream
        self._config = config or ServiceConfig()
        # Re-assert the watermark ordering defensively: ServiceConfig
        # validates it in __post_init__, but the service accepts any
        # duck-typed config object (tests stub them), and with
        # resume_depth >= queue_cap the backpressure hysteresis collapses:
        # every settled round releases the held arrival while the queue
        # still sits at the cap, so the service thrashes pause→resume on
        # every round, the cap stops bounding the queue, and each held
        # arrival is re-timestamped — an ingest livelock where pause
        # bookkeeping grows without the queue ever draining below the cap.
        if self._config.queue_cap < 1:
            raise ValueError(
                f"queue_cap must be >= 1, got {self._config.queue_cap}")
        if not 0 <= self._config.resume_depth < self._config.queue_cap:
            raise ValueError(
                f"need 0 <= resume_depth < queue_cap, got "
                f"resume_depth={self._config.resume_depth} with "
                f"queue_cap={self._config.queue_cap}")
        self._exporter = CounterExporter(readers={
            "restarts": lambda: self._restarts,
            "journal_records": lambda: self._journal_records,
            "recovery_replayed_events": lambda: self._replayed})
        sim.attach(self._exporter)
        if self._config.stats_every:
            sim.attach(StatsLine(every=self._config.stats_every))
        self._auditor = sim.auditor
        if self._config.audit and self._auditor is None:
            from repro.sim.audit import LifecycleAuditor
            self._auditor = LifecycleAuditor()
            sim.attach(self._auditor)
        sim.hooks.subscribe(PostRound, self._on_post_round)
        sim.hooks.subscribe(EventCompleted, self._on_terminal)
        sim.hooks.subscribe(EventDropped, self._on_terminal)
        self._ingested = 0
        self._pauses = 0
        self._snapshots = 0
        self._held: "UpdateEvent | None" = None
        self._arrival_handle: "EventHandle | None" = None
        self._snapshot_handle: "EventHandle | None" = None
        self._stream_done = False
        self._stopped: str | None = None
        self._served = False
        # Crash-recovery state (inert without config.state_dir).
        self._state_dir = (Path(self._config.state_dir)
                           if self._config.state_dir is not None else None)
        self._journal: JournalWriter | None = None
        self._journal_records = 0
        self._journal_offset = 0
        # time.monotonic() of the last heartbeat write.
        self._heartbeat_at: float | None = None
        self._digest = _DIGEST_SEED
        self._replay: deque[bytes] = deque()
        self._replayed = 0
        #: Snapshot seqs the resumed run already wrote to
        #: ``snapshots.jsonl``; the ticks that re-reach them write nothing.
        self._snapshots_on_disk = 0
        self._restarts = 0
        #: Set by :meth:`request_stop`; the serve loop acts on it.
        self._stop_requested = False
        #: The serve-loop step of the journal's ``stop`` record, on a
        #: resume of a signalled run: the re-run stops there too.
        self._stop_step: int | None = None

    # ------------------------------------------------------------- queries

    @property
    def ingested(self) -> int:
        """Events pulled from the stream and enqueued so far."""
        return self._ingested

    @property
    def paused(self) -> bool:
        """True while backpressure is holding the next arrival."""
        return self._held is not None

    @property
    def exporter(self) -> CounterExporter:
        return self._exporter

    @property
    def digest(self) -> str:
        """Chained SHA-256 over every terminal outcome so far — two runs
        with identical digests completed/dropped the same events at the
        same simulated times in the same order."""
        return self._digest

    @property
    def restarts(self) -> int:
        """Resumes this run has been through (see
        :attr:`ServiceReport.restarts`)."""
        return self._restarts

    # ------------------------------------------------------------- control

    def request_stop(self) -> None:
        """Stop ingesting; in-flight events drain, then serve() returns.

        Idempotent, safe to call from a signal handler: it only sets a
        flag. The serve loop ends ingestion at the next engine-step
        boundary and journals that step in a ``stop`` record. A request
        that lands while a resume still re-produces the journal waits
        until the replay has caught up: stopped inside the replayed
        prefix, the run would fork from the records the journal already
        holds.
        """
        self._stop_requested = True

    def serve(self) -> ServiceReport:
        """Run the service until the stream ends (or a stop) and the
        last in-flight event settles; returns the :class:`ServiceReport`.

        Raises:
            SimulationError: called twice, the engine exceeded
                ``engine_step_cap``, or (via the auditor)
                :class:`~repro.sim.audit.AuditError` on ledger drift.
        """
        if self._served:
            raise SimulationError("service already ran; build a new one")
        self._served = True
        sim = self._sim
        try:
            self._open_state()
            sim.start()
            self._pull_next()
            if self._config.snapshot_every > 0:
                self._snapshot_handle = sim.engine.schedule_callback(
                    sim.now + self._config.snapshot_every,
                    self._on_snapshot, tag="service:snapshot")
            self._write_heartbeat()
            previous = self._install_signals()
            try:
                steps = 0
                engine, journal = sim.engine, self._journal
                stop_step = self._stop_step
                while engine.step():
                    steps += 1
                    if journal is not None and journal.dirty:
                        after = engine.next_time
                        if after is None or after > engine.now:
                            # Group commit: the instant's last step is
                            # done, so fsync its records before the clock
                            # moves on.
                            journal.sync()
                    if steps == stop_step or (
                            self._stop_requested and not self._replay):
                        self._stop(steps)
                    if steps >= self._config.engine_step_cap:
                        raise SimulationError(
                            f"service exceeded engine_step_cap="
                            f"{self._config.engine_step_cap}; raise the cap "
                            f"for longer soaks")
            finally:
                self._restore_signals(previous)
            if self._replay:
                raise RecoveryError(
                    f"{len(self._replay)} journal records were never "
                    f"re-produced by the resumed run; the journal does not "
                    f"belong to this service spec")
            if self._auditor is not None:
                self._auditor.assert_drained()
            metrics: RunMetrics | None = None
            if (self._ingested
                    and not sim.metrics_collector.incomplete_events()):
                metrics = sim.metrics_collector.finalize()
            if (self._config.snapshot_every > 0
                    and self._config.snapshot_dir is not None):
                self._write_snapshot(final=True)
            self._write_heartbeat(final=True)
            self._write_checkpoint()
        finally:
            if self._journal is not None:
                self._journal.close()
        collector = sim.metrics_collector
        return ServiceReport(
            stopped=self._stopped or "stream",
            ingested=self._ingested,
            completed=collector.completed_count,
            dropped=collector.dropped_count,
            rounds=collector.round_count,
            audits=self._auditor.audits if self._auditor else 0,
            backpressure_pauses=self._pauses,
            snapshots=self._snapshots,
            final_time=sim.now,
            metrics=metrics,
            counters=self._exporter.counters,
            digest=self._digest,
            restarts=self._restarts)

    # ----------------------------------------------------------- ingestion

    def _pull_next(self) -> None:
        """Pull one event from the stream and schedule (or hold) it."""
        if self._stream_done:
            return
        if (self._config.max_events is not None
                and self._ingested >= self._config.max_events):
            self._end_ingestion("max_events")
            return
        event = next(self._stream, None)
        if event is None:
            self._end_ingestion("stream")
            return
        if (self._config.horizon is not None
                and event.arrival_time > self._config.horizon):
            self._end_ingestion("horizon")
            return
        if self._sim.pipeline.queue_depth >= self._config.queue_cap:
            # Backpressure: hold this arrival; _release_held schedules it
            # once the queue drains to resume_depth.
            self._held = event
            self._pauses += 1
            return
        self._schedule_arrival(event)

    def _end_ingestion(self, reason: str) -> None:
        self._stream_done = True
        self._stopped = reason
        self._held = None
        if self._arrival_handle is not None:
            self._arrival_handle.cancel()
            self._arrival_handle = None

    def _stop(self, step: int) -> None:
        """Act on a stop request at the boundary after serve-loop step
        ``step``: end ingestion and journal the step, synced before the
        drain goes on. A replay re-produces the record here, at the step
        its journal names, and checks it like any other."""
        self._stop_requested = False
        if self._stream_done:
            return
        self._end_ingestion("signal")
        self._journal_append({"kind": "stop", "step": step})
        if self._journal is not None:
            self._journal.sync()

    def _schedule_arrival(self, event: "UpdateEvent") -> None:
        when = max(self._sim.now, event.arrival_time)
        self._arrival_handle = self._sim.engine.schedule_callback(
            when, lambda: self._ingest(event),
            tag=f"service:arrival:{event.event_id}")

    def _ingest(self, event: "UpdateEvent") -> None:
        self._arrival_handle = None
        self._ingested += 1
        # Write-ahead: the arrival is journaled before the queue learns
        # about it, so a crash can lose an arrival only before the rest
        # of the pipeline ever observed it.
        self._journal_append({"kind": "ingest", "n": self._ingested,
                              "event": event.to_payload()})
        self._sim.enqueue(event, origin="stream")
        self._pull_next()

    # ------------------------------------------------------------ plumbing

    def _on_post_round(self, hook: PostRound) -> None:
        crash_point("post-round")
        self._release_held()
        self._write_heartbeat(round_index=hook.index)

    def _release_held(self) -> None:
        """Schedule the held arrival once the queue is at ``resume_depth``."""
        if (self._held is not None
                and self._sim.pipeline.queue_depth
                <= self._config.resume_depth):
            event, self._held = self._held, None
            self._schedule_arrival(event)

    def _on_terminal(self, hook: "EventCompleted | EventDropped") -> None:
        kind = "complete" if isinstance(hook, EventCompleted) else "drop"
        # Chain the digest before journaling so the journal records and
        # the digest always agree on the outcome order.
        self._digest = sha256(
            (self._digest + f"{hook.event_id}:{kind}:{hook.now!r}")
            .encode("utf-8")).hexdigest()
        record: dict[str, Any] = {"kind": kind, "event": hook.event_id,
                                  "time": hook.now}
        if self._journal is not None:
            # The settled entry, which a replay verifies byte for byte.
            sim = self._sim
            record.update(sim.lifecycle.settled_entry(hook.event_id))
            record["record"] = sim.metrics_collector.export_record(
                hook.event_id)
        self._journal_append(record)
        if kind == "drop" and not self._sim.pipeline.round_active:
            # A stall pass drops outside any round and announces no
            # PostRound: without this, a queue emptied by drops would
            # never ingest again.
            self._release_held()
        # Once the stream is done and the last event settled, cancel the
        # snapshot timer so the engine drains at the real end time instead
        # of idling forward to the next snapshot tick. The handle cancel
        # is idempotent even if the timer already fired.
        if (self._stream_done and self._held is None
                and self._sim.pipeline.events_remaining == 0
                and self._snapshot_handle is not None):
            self._snapshot_handle.cancel()
            self._snapshot_handle = None

    # ----------------------------------------------------------- snapshots

    def _on_snapshot(self) -> None:
        self._snapshot_handle = None
        if self._config.snapshot_dir is not None:
            self._write_snapshot()
        if (self._sim.engine.pending == 0
                and self._sim.pipeline.queue_depth > 0):
            # With the timer popped, nothing is pending: the queue is
            # genuinely stalled and the recurring timer was masking it
            # from the pipeline's deadlock detection (which keys off
            # ``engine.pending == 0``). Run a round so the pipeline can
            # stall-handle (defer/drop) or raise its deadlock error.
            self._sim.maybe_round()
        if (self._stream_done and self._held is None
                and self._sim.pipeline.events_remaining == 0):
            return  # drained: let the engine stop at the real end time
        self._snapshot_handle = self._sim.engine.schedule_callback(
            self._sim.now + self._config.snapshot_every, self._on_snapshot,
            tag="service:snapshot")

    def snapshot_payload(self) -> dict[str, Any]:
        """The current snapshot content (fingerprinted by the writer)."""
        sim = self._sim
        collector = sim.metrics_collector
        return {
            "seq": self._snapshots,
            "time": sim.now,
            "ingested": self._ingested,
            "queue_depth": sim.pipeline.queue_depth,
            "events_remaining": sim.pipeline.events_remaining,
            "rounds": collector.round_count,
            "completed": collector.completed_count,
            "dropped": collector.dropped_count,
            "paused": self.paused,
            "backpressure_pauses": self._pauses,
            "lifecycle": {state.value: count for state, count
                          in sim.lifecycle.counts().items()},
            "counters": self._exporter.counters,
        }

    def _write_snapshot(self, final: bool = False) -> None:
        """Append this tick's line and refresh ``latest.json`` and
        ``metrics.prom``. None of the three is fsynced: no resume reads
        them back except for the last seq."""
        if self._snapshots < self._snapshots_on_disk:
            # The run being resumed wrote this seq's line already: count
            # it only, so the file's seqs go on where it left off.
            self._snapshots += 1
            return
        directory = Path(self._config.snapshot_dir or ".")
        directory.mkdir(parents=True, exist_ok=True)
        payload = self.snapshot_payload()
        payload["final"] = final
        line = fingerprinted_json(payload)
        with open(directory / "snapshots.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(line + "\n")
        replace_text(directory / "latest.json", line + "\n")
        self._exporter.write(directory / "metrics.prom")
        self._snapshots += 1

    # ------------------------------------------------------ crash recovery

    def _journal_append(self, record: dict[str, Any]) -> None:
        """Durably append ``record`` — or, while a resume is replaying the
        journal suffix, verify re-execution re-produced it exactly.

        Frames are compared byte-for-byte (canonical JSON encoding), so
        any divergence — different event, different time, different order
        — fails immediately instead of silently forking the schedule.
        """
        if self._replay:
            expected = self._replay.popleft()
            if encode_record(record) != expected:
                raise RecoveryError(
                    f"recovery replay diverged from the journal: "
                    f"re-execution produced {record!r} where the journal "
                    f"holds {json.loads(expected[8:].decode('utf-8'))!r}; "
                    f"the state dir was not written by this service spec")
            self._replayed += 1
            self._journal_records += 1
            self._journal_offset += len(expected)
            return
        if self._journal is None:
            return
        self._journal.append(record)
        self._journal_records += 1
        self._journal_offset = self._journal.size

    def _write_checkpoint(self) -> None:
        """Write the final report (atomic replace) when the run ends.

        Between its start and its end the journal alone makes a run
        durable; a resume only checks the report against its spec and its
        journal. Hosts the ``snapshot`` crash point: a kill here leaves no
        report, and the resume re-runs the whole journal.
        """
        if self._state_dir is None or self._journal is None:
            return
        # The report names a journal offset: everything up to it must be
        # on disk before the report can be.
        self._journal.sync()
        payload = build_checkpoint(
            self, journal_offset=self._journal_offset,
            journal_records=self._journal_records)
        crash_point("snapshot")
        atomic_write_text(self._state_dir / CHECKPOINT_FILE,
                          fingerprinted_json(payload) + "\n")

    def _service_state(self) -> dict[str, Any]:
        """The service's own slice of the final report."""
        return {
            "ingested": self._ingested,
            "pauses": self._pauses,
            "snapshots": self._snapshots,
            "stopped": self._stopped,
            "digest": self._digest,
        }

    def _open_state(self) -> None:
        """Open the state dir: the journal, and (on resume) the report.

        Raises:
            RecoveryError: a fresh start would clobber an existing run, or
                a resume has nothing usable to resume from.
            JournalCorruptionError: the journal holds a complete frame that
                fails its CRC (bit-rot or tampering — torn tails are
                tolerated and truncated).
        """
        if self._state_dir is None:
            return
        self._state_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = self._state_dir / CHECKPOINT_FILE
        journal_path = self._state_dir / JOURNAL_FILE
        has_checkpoint = checkpoint_path.exists()
        has_journal = (journal_path.exists()
                       and journal_path.stat().st_size > 0)
        if not self._config.resume and (has_checkpoint or has_journal):
            raise RecoveryError(
                f"state dir {self._state_dir} already holds a run "
                f"({CHECKPOINT_FILE if has_checkpoint else JOURNAL_FILE} "
                f"present); pass --resume to continue it or --fresh to "
                f"discard it")
        if self._config.resume and not (has_checkpoint or has_journal):
            raise RecoveryError(
                f"--resume requested but state dir {self._state_dir} "
                f"holds no {CHECKPOINT_FILE} or {JOURNAL_FILE}; remove "
                f"--resume to start fresh")
        self._journal = JournalWriter(journal_path)
        scan = self._journal.open()
        if not self._config.resume:
            return
        if has_checkpoint:
            self._check_report(load_checkpoint(checkpoint_path), scan)
        # The resume is a re-run of the spec from its start, and every
        # record it re-produces is checked against the journal.
        self._replay = deque(read_frames(journal_path, scan))
        self._stop_step = next((int(r["step"]) for r in scan.records
                                if r["kind"] == "stop"), None)
        self._restarts = 1
        if self._config.snapshot_dir is not None:
            self._snapshots_on_disk = _snapshot_seqs_written(
                Path(self._config.snapshot_dir) / "snapshots.jsonl")

    def _check_report(self, report: dict[str, Any],
                      scan: JournalScan) -> None:
        """Refuse a resume whose final report was written by another spec
        or build, or whose journal is shorter than the report covers."""
        sim = self._sim
        if report["scheduler"] != sim.scheduler.name:
            raise RecoveryError(
                f"checkpoint was written by scheduler "
                f"{report['scheduler']!r} but this service runs "
                f"{sim.scheduler.name!r}; resume with the original spec")
        ours = {"mode": sim.config.compile_mode,
                "epsilon": sim.config.compile_epsilon}
        if report["compile"] != ours:
            raise RecoveryError(
                f"checkpoint was written under compile config "
                f"{report['compile']!r} but this service runs {ours!r}; "
                f"staged execution changes the schedule — resume with the "
                f"original spec")
        written = set(report["metrics"]["totals"])
        declared = set(sim.metrics_collector.totals)
        if written != declared:
            raise RecoveryError(
                f"checkpoint was written by a build with a different "
                f"counter set (missing {sorted(declared - written)}, "
                f"unknown {sorted(written - declared)}); resume with that "
                f"build or start fresh with --fresh")
        checked_prefix(scan, report["journal"])

    def _write_heartbeat(self, round_index: int | None = None,
                         final: bool = False) -> None:
        """Refresh the supervisor's liveness/progress file, at most once
        per :data:`HEARTBEAT_INTERVAL_S` of wall time; the first write and
        the ``final`` one always land.

        Atomic but not fsynced: the heartbeat signals liveness, not
        durability, and an fsync per settled round would tax long soaks
        for nothing.
        """
        if self._state_dir is None:
            return
        now = time.monotonic()
        if (not final and self._heartbeat_at is not None
                and now - self._heartbeat_at < HEARTBEAT_INTERVAL_S):
            return
        self._heartbeat_at = now
        payload = {"wall": time.time(), "pid": os.getpid(),
                   "round": (round_index if round_index is not None
                             else self._sim.metrics_collector.round_count),
                   "sim_time": self._sim.now}
        replace_text(self._state_dir / HEARTBEAT_FILE, json.dumps(payload))

    # ------------------------------------------------------------- signals

    def _install_signals(self) -> list[tuple[int, Any]]:
        if not self._config.install_signals:
            return []
        previous: list[tuple[int, Any]] = []

        def on_signal(signum: int, _frame: FrameType | None) -> None:
            self.request_stop()

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous.append((signum, signal.signal(signum, on_signal)))
        return previous

    def _restore_signals(self, previous: list[tuple[int, Any]]) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)


def _snapshot_seqs_written(path: Path) -> int:
    """How many snapshot seqs ``path`` already holds: one past the seq of
    its last complete, readable line (0 when there is none)."""
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return 0
    for line in reversed(text.split("\n")[:-1]):
        try:
            return int(json.loads(line)["seq"]) + 1
        except (ValueError, KeyError, TypeError):
            continue
    return 0
