"""Long-running service mode: unbounded ingest with live observability.

The figure experiments are batch runs — generate a finite queue, ``run()``,
read the metrics. :class:`SimulationService` instead drives an
:class:`~repro.sim.simulator.UpdateSimulator` as a *daemon*: it pulls
update events lazily from an unbounded arrival stream (see
:mod:`repro.traces.arrivals`), applies bounded-queue backpressure, writes
periodic fingerprinted snapshots, and drains gracefully on SIGINT/SIGTERM.
The :class:`~repro.sim.audit.LifecycleAuditor` rides along by default so
bookkeeping drift crashes the service instead of silently corrupting weeks
of soak-test numbers.

Mechanically the service is an *open-loop* driver: exactly one pending
arrival callback sits in the engine at any time, and firing it enqueues
the event and schedules the next pull. Backpressure pauses that chain —
when the scheduler queue reaches ``queue_cap``, the next event is held
until ``PostRound`` observes the queue back at ``resume_depth`` (held
arrivals are re-timestamped to the resume time: an open system cannot
deliver in the past). Everything the service schedules is an ordinary
engine event, so a service run is exactly as deterministic as a batch run
of the same spec.
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
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.core.exceptions import SimulationError
from repro.core.ioutil import (
    atomic_write_text,
    fingerprinted_json,
    set_rng_state,
)
from repro.sim.crashpoint import crash_point
from repro.sim.export import CounterExporter, StatsLine
from repro.sim.hooks import EventCompleted, EventDropped, PostRound
from repro.sim.journal import JournalScan, JournalWriter, encode_record
from repro.sim.metrics import RunMetrics
from repro.sim.snapshot import (
    CHECKPOINT_FILE,
    HEARTBEAT_FILE,
    HISTORY_FILE,
    JOURNAL_FILE,
    RecoveryError,
    build_checkpoint,
    build_history_frame,
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
        snapshot_every: simulated seconds between snapshots (0 disables).
        snapshot_dir: directory for ``snapshots.jsonl`` / ``latest.json`` /
            ``metrics.prom`` (required when ``snapshot_every > 0``).
        stats_every: settled rounds between one-line stats digests
            (0 disables).
        audit: attach a lifecycle auditor (crash on bookkeeping drift).
        audit_every: audit every N-th round (see
            :class:`~repro.sim.audit.LifecycleAuditor`).
        install_signals: install SIGINT/SIGTERM handlers for graceful
            drain while serving (restored afterwards). Disable in tests
            and embedded callers.
        engine_step_cap: hard ceiling on engine events processed in one
            :meth:`SimulationService.serve` call — the runaway backstop
            for unbounded streams.
        state_dir: directory for the crash-recovery state — the
            write-ahead journal (``journal.wal``), the restorable
            live-state checkpoint (``checkpoint.json``), the settled
            history log (``history.wal``) and the supervisor heartbeat
            (``heartbeat.json``). ``None`` disables crash recovery.
        resume: continue the run recorded in ``state_dir`` instead of
            starting fresh. The caller must rebuild the *identical*
            simulator and stream (same spec, same seeds); the service
            restores the latest checkpoint and verifies re-execution
            against the journal suffix.
    """

    queue_cap: int = 64
    resume_depth: int = 32
    max_events: int | None = None
    horizon: float | None = None
    snapshot_every: float = 0.0
    snapshot_dir: str | Path | None = None
    stats_every: int = 0
    audit: bool = True
    audit_every: int = 1
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
        if self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")
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
    #: Checkpoints this run resumed through (0 for an uninterrupted run).
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
            self._auditor = LifecycleAuditor(every=self._config.audit_every)
            sim.attach(self._auditor)
        sim.hooks.subscribe(PostRound, self._on_post_round)
        sim.hooks.subscribe(EventCompleted, self._on_terminal)
        sim.hooks.subscribe(EventDropped, self._on_terminal)
        self._ingested = 0
        self._pulled = 0
        self._pauses = 0
        self._snapshots = 0
        self._held: "UpdateEvent | None" = None
        self._pending_arrival: "UpdateEvent | None" = None
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
        # The settled-history log and how much of the run it holds.
        self._history: JournalWriter | None = None
        self._history_records = 0
        self._history_events = 0
        self._digest = _DIGEST_SEED
        self._replay: deque[bytes] = deque()
        self._replayed = 0
        self._restarts = 0
        self._restored = False
        self._resume_origin: str | None = None
        self._stop_checkpoint_due = False

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
        """Checkpoint restores this run has been through."""
        return self._restarts

    # ------------------------------------------------------------- control

    def request_stop(self, reason: str = "signal") -> None:
        """Stop ingesting; in-flight events drain, then serve() returns.

        Idempotent, safe to call from a signal handler: it only flips
        flags and cancels the pending arrival callback.
        """
        if self._stream_done:
            return
        self._stream_done = True
        self._stopped = reason
        self._held = None
        if self._arrival_handle is not None:
            self._arrival_handle.cancel()
            self._arrival_handle = None
        self._pending_arrival = None
        if reason == "signal" and self._state_dir is not None:
            # Flag only — the serve loop writes the final checkpoint at
            # the next engine-step boundary, where full state is
            # serializable (a signal may land mid-callback).
            self._stop_checkpoint_due = True

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
            if self._restored:
                sim.mark_restored()
            else:
                sim.start()
                self._pull_next()
                if self._config.snapshot_every > 0:
                    self._snapshot_handle = sim.engine.schedule_callback(
                        sim.now + self._config.snapshot_every,
                        self._on_snapshot, tag="service:snapshot")
            self._write_heartbeat()
            previous = self._install_signals()
            try:
                if self._restored and self._resume_origin == "snapshot-tick":
                    # The checkpointing run died after the write but before
                    # its post-snapshot continuation; running it now makes
                    # the resumed run allocate the same engine seqs (timer
                    # re-arm, stall round) the uninterrupted run did.
                    self._after_snapshot()
                steps = 0
                while sim.engine.step():
                    steps += 1
                    if self._stop_checkpoint_due:
                        # SIGTERM/SIGINT landed: persist a resumable state
                        # before the drain proceeds, at the first
                        # engine-step boundary after the signal.
                        self._stop_checkpoint_due = False
                        if self._config.snapshot_dir is not None:
                            self._write_snapshot()
                        self._write_checkpoint("stop")
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
            self._write_checkpoint("final")
        finally:
            for log in (self._journal, self._history):
                if log is not None:
                    log.close()
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
            self.request_stop("max_events")
            return
        event = next(self._stream, None)
        if event is None:
            self.request_stop("stream")
            return
        self._pulled += 1
        if (self._config.horizon is not None
                and event.arrival_time > self._config.horizon):
            self.request_stop("horizon")
            return
        if self._sim.pipeline.queue_depth >= self._config.queue_cap:
            # Backpressure: hold this arrival; _on_post_round releases it
            # once the queue drains to resume_depth.
            self._held = event
            self._pauses += 1
            return
        self._schedule_arrival(event)

    def _schedule_arrival(self, event: "UpdateEvent") -> None:
        when = max(self._sim.now, event.arrival_time)
        self._pending_arrival = event
        self._arrival_handle = self._sim.engine.schedule_callback(
            when, lambda: self._ingest(event),
            tag=f"service:arrival:{event.event_id}")

    def _ingest(self, event: "UpdateEvent") -> None:
        self._arrival_handle = None
        self._pending_arrival = None
        self._ingested += 1
        # Write-ahead: the arrival is journaled (and fsynced) before the
        # queue learns about it, so a crash can lose an arrival only
        # before the rest of the pipeline ever observed it.
        self._journal_append({"kind": "ingest", "n": self._ingested,
                              "event": event.to_payload()})
        self._sim.enqueue(event, origin="stream")
        self._pull_next()

    # ------------------------------------------------------------ plumbing

    def _on_post_round(self, hook: PostRound) -> None:
        crash_point("post-round")
        if (self._held is not None
                and self._sim.pipeline.queue_depth
                <= self._config.resume_depth):
            event, self._held = self._held, None
            self._schedule_arrival(event)
        self._write_heartbeat(round_index=hook.index)

    def _on_terminal(self, hook: "EventCompleted | EventDropped") -> None:
        kind = "complete" if isinstance(hook, EventCompleted) else "drop"
        # Chain the digest before journaling so the journal records and
        # the digest always agree on the outcome order.
        self._digest = sha256(
            (self._digest + f"{hook.event_id}:{kind}:{hook.now!r}")
            .encode("utf-8")).hexdigest()
        self._journal_append({"kind": kind, "event": hook.event_id,
                              "time": hook.now})
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
        self._write_checkpoint("snapshot-tick")
        self._after_snapshot()

    def _after_snapshot(self) -> None:
        """The post-snapshot continuation: stall check, drain check, timer
        re-arm. Split out of :meth:`_on_snapshot` because a resume from a
        ``snapshot-tick`` checkpoint re-enters exactly here — the original
        run wrote the checkpoint *before* this ran, so the restored run
        must run it to allocate the same engine seqs."""
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
        directory = Path(self._config.snapshot_dir or ".")
        directory.mkdir(parents=True, exist_ok=True)
        payload = self.snapshot_payload()
        payload["final"] = final
        line = fingerprinted_json(payload)
        with open(directory / "snapshots.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(line + "\n")
        atomic_write_text(directory / "latest.json", line + "\n")
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

    def _write_checkpoint(self, origin: str) -> None:
        """Make what settled durable, then write the restorable live-state
        checkpoint (atomic replace).

        The history frame goes first: once the checkpoint that stops
        carrying those events is on disk, the log must already hold them.
        Hosts the ``snapshot`` crash point: a kill here leaves the
        *previous* checkpoint intact (the new one never replaces it), so
        recovery restores the older state, cuts the history log back to
        what that checkpoint covers, and replays a longer journal suffix.
        """
        if (self._state_dir is None or self._journal is None
                or self._history is None):
            return
        frame = build_history_frame(self._sim, self._history_events)
        if frame is not None:
            self._history.append(frame)
            self._history_records += 1
            self._history_events += len(frame["events"])
        payload = build_checkpoint(
            self, origin, journal_offset=self._journal_offset,
            journal_records=self._journal_records,
            history_offset=self._history.size,
            history_records=self._history_records)
        crash_point("snapshot")
        atomic_write_text(self._state_dir / CHECKPOINT_FILE,
                          fingerprinted_json(payload) + "\n")

    def _service_state(self) -> dict[str, Any]:
        """The service's own slice of the checkpoint payload."""
        return {
            "ingested": self._ingested,
            "pulled": self._pulled,
            "pauses": self._pauses,
            "snapshots": self._snapshots,
            "held": (self._held.to_payload()
                     if self._held is not None else None),
            "pending_arrival": (self._pending_arrival.to_payload()
                                if self._pending_arrival is not None
                                else None),
            "stream_done": self._stream_done,
            "stopped": self._stopped,
            "digest": self._digest,
            "replayed": self._replayed,
            "restarts": self._restarts,
        }

    def _open_state(self) -> None:
        """Open the state dir: both logs, and (on resume) the checkpoint.

        Raises:
            RecoveryError: a fresh start would clobber an existing run, or
                a resume has nothing usable to resume from.
            JournalCorruptionError: the journal or the history log holds a
                complete frame that fails its CRC (bit-rot or tampering —
                torn tails are tolerated and truncated).
        """
        if self._state_dir is None:
            return
        self._state_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_path = self._state_dir / CHECKPOINT_FILE
        has_checkpoint = checkpoint_path.exists()
        present = [CHECKPOINT_FILE] if has_checkpoint else []
        for name in (JOURNAL_FILE, HISTORY_FILE):
            path = self._state_dir / name
            if path.exists() and path.stat().st_size > 0:
                present.append(name)
        if not self._config.resume and present:
            raise RecoveryError(
                f"state dir {self._state_dir} already holds a run "
                f"({present[0]} present); pass --resume to continue it or "
                f"--fresh to discard it")
        if self._config.resume and not (
                has_checkpoint or JOURNAL_FILE in present):
            raise RecoveryError(
                f"--resume requested but state dir {self._state_dir} "
                f"holds no {CHECKPOINT_FILE} or {JOURNAL_FILE}; remove "
                f"--resume to start fresh")
        self._journal = JournalWriter(self._state_dir / JOURNAL_FILE)
        journal_scan = self._journal.open()
        history = self._history = JournalWriter(
            self._state_dir / HISTORY_FILE, crash_label="history-append")
        history_scan = history.open()
        if self._config.resume:
            checkpoint = (load_checkpoint(checkpoint_path)
                          if has_checkpoint else None)
            self._restore(checkpoint, journal_scan, history_scan)
            # Frames past the restored checkpoint belong to a tick that
            # died before its checkpoint landed (all of them, when no
            # checkpoint ever did); the re-executed tick appends them
            # again, byte for byte.
            history.truncate(int(checkpoint["history"]["offset"])
                             if checkpoint is not None else 0)

    def _restore(self, checkpoint: dict[str, Any] | None,
                 scan: JournalScan, history_scan: JournalScan) -> None:
        """Apply a checkpoint (or a bare journal) to the fresh simulator.

        With no checkpoint — the original run died before its first tick —
        the resume is a fresh deterministic re-run that treats the whole
        journal as its verification suffix. With a checkpoint, every
        component restores its live state from the checkpoint and its
        settled state from the history frames the checkpoint covers
        (``history_scan`` may hold more; the caller cuts them off), the
        engine heap is re-bound through the tag resolver, the arrival
        stream skips its consumed prefix, and the journal records past the
        checkpoint become replay expectations.
        """
        from repro.core.event import UpdateEvent, set_event_id_state
        from repro.core.flow import set_flow_id_state

        if checkpoint is None:
            self._replay = deque(encode_record(r) for r in scan.records)
            self._restarts = 1
            return
        sim = self._sim
        if checkpoint["scheduler"] != sim.scheduler.name:
            raise RecoveryError(
                f"checkpoint was written by scheduler "
                f"{checkpoint['scheduler']!r} but this service runs "
                f"{sim.scheduler.name!r}; resume with the original spec")
        ours = {"mode": sim.config.compile_mode,
                "epsilon": sim.config.compile_epsilon}
        if checkpoint["compile"] != ours:
            raise RecoveryError(
                f"checkpoint was written under compile config "
                f"{checkpoint['compile']!r} but this service runs {ours!r}; "
                f"staged execution changes the schedule — resume with the "
                f"original spec")
        written = set(checkpoint["metrics"]["totals"])
        declared = set(sim.metrics_collector.totals)
        if written != declared:
            raise RecoveryError(
                f"checkpoint was written by a build with a different "
                f"counter set (missing {sorted(declared - written)}, "
                f"unknown {sorted(written - declared)}); resume with that "
                f"build or start fresh with --fresh")
        prefix = checked_prefix(scan, JOURNAL_FILE, checkpoint["journal"])
        frames = checked_prefix(history_scan, HISTORY_FILE,
                                checkpoint["history"])
        settled = [entry for frame in frames for entry in frame["events"]]
        self._history_records = len(frames)
        self._history_events = len(settled)
        svc = checkpoint["service"]
        # Service bookkeeping first: the engine tag resolver needs the
        # pending-arrival payload to re-bind its callback.
        self._ingested = int(svc["ingested"])
        self._pulled = int(svc["pulled"])
        self._pauses = int(svc["pauses"])
        self._snapshots = int(svc["snapshots"])
        self._held = (UpdateEvent.from_payload(svc["held"])
                      if svc["held"] is not None else None)
        self._pending_arrival = (
            UpdateEvent.from_payload(svc["pending_arrival"])
            if svc["pending_arrival"] is not None else None)
        self._stream_done = bool(svc["stream_done"])
        self._stopped = svc["stopped"]
        self._digest = str(svc["digest"])
        self._replayed = int(svc["replayed"])
        self._restarts = int(svc["restarts"]) + 1
        self._journal_records = len(prefix)
        self._journal_offset = int(checkpoint["journal"]["offset"])
        self._resume_origin = str(checkpoint["origin"])
        # Component state.
        sim.network.restore_state(checkpoint["network"])
        sim.lifecycle.restore_state(checkpoint["lifecycle"], settled)
        sim.metrics_collector.restore_state(checkpoint["metrics"], settled)
        sim.pipeline.restore_state(checkpoint["pipeline"])
        # The checkpoint settled every queue stay at export; the restored
        # queue's stays reopen at the restored round count.
        sim.metrics_collector.restamp_waiting(
            sim.pipeline.queued_event_ids())
        if sim.churn is not None and checkpoint["churn"] is not None:
            sim.churn.restore_state(checkpoint["churn"])
        sim.scheduler.restore_state(checkpoint["sched"])
        set_rng_state(sim.rng, checkpoint["sim_rng"])
        handles = sim.engine.restore_state(checkpoint["engine"],
                                           self._resolve_tag)
        if self._pending_arrival is not None:
            tag = f"service:arrival:{self._pending_arrival.event_id}"
            self._arrival_handle = handles.get(tag)
            if self._arrival_handle is None:
                raise RecoveryError(
                    f"checkpoint carries pending arrival "
                    f"{self._pending_arrival.event_id} but the engine "
                    f"export holds no {tag!r} entry; the checkpoint is "
                    f"internally inconsistent")
        self._snapshot_handle = handles.get("service:snapshot")
        # Arrival stream: skip the consumed prefix (advancing its RNGs
        # exactly as the original pulls did), then force the global id
        # counters to the checkpoint values — churn respawns interleaved
        # their own flow ids with the stream's in the original run, so
        # the skip alone cannot realign the counters.
        for _ in range(self._pulled):
            if next(self._stream, None) is None:
                break
        set_flow_id_state(int(checkpoint["ids"]["flow"]))
        set_event_id_state(int(checkpoint["ids"]["event"]))
        self._replay = deque(encode_record(r)
                             for r in scan.records[len(prefix):])
        if self._auditor is not None:
            self._auditor.assert_restored(prefix, settled)
        self._restored = True

    def _resolve_tag(self, tag: str) -> Callable[[], None]:
        """Re-bind a checkpointed engine tag to its callback.

        Service tags resolve here; pipeline and churn tags delegate to
        their owners. An unowned tag means the service was rebuilt with a
        different plugin set than the checkpointing run (e.g. a fault
        schedule attached) and cannot be resumed safely.
        """
        if tag == "service:snapshot":
            return self._on_snapshot
        if tag.startswith("service:arrival:"):
            event_id = tag[len("service:arrival:"):]
            event = self._pending_arrival
            if event is None or event.event_id != event_id:
                raise RecoveryError(
                    f"engine entry {tag!r} has no matching pending arrival "
                    f"in the checkpoint; the checkpoint is internally "
                    f"inconsistent")
            return lambda e=event: self._ingest(e)
        resolved = self._sim.pipeline.resolve_tag(tag)
        if resolved is not None:
            return resolved
        churn = self._sim.churn
        if churn is not None:
            resolved = churn.resolve_tag(tag)
            if resolved is not None:
                return resolved
        raise RecoveryError(
            f"no component owns checkpointed engine tag {tag!r}; was the "
            f"service rebuilt with a different plugin set than the run "
            f"that wrote the checkpoint?")

    def _write_heartbeat(self, round_index: int | None = None) -> None:
        """Refresh the supervisor's liveness/progress file.

        Plain write + rename, no fsync: the heartbeat signals liveness,
        not durability, and an fsync per settled round would tax long
        soaks for nothing.
        """
        if self._state_dir is None:
            return
        payload = {"wall": time.time(), "pid": os.getpid(),
                   "round": (round_index if round_index is not None
                             else self._sim.metrics_collector.round_count),
                   "sim_time": self._sim.now}
        tmp = self._state_dir / f".{HEARTBEAT_FILE}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, self._state_dir / HEARTBEAT_FILE)

    # ------------------------------------------------------------- signals

    def _install_signals(self) -> list[tuple[int, Any]]:
        if not self._config.install_signals:
            return []
        previous: list[tuple[int, Any]] = []

        def on_signal(signum: int, _frame: FrameType | None) -> None:
            self.request_stop("signal")

        for signum in (signal.SIGINT, signal.SIGTERM):
            previous.append((signum, signal.signal(signum, on_signal)))
        return previous

    def _restore_signals(self, previous: list[tuple[int, Any]]) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)
