"""Restorable checkpoints for the crash-tolerant service.

The state dir holds four files. ``journal.wal`` is the write-ahead journal
(:mod:`repro.sim.journal`); ``heartbeat.json`` is the supervisor's liveness
file; the other two split the simulator's state by whether it can still
change:

* ``checkpoint.json`` — one JSON document with the **live** state, what
  the service-mode simulator needs to continue bit-for-bit: the engine's
  pending heap (as ``(time, seq, tag)`` triples), the round pipeline's
  queue and round state, the lifecycle entries and metrics records of
  events still in flight, the network's placement table and residual
  columns (verbatim floats — addition-order history defines the exact
  bits), every decision-affecting RNG, the scheduler's mutable state
  (sampling RNG, online model, EWMAs), and the service's own ingest
  bookkeeping. Versioned, fingerprinted, and written with
  :func:`repro.core.ioutil.atomic_write_text` so a crash mid-write leaves
  the previous checkpoint intact.
* ``history.wal`` — the **settled** state, in the journal's frame format:
  the record and lifecycle entry of every completed or dropped event. None
  of it can change again, so each checkpoint appends only what settled
  since the previous one (:func:`build_history_frame`) and records how
  much of the log it covers (``"history": {"offset", "records"}``). A
  closed round leaves nothing to persist: its telemetry went out on the
  hook bus as ``PreRound``, and the live round index is part of the
  pipeline's checkpoint state. The frame is appended and
  fsynced *before* the checkpoint replaces its predecessor: a crash in
  between leaves the old checkpoint with a log tail it does not cover,
  which the resume cuts off and the re-executed tick writes again.

Restore = rebuild the identical simulator from its spec, apply the
checkpoint together with the history prefix it covers, skip the arrival
stream's consumed prefix, then re-drive the engine while cross-checking
every re-produced journal record against the journal suffix. Because the
simulator is deterministic, re-execution past the checkpoint reproduces
the original schedule exactly; the journal turns that assumption into a
per-record assertion.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.exceptions import SimulationError
from repro.core.ioutil import payload_fingerprint, rng_state_payload
from repro.sim.journal import JournalScan, encode_record

if TYPE_CHECKING:
    from repro.sim.service import SimulationService
    from repro.sim.simulator import UpdateSimulator

__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_VERSION",
    "HEARTBEAT_FILE",
    "HISTORY_FILE",
    "JOURNAL_FILE",
    "RecoveryError",
    "build_checkpoint",
    "build_history_frame",
    "checked_prefix",
    "discard_state",
    "load_checkpoint",
]

#: Version 4 drops the per-round logs from ``history.wal`` (a frame holds
#: only ``events``); version 3 keeps every run counter once, under
#: ``metrics.totals``; version 2 moved settled history out of the
#: checkpoint into ``history.wal``.
CHECKPOINT_VERSION = 4

#: Fixed state-dir layout. ``snapshots.jsonl``/``latest.json``/
#: ``metrics.prom`` (the observability artifacts) may share the directory.
CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.wal"
HISTORY_FILE = "history.wal"
HEARTBEAT_FILE = "heartbeat.json"


class RecoveryError(SimulationError):
    """A resume attempt cannot proceed (missing, stale, or inconsistent
    state). The message always says what to do about it."""


def build_history_frame(sim: "UpdateSimulator",
                        events_from: int) -> dict[str, Any] | None:
    """What settled since the history log last grew, as one log record.

    Args:
        sim: the simulator, at an engine-callback boundary.
        events_from: terminal events already in the log.

    Returns ``{"events": [...]}`` — the newly terminal events in
    settlement order, each with its metrics record, terminal state, origin
    and registration index — or ``None`` when no event settled.
    """
    events = sim.lifecycle.export_settled(events_from)
    if not events:
        return None
    for entry in events:
        entry["record"] = sim.metrics_collector.export_record(entry["event"])
    return {"events": events}


def build_checkpoint(service: "SimulationService", origin: str,
                     journal_offset: int, journal_records: int,
                     history_offset: int,
                     history_records: int) -> dict[str, Any]:
    """Assemble the live-state checkpoint payload for ``service`` right now.

    Args:
        service: the running service (must be at an engine-callback
            boundary — mid-stage scheduler state is not serializable).
        origin: why the checkpoint was taken — ``"snapshot-tick"`` (the
            periodic timer, *before* the post-snapshot continuation ran),
            ``"stop"`` (a drain-triggering signal), or ``"final"`` (the
            end-of-serve write). Restore uses it to decide whether the
            post-snapshot continuation still has to run.
        journal_offset: byte size of the valid journal at this instant.
        journal_records: records in the journal at this instant.
        history_offset: byte size of the history log at this instant; it
            must already hold everything that has settled.
        history_records: frames in the history log at this instant.

    The writer fingerprints the payload as it encodes it
    (:func:`repro.core.ioutil.fingerprinted_json`).
    """
    from repro.core.event import event_id_state
    from repro.core.flow import flow_id_state

    sim = service._sim
    churn = sim.churn
    return {
        "version": CHECKPOINT_VERSION,
        "origin": origin,
        "scheduler": sim.scheduler.name,
        "compile": {"mode": sim.config.compile_mode,
                    "epsilon": sim.config.compile_epsilon},
        "engine": sim.engine.export_state(),
        "pipeline": sim.pipeline.export_state(),
        "lifecycle": sim.lifecycle.export_state(),
        "metrics": sim.metrics_collector.export_state(),
        "network": sim.network.export_state(),
        "churn": churn.export_state() if churn is not None else None,
        "sched": sim.scheduler.export_state(),
        "sim_rng": rng_state_payload(sim.rng),
        "ids": {"flow": flow_id_state(), "event": event_id_state()},
        "journal": {"offset": journal_offset, "records": journal_records},
        "history": {"offset": history_offset, "records": history_records},
        "service": service._service_state(),
    }


def checked_prefix(scan: JournalScan, name: str, covered: dict[str, Any],
                   ) -> list[dict]:
    """The leading records of ``scan`` a checkpoint covers, verified.

    ``covered`` is the checkpoint's ``{"offset", "records"}`` entry for the
    state-dir log called ``name``: that many records must be on disk and
    must span exactly that many bytes.

    Raises:
        RecoveryError: the log is shorter than the checkpoint says, or its
            leading records do not end at the recorded offset.
    """
    count = int(covered["records"])
    offset = int(covered["offset"])
    if scan.valid_size < offset or len(scan.records) < count:
        raise RecoveryError(
            f"{name} is truncated below the checkpoint "
            f"(valid {scan.valid_size} bytes / {len(scan.records)} records, "
            f"checkpoint expects {offset} bytes / {count} records); the "
            f"state dir is damaged — restore it from a backup or start "
            f"fresh with --fresh")
    prefix = scan.records[:count]
    prefix_bytes = sum(len(encode_record(r)) for r in prefix)
    if prefix_bytes != offset:
        raise RecoveryError(
            f"{name} does not line up with the checkpoint "
            f"({count} records span {prefix_bytes} bytes, checkpoint "
            f"recorded {offset}); the log and the checkpoint come from "
            f"different runs — start fresh with --fresh")
    return prefix


def discard_state(state_dir: str | Path) -> list[str]:
    """Remove a previous run's recovery files (the ``--fresh`` flag).

    Deletes only the four files the service owns — checkpoint, journal,
    history log, heartbeat — never the directory or any observability artifacts that
    share it. Returns the names actually removed.
    """
    directory = Path(state_dir)
    removed: list[str] = []
    for name in (CHECKPOINT_FILE, JOURNAL_FILE, HISTORY_FILE,
                 HEARTBEAT_FILE):
        target = directory / name
        if target.exists():
            target.unlink()
            removed.append(name)
    return removed


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and validate a checkpoint file.

    Raises:
        RecoveryError: the file is missing, unparseable, of an unknown
            version, or its fingerprint does not match its content (stale
            or tampered).
    """
    target = Path(path)
    if not target.exists():
        raise RecoveryError(
            f"no checkpoint at {target}; nothing to resume — start fresh "
            f"(or pass the state dir of the run you meant to continue)")
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RecoveryError(
            f"checkpoint at {target} is unreadable ({exc}); restore from "
            f"a backup or start fresh with --fresh") from exc
    if not isinstance(payload, dict):
        raise RecoveryError(
            f"checkpoint at {target} is not a JSON object; start fresh "
            f"with --fresh")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise RecoveryError(
            f"checkpoint at {target} has version {version!r}, this build "
            f"reads version {CHECKPOINT_VERSION}; resume with the build "
            f"that wrote it or start fresh with --fresh")
    recorded = payload.get("fingerprint")
    expected = payload_fingerprint(
        {k: v for k, v in payload.items() if k != "fingerprint"})
    if recorded != expected:
        raise RecoveryError(
            f"checkpoint at {target} fails its fingerprint check "
            f"(recorded {recorded!r}, content hashes to {expected!r}); "
            f"the file is stale or tampered — restore from a backup or "
            f"start fresh with --fresh")
    return payload
