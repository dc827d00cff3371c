"""Restorable checkpoints for the crash-tolerant service.

The state dir holds three files. ``heartbeat.json`` is the supervisor's
liveness file; the other two split the simulator's state by whether it can
still change:

* ``journal.wal`` — the write-ahead journal (:mod:`repro.sim.journal`).
  Besides every ingested arrival it holds the **settled** state: the
  ``complete``/``drop`` record an event gets when it settles carries its
  metrics record, registration index and origin, none of which can change
  again.
* ``checkpoint.json`` — one JSON document with the **live** state, what
  the service-mode simulator needs to continue bit-for-bit: the engine's
  pending heap (as ``(time, seq, tag)`` triples), the round pipeline's
  queue and round state, the lifecycle entries and metrics records of
  events still in flight, the network's placement table and residual
  columns (verbatim floats — addition-order history defines the exact
  bits), every decision-affecting RNG, the scheduler's mutable state
  (sampling RNG, online model, EWMAs), the service's own ingest
  bookkeeping, and how much of the journal it covers
  (``"journal": {"offset", "records"}``). A closed round leaves nothing
  to persist: its telemetry went out on the hook bus as ``PreRound``, and
  the live round index is part of the pipeline's checkpoint state.
  Written only when the service stops — at a signalled stop
  (``"stop"``) and at the end (``"final"``) — never on the snapshot
  timer. Versioned, fingerprinted, and written with
  :func:`repro.core.ioutil.atomic_write_text` so a crash mid-write leaves
  what was on disk before.

Resume = rebuild the identical simulator from its spec. A crashed run
left no checkpoint, so it re-runs from the start; from a stop or final
checkpoint it applies the checkpoint together with the settled entries
of the journal prefix it covers; ingestion has ended by then, so the
arrival stream is not read again. Either way every re-produced journal record is cross-checked
against the journal: the simulator is deterministic, and the journal
turns that into a per-record assertion, settled metrics records included.
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

__all__ = [
    "CHECKPOINT_FILE",
    "CHECKPOINT_VERSION",
    "HEARTBEAT_FILE",
    "JOURNAL_FILE",
    "RecoveryError",
    "build_checkpoint",
    "checked_prefix",
    "discard_state",
    "load_checkpoint",
]

#: Version 6 is written only at a stop or the end, so no checkpoint
#: re-enters a run at a snapshot tick; version 5 reads settled state from
#: the journal's terminal records and drops the separate history log;
#: version 4 dropped the per-round logs from that log; version 3 keeps
#: every run counter once, under ``metrics.totals``; version 2 moved
#: settled history out of the checkpoint.
CHECKPOINT_VERSION = 6

#: Fixed state-dir layout. ``snapshots.jsonl``/``latest.json``/
#: ``metrics.prom`` (the observability artifacts) may share the directory.
CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.wal"
HEARTBEAT_FILE = "heartbeat.json"


class RecoveryError(SimulationError):
    """A resume attempt cannot proceed (missing, stale, or inconsistent
    state). The message always says what to do about it."""


def build_checkpoint(service: "SimulationService", origin: str,
                     journal_offset: int,
                     journal_records: int) -> dict[str, Any]:
    """Assemble the live-state checkpoint payload for ``service`` right now.

    Args:
        service: the running service (must be at an engine-callback
            boundary — mid-stage scheduler state is not serializable).
        origin: why the checkpoint was taken — ``"stop"`` (a
            drain-triggering signal) or ``"final"`` (the end-of-serve
            write).
        journal_offset: byte size of the valid journal at this instant.
        journal_records: records in the journal at this instant; their
            terminal records hold everything that has settled.

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
        "service": service._service_state(),
    }


def checked_prefix(scan: JournalScan, covered: dict[str, Any],
                   ) -> list[dict]:
    """The leading journal records of ``scan`` a checkpoint covers,
    verified.

    ``covered`` is the checkpoint's ``"journal": {"offset", "records"}``
    entry: that many records must be on disk and must span exactly that
    many bytes.

    Raises:
        RecoveryError: the journal is shorter than the checkpoint says, or
            its leading records do not end at the recorded offset.
    """
    count = int(covered["records"])
    offset = int(covered["offset"])
    if scan.valid_size < offset or len(scan.records) < count:
        raise RecoveryError(
            f"{JOURNAL_FILE} is truncated below the checkpoint "
            f"(valid {scan.valid_size} bytes / {len(scan.records)} records, "
            f"checkpoint expects {offset} bytes / {count} records); the "
            f"state dir is damaged — restore it from a backup or start "
            f"fresh with --fresh")
    prefix = scan.records[:count]
    prefix_bytes = sum(len(encode_record(r)) for r in prefix)
    if prefix_bytes != offset:
        raise RecoveryError(
            f"{JOURNAL_FILE} does not line up with the checkpoint "
            f"({count} records span {prefix_bytes} bytes, checkpoint "
            f"recorded {offset}); the journal and the checkpoint come from "
            f"different runs — start fresh with --fresh")
    return prefix


def discard_state(state_dir: str | Path) -> list[str]:
    """Remove a previous run's recovery files (the ``--fresh`` flag).

    Deletes only the three files the service owns — checkpoint, journal,
    heartbeat — never the directory or any observability artifacts that
    share it. Returns the names actually removed.
    """
    directory = Path(state_dir)
    removed: list[str] = []
    for name in (CHECKPOINT_FILE, JOURNAL_FILE, HEARTBEAT_FILE):
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
