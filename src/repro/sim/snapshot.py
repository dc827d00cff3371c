"""The final report of the crash-tolerant service, and the state-dir layout.

The state dir holds three files:

* ``journal.wal`` — the write-ahead journal (:mod:`repro.sim.journal`):
  every ingested arrival, every outcome with its settled entry (metrics
  record, registration index, origin), and, when a signal stopped
  ingestion, the ``stop`` record naming the serve-loop step it took
  effect at.
* ``checkpoint.json`` — the final report, written once when a run ends:
  the scheduler, compile config and run counters it ran with, the chained
  schedule digest, and how much of the journal it covers
  (``"journal": {"offset", "records"}``). Versioned, fingerprinted, and
  written with :func:`repro.core.ioutil.atomic_write_text`, so a crash
  mid-write leaves no report.
* ``heartbeat.json`` — the supervisor's liveness file.

A resume is a re-run. It rebuilds the identical simulator from its spec
and runs it from the start, and the journal is its verification suffix:
the simulator is deterministic, and the journal turns that into a
per-record assertion, settled entries and the stop step included. A
report, when there is one, is only checked: a resume refuses one written
by another spec or build, or a journal shorter than the report covers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.exceptions import SimulationError
from repro.core.ioutil import payload_fingerprint
from repro.sim.journal import JournalScan

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

#: Version 7 is a final report a resume checks, not live state it
#: restores.
CHECKPOINT_VERSION = 7

#: Fixed state-dir layout. ``snapshots.jsonl``/``latest.json``/
#: ``metrics.prom`` (the observability artifacts) may share the directory.
CHECKPOINT_FILE = "checkpoint.json"
JOURNAL_FILE = "journal.wal"
HEARTBEAT_FILE = "heartbeat.json"


class RecoveryError(SimulationError):
    """A resume attempt cannot proceed (missing, stale, or inconsistent
    state). The message always says what to do about it."""


def build_checkpoint(service: "SimulationService", journal_offset: int,
                     journal_records: int) -> dict[str, Any]:
    """Assemble the final report of ``service``, whose run has ended.

    Args:
        service: the service, drained.
        journal_offset: byte size of the valid journal.
        journal_records: records in the journal.

    The writer fingerprints the payload as it encodes it
    (:func:`repro.core.ioutil.fingerprinted_json`).
    """
    sim = service._sim
    return {
        "version": CHECKPOINT_VERSION,
        "origin": "final",
        "scheduler": sim.scheduler.name,
        "compile": {"mode": sim.config.compile_mode,
                    "epsilon": sim.config.compile_epsilon},
        "metrics": sim.metrics_collector.export_state(),
        "journal": {"offset": journal_offset, "records": journal_records},
        "service": service._service_state(),
    }


def checked_prefix(scan: JournalScan, covered: dict[str, Any]) -> None:
    """Verify that ``scan`` starts with the journal prefix a report covers.

    ``covered`` is the report's ``"journal": {"offset", "records"}``
    entry: that many records must be on disk and must span exactly that
    many bytes.

    Raises:
        RecoveryError: the journal is shorter than the report says, or
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
    prefix_bytes = scan.ends[count - 1] if count else 0
    if prefix_bytes != offset:
        raise RecoveryError(
            f"{JOURNAL_FILE} does not line up with the checkpoint "
            f"({count} records span {prefix_bytes} bytes, checkpoint "
            f"recorded {offset}); the journal and the checkpoint come from "
            f"different runs — start fresh with --fresh")


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
