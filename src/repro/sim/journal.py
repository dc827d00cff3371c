"""Append-only framed logs for the crash-tolerant service.

The service keeps two logs in this format, through the same
:class:`JournalWriter`:

* the **write-ahead journal** (``journal.wal``) — every externally visible
  commitment (an ingested arrival entering the queue, a terminal
  completion/drop) is journaled *before* it is acknowledged to the rest of
  the pipeline;
* the **history log** (``history.wal``) — at each checkpoint, one frame
  holding what settled since the previous one (terminal events' records
  and lifecycle entries), so the checkpoint itself carries live state
  only.

Together with the periodic checkpoint (:mod:`repro.sim.snapshot`) they make
``repro serve`` exactly resumable: restore = load the latest valid
checkpoint and the history prefix it names, then re-drive the
deterministic simulator while cross-checking each re-produced journal
record against the journal suffix.

Frame format (little-endian), one frame per record::

    +----------+----------+------------------+
    | length u32 | crc32 u32 | payload (JSON) |
    +----------+----------+------------------+

``crc32`` covers the payload bytes only. The reader distinguishes two
failure shapes:

* **Torn tail** — the file ends inside a frame (header or payload cut
  short). That is the expected residue of a crash mid-append and is
  *tolerated*: the scan stops at the last complete frame and the writer
  truncates the residue before appending again.
* **Corruption** — a *complete* frame whose CRC does not match, or a frame
  followed by further readable frames that itself is malformed. That can
  only come from bit-rot or tampering and raises
  :class:`JournalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.core.ioutil import fsync_dir
from repro.sim.crashpoint import crash_imminent, crash_point

__all__ = [
    "JournalCorruptionError",
    "JournalScan",
    "JournalWriter",
    "scan_journal",
]

_HEADER = struct.Struct("<II")

#: Upper bound on a single record's payload; a "length" beyond this in an
#: otherwise complete header is treated as corruption, not an allocation.
_MAX_RECORD_BYTES = 16 * 1024 * 1024


class JournalCorruptionError(RuntimeError):
    """A complete journal frame failed its integrity check."""


@dataclass
class JournalScan:
    """Result of reading a journal file.

    Attributes:
        records: every valid record, in append order.
        valid_size: byte offset just past the last complete valid frame —
            the position a writer should truncate to before appending.
        torn_bytes: size of the tolerated torn tail (0 for a clean file).
    """

    records: list[dict] = field(default_factory=list)
    valid_size: int = 0
    torn_bytes: int = 0


def scan_journal(path: str | Path) -> JournalScan:
    """Read ``path``, tolerating a torn tail, rejecting corruption.

    Raises:
        JournalCorruptionError: a complete frame's CRC mismatched or its
            header was implausible (length beyond :data:`_MAX_RECORD_BYTES`
            or payload not valid JSON).
        FileNotFoundError: the journal does not exist.
    """
    data = Path(path).read_bytes()
    scan = JournalScan()
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _HEADER.size:
            scan.torn_bytes = total - offset
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > _MAX_RECORD_BYTES:
            raise JournalCorruptionError(
                f"{path}: frame at offset {offset} claims {length} payload "
                f"bytes (cap {_MAX_RECORD_BYTES}); journal is corrupt")
        body_start = offset + _HEADER.size
        if total - body_start < length:
            scan.torn_bytes = total - offset
            break
        payload = data[body_start:body_start + length]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise JournalCorruptionError(
                f"{path}: CRC mismatch in complete frame at offset "
                f"{offset}; journal is corrupt")
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalCorruptionError(
                f"{path}: frame at offset {offset} passed CRC but is not "
                f"valid JSON: {exc}") from exc
        scan.records.append(record)
        offset = body_start + length
        scan.valid_size = offset
    return scan


def encode_record(record: dict) -> bytes:
    """The full frame (header + payload) for ``record``."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > _MAX_RECORD_BYTES:
        raise ValueError(f"journal record too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class JournalWriter:
    """Append-only, fsync-per-record log writer.

    Opening scans the existing file (if any): corruption raises, a torn
    tail is truncated away, and appends continue after the last valid
    frame. The file and its directory entry are fsynced on creation, and
    every :meth:`append` is flushed + fsynced before returning — a record
    handed to the log is durable before the caller acknowledges the
    event it describes.

    ``crash_label`` names the crash point :meth:`append` hosts, so each
    log's appends are counted on their own (``REPRO_CRASH_AT=<label>:<n>``).
    """

    def __init__(self, path: str | Path, fsync: bool = True,
                 crash_label: str = "journal-append"):
        self._path = Path(path)
        self._fsync = fsync
        self._crash_label = crash_label
        self._handle: BinaryIO | None = None
        self._size = 0
        self.records_written = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def size(self) -> int:
        """Current byte offset at the end of the valid journal."""
        return self._size

    def open(self) -> JournalScan:
        """Open (creating if needed), truncate any torn tail, and return
        the scan of what was already on disk."""
        if self._handle is not None:
            raise RuntimeError("journal already open")
        existed = self._path.exists()
        if existed:
            scan = scan_journal(self._path)
        else:
            scan = JournalScan()
        self._handle = open(self._path, "ab")
        self._size = scan.valid_size
        if scan.torn_bytes:
            try:
                self.truncate(scan.valid_size)
            except BaseException:
                self.close()
                raise
        if not existed and self._fsync:
            fsync_dir(self._path.parent)
        return scan

    def append(self, record: dict) -> int:
        """Durably append one record; returns the offset past the frame.

        Hosts this writer's crash point (``journal-append`` by default):
        when armed for its fatal visit, only a prefix of the frame reaches
        the file (flushed so the bytes are really on disk) before the
        process dies — producing the torn tail the recovery path must
        tolerate.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        frame = encode_record(record)
        if crash_imminent(self._crash_label):
            # Stage the realistic torn state *before* dying: half a frame,
            # flushed so the bytes truly reach the file.
            torn = frame[:max(1, len(frame) // 2)]
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        # Counts every visit; does not return on the fatal one (SIGKILL
        # mode) or raises (REPRO_CRASH_MODE=raise).
        crash_point(self._crash_label)
        self._handle.write(frame)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._size += len(frame)
        self.records_written += 1
        return self._size

    def truncate(self, size: int) -> None:
        """Durably cut the open log back to ``size`` bytes (a frame
        boundary the caller has verified); appends continue from there."""
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.truncate(size)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._size = size

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        if self._handle is None:
            self.open()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
