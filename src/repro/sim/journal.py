"""The write-ahead journal of the crash-tolerant service.

The journal (``journal.wal``) records every externally visible commitment
*before* it is acknowledged to the rest of the pipeline: an ingested
arrival entering the queue, a terminal completion/drop together with
the event's settled entry (its metrics record, registration index and
origin), and the serve-loop step at which a signal ended ingestion. A
resume re-drives the deterministic simulator from the start while
cross-checking each re-produced record against the journal; the final
report (:mod:`repro.sim.snapshot`) only names how much of the journal
the finished run covered.

Durability is a group commit. Each append is written and flushed at once,
so a killed process loses no acknowledged record (the bytes sit in the
page cache); the fsync is a barrier the caller runs with
:meth:`JournalWriter.sync` — the service runs it once per engine instant
and before the final report, so power loss can drop at most the records
of the instant in progress, which a deterministic re-run re-produces.

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

import contextlib
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
    "read_frames",
    "scan_journal",
]

_HEADER = struct.Struct("<II")

#: Upper bound on a single record's payload; a "length" beyond this in an
#: otherwise complete header is treated as corruption, not an allocation.
_MAX_RECORD_BYTES = 16 * 1024 * 1024

#: The crash point every append hosts (``REPRO_CRASH_AT=journal-append:<n>``).
_CRASH_LABEL = "journal-append"


class JournalCorruptionError(RuntimeError):
    """A complete journal frame failed its integrity check."""


@dataclass
class JournalScan:
    """Result of reading a journal file.

    Attributes:
        records: every valid record, in append order.
        ends: the byte offset just past each record's frame (parallel to
            ``records``), so a frame's bytes are ``data[ends[i-1]:ends[i]]``.
        valid_size: byte offset just past the last complete valid frame —
            the position a writer should truncate to before appending.
        torn_bytes: size of the tolerated torn tail (0 for a clean file).
    """

    records: list[dict] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
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
        scan.ends.append(offset)
        scan.valid_size = offset
    return scan


def read_frames(path: str | Path, scan: JournalScan,
                first: int = 0) -> list[bytes]:
    """The frames of ``scan``'s records from index ``first`` on, exactly
    as on disk: sliced out of one read of ``path`` at the scan's offsets."""
    data = Path(path).read_bytes()
    bounds = [0, *scan.ends]
    return [data[bounds[i]:bounds[i + 1]]
            for i in range(first, len(scan.ends))]


def encode_record(record: dict) -> bytes:
    """The full frame (header + payload) for ``record``."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > _MAX_RECORD_BYTES:
        raise ValueError(f"journal record too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class JournalWriter:
    """Append-only log writer with a group-commit fsync.

    Opening scans the existing file (if any): corruption raises, a torn
    tail is truncated away, and appends continue after the last valid
    frame. The file's directory entry is fsynced on creation. Every
    :meth:`append` is written and flushed before returning, so a killed
    process keeps it; :meth:`sync` fsyncs whatever was appended since the
    last barrier, and :meth:`close` runs it.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._handle: BinaryIO | None = None
        self._size = 0
        self._dirty = False
        #: The write or fsync error that made the log unusable. A second
        #: fsync after a failed one can report success for pages the
        #: kernel already dropped, so the writer never retries.
        self._failed: OSError | None = None

    @property
    def path(self) -> Path:
        return self._path

    @property
    def size(self) -> int:
        """Current byte offset at the end of the valid journal."""
        return self._size

    @property
    def dirty(self) -> bool:
        """True while an appended record awaits the next :meth:`sync`."""
        return self._dirty

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
        if not existed:
            fsync_dir(self._path.parent)
        return scan

    def append(self, record: dict) -> int:
        """Write and flush one record; returns the offset past the frame.

        The record survives a process kill at once, and power loss after
        the next :meth:`sync`.

        Hosts the ``journal-append`` crash point: when armed for its fatal
        visit, only a prefix of the frame reaches the file (flushed so the
        bytes are really on disk) before the process dies — producing the
        torn tail the recovery path must tolerate.
        """
        handle = self._usable()
        frame = encode_record(record)
        if crash_imminent(_CRASH_LABEL):
            # Stage the realistic torn state *before* dying: half a frame,
            # flushed so the bytes truly reach the file.
            torn = frame[:max(1, len(frame) // 2)]
            handle.write(torn)
            handle.flush()
            os.fsync(handle.fileno())
        # Counts every visit; does not return on the fatal one (SIGKILL
        # mode) or raises (REPRO_CRASH_MODE=raise).
        crash_point(_CRASH_LABEL)
        try:
            handle.write(frame)
            handle.flush()
        except OSError as exc:
            self._failed = exc
            raise
        self._dirty = True
        self._size += len(frame)
        return self._size

    def sync(self) -> None:
        """The group-commit barrier: fsync if anything was appended since
        the last one.

        Raises:
            OSError: the fsync failed; the writer stays dirty, and every
                later append or sync raises too.
        """
        handle = self._usable()
        if self._dirty:
            try:
                os.fsync(handle.fileno())
            except OSError as exc:
                self._failed = exc
                raise
            self._dirty = False

    def _usable(self) -> BinaryIO:
        if self._handle is None:
            raise RuntimeError("journal is not open")
        if self._failed is not None:
            raise RuntimeError(
                f"{self._path}: an earlier write or fsync failed "
                f"({self._failed}); records since the last barrier may "
                f"not be on disk") from self._failed
        return self._handle

    def truncate(self, size: int) -> None:
        """Durably cut the open log back to ``size`` bytes (a frame
        boundary the caller has verified); appends continue from there."""
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.truncate(size)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._size = size

    def close(self) -> None:
        """Run the last barrier and close; the handle closes even if the
        fsync fails, and that failure propagates. A writer that failed
        earlier closes without a barrier: that error is already raised."""
        if self._handle is None:
            return
        try:
            if self._failed is None:
                self.sync()
        finally:
            handle, self._handle = self._handle, None
            if self._failed is None:
                handle.close()
            else:
                with contextlib.suppress(OSError):
                    handle.close()

    def __enter__(self) -> "JournalWriter":
        if self._handle is None:
            self.open()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
