"""Tests for the write-ahead event journal: framing, torn tails, CRC,
the group-commit barrier."""

import errno
import json
import os
import struct

import pytest

from repro.sim.journal import (
    JournalCorruptionError,
    JournalWriter,
    encode_record,
    read_frames,
    scan_journal,
)

_HEADER = struct.Struct("<II")


def write_frames(path, records):
    with JournalWriter(path) as journal:
        for record in records:
            journal.append(record)
    return path


class TestScan:
    def test_round_trip(self, tmp_path):
        records = [{"kind": "ingest", "n": 1, "event": {"id": "U1"}},
                   {"kind": "complete", "event": "U1", "time": 4.25}]
        path = write_frames(tmp_path / "j.wal", records)
        scan = scan_journal(path)
        assert scan.records == records
        assert scan.torn_bytes == 0
        assert scan.valid_size == path.stat().st_size

    def test_ends_slice_out_the_frames_as_written(self, tmp_path):
        records = [{"n": 1}, {"kind": "complete", "time": 0.1 + 0.2},
                   {"n": 3}]
        path = write_frames(tmp_path / "j.wal", records)
        scan = scan_journal(path)
        frames = [encode_record(r) for r in records]
        assert scan.ends == [len(frames[0]), len(frames[0] + frames[1]),
                             scan.valid_size]
        assert read_frames(path, scan) == frames
        assert read_frames(path, scan, 2) == frames[2:]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_journal(tmp_path / "absent.wal")

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"")
        scan = scan_journal(path)
        assert scan.records == [] and scan.valid_size == 0

    def test_torn_header_tolerated(self, tmp_path):
        path = write_frames(tmp_path / "j.wal", [{"kind": "ingest", "n": 1}])
        good = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x07\x00")
        scan = scan_journal(path)
        assert len(scan.records) == 1
        assert scan.valid_size == good
        assert scan.torn_bytes == 2

    def test_torn_payload_tolerated(self, tmp_path):
        path = write_frames(tmp_path / "j.wal", [{"kind": "ingest", "n": 1}])
        good = path.stat().st_size
        frame = encode_record({"kind": "complete", "event": "U1"})
        path.write_bytes(path.read_bytes() + frame[:-3])
        scan = scan_journal(path)
        assert len(scan.records) == 1
        assert scan.valid_size == good
        assert scan.torn_bytes == len(frame) - 3

    def test_crc_mismatch_in_complete_frame_raises(self, tmp_path):
        path = write_frames(tmp_path / "j.wal",
                            [{"kind": "ingest", "n": 1},
                             {"kind": "complete", "event": "U1"}])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last complete frame
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            scan_journal(path)

    def test_implausible_length_raises(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(_HEADER.pack(1 << 30, 0) + b"xx")
        with pytest.raises(JournalCorruptionError, match="claims"):
            scan_journal(path)

    def test_non_json_payload_raises(self, tmp_path):
        import zlib
        payload = b"\x80\x81not-json"
        path = tmp_path / "j.wal"
        path.write_bytes(_HEADER.pack(len(payload), zlib.crc32(payload))
                         + payload)
        with pytest.raises(JournalCorruptionError, match="not.*valid JSON"):
            scan_journal(path)


class TestEncode:
    def test_canonical_and_stable(self):
        assert (encode_record({"b": 1, "a": 2})
                == encode_record({"a": 2, "b": 1}))

    def test_floats_round_trip_exactly(self):
        record = {"time": 0.1 + 0.2}
        frame = encode_record(record)
        assert json.loads(frame[_HEADER.size:]) == record

    def test_oversize_record_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            encode_record({"blob": "x" * (17 * 1024 * 1024)})


class TestWriter:
    def test_append_is_immediately_durable(self, tmp_path):
        path = tmp_path / "j.wal"
        with JournalWriter(path) as journal:
            offset = journal.append({"kind": "ingest", "n": 1})
            # Readable by an independent scan before close().
            assert scan_journal(path).records == [{"kind": "ingest", "n": 1}]
            assert offset == path.stat().st_size
            assert journal.size == offset

    def test_reopen_continues_after_last_valid_frame(self, tmp_path):
        path = write_frames(tmp_path / "j.wal", [{"n": 1}])
        with JournalWriter(path) as journal:
            journal.append({"n": 2})
        assert [r["n"] for r in scan_journal(path).records] == [1, 2]

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = write_frames(tmp_path / "j.wal", [{"n": 1}])
        path.write_bytes(path.read_bytes() + b"\x99\x99\x99")
        journal = JournalWriter(path)
        scan = journal.open()
        assert scan.torn_bytes == 3
        journal.append({"n": 2})
        journal.close()
        assert [r["n"] for r in scan_journal(path).records] == [1, 2]
        assert scan_journal(path).torn_bytes == 0

    def test_reopen_refuses_corrupt_journal(self, tmp_path):
        path = write_frames(tmp_path / "j.wal", [{"n": 1}, {"n": 2}])
        data = bytearray(path.read_bytes())
        data[_HEADER.size] ^= 0xFF  # corrupt the first frame's payload
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptionError):
            JournalWriter(path).open()

    def test_append_before_open_raises(self, tmp_path):
        journal = JournalWriter(tmp_path / "j.wal")
        with pytest.raises(RuntimeError, match="not open"):
            journal.append({"n": 1})

    def test_double_open_raises(self, tmp_path):
        journal = JournalWriter(tmp_path / "j.wal")
        journal.open()
        try:
            with pytest.raises(RuntimeError, match="already open"):
                journal.open()
        finally:
            journal.close()

    def test_truncate_cuts_back_to_a_frame_boundary(self, tmp_path):
        path = tmp_path / "j.wal"
        with JournalWriter(path) as journal:
            keep = journal.append({"n": 1})
            journal.append({"n": 2})
            journal.truncate(keep)
            assert journal.size == keep
            journal.append({"n": 3})
        assert [r["n"] for r in scan_journal(path).records] == [1, 3]


class CountingFsync:
    """Stands in for ``os.fsync``: counts calls, raises EIO once armed."""

    def __init__(self, real):
        self.calls = 0
        self.fail = False
        self._real = real

    def __call__(self, fd):
        self.calls += 1
        if self.fail:
            raise OSError(errno.EIO, "injected")
        self._real(fd)


class TestGroupCommit:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        counter = CountingFsync(os.fsync)
        monkeypatch.setattr(os, "fsync", counter)
        return counter

    def test_appends_wait_for_the_barrier(self, tmp_path, fsyncs):
        journal = JournalWriter(tmp_path / "j.wal")
        journal.open()
        opened = fsyncs.calls
        for n in range(3):
            journal.append({"n": n})
        assert journal.dirty and fsyncs.calls == opened
        journal.sync()
        journal.sync()
        assert not journal.dirty and fsyncs.calls == opened + 1
        journal.close()
        assert fsyncs.calls == opened + 1

    def test_close_runs_the_last_barrier(self, tmp_path, fsyncs):
        journal = JournalWriter(tmp_path / "j.wal")
        journal.open()
        opened = fsyncs.calls
        journal.append({"n": 1})
        journal.close()
        assert fsyncs.calls == opened + 1
        assert not journal.dirty

    def test_failed_fsync_is_never_retried(self, tmp_path, fsyncs):
        """After a failed fsync the kernel may have dropped the dirty
        pages, so a second fsync could report success for lost data: the
        writer stays dirty and refuses every later append and barrier,
        close() included."""
        journal = JournalWriter(tmp_path / "j.wal")
        journal.open()
        journal.append({"n": 1})
        fsyncs.fail = True
        with pytest.raises(OSError, match="injected"):
            journal.sync()
        failed = fsyncs.calls
        assert journal.dirty
        with pytest.raises(RuntimeError, match="earlier write or fsync"):
            journal.sync()
        with pytest.raises(RuntimeError, match="earlier write or fsync"):
            journal.append({"n": 2})
        journal.close()
        assert fsyncs.calls == failed
        assert journal.dirty
