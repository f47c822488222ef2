"""The write-ahead log: framing, rotation, torn tails, tamper evidence."""

from __future__ import annotations

import os

import pytest

from repro.errors import LogIntegrityError
from repro.storage.crashpoints import SimulatedCrash, arm
from repro.storage.wal import (
    SEGMENT_HEADER_SIZE,
    FsyncPolicy,
    WriteAheadLog,
    scan,
    segment_paths,
)


def wal_dir(tmp_path) -> str:
    return str(tmp_path / "wal")


def replay(directory):
    """Reopen a WAL and collect every replayed record."""
    seen = []
    wal = WriteAheadLog(directory, fsync="never", replay_sink=seen.append)
    return wal, seen


class TestRoundTrip:
    def test_records_survive_reopen(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never")
        payloads = [b"alpha", b"", b"x" * 300]
        for i, payload in enumerate(payloads):
            wal.append_many([(i + 1, payload)])
        wal.close()

        reopened, seen = replay(d)
        reopened.close()
        assert [(r.rtype, r.payload) for r in seen] == [
            (1, b"alpha"),
            (2, b""),
            (3, b"x" * 300),
        ]

    def test_append_after_reopen_continues_log(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never")
        wal.append_many([(1, b"first")])
        wal.close()
        wal2, seen = replay(d)
        wal2.append_many([(1, b"second")])
        wal2.close()
        records, torn = scan(d)
        assert [r.payload for r in records] == [b"first", b"second"]
        assert torn == 0

    def test_fsync_policy_coercion(self):
        assert FsyncPolicy.of("always").mode == "always"
        assert FsyncPolicy.of(None).mode == "interval"
        policy = FsyncPolicy(mode="interval", interval=0.5)
        assert FsyncPolicy.of(policy) is policy
        with pytest.raises(ValueError):
            FsyncPolicy.of("sometimes")


class TestRotation:
    def test_rotates_into_consecutive_segments(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never", segment_max_bytes=256)
        for i in range(20):
            wal.append_many([(1, b"payload-%02d" % i)])
        assert wal.segment_index > 1
        wal.close()
        indices = [index for index, _ in segment_paths(d)]
        assert indices == list(range(1, len(indices) + 1))
        records, torn = scan(d)
        assert len(records) == 20 and torn == 0

    def test_missing_segment_is_detected(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never", segment_max_bytes=128)
        for i in range(20):
            wal.append_many([(1, b"payload-%02d" % i)])
        wal.close()
        paths = segment_paths(d)
        assert len(paths) >= 3
        os.remove(paths[1][1])  # a middle segment vanishes
        with pytest.raises(LogIntegrityError):
            scan(d)


class TestTornTail:
    def _torn_wal(self, tmp_path, cut: int):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never")
        for i in range(5):
            wal.append_many([(1, b"payload-%02d" % i)])
        wal.close()
        path = segment_paths(d)[-1][1]
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - cut)
        return d, size

    def test_lenient_scan_reports_torn_bytes(self, tmp_path):
        d, _ = self._torn_wal(tmp_path, cut=3)
        records, torn = scan(d, strict=False)
        assert len(records) == 4
        assert torn > 0

    def test_strict_scan_refuses_torn_tail(self, tmp_path):
        d, _ = self._torn_wal(tmp_path, cut=3)
        with pytest.raises(LogIntegrityError):
            scan(d, strict=True)

    def test_reopen_truncates_and_resumes(self, tmp_path):
        d, _ = self._torn_wal(tmp_path, cut=3)
        wal, seen = replay(d)
        assert len(seen) == 4
        assert wal.truncated_bytes > 0
        wal.append_many([(1, b"after-crash")])
        wal.close()
        records, torn = scan(d, strict=True)  # strict: the tear is healed
        assert torn == 0
        assert [r.payload for r in records][-1] == b"after-crash"

    def test_corrupt_sealed_segment_is_tamper_not_tear(self, tmp_path):
        """Only the *last* segment may have a torn tail; damage anywhere
        else survived an fsync-at-rotation and must raise."""
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never", segment_max_bytes=128)
        for i in range(20):
            wal.append_many([(1, b"payload-%02d" % i)])
        wal.close()
        first = segment_paths(d)[0][1]
        with open(first, "r+b") as f:
            f.seek(SEGMENT_HEADER_SIZE + 6)
            byte = f.read(1)
            f.seek(SEGMENT_HEADER_SIZE + 6)
            f.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(LogIntegrityError):
            scan(d, strict=False)  # even the lenient scan refuses
        with pytest.raises(LogIntegrityError):
            WriteAheadLog(d, fsync="never")


class TestCrashpoints:
    def test_mid_record_crash_recovers_prefix(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never")
        wal.append_many([(1, b"safe-one")])
        wal.append_many([(1, b"safe-two")])
        arm("wal.mid_record")
        with pytest.raises(SimulatedCrash):
            wal.append_many([(1, b"torn")])
        wal.abandon()

        reopened, seen = replay(d)
        reopened.close()
        assert [r.payload for r in seen] == [b"safe-one", b"safe-two"]

    def test_pre_fsync_crash_keeps_flushed_record(self, tmp_path):
        """wal.pre_fsync fires after the record bytes left the process;
        the record is complete on disk, so recovery keeps it."""
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="always")
        wal.append_many([(1, b"durable")])
        arm("wal.pre_fsync")
        with pytest.raises(SimulatedCrash):
            wal.append_many([(1, b"flushed-not-synced")])
        wal.abandon()
        _, seen = replay(d)
        assert [r.payload for r in seen] == [b"durable", b"flushed-not-synced"]

    def test_pre_rotate_crash(self, tmp_path):
        d = wal_dir(tmp_path)
        wal = WriteAheadLog(d, fsync="never", segment_max_bytes=64)
        arm("wal.pre_rotate")
        attempted = []
        with pytest.raises(SimulatedCrash):
            for i in range(10):
                attempted.append(b"payload-%02d" % i)
                wal.append_many([(1, attempted[-1])])
        wal.abandon()
        _, seen = replay(d)
        # The record whose append triggered the rotation was fully written
        # and fsynced before the crashpoint; only the segment handover was
        # interrupted, so every attempted record survives.
        assert [r.payload for r in seen] == attempted
