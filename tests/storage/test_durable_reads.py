"""DurableLogStore's read path: records come back from the WAL segments.

Every range over a log rotated into many segments (with KEY records
between entries), reads after a torn-tail recovery, and tamper of a live
store: a flipped byte fails the record's CRC, and a flipped byte whose CRC
was rewritten fails the server's Merkle leaf check.
"""

from __future__ import annotations

import zlib

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.errors import LogIntegrityError
from repro.storage.durable_store import WAL_SUBDIR, DurableLogStore
from repro.storage.wal import scan, segment_paths

COUNT = 40


def make_record(i: int) -> bytes:
    return LogEntry(
        component_id="/pub",
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=i,
        scheme=Scheme.ADLP,
        data=b"payload-%04d-" % i + b"x" * (i * 7 % 50),
    ).encode()


def open_store(tmp_path, **kwargs) -> DurableLogStore:
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("checkpoint_every", 7)
    kwargs.setdefault("segment_max_bytes", 256)
    return DurableLogStore(str(tmp_path / "store"), **kwargs)


def wal_dir(tmp_path) -> str:
    return str(tmp_path / "store" / WAL_SUBDIR)


def fill(server: LogServer, keypool):
    """Single appends, batches and KEY records, interleaved."""
    records = [make_record(i) for i in range(COUNT)]
    for i in range(0, COUNT, 4):
        server.register_key(f"/c{i}", keypool[i // 4 % len(keypool)].public)
        server.submit(records[i])
        server.submit_batch(records[i + 1 : i + 4])
    return records


def check_every_range(server: LogServer, records) -> None:
    for start in range(COUNT + 2):
        assert list(server.store.iter_records(start)) == records[start:]
        for count in range(COUNT + 2 - start):
            expected = records[start : start + count]
            assert server.raw_records(start, count) == expected


class TestEveryRange:
    def test_live_and_reopened(self, tmp_path, keypool):
        server = LogServer(open_store(tmp_path))
        records = fill(server, keypool)
        assert len(segment_paths(wal_dir(tmp_path))) >= 10
        check_every_range(server, records)
        assert server.store.records() == records
        commitment = server.commitment()
        server.close()

        reopened = LogServer(open_store(tmp_path))
        assert reopened.commitment() == commitment
        check_every_range(reopened, records)
        assert [e.encode() for e in reopened.entries()] == records
        reopened.close()


class TestAfterTornTail:
    def test_reads_skip_the_torn_record_and_continue(self, tmp_path):
        store = open_store(
            tmp_path, segment_max_bytes=4096, checkpoint_every=0
        )
        records = [make_record(i) for i in range(12)]
        store.append_batch(records)
        store.close()
        path = segment_paths(wal_dir(tmp_path))[-1][1]
        with open(path, "r+b") as f:
            f.truncate(f.seek(0, 2) - 3)

        server = LogServer(
            open_store(tmp_path, segment_max_bytes=4096, checkpoint_every=0)
        )
        assert server.store.recovery.truncated_bytes > 0
        assert server.raw_records() == records[:11]
        extra = [make_record(i) for i in range(100, 104)]
        server.submit(extra[0])
        server.submit_batch(extra[1:])
        expected = records[:11] + extra
        assert server.raw_records() == expected
        assert list(server.store.iter_records(10)) == expected[10:]
        server.verify_integrity()
        server.close()


class TestLiveTamper:
    def _live(self, tmp_path):
        server = LogServer(open_store(tmp_path, segment_max_bytes=1 << 20))
        records = [make_record(i) for i in range(6)]
        for record in records:
            server.submit(record)
        # read once first: nothing read is kept to be served again
        assert server.raw_records() == records
        entries = [r for r in scan(wal_dir(tmp_path))[0] if r.rtype == 1]
        target = entries[3]  # the WAL record of log entry 3
        path = segment_paths(wal_dir(tmp_path))[0][1]
        return server, target, path

    def _flip(self, path, target, rewrite_crc: bool) -> None:
        payload = bytearray(target.payload)
        payload[-1] ^= 0x01  # the last byte of the log entry itself
        with open(path, "r+b") as f:
            f.seek(target.offset)
            head = f.read(5)
            f.seek(target.offset + 5)
            f.write(payload)
            if rewrite_crc:
                crc = zlib.crc32(bytes(payload), zlib.crc32(head))
                f.write(crc.to_bytes(4, "little"))

    @pytest.mark.parametrize("rewrite_crc", [False, True])
    def test_flipped_payload_byte_is_never_served(self, tmp_path, rewrite_crc):
        server, target, path = self._live(tmp_path)
        self._flip(path, target, rewrite_crc)
        assert len(server.raw_records(0, 3)) == 3  # the untouched prefix
        with pytest.raises(LogIntegrityError):
            server.raw_records()
        with pytest.raises(LogIntegrityError):
            server.entries()
        with pytest.raises(LogIntegrityError):
            server.verify_integrity()
        server.close()
