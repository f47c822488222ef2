"""DurableLogStore: LogStore semantics, recovery equality, tamper evidence."""

from __future__ import annotations

import errno
import os
import zlib

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.log_store import InMemoryLogStore
from repro.errors import LogIntegrityError
from repro.storage.durable_store import (
    CHECKPOINT_SUBDIR,
    WAL_SUBDIR,
    DurableLogStore,
)
from repro.storage.wal import SEGMENT_HEADER_SIZE, segment_paths


def make_records(n: int):
    return [b"record-%04d-" % i + b"x" * (i % 7) for i in range(n)]


def make_entry(i: int) -> LogEntry:
    return LogEntry(
        component_id="/pub",
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=i,
        timestamp=float(i),
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % i,
        own_sig=b"\x5a" * 16,
    )


def open_store(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("checkpoint_every", 10)
    return DurableLogStore(str(tmp_path / "store"), **kwargs)


class TestLogStoreSemantics:
    def test_matches_in_memory_store(self, tmp_path):
        durable = open_store(tmp_path)
        memory = InMemoryLogStore()
        for record in make_records(25):
            assert durable.append_batch([record]) == memory.append_batch([record])
        assert len(durable) == len(memory)
        assert durable.total_bytes == memory.total_bytes
        assert durable.head() == memory.head()
        assert durable.records() == memory.records()
        durable.verify()
        durable.close()

    def test_reopen_restores_identical_state(self, tmp_path):
        durable = open_store(tmp_path)
        for record in make_records(25):
            durable.append_batch([record])
        head, count, total = durable.head(), len(durable), durable.total_bytes
        root = durable.merkle_root()
        durable.close()

        reopened = open_store(tmp_path)
        assert (
            reopened.head(),
            len(reopened),
            reopened.total_bytes,
            reopened.merkle_root(),
        ) == (head, count, total, root)
        # Recovery is checkpoint-anchored: only the post-checkpoint tail
        # was chain-re-verified.
        assert reopened.recovery.checkpoint_entries == 20
        assert reopened.recovery.replayed == 5
        assert reopened.recovery.truncated_bytes == 0
        reopened.verify()
        reopened.close()

    def test_append_continues_recovered_chain(self, tmp_path):
        records = make_records(30)
        durable = open_store(tmp_path)
        for record in records[:17]:
            durable.append_batch([record])
        durable.close()
        reopened = open_store(tmp_path)
        for record in records[17:]:
            reopened.append_batch([record])
        reference = InMemoryLogStore()
        for record in records:
            reference.append_batch([record])
        assert reopened.head() == reference.head()
        reopened.verify()
        reopened.close()

    def test_key_records_survive_restart_without_touching_chain(self, tmp_path):
        durable = open_store(tmp_path)
        durable.append_batch([b"entry-before"])
        head_before = durable.head()
        durable.append_key("/pub", b"\x01\x02\x03")
        durable.append_key("/pub", b"\x01\x02\x03")  # idempotent
        assert durable.head() == head_before  # keys are unchained
        durable.close()
        reopened = open_store(tmp_path)
        assert reopened.recovered_keys == {"/pub": b"\x01\x02\x03"}
        assert len(reopened) == 1
        reopened.close()

    def test_checkpoint_cadence_and_manual_checkpoint(self, tmp_path):
        durable = open_store(tmp_path, checkpoint_every=8)
        for record in make_records(20):
            durable.append_batch([record])
        assert durable.last_checkpoint_entries == 16  # appends 8 and 16
        durable.checkpoint()
        assert durable.last_checkpoint_entries == 20
        durable.close()


class TestTornTail:
    def test_torn_tail_truncates_never_corrupts(self, tmp_path):
        durable = open_store(tmp_path)
        records = make_records(12)
        for record in records:
            durable.append_batch([record])
        durable.close()
        wal_path = segment_paths(
            str(tmp_path / "store" / WAL_SUBDIR)
        )[-1][1]
        with open(wal_path, "r+b") as f:
            f.truncate(os.path.getsize(wal_path) - 5)

        reopened = open_store(tmp_path)
        assert reopened.recovery.truncated_bytes > 0
        assert len(reopened) == 11  # last entry absent, not mangled
        assert reopened.records() == records[:11]
        reference = InMemoryLogStore()
        for record in records[:11]:
            reference.append_batch([record])
        assert reopened.head() == reference.head()
        reopened.verify()  # post-truncation disk state is self-consistent
        reopened.close()

    def test_io_error_mid_key_record_loses_no_later_entry(self, tmp_path, keypool):
        """An I/O error halfway through a KEY record must not leave torn
        bytes mid-segment: recovery would cut the log at them and drop
        every acked entry written after."""
        store = open_store(tmp_path, fsync="always")
        server = LogServer(store)
        real = store._wal._file
        writes = []

        class FailingFile:
            def write(self, data):
                writes.append(len(data))
                if len(writes) == 3:  # head, half the payload, then EIO
                    raise OSError(errno.EIO, "injected I/O error")
                return real.write(data)

            def __getattr__(self, name):
                return getattr(real, name)

        store._wal._file = FailingFile()
        with pytest.raises(OSError):
            server.register_key("/pub", keypool[0].public)
        store._wal._file = real
        server.register_key("/pub", keypool[0].public)  # the caller retries
        server.submit_batch([make_entry(1)])
        server.close()

        reopened = LogServer(open_store(tmp_path, fsync="always"))
        assert reopened.public_key("/pub") == keypool[0].public
        assert [entry.seq for entry in reopened.entries()] == [1]
        reopened.verify_integrity()
        reopened.close()

    def test_wal_shorter_than_checkpoint_is_evidence_loss(self, tmp_path):
        durable = open_store(tmp_path, checkpoint_every=10)
        for record in make_records(12):
            durable.append_batch([record])
        durable.close()
        # Wipe the WAL entirely: the checkpoint still promises 10 entries.
        wal_dir = str(tmp_path / "store" / WAL_SUBDIR)
        for _, path in segment_paths(wal_dir):
            os.remove(path)
        with pytest.raises(LogIntegrityError):
            open_store(tmp_path)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class TestSegmentHeader:
    """Only a segment shorter than its header is a torn write; a damaged
    or foreign header in front of records is refused, and nothing on disk
    changes."""

    def _segment(self, tmp_path, records: int) -> str:
        durable = open_store(tmp_path, checkpoint_every=0)
        for record in make_records(records):
            durable.append_batch([record])
        durable.close()
        [(_, path)] = segment_paths(str(tmp_path / "store" / WAL_SUBDIR))
        return path

    def test_damaged_header_before_records_is_refused(self, tmp_path):
        path = self._segment(tmp_path, 10)
        with open(path, "r+b") as f:
            f.seek(7)
            byte = f.read(1)
            f.seek(7)
            f.write(bytes([byte[0] ^ 0x01]))
        before = read_bytes(path)
        with pytest.raises(LogIntegrityError, match="corrupt segment header"):
            open_store(tmp_path, checkpoint_every=0)
        assert read_bytes(path) == before

    def test_other_format_version_is_refused_by_name(self, tmp_path):
        path = self._segment(tmp_path, 3)
        body = b"ADLPWAL1" + (1).to_bytes(4, "little")
        with open(path, "r+b") as f:
            f.write(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
        before = read_bytes(path)
        with pytest.raises(LogIntegrityError, match="format version 1"):
            open_store(tmp_path, checkpoint_every=0)
        assert read_bytes(path) == before

    def test_header_torn_by_rotation_still_recovers(self, tmp_path):
        durable = open_store(tmp_path, checkpoint_every=0, segment_max_bytes=64)
        records = make_records(3)
        for record in records:
            durable.append_batch([record])
        durable.close()
        pairs = segment_paths(str(tmp_path / "store" / WAL_SUBDIR))
        sealed = [read_bytes(path) for _, path in pairs[:-1]]
        # a crash while the next segment's header was being written
        with open(pairs[-1][1], "r+b") as f:
            f.truncate(SEGMENT_HEADER_SIZE - 6)
        reopened = open_store(tmp_path, checkpoint_every=0, segment_max_bytes=64)
        assert reopened.recovery.truncated_bytes == SEGMENT_HEADER_SIZE - 6
        assert reopened.records() == records
        assert [read_bytes(path) for _, path in pairs[:-1]] == sealed
        reopened.verify()
        reopened.close()


class TestTamperDetection:
    """Satellite: flipped bytes anywhere must fail the strict check."""

    def _flip_byte(self, path: str, offset: int) -> None:
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x01]))

    def test_flipped_wal_byte_fails_verify(self, tmp_path):
        durable = open_store(tmp_path)
        for record in make_records(12):
            durable.append_batch([record])
        wal_path = segment_paths(
            str(tmp_path / "store" / WAL_SUBDIR)
        )[-1][1]
        self._flip_byte(wal_path, SEGMENT_HEADER_SIZE + 9)
        with pytest.raises(LogIntegrityError):
            durable.verify()
        durable.close()

    def test_flipped_sealed_segment_byte_fails_recovery(self, tmp_path):
        durable = open_store(tmp_path, segment_max_bytes=256)
        for record in make_records(30):
            durable.append_batch([record])
        durable.close()
        sealed = segment_paths(str(tmp_path / "store" / WAL_SUBDIR))[0][1]
        self._flip_byte(sealed, SEGMENT_HEADER_SIZE + 9)
        with pytest.raises(LogIntegrityError):
            open_store(tmp_path, segment_max_bytes=256)

    def test_flipped_checkpoint_byte_fails_verify(self, tmp_path):
        durable = open_store(tmp_path, checkpoint_every=5)
        for record in make_records(12):
            durable.append_batch([record])
        durable.close()
        ckpt_dir = str(tmp_path / "store" / CHECKPOINT_SUBDIR)
        newest = sorted(os.listdir(ckpt_dir))[-1]
        self._flip_byte(os.path.join(ckpt_dir, newest), 30)
        # Lenient recovery still works (it falls back / replays the WAL) ...
        reopened = open_store(tmp_path, checkpoint_every=5)
        assert len(reopened) == 12
        # ... but the tamper check reports the damaged checkpoint.
        with pytest.raises(LogIntegrityError):
            reopened.verify()
        reopened.close()

    def test_forged_checkpoint_head_fails_recovery(self, tmp_path):
        """A checkpoint whose chain head disagrees with the WAL prefix is
        rejected outright -- it would otherwise vouch for a different
        history."""
        from repro.crypto.merkle import MerkleFrontier
        from repro.storage.checkpoint import Checkpoint, CheckpointManager

        durable = open_store(tmp_path, checkpoint_every=0)
        for record in make_records(6):
            durable.append_batch([record])
        frontier = MerkleFrontier()
        for record in make_records(6):
            frontier.append(record)
        durable.close()
        manager = CheckpointManager(str(tmp_path / "store" / CHECKPOINT_SUBDIR))
        manager.write(
            Checkpoint(
                entry_count=6,
                chain_head=b"\x66" * 32,  # a lie
                total_bytes=sum(len(r) for r in make_records(6)),
                frontier=frontier,
                extra={},
            )
        )
        with pytest.raises(LogIntegrityError):
            open_store(tmp_path)


class TestServerAfterTamper:
    """Satellite: after recovery, verify_integrity() raises on tamper while
    the auditor still classifies the untampered in-memory entries."""

    def test_audit_still_works_while_verify_raises(self, tmp_path, keypool):
        from repro.audit import Auditor

        store = DurableLogStore(
            str(tmp_path / "store"), fsync="never", checkpoint_every=4
        )
        server = LogServer(store)
        server.register_key("/pub", keypool[0].public)
        entries = [make_entry(i) for i in range(1, 11)]
        for entry in entries:
            server.submit(entry)
        server.close()

        # Recover cleanly, then flip a byte in a checkpoint file.
        ckpt_dir = str(tmp_path / "store" / CHECKPOINT_SUBDIR)
        newest = os.path.join(ckpt_dir, sorted(os.listdir(ckpt_dir))[-1])
        data = bytearray(open(newest, "rb").read())
        data[25] ^= 0x10
        open(newest, "wb").write(bytes(data))

        recovered = LogServer(
            DurableLogStore(
                str(tmp_path / "store"), fsync="never", checkpoint_every=4
            )
        )
        assert len(recovered) == 10
        with pytest.raises(LogIntegrityError):
            recovered.verify_integrity()
        auditor = Auditor.for_server(recovered)
        # audit_server verifies first, so it refuses the tampered store ...
        with pytest.raises(LogIntegrityError):
            auditor.audit_server(recovered)
        # ... but the recovered entries themselves are untampered, and
        # classifying them directly still works and flags nothing new.
        report = auditor.audit(recovered.entries())
        assert len(report.classified) == 10
        recovered.close()
