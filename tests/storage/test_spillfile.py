"""Disk spill FIFO: ordering, restart resume, torn tails, space reclaim."""

from __future__ import annotations

import os

import pytest

from repro.storage.crashpoints import SimulatedCrash, arm
from repro.storage.spillfile import DiskSpillFile


def spill_path(tmp_path) -> str:
    return str(tmp_path / "spill.dat")


class TestFifo:
    def test_append_peek_consume_order(self, tmp_path):
        spill = DiskSpillFile(spill_path(tmp_path))
        for payload in (b"one", b"two", b"three"):
            spill.append(payload)
        assert len(spill) == 3
        seen = []
        while len(spill):
            seen.append(spill.peek())
            spill.consume()
        assert seen == [b"one", b"two", b"three"]
        spill.close()

    def test_consume_empty_raises(self, tmp_path):
        spill = DiskSpillFile(spill_path(tmp_path))
        assert spill.peek() is None
        with pytest.raises(IndexError):
            spill.consume()
        spill.close()

    def test_drain_reclaims_disk_space(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        for i in range(5):
            spill.append(b"x" * 100)
        while len(spill):
            spill.consume()
        spill.close()
        assert os.path.getsize(path) == 0


class TestRestart:
    def test_pending_records_survive_reopen(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        for payload in (b"a", b"b", b"c"):
            spill.append(payload)
        spill.close()
        reopened = DiskSpillFile(path)
        assert len(reopened) == 3
        assert reopened.peek() == b"a"
        reopened.close()

    def test_consumed_records_stay_consumed_across_restart(self, tmp_path):
        """The sidecar offset file prevents the restart-duplicate bug:
        re-sending already-delivered evidence would fabricate duplicate
        entries and false ``replayed_sequence`` verdicts."""
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        for payload in (b"sent-1", b"sent-2", b"pending-3", b"pending-4"):
            spill.append(payload)
        spill.consume()
        spill.consume()
        spill.close()
        reopened = DiskSpillFile(path)
        assert len(reopened) == 2
        assert reopened.peek() == b"pending-3"
        reopened.consume()
        assert reopened.peek() == b"pending-4"
        reopened.close()

    def test_torn_tail_is_truncated_on_reopen(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append(b"whole")
        spill.append(b"doomed")
        spill.close()
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        reopened = DiskSpillFile(path)
        assert len(reopened) == 1
        assert reopened.peek() == b"whole"
        reopened.close()

    def test_crash_mid_spill_write(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append(b"durable")
        arm("spill.mid_record")
        with pytest.raises(SimulatedCrash):
            spill.append(b"torn-in-half")
        reopened = DiskSpillFile(path)
        assert len(reopened) == 1
        assert reopened.peek() == b"durable"
        reopened.close()


class TestSidecarRecovery:
    """The read-offset sidecar is bookkeeping, never evidence: a torn or
    stale offset must cost at most duplicate re-sends (auditable), never
    discard spilled records."""

    def test_stale_offset_off_a_record_boundary_rescans_from_zero(
        self, tmp_path
    ):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        for payload in (b"alpha", b"bravo", b"charlie"):
            spill.append(payload)
        spill.close()
        # Corrupt the sidecar to point mid-record: a naive reopen would
        # trip the CRC check immediately and truncate everything after
        # the bogus offset -- evidence lost to a bookkeeping file.
        with open(path + ".offset", "wb") as f:
            f.write((3).to_bytes(8, "little"))
        reopened = DiskSpillFile(path)
        assert len(reopened) == 3  # worst case: duplicates, never loss
        assert reopened.peek() == b"alpha"
        assert os.path.getsize(path) > 0  # nothing truncated away
        reopened.close()

    def test_offset_past_eof_is_clamped(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append(b"only")
        spill.close()
        with open(path + ".offset", "wb") as f:
            f.write((10_000).to_bytes(8, "little"))
        reopened = DiskSpillFile(path)
        # Clamped to EOF: scan finds nothing pending there, and the
        # boundary-check self-heal rescans from 0 -- the record survives.
        assert len(reopened) == 1
        assert reopened.peek() == b"only"
        reopened.close()

    def test_torn_offset_write_rescans_from_zero(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append(b"kept-1")
        spill.append(b"kept-2")
        spill.consume()  # sidecar now points at kept-2
        spill.close()
        with open(path + ".offset", "wb") as f:
            f.write(b"\x01\x02")  # torn: fewer than 8 bytes
        reopened = DiskSpillFile(path)
        # A torn offset reads as 0: both records come back (kept-1 is a
        # duplicate re-send, which the auditor flags, never silent loss).
        assert len(reopened) == 2
        assert reopened.peek() == b"kept-1"
        reopened.close()

    def test_stale_offset_with_torn_tail_recovers_both(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        for payload in (b"first", b"second"):
            spill.append(payload)
        spill.close()
        with open(path, "ab") as f:
            f.write(b"\x40\x00\x00\x00partial")  # torn tail record
        with open(path + ".offset", "wb") as f:
            f.write((2).to_bytes(8, "little"))  # and a bogus offset
        reopened = DiskSpillFile(path)
        assert len(reopened) == 2
        assert reopened.peek() == b"first"
        reopened.consume()
        assert reopened.peek() == b"second"
        reopened.close()


class TestBatchPaths:
    """append_many / peek_many / consume_many: the spilling client's
    batched park-and-drain surface."""

    def test_append_many_preserves_fifo_with_append(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append(b"solo")
        spill.append_many([b"batch-1", b"batch-2", b"batch-3"])
        assert len(spill) == 4
        assert spill.peek_many(10) == [
            b"solo", b"batch-1", b"batch-2", b"batch-3"
        ]
        spill.close()

    def test_peek_many_does_not_consume(self, tmp_path):
        spill = DiskSpillFile(spill_path(tmp_path))
        spill.append_many([b"a", b"b"])
        assert spill.peek_many(1) == [b"a"]
        assert len(spill) == 2
        assert spill.peek_many(0) == []
        spill.close()

    def test_consume_many_bounds(self, tmp_path):
        spill = DiskSpillFile(spill_path(tmp_path))
        spill.append_many([b"a", b"b", b"c"])
        spill.consume_many(2)
        assert spill.peek() == b"c"
        with pytest.raises(IndexError):
            spill.consume_many(2)
        spill.consume_many(0)  # no-op, not an error
        assert len(spill) == 1
        spill.close()

    def test_append_many_survives_reopen(self, tmp_path):
        path = spill_path(tmp_path)
        spill = DiskSpillFile(path)
        spill.append_many([b"x%d" % i for i in range(10)])
        spill.consume_many(4)
        spill.close()
        reopened = DiskSpillFile(path)
        assert len(reopened) == 6
        assert reopened.peek() == b"x4"
        reopened.close()
