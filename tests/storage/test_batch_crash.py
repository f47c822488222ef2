"""Crash injection inside a group-commit batch.

A batch is one WAL write burst with a single fsync, so a crash mid-burst
may leave any *prefix* of the batch on disk.  The acceptance bar mirrors
the per-entry one: recovery yields a store byte-identical to an uncrashed
per-entry reference fed the same prefix -- never a torn or reordered
record, and the live (crashing) store never claims more than one
consistent prefix.

A :class:`SimulatedCrash` stands in for a process death, so it leaves the
disk as a death would.  An I/O error is the in-process failure: the burst
is rolled back and the live store keeps running.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.log_store import InMemoryLogStore
from repro.storage.crashpoints import (
    CRASH_EXIT_STATUS,
    KNOWN_CRASHPOINTS,
    SimulatedCrash,
    arm,
    reset,
)
from repro.storage.durable_store import DurableLogStore

GEOMETRY = dict(fsync="always", segment_max_bytes=512, checkpoint_every=6)


def make_records(n: int):
    return [b"record-%04d-" % i + b"y" * (i % 11) for i in range(n)]


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


def reference_store(tmp_path, records):
    ref = DurableLogStore(str(tmp_path / "reference"), **GEOMETRY)
    for record in records:
        ref.append_batch([record])
    return ref


def fail_next_batch(store, batch_size):
    """Make ``store``'s WAL raise EIO halfway through the next batch of
    ``batch_size`` records: mid-record, after whole records of the batch
    (an ENTRY record goes out as five writes -- head, digest, payload and
    CRC, with the buffer holding its midpoint split in two)."""
    real = store._wal._file
    writes = []

    class FailingFile:
        def write(self, data):
            writes.append(len(data))
            if len(writes) == 5 * (batch_size // 2) + 3:
                raise OSError(errno.EIO, "injected I/O error")
            return real.write(data)

        def __getattr__(self, name):
            return getattr(real, name)

    store._wal._file = FailingFile()
    return real


class TestBatchCrashpoint:
    def test_batch_mid_is_known(self):
        assert "wal.batch_mid" in KNOWN_CRASHPOINTS

    @pytest.mark.parametrize("fire_on", [1, 3, 7])
    @pytest.mark.parametrize("batch_size", [2, 5, 16])
    def test_recovery_is_consistent_prefix(self, tmp_path, fire_on, batch_size):
        records = make_records(64)
        arm("wal.batch_mid", action="raise", fire_on=fire_on)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        accepted = 0
        crashed = False
        i = 0
        while i < len(records):
            batch = records[i : i + batch_size]
            try:
                store.append_batch(batch)
                accepted += len(batch)
            except SimulatedCrash:
                crashed = True
                break
            i += batch_size
        assert crashed, "wal.batch_mid never fired"
        # The live object never counted the crashed batch.
        assert len(store) == accepted
        store.abandon()
        reset()

        recovered = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        n = len(recovered)
        # The death left a prefix of the crashed batch on disk, never all
        # of it (the crashpoint fires between two of its records).
        assert accepted <= n < accepted + len(batch)
        reference = reference_store(tmp_path, records[:n])
        assert recovered.head() == reference.head()
        assert recovered.merkle_root() == reference.merkle_root()
        assert recovered.records() == reference.records()
        recovered.verify()
        recovered.close()
        reference.close()

    @pytest.mark.parametrize("fail_on", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [2, 5, 16])
    def test_io_error_rolls_back_batch(self, tmp_path, fail_on, batch_size):
        records = make_records(64)
        store = DurableLogStore(str(tmp_path / "failing"), **GEOMETRY)
        batches = [
            records[i : i + batch_size]
            for i in range(0, len(records), batch_size)
        ]
        accepted = 0
        for batch in batches[: fail_on - 1]:
            store.append_batch(batch)
            accepted += len(batch)
        real = fail_next_batch(store, len(batches[fail_on - 1]))
        with pytest.raises(OSError):
            store.append_batch(batches[fail_on - 1])
        store._wal._file = real
        # The live store claims exactly the pre-batch prefix, and the
        # burst was truncated from the WAL: disk agrees.
        assert len(store) == accepted
        store.verify()
        store.close()

        reopened = DurableLogStore(str(tmp_path / "failing"), **GEOMETRY)
        assert len(reopened) == accepted
        reference = reference_store(tmp_path, records[:accepted])
        assert reopened.head() == reference.head()
        assert reopened.merkle_root() == reference.merkle_root()
        assert reopened.records() == reference.records()
        reopened.verify()
        reopened.close()
        reference.close()

    def test_live_continue_after_failed_batch(self, tmp_path):
        """The hazard that forces WAL truncation on batch failure: after a
        failed group commit the store keeps running and the caller falls
        back to per-entry submission.  Were the abandoned burst's complete
        prefix left in the WAL, those per-entry re-appends would land
        after it as non-chaining duplicates and wedge recovery forever."""
        records = make_records(30)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        store.append_batch(records[:4])
        real = fail_next_batch(store, 8)
        with pytest.raises(OSError):
            store.append_batch(records[4:12])
        store._wal._file = real
        assert len(store) == 4
        store.verify()  # the burst was rolled back on disk too
        # Per-entry fallback on the SAME live store, then keep batching.
        for record in records[4:12]:
            store.append_batch([record])
        store.append_batch(records[12:])
        store.verify()  # live store and disk agree
        head, root = store.head(), store.merkle_root()
        store.close()

        reopened = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        reference = reference_store(tmp_path, records)
        assert len(reopened) == len(records)
        assert reopened.head() == head == reference.head()
        assert reopened.merkle_root() == root == reference.merkle_root()
        reopened.verify()
        reopened.close()
        reference.close()

    def test_recovered_store_accepts_new_batches(self, tmp_path):
        records = make_records(48)
        arm("wal.batch_mid", action="raise", fire_on=2)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        crashed = False
        i = 0
        while i < len(records):
            try:
                store.append_batch(records[i : i + 8])
            except SimulatedCrash:
                crashed = True
                break
            i += 8
        assert crashed
        store.abandon()
        reset()

        recovered = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        n = len(recovered)
        remaining = records[n:]
        # Finish the stream batched; the result must equal a per-entry run.
        for j in range(0, len(remaining), 8):
            recovered.append_batch(remaining[j : j + 8])
        reference = reference_store(tmp_path, records)
        assert recovered.head() == reference.head()
        assert recovered.merkle_root() == reference.merkle_root()
        recovered.verify()
        recovered.close()
        reference.close()


class TestServerBatchCrash:
    def test_submit_batch_crash_rolls_back_then_recovers(self, tmp_path, rng):
        """SimulatedCrash inside a LogServer group commit: the live server
        rolls its derived state back; recovery equals a per-entry
        reference over the surviving prefix (the S5 property, raise-mode
        half)."""
        entries = [make_entry(i) for i in range(1, 41)]
        arm("wal.batch_mid", action="raise", fire_on=2)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        server = LogServer(store)
        accepted = 0
        crashed = False
        i = 0
        while i < len(entries):
            size = rng.randrange(2, 9)
            batch = entries[i : i + size]
            try:
                server.submit_batch(batch)
                accepted += len(batch)
            except SimulatedCrash:
                crashed = True
                break
            i += size
        assert crashed
        # Derived state rolled back with the store: memory never claims
        # more than the pre-batch prefix.
        assert len(server) == accepted
        store.abandon()
        reset()

        recovered = LogServer(DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY))
        n = len(recovered)
        assert accepted <= n < accepted + len(batch)
        reference = LogServer(InMemoryLogStore())
        for entry in entries[:n]:
            reference.submit(entry)
        rec_c, ref_c = recovered.commitment(), reference.commitment()
        assert (rec_c.entries, rec_c.chain_head, rec_c.merkle_root) == (
            ref_c.entries,
            ref_c.chain_head,
            ref_c.merkle_root,
        )
        recovered.verify_integrity()
        recovered.close()


_BATCH_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    store_dir = sys.argv[1]
    from repro.core.entries import Direction, LogEntry, Scheme
    from repro.storage.durable_store import DurableLogStore

    store = DurableLogStore(
        store_dir, fsync="always", segment_max_bytes=512, checkpoint_every=6
    )
    i = len(store)
    print("READY", flush=True)
    while True:
        batch = []
        for _ in range(8):
            i += 1
            entry = LogEntry(
                component_id="/pub", topic="/t", type_name="std/String",
                direction=Direction.OUT, seq=i, timestamp=float(i),
                scheme=Scheme.ADLP, data=b"payload-%04d" % i, own_sig=b"Z" * 16,
            )
            batch.append(entry.encode())
        store.append_batch(batch)
    """
)


class TestBatchProcessDeath:
    def test_hard_exit_mid_batch(self, tmp_path):
        """The S5 property, process-death half: kill the process inside a
        group-commit burst (no flush, no goodbye); the recovered store is
        a clean per-entry-identical prefix."""
        store_dir = str(tmp_path / "store")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env["ADLP_CRASHPOINT"] = "wal.batch_mid:5"
        child = subprocess.Popen(
            [sys.executable, "-c", _BATCH_CHILD_SCRIPT, store_dir],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == CRASH_EXIT_STATUS

        recovered = DurableLogStore(store_dir, **GEOMETRY)
        n = len(recovered)
        assert n > 0
        # The recovered entries are exactly the deterministic prefix 1..n
        # -- a mid-burst death never reorders or tears a record.
        seqs = [LogEntry.decode(r).seq for r in recovered.records()]
        assert seqs == list(range(1, n + 1))
        reference = reference_store(tmp_path, recovered.records())
        assert recovered.head() == reference.head()
        assert recovered.merkle_root() == reference.merkle_root()
        recovered.verify()
        recovered.close()
        reference.close()


class TestServerBatchIoError:
    def test_submit_batch_io_error_rolls_back(self, tmp_path):
        """An I/O error inside a LogServer group commit: the server and
        the WAL both roll the batch back, and per-entry re-submission on
        the same live server lands every entry exactly once."""
        entries = [make_entry(i) for i in range(1, 41)]
        store = DurableLogStore(str(tmp_path / "failing"), **GEOMETRY)
        server = LogServer(store)
        server.submit_batch(entries[:6])
        real = fail_next_batch(store, 6)
        with pytest.raises(OSError):
            server.submit_batch(entries[6:12])
        store._wal._file = real
        assert len(server) == 6
        server.verify_integrity()
        for entry in entries[6:12]:
            server.submit_batch([entry])
        server.submit_batch(entries[12:])
        server.verify_integrity()
        server.close()

        recovered = LogServer(DurableLogStore(str(tmp_path / "failing"), **GEOMETRY))
        reference = LogServer(InMemoryLogStore())
        for entry in entries:
            reference.submit(entry)
        rec_c, ref_c = recovered.commitment(), reference.commitment()
        assert (rec_c.entries, rec_c.chain_head, rec_c.merkle_root) == (
            ref_c.entries,
            ref_c.chain_head,
            ref_c.merkle_root,
        )
        recovered.verify_integrity()
        recovered.close()
