"""Crash-injection: every named crashpoint plus a real SIGKILL.

The acceptance bar: recovery after a crash at *any* instant yields a store
whose ``merkle_root()``, entry count, and audit verdicts equal those of an
uncrashed reference run fed the same prefix of appends -- minus at most the
single torn-tail entry, which is absent, never corrupt.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.audit import Auditor
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
from repro.storage.wal import segment_paths

#: Store geometry shared by the crashing and the reference run; small
#: segments and a short cadence make every crashpoint reachable quickly.
GEOMETRY = dict(fsync="always", segment_max_bytes=512, checkpoint_every=6)

STORE_CRASHPOINTS = [
    "wal.mid_record",
    "wal.pre_fsync",
    "wal.pre_rotate",
    "checkpoint.partial",
    "checkpoint.pre_rename",
]


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


class TestNamedCrashpoints:
    def test_every_store_crashpoint_is_known(self):
        assert set(STORE_CRASHPOINTS) <= set(KNOWN_CRASHPOINTS)

    @pytest.mark.parametrize("point", STORE_CRASHPOINTS)
    @pytest.mark.parametrize("fire_on", [1, 3])
    def test_recovery_equals_uncrashed_reference(self, tmp_path, point, fire_on):
        records = make_records(60)
        arm(point, action="raise", fire_on=fire_on)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        accepted = 0
        crashed = False
        for record in records:
            try:
                store.append_batch([record])
                accepted += 1
            except SimulatedCrash:
                crashed = True
                break
        assert crashed, f"{point} (fire_on={fire_on}) never fired in 60 appends"
        store.abandon()
        reset()

        recovered = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        n = len(recovered)
        # The in-flight append is the only entry allowed to differ: it is
        # either fully durable (post-write crashpoints) or wholly absent
        # (torn tail) -- never partially there.
        assert accepted <= n <= accepted + 1
        if point == "wal.mid_record":
            assert n == accepted  # torn mid-write: the record must be gone
            assert recovered.recovery.truncated_bytes > 0

        reference = reference_store(tmp_path, records[:n])
        assert recovered.head() == reference.head()
        assert recovered.merkle_root() == reference.merkle_root()
        assert recovered.records() == reference.records()
        assert recovered.total_bytes == reference.total_bytes
        recovered.verify()
        recovered.close()
        reference.close()

    @pytest.mark.parametrize("point", STORE_CRASHPOINTS)
    def test_recovered_store_accepts_new_appends(self, tmp_path, point):
        records = make_records(40)
        arm(point, action="raise", fire_on=2)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        crashed = False
        for record in records:
            try:
                store.append_batch([record])
            except SimulatedCrash:
                crashed = True
                break
        assert crashed
        store.abandon()
        reset()

        recovered = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        n = len(recovered)
        for record in records[n:]:
            recovered.append_batch([record])
        reference = reference_store(tmp_path, records)
        assert recovered.head() == reference.head()
        assert recovered.merkle_root() == reference.merkle_root()
        recovered.verify()
        recovered.close()
        reference.close()


class TestServerCrashRecovery:
    """Crash the whole trusted logger mid-ingest; audit verdicts must be
    indistinguishable from a never-crashed run over the same prefix."""

    def test_audit_verdicts_match_uncrashed_run(self, tmp_path, keypool):
        entries = [make_entry(i) for i in range(1, 31)]
        arm("wal.mid_record", action="raise", fire_on=20)
        store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        server = LogServer(store)
        server.register_key("/pub", keypool[0].public)
        crashed = False
        for entry in entries:
            try:
                server.submit(entry)
            except SimulatedCrash:
                crashed = True
                break
        assert crashed
        store.abandon()
        reset()

        recovered = LogServer(
            DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        )
        n = len(recovered)
        assert recovered.public_key("/pub") == keypool[0].public
        recovered.verify_integrity()

        reference = LogServer(InMemoryLogStore())
        reference.register_key("/pub", keypool[0].public)
        for entry in entries[:n]:
            reference.submit(entry)

        assert recovered.merkle_root() == reference.merkle_root()
        assert recovered.total_bytes == reference.total_bytes
        assert recovered.bytes_by_component() == reference.bytes_by_component()

        def verdict_set(server):
            report = Auditor.for_server(server).audit_server(server)
            return {
                (c.component_id, c.entry.topic, c.entry.seq, c.verdict, c.reasons)
                for c in report.classified
            }

        assert verdict_set(recovered) == verdict_set(reference)
        recovered.close()

    def test_double_crash(self, tmp_path, keypool):
        """Crash, recover, crash again during the catch-up -- the second
        recovery must still reproduce a clean prefix."""
        entries = [make_entry(i) for i in range(1, 31)]

        def ingest(from_index: int) -> int:
            store = DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
            server = LogServer(store)
            server.register_key("/pub", keypool[0].public)
            count = len(server)
            try:
                for entry in entries[count:]:
                    server.submit(entry)
                    count += 1
            except SimulatedCrash:
                store.abandon()
                return -1
            server.close()
            return count

        arm("checkpoint.partial", action="raise", fire_on=2)
        assert ingest(0) == -1
        reset()
        arm("wal.mid_record", action="raise", fire_on=5)
        assert ingest(0) == -1
        reset()
        assert ingest(0) == 30

        recovered = LogServer(
            DurableLogStore(str(tmp_path / "crashing"), **GEOMETRY)
        )
        reference = LogServer(InMemoryLogStore())
        reference.register_key("/pub", keypool[0].public)
        for entry in entries:
            reference.submit(entry)
        assert len(recovered) == 30
        assert recovered.merkle_root() == reference.merkle_root()
        recovered.verify_integrity()
        recovered.close()


_CHILD_SCRIPT = textwrap.dedent(
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
        i += 1
        entry = LogEntry(
            component_id="/pub", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=i, timestamp=float(i),
            scheme=Scheme.ADLP, data=b"payload-%04d" % i, own_sig=b"Z" * 16,
        )
        store.append_batch([entry.encode()])
    """
)


def _spawn_child(store_dir: str, extra_env=None) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("ADLP_CRASHPOINT", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, store_dir],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_for_entries(store_dir: str, min_bytes: int, timeout: float = 30.0):
    wal_dir = os.path.join(store_dir, "wal")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            total = sum(
                os.path.getsize(path) for _, path in segment_paths(wal_dir)
            )
        except Exception:  # directory not created yet, file mid-rename, ...
            total = 0
        if total >= min_bytes:
            return
        time.sleep(0.01)
    raise AssertionError("child process never wrote enough WAL data")


def _check_recovered_prefix(store_dir: str, tmp_path) -> int:
    """Recover ``store_dir`` and prove it equals an uncrashed run."""
    recovered = DurableLogStore(store_dir, **GEOMETRY)
    n = len(recovered)
    assert n > 0
    # The recovered entries are exactly the deterministic prefix 1..n.
    seqs = [LogEntry.decode(r).seq for r in recovered.records()]
    assert seqs == list(range(1, n + 1))
    reference = reference_store(tmp_path, recovered.records())
    assert recovered.head() == reference.head()
    assert recovered.merkle_root() == reference.merkle_root()
    recovered.verify()
    recovered.close()
    reference.close()
    return n


class TestProcessDeath:
    def test_sigkill_mid_ingest(self, tmp_path):
        """The real thing: SIGKILL the logger process mid-append."""
        store_dir = str(tmp_path / "store")
        child = _spawn_child(store_dir)
        try:
            assert child.stdout.readline().strip() == b"READY"
            _wait_for_entries(store_dir, min_bytes=2048)
            child.kill()  # SIGKILL: no atexit, no flush, no goodbye
            child.wait(timeout=10)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == -signal.SIGKILL
        _check_recovered_prefix(store_dir, tmp_path)

    def test_env_armed_crashpoint_kills_subprocess(self, tmp_path):
        """ADLP_CRASHPOINT arms a hard exit (os._exit) in a child process
        -- crash-at-a-named-instant without cooperation from the code
        under test."""
        store_dir = str(tmp_path / "store")
        child = _spawn_child(
            store_dir, extra_env={"ADLP_CRASHPOINT": "wal.mid_record:12"}
        )
        try:
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
        assert child.returncode == CRASH_EXIT_STATUS
        n = _check_recovered_prefix(store_dir, tmp_path)
        assert n < 12  # the torn record and everything after are absent

    def test_sigkill_then_resume_then_sigkill(self, tmp_path):
        """Two generations of crashes; the WAL keeps growing across both."""
        store_dir = str(tmp_path / "store")
        for round_bytes in (1536, 4096):
            child = _spawn_child(store_dir)
            try:
                assert child.stdout.readline().strip() == b"READY"
                _wait_for_entries(store_dir, min_bytes=round_bytes)
                child.kill()
                child.wait(timeout=10)
            finally:
                if child.poll() is None:
                    child.kill()
        _check_recovered_prefix(store_dir, tmp_path)
