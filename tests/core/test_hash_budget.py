"""Full-record hashes per durable record: every byte path hashes it once.

``repro.crypto.hashing`` is handed a ``hashlib`` whose SHA-256 counts the
bytes it is fed, and a ``LogServer`` over a ``DurableLogStore`` ingests,
verifies, serves and re-opens 64 KiB records.  Budgets are ratios of the
record bytes; the slack above a whole number is the fixed-width chain and
node hashes, which do not grow with the record.
"""

from __future__ import annotations

import hashlib
import types

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.crypto import hashing
from repro.storage.durable_store import DurableLogStore

RECORD_DATA = 64 * 1024
RECORDS = 16


class _CountingSha256:
    def __init__(self, meter: "HashMeter", data: bytes = b"") -> None:
        self._meter = meter
        self._hash = hashlib.sha256()
        self.update(data)

    def update(self, data: bytes) -> None:
        self._meter.fed += len(data)
        self._hash.update(data)

    def digest(self) -> bytes:
        return self._hash.digest()


class HashMeter:
    """Bytes fed to SHA-256 through ``repro.crypto.hashing``."""

    def __init__(self) -> None:
        self.fed = 0

    def ratio(self, operation, record_bytes: int) -> float:
        """SHA-256 input of ``operation()`` per record byte."""
        before = self.fed
        operation()
        return (self.fed - before) / record_bytes


@pytest.fixture
def meter(monkeypatch) -> HashMeter:
    meter = HashMeter()
    counting = types.SimpleNamespace(
        sha256=lambda data=b"": _CountingSha256(meter, data)
    )
    monkeypatch.setattr(hashing, "hashlib", counting)
    return meter


def _record(seq: int) -> bytes:
    return LogEntry(
        component_id="/camera",
        topic="/image",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=bytes([seq]) * RECORD_DATA,
        own_sig=b"s" * 128,
    ).encode()


def test_each_byte_path_hashes_a_record_once(tmp_path, meter):
    records = [_record(seq) for seq in range(1, RECORDS + 1)]
    total = sum(map(len, records))
    path = str(tmp_path / "store")
    server = LogServer(DurableLogStore(path, fsync="never"))

    def ingest():
        server.submit_batch(records[: RECORDS // 2])
        server.submit_batch(records[RECORDS // 2 :])

    assert 1.0 <= meter.ratio(ingest, total) <= 1.01
    assert 1.0 <= meter.ratio(server.verify_integrity, total) <= 1.01
    assert meter.ratio(server.entries, total) == pytest.approx(1.0, rel=1e-3)
    server.close()

    # no checkpoint covers these records: the store re-hashes its tail and
    # the server rebuilds its tree, once each
    reopened = []
    ratio = meter.ratio(
        lambda: reopened.append(LogServer(DurableLogStore(path))), total
    )
    assert 2.0 <= ratio <= 2.01
    assert len(reopened[0]) == RECORDS
    reopened[0].close()
