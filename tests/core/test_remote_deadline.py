"""Deadline propagation: the endpoint refuses sync work whose
client-stamped budget ran out while the frame waited, before doing it."""

from __future__ import annotations

import threading

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.remote import (
    OP_DEADLINE_EXPIRED,
    OP_SUBMIT_BATCH,
    LoggerRequest,
    _raise_for_verdict,
)
from repro.errors import DeadlineExceeded


def entry(seq, topic="/t", component="/p"):
    return LogEntry(
        component_id=component,
        topic=topic,
        type_name="std/String",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % seq,
    )


class _GatedServer:
    """A ``LogServer`` whose batch ingest waits for ``gate``."""

    def __init__(self, inner: LogServer, gate: threading.Event):
        self._inner = inner
        self._gate = gate

    def submit_batch(self, records):
        self._gate.wait(10.0)
        return self._inner.submit_batch(records)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDeadline:
    def test_deadline_expired_refuses_without_ingesting(self):
        server = LogServer()
        gate = threading.Event()
        gate.set()
        # TCP: the event loop stamps each frame's arrival as it is read,
        # so time spent queued behind an earlier frame counts.
        endpoint = LogServerEndpoint(_GatedServer(server, gate))
        client = RemoteLogger(endpoint.address)
        try:
            # deadline_ms=0 means "no deadline" on the wire; prove that
            # first (nothing ahead of it, the frame ingests normally).
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH,
                entry_batch=[entry(1).encode()],
                sync=True,
                deadline_ms=0,
            )
            response = client._rpc(request, timeout=1.0)
            assert response.ok
            assert len(server) == 1

            # Now make a fire-and-forget batch ahead of it eat the whole
            # budget: it holds the connection's dispatch for ~80 ms, so
            # the 30 ms deadline has expired by the time the frame is
            # dispatched -- the server must refuse WITHOUT ingesting.
            gate.clear()
            client.submit_batch([entry(2), entry(3)])
            freed = threading.Timer(0.08, gate.set)
            freed.start()
            request = LoggerRequest(
                op=OP_SUBMIT_BATCH,
                entry_batch=[entry(4).encode()],
                sync=True,
                deadline_ms=30,
            )
            response = client._rpc(request, timeout=5.0)
            freed.join()
            assert not response.ok
            assert int(response.code) == OP_DEADLINE_EXPIRED
            assert len(server) == 3  # the expired entry was NOT ingested
            assert int(response.entries) == 3
            assert endpoint.deadline_rejections == 1
            assert client.server_stats()["deadline_rejections"] == 1
            # The client stub translates the verdict into the typed error.
            with pytest.raises(DeadlineExceeded):
                _raise_for_verdict(response)
        finally:
            gate.set()
            client.close()
            endpoint.close()
            server.close()
