"""A record larger than any frame, submitted among ordinary records.

``RemoteLogger`` checks every record against the frame cap before it
sends anything.  Fire-and-forget, the record is counted as dropped and
its batchmates are sent once -- a raise after the first frames went out
made the logging thread retry them, and the server logged duplicates
that audit as ``replayed_sequence``.  Acknowledged, the batch is refused
with :class:`RecordTooLarge` before a correlation id is registered.

The caps are scaled down (1 MiB frames, 256 KiB batch frames) so a
"too large" record stays small.
"""

from __future__ import annotations

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core import remote
from repro.core.entries import LogEntry, Scheme
from repro.core.logging_thread import LoggingThread
from repro.errors import LoggingError, TransportError
from repro.middleware.transport import framing
from repro.util.concurrency import wait_for

FRAME_CAP = 1 << 20


@pytest.fixture()
def endpoint(monkeypatch):
    monkeypatch.setattr(framing, "MAX_FRAME_SIZE", FRAME_CAP)
    monkeypatch.setattr(remote, "BATCH_FRAME_BYTES", FRAME_CAP // 4)
    server = LogServer()
    endpoint = LogServerEndpoint(server)
    client = RemoteLogger(endpoint.address)
    yield server, client
    client.close()
    endpoint.close()


def _entry(seq: int, size: int = 10) -> LogEntry:
    return LogEntry(
        component_id="/a", topic="/t", seq=seq, scheme=Scheme.ADLP, data=b"x" * size
    )


def _batch():
    return [_entry(1), _entry(2, size=2 * FRAME_CAP), _entry(3)]


class TestRecordOverTheFrameCap:
    def test_logging_thread_sends_the_batchmates_once(self, endpoint):
        server, client = endpoint
        thread = LoggingThread("/a", client.submit_batch, max_retries=2, batch_max=64)
        try:
            for entry in _batch():
                thread.enqueue(entry)
            assert thread.flush(timeout=10.0)
        finally:
            thread.stop()
        # an acknowledged round trip: every earlier frame is ingested
        assert client.submit_batch_sync([_entry(4)]) == 3
        assert [entry.seq for entry in server.entries()] == [1, 3, 4]
        assert client.stats()["dropped"] == 1
        assert thread.dropped == 0

    def test_submit_batch_never_raises(self, endpoint):
        server, client = endpoint
        assert client.submit_batch(_batch()) == [0, 0, 0]
        assert client.submit_batch([_entry(4, size=2 * FRAME_CAP)]) == [0]
        assert wait_for(lambda: len(server) == 2, timeout=10.0)
        assert client.stats()["dropped"] == 2
        assert client.spilled == 0

    def test_sync_refuses_before_sending(self, endpoint):
        server, client = endpoint
        with pytest.raises(remote.RecordTooLarge):
            client.submit_batch_sync(_batch())
        assert issubclass(remote.RecordTooLarge, LoggingError)
        # nothing of the refused batch was sent, no waiter was left
        # behind, and the connection still serves
        assert client.submit_batch_sync([_entry(4)]) == 1
        assert not client._channel.pending
        assert [entry.seq for entry in server.entries()] == [4]


def test_an_oversized_request_leaves_no_waiter(endpoint):
    """Any request over the frame cap is refused unsent, and its
    correlation id does not stay registered."""
    _, client = endpoint
    with pytest.raises(TransportError):
        client.register_key("/a", b"k" * (2 * FRAME_CAP))
    assert not client._channel.pending
    assert client.submit_batch_sync([_entry(1)]) == 1
