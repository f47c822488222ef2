"""Pipelined wire protocol regressions: correlated RPCs sharing one
socket, discard of replies with no waiter (late or id-less), and the
three remote-client races the pipelining work exposed (connect-under-lock
and reap-vs-send TOCTOU), plus the retired wire paths: the BUSY verdict
read from an old server, frames without a correlation id, and the
single-entry submit op."""

import threading
import time

import pytest

from repro.core import LogServer, LogServerEndpoint, RemoteLogger
from repro.core.entries import LogEntry, Scheme
from repro.core.remote import (
    OP_HEALTH,
    OP_REGISTER_KEY,
    OP_SUBMIT_BATCH,
    LoggerRequest,
    LoggerResponse,
    RemoteUnavailable,
)
from repro.errors import LoggingError, TransportError
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Transport,
)
from repro.middleware.transport.tcp import TcpTransport
from repro.serialization import (
    WireMessage,
    boolean,
    bytes_,
    repeated,
    string,
    uint64,
    wire,
)
from repro.util.concurrency import wait_for


def _entry(seq: int) -> LogEntry:
    return LogEntry(
        component_id="/a", topic="/t", seq=seq, scheme=Scheme.ADLP
    )


class _CountingTransport(Transport):
    """TcpTransport wrapper counting outbound connects."""

    def __init__(self):
        self._inner = TcpTransport()
        self.connects = 0

    def listen(self):
        return self._inner.listen()

    def connect(self, address):
        self.connects += 1
        return self._inner.connect(address)


class TestPipelinedRpcs:
    def test_concurrent_sync_rpcs_share_one_connection(self):
        """Many threads issue acknowledged batches through ONE stub at
        once; every batch lands and the stub never opens a second
        connection (pre-envelope clients serialized on _rpc_lock)."""
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        transport = _CountingTransport()
        client = RemoteLogger(endpoint.address, transport=transport)
        client.health()  # warm the connection before the stampede
        threads = 8
        per_thread = 25
        errors = []

        def worker(base: int) -> None:
            try:
                batch = [_entry(base + i) for i in range(per_thread)]
                client.submit_batch_sync(batch, timeout=10.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(t * per_thread,))
            for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30.0)
        assert not errors
        assert len(server) == threads * per_thread
        assert transport.connects == 1
        client.close()
        endpoint.close()

    def test_late_reply_discarded_by_id_connection_survives(self):
        """A reply that arrives after its RPC timed out, and a reply
        carrying no correlation id, are both dropped; the connection
        (and later RPCs on it) survive."""
        transport = TcpTransport()
        listener = transport.listen()
        stop = threading.Event()
        accepted = []

        def serve() -> None:
            conn = listener.accept(timeout=5.0)
            if conn is None:  # pragma: no cover - setup failure
                return
            accepted.append(conn)
            stalled = None
            seen = 0
            while not stop.is_set():
                try:
                    frame = conn.recv_frame(timeout=0.1)
                except ConnectionClosed:
                    return
                if frame is None:
                    continue
                request = LoggerRequest.decode(frame)
                reply = LoggerResponse(
                    ok=True, entries=0, corr_id=int(request.corr_id)
                )
                seen += 1
                if seen == 2:
                    stalled = reply  # park: its RPC will time out
                    continue
                conn.send_frame(reply.encode())
                if seen == 1:  # a reply no request is waiting on
                    conn.send_frame(LoggerResponse(ok=True).encode())
                if stalled is not None:
                    conn.send_frame(stalled.encode())  # the LATE reply
                    stalled = None

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        client = RemoteLogger(listener.address)
        try:
            client.health(timeout=5.0)
            with pytest.raises(RemoteUnavailable):
                # server parks this reply; its pump discards the id-0 one
                client.health(timeout=0.3)
            # Same connection: answered in order (reply 3, then late 2).
            client.health(timeout=5.0)
            client.health(timeout=5.0)  # pumps + discards the late reply
            assert wait_for(
                lambda: client.stats()["late_replies_discarded"] == 2,
                timeout=2.0,
            )
            assert client.connected
            assert len(accepted) == 1  # never reconnected
        finally:
            stop.set()
            client.close()
            server_thread.join(timeout=5.0)
            listener.close()


class _BlockingConnectTransport(Transport):
    """connect() parks on an event, then fails -- a stand-in for a
    blackholed host / full accept backlog."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def connect(self, address):
        self.entered.set()
        self.release.wait(timeout=10.0)
        raise TransportError("connect timed out")


class TestConnectOutsideLock:
    def test_stalled_connect_does_not_freeze_stats_or_close(self):
        """Regression: _connect used to hold self._lock across the
        blocking transport connect, so a stalled connect froze stats()
        and close() on every other thread."""
        transport = _BlockingConnectTransport()
        client = RemoteLogger(("test", "nowhere"), transport=transport)

        submitter = threading.Thread(target=client.submit, args=(_entry(1),))
        submitter.start()
        assert transport.entered.wait(timeout=5.0)
        # The connect is stalled RIGHT NOW; the shared lock must be free.
        start = time.monotonic()
        client.stats()
        assert client.spilled == 0
        assert not client.connected
        client.close()
        assert time.monotonic() - start < 1.0
        transport.release.set()
        submitter.join(timeout=5.0)
        assert not submitter.is_alive()
        # The entry survived the stalled connect (spilled, not lost).
        assert client.dropped == 0

    def test_non_accepting_tcp_server_does_not_block_other_threads(self):
        """Same race end-to-end over TCP: a listener whose accept backlog
        is saturated stalls fresh connects; stats() must stay prompt."""
        import socket as socketlib

        gate = socketlib.socket()
        gate.bind(("127.0.0.1", 0))
        gate.listen(0)  # never accepted; minimal backlog
        address = ("tcp",) + gate.getsockname()
        fillers = []
        for _ in range(4):  # saturate the accept queue
            filler = socketlib.socket()
            filler.setblocking(False)
            filler.connect_ex(gate.getsockname())
            fillers.append(filler)
        client = RemoteLogger(
            address, transport=TcpTransport(connect_timeout=1.0)
        )
        try:
            submitter = threading.Thread(
                target=client.submit, args=(_entry(1),)
            )
            submitter.start()
            time.sleep(0.1)  # let the submitter reach the connect
            start = time.monotonic()
            client.stats()
            _ = client.spilled
            assert time.monotonic() - start < 0.75
            submitter.join(timeout=10.0)
            assert not submitter.is_alive()
            assert client.dropped == 0
        finally:
            client.close()
            for filler in fillers:
                filler.close()
            gate.close()


class _FlipConnection(Connection):
    """Looks alive at the pre-send peek, reports peer-closed immediately
    after the send -- the injected reap-vs-send race."""

    def __init__(self):
        self.frames = []
        self._closed = False
        self._peer_gone = False

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise ConnectionClosed("closed")
        self.frames.append(frame)
        self._peer_gone = True  # the server reaped us mid-send

    def recv_frame(self, timeout=None):
        return None

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def peer_closed(self) -> bool:
        return self._peer_gone


class _GoodConnection(Connection):
    def __init__(self):
        self.frames = []
        self._closed = False

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise ConnectionClosed("closed")
        self.frames.append(frame)

    def recv_frame(self, timeout=None):
        return None

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def peer_closed(self) -> bool:
        return False


class _ScriptedTransport(Transport):
    def __init__(self, connections):
        self._connections = list(connections)

    def connect(self, address):
        if not self._connections:
            raise TransportError("no more connections scripted")
        return self._connections.pop(0)


class TestPeerCloseRespill:
    def test_close_between_peek_and_send_respills(self):
        """Regression: a connection reaped between the peer_closed() peek
        and the fire-and-forget send used to swallow the frame silently.
        The post-send peek must route it to the spill queue instead."""
        flip = _FlipConnection()
        good = _GoodConnection()
        client = RemoteLogger(
            ("test", "x"),
            transport=_ScriptedTransport([flip, good]),
            reconnect_backoff=0.001,
        )
        entry = _entry(7)
        client.submit(entry)
        assert len(flip.frames) == 1  # the send itself "succeeded"
        assert client.spilled == 1  # ...but the record was respilled
        assert client.dropped == 0
        assert client.stats()["peer_close_respills"] == 1
        assert flip.closed  # the raced connection was retired

        # Recovery: the respilled record drains on the next connection.
        assert client.flush_spill()
        assert client.spilled == 0
        assert client.stats()["spill_retries"] == 1
        assert len(good.frames) == 1
        resent = LoggerRequest.decode(good.frames[0])
        assert [bytes(r) for r in resent.entry_batch] == [entry.encode()]
        client.close()

    def test_batch_respill_counts_every_record(self):
        flip = _FlipConnection()
        client = RemoteLogger(
            ("test", "x"), transport=_ScriptedTransport([flip])
        )
        client.submit_batch([_entry(i) for i in range(5)])
        assert client.spilled == 5
        assert client.stats()["peer_close_respills"] == 5
        assert client.dropped == 0
        client.close()


def _old_busy_reply(corr_id: int) -> bytes:
    """A reply as a pre-removal server sent it under admission control:
    verdict code 10 (the retired BUSY) plus its field 13 (queue depth)
    and field 14 (retry-after, ms), which this client no longer knows."""
    body = LoggerResponse(
        ok=False, error="server busy: ingest depth 10", code=10, corr_id=corr_id
    ).encode()
    for number, value in ((13, 10), (14, 40)):
        body += wire.encode_tag(number, wire.WireType.VARINT)
        body += wire.encode_varint(value)
    return body


class TestRetiredBusyVerdict:
    def test_old_server_busy_reply_is_a_plain_logging_error(self):
        """Code 10 and fields 13/14 decode (unknown fields are skipped)
        and surface as an ordinary rejection, never a special error."""
        decoded = LoggerResponse.decode(_old_busy_reply(7))
        assert not decoded.ok and int(decoded.code) == 10
        assert int(decoded.corr_id) == 7

        transport = TcpTransport()
        listener = transport.listen()

        def serve() -> None:
            conn = listener.accept(timeout=5.0)
            if conn is None:  # pragma: no cover - setup failure
                return
            try:
                request = LoggerRequest.decode(conn.recv_frame(timeout=5.0))
                conn.send_frame(_old_busy_reply(int(request.corr_id)))
                conn.recv_frame(timeout=5.0)  # hold until the client leaves
            except (ConnectionClosed, TypeError):
                pass

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        client = RemoteLogger(listener.address)
        try:
            with pytest.raises(LoggingError) as info:
                client.submit_batch_sync([_entry(1)], timeout=5.0)
            assert type(info.value) is LoggingError
            assert "server busy" in str(info.value)
        finally:
            client.close()
            server_thread.join(timeout=5.0)
            listener.close()


class _UncorrelatedRequest(WireMessage):
    """The request schema without ``corr_id`` (14): what a client that
    stamps no correlation id puts on the wire."""

    op = uint64(1)
    component_id = string(2)
    key_bytes = bytes_(3)
    entry_batch = repeated(bytes_(7))
    sync = boolean(9)


class _UncorrelatedResponse(WireMessage):
    """The response schema without ``corr_id`` (21), so decoding a reply
    with it exercises the unknown-field skip."""

    ok = boolean(1)
    error = string(2)
    entries = uint64(3)


class TestUncorrelatedFrames:
    @pytest.fixture()
    def endpoint(self):
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        yield server, endpoint
        endpoint.close()

    def test_old_style_registration_and_batch(self, endpoint, keypool):
        """Frames without a correlation id are still answered."""
        server, ep = endpoint
        conn = TcpTransport().connect(ep.address)
        try:
            conn.send_frame(
                _UncorrelatedRequest(
                    op=OP_REGISTER_KEY,
                    component_id="/a",
                    key_bytes=keypool[0].public.to_bytes(),
                ).encode()
            )
            frame = conn.recv_frame(timeout=5.0)
            assert _UncorrelatedResponse.decode(frame).ok
            assert LoggerResponse.decode(frame).corr_id == 0  # echoed as 0
            assert server.public_key("/a") == keypool[0].public

            batch = [_entry(i).encode() for i in range(1, 4)]
            conn.send_frame(
                _UncorrelatedRequest(
                    op=OP_SUBMIT_BATCH, entry_batch=batch, sync=True
                ).encode()
            )
            reply = _UncorrelatedResponse.decode(conn.recv_frame(timeout=5.0))
            assert reply.ok
            assert int(reply.entries) == 3
        finally:
            conn.close()

    def test_retired_single_submit_op_ingests_nothing(self, endpoint):
        """Op code 2 with its record in field 4 (the retired single-entry
        submit) is refused as an unknown op; the connection stays up."""
        server, ep = endpoint
        frame = LoggerRequest(op=2, corr_id=1).encode()
        record = _entry(1).encode()
        frame += wire.encode_tag(4, wire.WireType.LEN)
        frame += wire.encode_varint(len(record)) + record
        conn = TcpTransport().connect(ep.address)
        try:
            conn.send_frame(frame)
            reply = LoggerResponse.decode(conn.recv_frame(timeout=5.0))
            assert not reply.ok and int(reply.corr_id) == 1
            assert "unknown op 2" in str(reply.error)
            conn.send_frame(LoggerRequest(op=OP_HEALTH, corr_id=2).encode())
            reply = LoggerResponse.decode(conn.recv_frame(timeout=5.0))
            assert reply.ok and int(reply.corr_id) == 2
            assert int(reply.entries) == 0
            assert len(server) == 0
        finally:
            conn.close()
