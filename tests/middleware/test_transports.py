"""Unit tests for both transports against the shared Connection contract."""

import threading
import time

import pytest

from repro.errors import TransportError
from repro.middleware.transport.base import ConnectionClosed
from repro.middleware.transport.inproc import InprocTransport, connection_pair
from repro.middleware.transport.tcp import TcpTransport


@pytest.fixture(params=["inproc", "tcp"])
def transport(request):
    if request.param == "inproc":
        return InprocTransport()
    return TcpTransport()


def connected_pair(transport):
    listener = transport.listen()
    client = transport.connect(listener.address)
    server = listener.accept(timeout=2.0)
    assert server is not None
    return listener, client, server


class TestConnectionContract:
    def test_send_recv_both_directions(self, transport):
        listener, client, server = connected_pair(transport)
        client.send_frame(b"ping")
        assert server.recv_frame(timeout=2.0) == b"ping"
        server.send_frame(b"pong")
        assert client.recv_frame(timeout=2.0) == b"pong"
        listener.close()

    def test_frames_preserve_boundaries(self, transport):
        listener, client, server = connected_pair(transport)
        client.send_frame(b"one")
        client.send_frame(b"two")
        client.send_frame(b"")
        assert server.recv_frame(timeout=2.0) == b"one"
        assert server.recv_frame(timeout=2.0) == b"two"
        assert server.recv_frame(timeout=2.0) == b""
        listener.close()

    def test_large_frame(self, transport):
        listener, client, server = connected_pair(transport)
        payload = bytes(range(256)) * 4096  # 1 MiB
        client.send_frame(payload)
        assert server.recv_frame(timeout=5.0) == payload
        listener.close()

    def test_recv_timeout_returns_none(self, transport):
        listener, client, server = connected_pair(transport)
        assert server.recv_frame(timeout=0.05) is None
        listener.close()

    def test_peer_close_raises(self, transport):
        listener, client, server = connected_pair(transport)
        client.close()
        with pytest.raises(ConnectionClosed):
            # may need to drain a close notification first
            for _ in range(3):
                server.recv_frame(timeout=1.0)
        listener.close()

    def test_send_after_close_raises(self, transport):
        listener, client, server = connected_pair(transport)
        client.close()
        with pytest.raises(ConnectionClosed):
            client.send_frame(b"late")
        listener.close()

    def test_closed_property(self, transport):
        listener, client, server = connected_pair(transport)
        assert not client.closed
        client.close()
        assert client.closed
        listener.close()

    def test_connect_to_closed_listener_fails(self, transport):
        listener = transport.listen()
        address = listener.address
        listener.close()
        with pytest.raises(TransportError):
            conn = transport.connect(address)
            # TCP may accept at the OS level; force a roundtrip to detect
            conn.send_frame(b"x")
            if conn.recv_frame(timeout=0.5) is None:
                raise TransportError("no listener")

    def test_connect_bad_address(self, transport):
        with pytest.raises(TransportError):
            transport.connect(("bogus",))

    def test_rejects_non_bytes(self, transport):
        listener, client, server = connected_pair(transport)
        for frame in ("text", ["text"], [b"ok", 7]):
            with pytest.raises(TransportError):
                client.send_frame(frame)
        listener.close()


class TestInprocSpecifics:
    def test_pair_is_symmetric(self):
        a, b = connection_pair()
        a.send_frame(b"x")
        assert b.recv_frame(timeout=1.0) == b"x"
        b.send_frame(b"y")
        assert a.recv_frame(timeout=1.0) == b"y"

    def test_listener_accept_timeout(self):
        transport = InprocTransport()
        listener = transport.listen()
        assert listener.accept(timeout=0.05) is None


class TestTcpSpecifics:
    def test_address_shape(self):
        listener = TcpTransport().listen()
        kind, host, port = listener.address
        assert kind == "tcp" and host == "127.0.0.1" and port > 0
        listener.close()

    def test_concurrent_connections(self):
        transport = TcpTransport()
        listener = transport.listen()
        accepted = []

        def acceptor():
            for _ in range(4):
                conn = listener.accept(timeout=2.0)
                if conn:
                    accepted.append(conn)

        thread = threading.Thread(target=acceptor)
        thread.start()
        clients = [transport.connect(listener.address) for _ in range(4)]
        thread.join()
        assert len(accepted) == 4
        for i, client in enumerate(clients):
            client.send_frame(f"c{i}".encode())
        got = sorted(conn.recv_frame(timeout=2.0) for conn in accepted)
        assert got == [b"c0", b"c1", b"c2", b"c3"]
        listener.close()


class TestTcpPeerClosedPeek:
    def test_peek_does_not_disturb_concurrent_sends(self):
        """The pre-send liveness peek must not mutate socket state: a
        concurrent ``send_frame`` caught inside a blocking-mode toggle
        would hit EAGAIN mid-frame and be misclassified as a stalled
        peer, closing a healthy connection."""
        transport = TcpTransport(send_timeout=5.0)
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        assert server is not None
        stop = threading.Event()
        peeked_closed = []

        def peeker():
            while not stop.is_set():
                if client.peer_closed():
                    peeked_closed.append(True)

        payload = b"x" * 65536
        frames = 100
        received = []

        def drain():
            while len(received) < frames:
                frame = server.recv_frame(timeout=5.0)
                if frame is not None:
                    received.append(frame)

        peek_thread = threading.Thread(target=peeker)
        drain_thread = threading.Thread(target=drain)
        peek_thread.start()
        drain_thread.start()
        try:
            for _ in range(frames):
                client.send_frame(payload)  # must never raise
        finally:
            stop.set()
            peek_thread.join(timeout=5.0)
        drain_thread.join(timeout=10.0)
        assert len(received) == frames
        assert all(frame == payload for frame in received)
        assert not client.closed  # no spurious stalled-peer verdict
        assert peeked_closed == []  # the peer never actually closed
        client.close()
        server.close()
        listener.close()

    def test_peek_preserves_socket_timeout(self):
        """``peer_closed`` must leave the socket's timeout/blocking mode
        exactly as it found it, whatever that was."""
        transport = TcpTransport()
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        for mode in (None, 0.5):
            client._sock.settimeout(mode)
            assert client.peer_closed() is False
            assert client._sock.gettimeout() == mode
        server.send_frame(b"buffered")  # pending data must not read as EOF
        import time as _time

        _time.sleep(0.05)  # let the frame cross loopback
        assert client.peer_closed() is False
        assert client.recv_frame(timeout=2.0) == b"buffered"
        server.close()
        _time.sleep(0.05)
        assert client.peer_closed() is True
        client.close()
        listener.close()


class TestTcpSendTimeout:
    def test_send_to_stalled_peer_raises_instead_of_hanging(self):
        """A peer that stops draining its socket must not park the sender
        forever: once the kernel buffer is full, ``send_frame`` blocks
        until ``send_timeout`` and then raises a ``TransportError``."""
        import socket

        transport = TcpTransport(send_timeout=0.3)
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        assert server is not None
        # shrink the send buffer so the kernel absorbs as little as possible
        client._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        payload = b"x" * (1 << 20)
        start = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            for _ in range(64):  # enough to overrun any default buffering
                client.send_frame(payload)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0  # it gave up, it did not hang
        assert client.closed  # a timed-out connection is dead, not limbo
        server.close()
        listener.close()

    def test_send_timeout_disabled_with_none(self):
        """``send_timeout=None`` keeps the old unbounded behavior for
        callers that prefer it."""
        transport = TcpTransport(send_timeout=None)
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        client.send_frame(b"fits-in-buffer")  # plain send still works
        assert server.recv_frame(timeout=2.0) == b"fits-in-buffer"
        client.close()
        server.close()
        listener.close()

    def test_normal_traffic_unaffected_by_send_timeout(self):
        """A draining peer never notices the timeout."""
        transport = TcpTransport(send_timeout=0.5)
        listener = transport.listen()
        client = transport.connect(listener.address)
        server = listener.accept(timeout=2.0)
        for i in range(50):
            client.send_frame(b"frame-%02d" % i)
            assert server.recv_frame(timeout=2.0) == b"frame-%02d" % i
        client.close()
        server.close()
        listener.close()
