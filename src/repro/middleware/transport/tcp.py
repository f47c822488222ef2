"""TCP transport on localhost with TCPROS-style 4-byte length framing.

This is the transport the paper's prototype uses ("ROS uses TCP/IP socket
for data transmission from publisher to subscriber, whether or not they are
on the same machine").  The latency and CPU benchmarks run over it so that
ADLP's extra round trip crosses a real socket.
"""

from __future__ import annotations

import errno
import select
import socket
import struct
import threading
from typing import Optional, Tuple

from repro.errors import TransportError
from repro.middleware.transport import framing
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Listener,
    Transport,
)

#: Seconds a blocked ``send_frame`` may wait for the peer to drain its
#: receive buffer before the connection is declared dead.  Without this, a
#: subscriber that stops reading (wedged process, frozen VM) would park the
#: publisher's link worker in ``sendall`` forever -- the kernel buffer
#: fills, ``send`` never progresses, and no timeout ever fires.
DEFAULT_SEND_TIMEOUT = 30.0


class TcpConnection(Connection):
    """A framed, bidirectional TCP connection.

    Send and receive each have their own lock so a link worker can block in
    ``recv_frame`` (waiting for an ADLP ACK) while no sender interferes with
    partially written frames.

    Sends are bounded by ``send_timeout`` via ``SO_SNDTIMEO``: a stalled
    peer makes ``send_frame`` raise :class:`ConnectionClosed` (a
    :class:`TransportError`) instead of blocking forever.  The socket
    itself stays in blocking mode.  ``recv_frame``'s timeout is a poll for
    the first byte, and the rest of a started frame is bounded by
    ``SO_RCVTIMEO`` (the same ``send_timeout``).  The timeout therefore
    never becomes a socket-wide setting: one would also cut short a
    concurrent (or later) ``sendall``, and the connection would be
    dropped while its frames were still queued at the peer.
    """

    def __init__(
        self,
        sock: socket.socket,
        send_timeout: Optional[float] = DEFAULT_SEND_TIMEOUT,
    ):
        # Nagle only exists for TCP sockets.
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if send_timeout is not None:
            seconds = int(send_timeout)
            timeval = struct.pack(
                "ll", seconds, int((send_timeout - seconds) * 1e6)
            )
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        self._send_timeout = send_timeout
        self._sock = sock
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._closed = threading.Event()

    def send_frame(self, frame: bytes) -> None:
        if self._closed.is_set():
            raise ConnectionClosed("connection is closed")
        try:
            with self._send_lock:
                framing.send_frame(self._sock, frame)
        except (OSError, BrokenPipeError) as exc:
            self.close()
            if isinstance(exc, socket.timeout) or getattr(
                exc, "errno", None
            ) in (errno.EAGAIN, errno.EWOULDBLOCK):
                raise ConnectionClosed(
                    f"send timed out after {self._send_timeout}s "
                    "(peer not draining)"
                ) from exc
            raise ConnectionClosed(f"send failed: {exc}") from exc

    def recv_frame(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if self._closed.is_set():
            raise ConnectionClosed("connection is closed")
        with self._recv_lock:
            try:
                if timeout is not None:
                    poller = select.poll()
                    poller.register(self._sock, select.POLLIN)
                    if not poller.poll(max(0, int(timeout * 1000))):
                        return None
                frame = framing.recv_frame(self._sock)
            except (OSError, ValueError, TransportError) as exc:
                self.close()
                raise ConnectionClosed(f"recv failed: {exc}") from exc
        if frame is None:
            self.close()
            raise ConnectionClosed("peer closed the connection")
        return frame

    def peer_closed(self) -> bool:
        if self._closed.is_set():
            return True
        if not self._recv_lock.acquire(blocking=False):
            return False  # a receive is in flight: the pipe is in use
        try:
            # Probe readability with select instead of toggling the socket
            # non-blocking: blocking mode is per-socket, and a concurrent
            # send_frame (guarded only by _send_lock) caught inside the
            # toggle window would hit a spurious EAGAIN mid-sendall and be
            # misclassified as a stalled peer.
            try:
                readable, _, _ = select.select([self._sock], [], [], 0)
            except (OSError, ValueError):
                return True  # fd closed under us
            if not readable:
                return False  # nothing pending: still open
            try:
                # Readability is already established, so the peek returns
                # immediately regardless of the socket's timeout setting.
                data = self._sock.recv(1, socket.MSG_PEEK)
            except (BlockingIOError, InterruptedError, socket.timeout):
                return False
            except OSError:
                return True
            return data == b""  # EOF peeked, buffered frames not consumed
        finally:
            self._recv_lock.release()

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class TcpListener(Listener):
    """Accept endpoint bound to an ephemeral localhost port."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        send_timeout: Optional[float] = DEFAULT_SEND_TIMEOUT,
    ):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, 0))
        self._sock.listen(64)
        self._address = self._sock.getsockname()
        self._send_timeout = send_timeout
        self._closed = threading.Event()

    @property
    def address(self) -> Tuple:
        return ("tcp",) + self._address

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        if self._closed.is_set():
            return None
        try:
            self._sock.settimeout(timeout)
            client, _ = self._sock.accept()
        except socket.timeout:
            return None
        except OSError:
            return None  # listener closed concurrently
        return TcpConnection(client, send_timeout=self._send_timeout)

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._sock.close()


class TcpTransport(Transport):
    """Factory for TCP listeners/connections on a single host."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        connect_timeout: float = 5.0,
        send_timeout: Optional[float] = DEFAULT_SEND_TIMEOUT,
    ):
        self.host = host
        self.connect_timeout = connect_timeout
        self.send_timeout = send_timeout

    def listen(self) -> Listener:
        return TcpListener(self.host, send_timeout=self.send_timeout)

    def connect(self, address: Tuple) -> Connection:
        if not (isinstance(address, tuple) and len(address) == 3 and address[0] == "tcp"):
            raise TransportError(f"not a tcp address: {address!r}")
        _, host, port = address
        try:
            sock = socket.create_connection((host, port), timeout=self.connect_timeout)
        except OSError as exc:
            raise TransportError(f"connect to {host}:{port} failed: {exc}") from exc
        sock.settimeout(None)
        return TcpConnection(sock, send_timeout=self.send_timeout)
