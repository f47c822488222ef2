"""In-process transport: each connection is a connected loopback TCP pair.

Used by unit and protocol tests.  One :class:`InprocTransport` is one
private "network" of named listeners, so no port is published and a
connect never races another test's listener; the connection itself is a
:class:`~repro.middleware.transport.tcp.TcpConnection`, so every
in-process link runs the same framing and socket code as TCP (and a
:class:`~repro.core.remote.LogServerEndpoint` serves it from its event
loop).
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Dict, Optional, Tuple

from repro.errors import TransportError
from repro.middleware.transport.base import Connection, Listener, Transport
from repro.middleware.transport.tcp import TcpConnection
from repro.util.idgen import unique_id


def connection_pair() -> Tuple[TcpConnection, TcpConnection]:
    """Two connected endpoints over loopback TCP.

    Not an AF_UNIX ``socketpair``: its fixed ~200 KB buffer stalls a
    sender that writes a frame of an image's size before its peer reads,
    where loopback TCP grows its buffers to fit.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname())
        try:
            accepted, _ = server.accept()
        except OSError:
            client.close()
            raise
    return TcpConnection(client), TcpConnection(accepted)


class InprocListener(Listener):
    """Accept endpoint backed by a queue of pending connections."""

    def __init__(self, transport: "InprocTransport", key: str):
        self._transport = transport
        self._key = key
        self._pending: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()

    @property
    def address(self) -> Tuple:
        return ("inproc", self._key)

    def _enqueue(self, connection: Connection) -> None:
        if self._closed.is_set():
            raise TransportError("listener is closed")
        self._pending.put(connection)

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        if self._closed.is_set():
            return None
        try:
            return self._pending.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._closed.set()
        self._transport._unregister(self._key)
        # like a closed TCP listener: connections never accepted are reset
        while True:
            try:
                self._pending.get_nowait().close()
            except queue.Empty:
                return


class InprocTransport(Transport):
    """A process-local transport; one instance is one 'network'."""

    def __init__(self) -> None:
        self._listeners: Dict[str, InprocListener] = {}
        self._lock = threading.Lock()

    def listen(self) -> Listener:
        key = unique_id("inproc")
        listener = InprocListener(self, key)
        with self._lock:
            self._listeners[key] = listener
        return listener

    def connect(self, address: Tuple) -> Connection:
        if not (isinstance(address, tuple) and len(address) == 2 and address[0] == "inproc"):
            raise TransportError(f"not an inproc address: {address!r}")
        with self._lock:
            listener = self._listeners.get(address[1])
        if listener is None:
            raise TransportError(f"no listener at {address!r}")
        local, remote = connection_pair()
        try:
            listener._enqueue(remote)
        except TransportError:
            local.close()
            remote.close()
            raise
        return local

    def _unregister(self, key: str) -> None:
        with self._lock:
            self._listeners.pop(key, None)
