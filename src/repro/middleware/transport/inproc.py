"""In-process transport: connections are pairs of thread-safe queues.

Used by unit and protocol tests: same interface as TCP, no sockets, no
nondeterministic connection setup.  Frames are still ``bytes`` so the full
serialization path is exercised.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, Optional, Tuple

from repro.errors import TransportError
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    Frame,
    Listener,
    Transport,
    join_frame,
)
from repro.util.idgen import unique_id

_CLOSE = object()  # sentinel placed on a queue when the peer closes


class InprocConnection(Connection):
    """One endpoint of an in-process connection."""

    def __init__(self, inbox: "queue.Queue", outbox: "queue.Queue"):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = threading.Event()
        self._peer_closed = threading.Event()

    @classmethod
    def pair(cls) -> Tuple["InprocConnection", "InprocConnection"]:
        """Create two connected endpoints."""
        a_to_b: "queue.Queue" = queue.Queue()
        b_to_a: "queue.Queue" = queue.Queue()
        a = cls(inbox=b_to_a, outbox=a_to_b)
        b = cls(inbox=a_to_b, outbox=b_to_a)
        a._peer = b  # type: ignore[attr-defined]
        b._peer = a  # type: ignore[attr-defined]
        return a, b

    def send_frame(self, frame: Frame) -> None:
        if self._closed.is_set() or self._peer_closed.is_set():
            raise ConnectionClosed("connection is closed")
        self._outbox.put(join_frame(frame))

    def recv_frame(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if self._closed.is_set():
            raise ConnectionClosed("connection is closed")
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSE:
            self._peer_closed.set()
            raise ConnectionClosed("peer closed the connection")
        return item

    def close(self) -> None:
        if not self._closed.is_set():
            self._closed.set()
            self._outbox.put(_CLOSE)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


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

    def _enqueue(self, connection: InprocConnection) -> None:
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
        local, remote = InprocConnection.pair()
        listener._enqueue(remote)
        return local

    def _unregister(self, key: str) -> None:
        with self._lock:
            self._listeners.pop(key, None)
