"""4-byte length-preamble framing over stream sockets.

ROS's TCPROS prefixes every message with a 4-byte little-endian length; the
paper's Table III accounts for exactly this preamble ("a 4-byte length
preamble attached by the ROS transport layer").  These helpers implement the
same framing for our TCP transport.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional

from repro.errors import TransportError
from repro.middleware.transport.base import Frame

#: Size of the length preamble in bytes (matches TCPROS).
PREAMBLE_SIZE = 4

#: Upper bound on a single frame; generous for ~1 MB camera frames.
MAX_FRAME_SIZE = 64 * 1024 * 1024

_LEN_STRUCT = struct.Struct("<I")

#: Buffers per ``sendmsg`` call (Linux's ``IOV_MAX``).
_IOV_MAX = 1024

_BYTES_LIKE = (bytes, bytearray, memoryview)


def frame_overhead() -> int:
    """Per-frame byte overhead added by the framing layer."""
    return PREAMBLE_SIZE


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its 4-byte little-endian length."""
    if len(payload) > MAX_FRAME_SIZE:
        raise TransportError(f"frame of {len(payload)} bytes exceeds maximum")
    return _LEN_STRUCT.pack(len(payload)) + payload


def send_frame(sock: socket.socket, frame: Frame) -> None:
    """Send one framed payload over a connected socket.

    ``frame`` is bytes-like or a list of parts.  The preamble and the
    parts go to ``sendmsg`` as they are (scatter-gather), so no
    frame-sized buffer is built; a partial send resumes where it stopped.
    """
    parts = frame if isinstance(frame, list) else [frame]
    if not all(isinstance(part, _BYTES_LIKE) for part in parts):
        raise TransportError("frames must be bytes")
    size = sum(map(len, parts))
    if size > MAX_FRAME_SIZE:
        raise TransportError(f"frame of {size} bytes exceeds maximum")
    buffers = [_LEN_STRUCT.pack(size), *parts]
    while buffers:
        sent = sock.sendmsg(buffers[:_IOV_MAX])
        done = 0
        while done < len(buffers) and sent >= len(buffers[done]):
            sent -= len(buffers[done])
            done += 1
        del buffers[:done]
        if sent:
            buffers[0] = memoryview(buffers[0])[sent:]


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` if the peer closed first.

    ``MSG_WAITALL`` lets the kernel fill one buffer of ``count`` bytes, so
    a frame body normally arrives in a single ``recv`` and is returned as
    that buffer.  Only a short read (a receive timeout, a signal) loops.
    Raises ``socket.timeout`` if the socket has a timeout and it expires.
    """
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining, socket.MSG_WAITALL)
        if not chunk:
            if chunks:
                raise TransportError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    # one chunk is returned as it is, not copied
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[bytes]:
    """Receive one framed payload; ``None`` on orderly peer close."""
    preamble = _recv_exact(sock, PREAMBLE_SIZE)
    if preamble is None:
        return None
    (length,) = _LEN_STRUCT.unpack(preamble)
    if length > MAX_FRAME_SIZE:
        raise TransportError(f"peer announced oversized frame ({length} bytes)")
    if length == 0:
        return b""
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload
