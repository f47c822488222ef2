"""Transport and protocol interfaces.

Two orthogonal abstractions live here:

* **Transport** -- how raw frames move between two endpoints
  (:class:`Transport`, :class:`Listener`, :class:`Connection`).

* **TransportProtocol** -- *what* frames are exchanged per publication.
  This is the seam where ADLP plugs in, mirroring the paper's modification
  of rospy's transport layer (Section V-B): the application publishes a
  message; the installed protocol decides whether the wire carries a bare
  payload (:class:`PlainProtocol` == the paper's "base" scheme) or a signed
  ADLP envelope with a signed acknowledgement on the return path
  (:class:`repro.core.adlp_protocol.AdlpProtocol`).

The application layer never sees any of this -- the paper's transparency
property.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import TransportError

#: What :meth:`Connection.send_frame` takes: one bytes-like frame, or a
#: list of bytes-like parts that are sent back to back as one frame (as
#: :meth:`~repro.serialization.WireMessage.encode_parts` returns them).
Frame = Union[bytes, bytearray, memoryview, List[bytes]]


def join_frame(frame: Frame) -> bytes:
    """``frame`` as one ``bytes`` object, for transports that cannot send
    parts without joining them."""
    if isinstance(frame, list):
        try:
            return b"".join(frame)
        except TypeError as exc:
            raise TransportError(f"frame parts must be bytes: {exc}") from exc
    if not isinstance(frame, (bytes, bytearray, memoryview)):
        raise TransportError("frames must be bytes")
    return bytes(frame)


class ConnectionClosed(TransportError):
    """Raised when reading from or writing to a closed connection."""


class Connection:
    """A bidirectional, ordered, reliable frame pipe."""

    def send_frame(self, frame: Frame) -> None:
        """Send one frame, given whole or as a list of parts.  Raises
        :class:`ConnectionClosed` if closed."""
        raise NotImplementedError

    def recv_frame(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Receive one frame.

        Returns ``None`` on timeout; raises :class:`ConnectionClosed` when
        the peer has closed and no buffered frames remain.
        """
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def peer_closed(self) -> bool:
        """Best-effort check whether the peer has closed its end.

        Fire-and-forget senders use this before reusing a cached
        connection: a send into a peer-closed socket can succeed at the
        kernel level while the bytes are discarded.  Transports that
        cannot tell return ``False``.
        """
        return self.closed


class Listener:
    """The publisher-side accept endpoint of a transport."""

    @property
    def address(self) -> Tuple:
        """An opaque, hashable address subscribers pass to ``connect``."""
        raise NotImplementedError

    def accept(self, timeout: Optional[float] = None) -> Optional[Connection]:
        """Accept one inbound connection (``None`` on timeout)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class Transport:
    """Factory for listeners and outbound connections."""

    def listen(self) -> Listener:
        raise NotImplementedError

    def connect(self, address: Tuple) -> Connection:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Per-publication wire protocol (the ADLP seam).
# ---------------------------------------------------------------------------

class PublisherProtocol:
    """Publisher-side per-topic strategy.

    One instance exists per (publisher, topic); it is shared by all
    subscriber links of that topic, matching the paper's observation that
    hashing/signing happens *once per publication* regardless of the number
    of subscribers (Section VI-B).
    """

    def initial_seq(self) -> int:
        """First sequence number this publisher should use.

        Protocols with durable sequence state override this so a restarted
        publisher resumes after its highest previously-published number
        instead of re-signing old ones.
        """
        return 1

    def make_frame(self, seq: int, payload: bytes) -> bytes:
        """Build the outbound frame for publication ``seq``.  Called once
        per publication."""
        raise NotImplementedError

    def on_link_send(
        self, subscriber_id: str, connection: Connection, seq: int, frame: bytes
    ) -> None:
        """Deliver ``frame`` to one subscriber over ``connection``.

        Implementations may exchange additional frames (e.g. wait for an
        ADLP acknowledgement) before returning; the link worker will not
        send the next publication to this subscriber until this returns.
        """
        connection.send_frame(frame)

    def close(self) -> None:
        """Release protocol resources (e.g. stop logging helpers)."""


class SubscriberProtocol:
    """Subscriber-side per-topic strategy (one instance per subscription)."""

    def on_frame(
        self, publisher_id: str, connection: Connection, frame: bytes
    ) -> Optional[bytes]:
        """Process one inbound frame; return the application payload.

        Implementations may send frames back over ``connection`` (the ADLP
        acknowledgement).  Returning ``None`` drops the frame without
        delivering it to the application callback.
        """
        return frame

    def close(self) -> None:
        """Release protocol resources."""


class TransportProtocol:
    """Per-node factory for publisher/subscriber protocol instances."""

    #: Human-readable scheme label, used by benchmarks and reports.
    name = "plain"

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        raise NotImplementedError

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        raise NotImplementedError


class PlainProtocol(TransportProtocol):
    """The no-op protocol: bare payload frames, no ACKs, no logging.

    This is the paper's "No Logging" configuration; the naive/base logging
    scheme of Definition 2 is :class:`repro.core.naive_protocol.NaiveProtocol`.
    """

    name = "plain"

    class _Pub(PublisherProtocol):
        def make_frame(self, seq: int, payload: bytes) -> bytes:
            return payload

    class _Sub(SubscriberProtocol):
        pass

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        return self._Pub()

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        return self._Sub()
