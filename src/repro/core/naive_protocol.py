"""The naive ("base") logging protocol of Definition 2.

Each side independently enters ``(id, type(D), direction, t, D)`` -- no
signatures, no acknowledgements, no interdependence between the entries.
Section III-B shows why this is unaccountable; it is nevertheless the
baseline every evaluation table compares ADLP against, so it is implemented
as a first-class transport protocol here.

The wire format is identical to :class:`PlainProtocol` (bare payloads):
logging happens purely on the side.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.logging_thread import LoggingThread
from repro.middleware.transport.base import (
    Connection,
    PublisherProtocol,
    SubscriberProtocol,
    TransportProtocol,
)
from repro.util.clock import Clock, SystemClock


class _NaivePublisherProtocol(PublisherProtocol):
    def __init__(self, outer: "NaiveProtocol", topic: str, type_name: str):
        self._outer = outer
        self._topic = topic
        self._type_name = type_name

    def make_frame(self, seq: int, payload: bytes) -> bytes:
        # One entry per publication: the naive publisher does not know (or
        # care) who its subscribers are.
        self._outer._log(
            direction=Direction.OUT,
            topic=self._topic,
            type_name=self._type_name,
            seq=seq,
            data=payload,
        )
        return payload


class _NaiveSubscriberProtocol(SubscriberProtocol):
    def __init__(self, outer: "NaiveProtocol", topic: str, type_name: str):
        self._outer = outer
        self._topic = topic
        self._type_name = type_name

    def on_frame(
        self, publisher_id: str, connection: Connection, frame: bytes
    ) -> Optional[bytes]:
        self._outer._log(
            direction=Direction.IN,
            topic=self._topic,
            type_name=self._type_name,
            seq=0,  # the naive scheme has no transport-level sequence
            data=frame,
            peer_id=publisher_id,
        )
        return frame


class NaiveProtocol(TransportProtocol):
    """Definition 2's logging scheme as a pluggable transport protocol.

    :param component_id: this node's unique id.
    :param submit_batch: log-server group-commit ingestion function
        (e.g. ``log_server.submit_batch``).
    :param clock: timestamp source for log entries.
    :param subscriber_stores_hash: store ``h(D)`` instead of ``D`` in
        subscription entries.  The paper's Table IV measures base logging
        with "the subscribers store hashed data"; this flag reproduces that
        configuration (the default matches Table III's base scheme, which
        stores data as-is).
    """

    name = "naive"

    def __init__(
        self,
        component_id: str,
        submit_batch: Callable[[List[Union[LogEntry, bytes]]], List[int]],
        clock: Optional[Clock] = None,
        subscriber_stores_hash: bool = False,
    ):
        self.component_id = component_id
        self.clock = clock or SystemClock()
        self.subscriber_stores_hash = subscriber_stores_hash
        self.logging_thread = LoggingThread(component_id, submit_batch)

    def _log(
        self,
        direction: Direction,
        topic: str,
        type_name: str,
        seq: int,
        data: bytes,
        peer_id: str = "",
    ) -> None:
        entry = LogEntry(
            component_id=self.component_id,
            topic=topic,
            type_name=type_name,
            direction=direction,
            seq=seq,
            timestamp=self.clock.now(),
            scheme=Scheme.NAIVE,
            peer_id=peer_id,
        )
        if direction is Direction.IN and self.subscriber_stores_hash:
            from repro.core.protocol import message_digest

            entry.data_hash = message_digest(seq, data)
        else:
            entry.data = data
        self.logging_thread.enqueue(entry)

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        return _NaivePublisherProtocol(self, topic, type_name)

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        return _NaiveSubscriberProtocol(self, topic, type_name)

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until all queued log entries reached the server."""
        return self.logging_thread.flush(timeout)

    def close(self) -> None:
        self.logging_thread.stop()
