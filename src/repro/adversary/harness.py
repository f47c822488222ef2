"""Live adversarial protocol + ground-truth recording.

:class:`UnfaithfulAdlpProtocol` is a drop-in replacement for
:class:`~repro.core.adlp_protocol.AdlpProtocol` that (a) applies the
configured :class:`PublisherBehavior` / :class:`SubscriberBehavior`
deviations on the live data path and (b) records what *actually* crossed the
wire into a shared :class:`GroundTruth`, so tests can compare the auditor's
verdicts against reality.  With default (faithful) behaviors it is
behaviorally identical to ``AdlpProtocol`` and is also used for the faithful
nodes of adversarial scenarios -- every node then contributes ground truth.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.adversary.behaviors import PublisherBehavior, SubscriberBehavior
from repro.core.adlp_protocol import (
    AdlpProtocol,
    _AdlpPublisherProtocol,
    _AdlpSubscriberProtocol,
)
from repro.core.entries import LogEntry
from repro.core.protocol import AdlpMessage, message_digest
from repro.middleware.transport.base import Connection, PublisherProtocol, SubscriberProtocol


@dataclass(frozen=True)
class TransmissionRecord:
    """One actual transmission D_{x->y} as it really happened."""

    publisher: str
    subscriber: str
    topic: str
    seq: int
    digest: bytes  # h(seq || D) of the payload actually sent/received


class GroundTruth:
    """Thread-safe record of real sends and receipts during a scenario."""

    def __init__(self) -> None:
        self._sent: List[TransmissionRecord] = []
        self._received: List[TransmissionRecord] = []
        self._lock = threading.Lock()

    def record_send(self, record: TransmissionRecord) -> None:
        with self._lock:
            self._sent.append(record)

    def record_receipt(self, record: TransmissionRecord) -> None:
        with self._lock:
            self._received.append(record)

    @property
    def sent(self) -> List[TransmissionRecord]:
        with self._lock:
            return list(self._sent)

    @property
    def received(self) -> List[TransmissionRecord]:
        with self._lock:
            return list(self._received)

    def transmissions(self) -> List[TransmissionRecord]:
        """Completed transmissions: sent by x *and* received by y."""
        received = {
            (r.publisher, r.subscriber, r.topic, r.seq): r for r in self.received
        }
        return [
            r
            for r in self.sent
            if (r.publisher, r.subscriber, r.topic, r.seq) in received
        ]

    def digest_of(self, topic: str, seq: int) -> Optional[bytes]:
        """The true digest of the payload published as (topic, seq)."""
        for record in self.sent:
            if record.topic == topic and record.seq == seq:
                return record.digest
        return None


class _UnfaithfulPublisherProtocol(_AdlpPublisherProtocol):
    """Publisher side with injectable deviations."""

    def __init__(self, outer: "UnfaithfulAdlpProtocol", topic: str, type_name: str):
        super().__init__(outer, topic, type_name)
        self._behavior: PublisherBehavior = outer.publisher_behavior
        self._truth: GroundTruth = outer.ground_truth

    def make_frame(self, seq: int, payload: bytes) -> bytes:
        frame = super().make_frame(seq, payload)
        if self._behavior.send_invalid_signature:
            # Figure 8 (a): ship a garbage signature with the true payload.
            frame = AdlpMessage(
                seq=seq, payload=payload, signature=os.urandom(128)
            ).encode()
        return frame

    def _own_evidence(self, seq: int, frame: bytes) -> Tuple[bytes, bytes]:
        behavior = self._behavior
        payload, signature = super()._own_evidence(seq, frame)
        if behavior.falsify is not None:
            # Log D' instead of D; the *sent* frame keeps the true payload
            # and valid signature.
            payload = behavior.falsify(payload)
        if behavior.falsify is not None or behavior.send_invalid_signature:
            # The log carries this publisher's real signature over what it
            # reports: the liar signs D' so its own signature verifies
            # ("obvious detection" avoided); the garbage signature went out
            # on the wire only.
            signature = self._outer.keypair.private.sign_digest(
                message_digest(seq, payload)
            )
        return payload, signature

    def on_link_send(
        self, subscriber_id: str, connection: Connection, seq: int, frame: bytes
    ) -> None:
        # What actually leaves this publisher, per subscriber.
        msg = AdlpMessage.decode(frame)
        self._truth.record_send(
            TransmissionRecord(
                publisher=self._outer.component_id,
                subscriber=subscriber_id,
                topic=self._topic,
                seq=seq,
                digest=message_digest(seq, msg.payload),
            )
        )
        super().on_link_send(subscriber_id, connection, seq, frame)

    def _now(self) -> float:
        return super()._now() + self._behavior.log_clock_offset

    def _submit_entry(self, entry: LogEntry) -> None:
        if self._behavior.hide_entries:
            return
        super()._submit_entry(entry)


class _UnfaithfulSubscriberProtocol(_AdlpSubscriberProtocol):
    """Subscriber side with injectable deviations."""

    def __init__(self, outer: "UnfaithfulAdlpProtocol", topic: str, type_name: str):
        super().__init__(outer, topic, type_name)
        self._behavior: SubscriberBehavior = outer.subscriber_behavior
        self._truth: GroundTruth = outer.ground_truth
        self._previous: Optional[Tuple[bytes, bytes]] = None  # (payload, s_x)

    def on_frame(
        self, publisher_id: str, connection: Connection, frame: bytes
    ) -> Optional[bytes]:
        try:
            msg = AdlpMessage.decode(frame)
            self._truth.record_receipt(
                TransmissionRecord(
                    publisher=publisher_id,
                    subscriber=self._outer.component_id,
                    topic=self._topic,
                    seq=msg.seq,
                    digest=message_digest(msg.seq, msg.payload),
                )
            )
        except Exception:
            pass
        result = super().on_frame(publisher_id, connection, frame)
        if result is not None:
            try:
                parsed = AdlpMessage.decode(frame)
                self._previous = (parsed.payload, parsed.signature)
            except Exception:
                pass
        return result

    def _send_ack(self, connection, seq, digest, signature, payload) -> None:
        if self._behavior.suppress_acks:
            return  # full stealth: pretend nothing arrived
        super()._send_ack(connection, seq, digest, signature, payload)

    def _now(self) -> float:
        return super()._now() + self._behavior.log_clock_offset

    def _submit_entry(self, entry: LogEntry) -> None:
        if self._behavior.hide_entries or self._behavior.suppress_acks:
            return
        super()._submit_entry(entry)

    def _build_entry(self, publisher_id, msg, digest, signature) -> LogEntry:
        behavior = self._behavior
        entry = super()._build_entry(publisher_id, msg, digest, signature)

        if behavior.falsify is not None:
            forged = behavior.falsify(msg.payload)
            forged_digest = message_digest(msg.seq, forged)
            entry.data = b""
            entry.data_hash = forged_digest
            entry.own_sig = self._outer.keypair.private.sign_digest(forged_digest)
            # the claimed publisher signature stays the real s_x, which
            # cannot verify for the forged digest (Lemma 3 ii)

        if behavior.fabricate_peer_signature:
            # Figure 8 (b): accuse the publisher of sending garbage.
            entry.peer_sig = os.urandom(len(entry.peer_sig) or 128)

        if behavior.replay_previous and self._previous is not None:
            old_payload, old_sig = self._previous
            replay_digest = message_digest(msg.seq, old_payload)
            entry.data = b""
            entry.data_hash = replay_digest
            entry.own_sig = self._outer.keypair.private.sign_digest(replay_digest)
            entry.peer_sig = old_sig  # signed for the *old* seq: stale
        return entry


class UnfaithfulAdlpProtocol(AdlpProtocol):
    """ADLP with configurable unfaithfulness and ground-truth recording."""

    name = "adlp-unfaithful"

    def __init__(
        self,
        component_id: str,
        log_server,
        ground_truth: GroundTruth,
        publisher_behavior: Optional[PublisherBehavior] = None,
        subscriber_behavior: Optional[SubscriberBehavior] = None,
        **kwargs,
    ):
        super().__init__(component_id, log_server, **kwargs)
        self.ground_truth = ground_truth
        self.publisher_behavior = publisher_behavior or PublisherBehavior()
        self.subscriber_behavior = subscriber_behavior or SubscriberBehavior()

    @property
    def is_faithful(self) -> bool:
        return (
            self.publisher_behavior.is_faithful
            and self.subscriber_behavior.is_faithful
        )

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        return _UnfaithfulPublisherProtocol(self, topic, type_name)

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        return _UnfaithfulSubscriberProtocol(self, topic, type_name)
