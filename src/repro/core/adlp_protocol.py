"""The ADLP transport protocol (Sections IV-A and V-B).

Per publication of payload ``D`` with sequence number ``seq``:

1. The publisher computes ``digest = h(seq || D)`` and
   ``s_x = sign_x(digest)`` **once**, builds the envelope
   ``M_x = (seq, D, s_x)``, and fans it out to every subscriber link
   (step 2 of the prototype flow).
2. Each subscriber's transport layer, before delivering ``D`` to the
   application, recomputes the digest, signs it
   (``s_y = sign_y(digest)``), returns the acknowledgement
   ``M_y = (seq, h, s_y)`` over the same connection, and queues its log
   entry ``L_y`` (steps 3-5).
3. The publisher's link worker waits for ``M_y`` and only then queues its
   log entry ``L_x`` containing both signatures (step 6).  Until the ACK
   arrives, no further message is sent to that subscriber -- the protocol's
   penalty against stealthy subscribers (Lemma 2).  ``L_x`` is built from
   the frame the link was handed; the publisher keeps a publication only
   while a link has moved on without its ACK (the *pending window*), so a
   late ACK can still be logged.

Everything here lives below the application layer: installing
:class:`AdlpProtocol` on a node changes no application code.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.logging_thread import LoggingThread
from repro.core.policy import AdlpConfig
from repro.core.protocol import AdlpAck, AdlpMessage, message_digest
from repro.core.sequencing import SequenceTracker
from repro.crypto.keys import KeyPair, PublicKey, generate_keypair
from repro.errors import ProtocolError
from repro.middleware.transport.base import (
    Connection,
    ConnectionClosed,
    PublisherProtocol,
    SubscriberProtocol,
    TransportProtocol,
)
from repro.storage.seqstate import SequenceStateFile
from repro.util.clock import Clock, SystemClock

logger = logging.getLogger(__name__)

#: Un-ACKed publications a publisher protocol remembers for late ACKs.
_PENDING_CAPACITY = 1024

#: Recently sent ACKs a subscriber remembers (per publisher link) so a
#: retransmitted frame can be re-acknowledged without re-delivery.
_ACK_CACHE_CAPACITY = 128

#: Byte ceiling for the ACK cache: with ``ack_returns_data`` each cached
#: ACK carries the full payload, so a count-only bound is unbounded memory
#: for large messages.
_ACK_CACHE_MAX_BYTES = 4 * 1024 * 1024


@dataclass
class AdlpStats:
    """Per-node protocol counters (exposed for tests and benchmarks).

    The object doubles as a callable: ``protocol.stats()`` returns one flat
    dict combining these counters with any attached sources (the logging
    thread's ``dropped``, a remote logger's spill counters), so loss is
    visible next to ``retransmits`` instead of scattered over three
    objects.
    """

    signatures: int = 0
    digests: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    ack_timeouts: int = 0
    retransmits: int = 0
    dup_frames_dropped: int = 0
    log_submit_retries: int = 0
    invalid_frames: int = 0
    invalid_signatures: int = 0
    stale_frames: int = 0
    pending_evicted: int = 0
    late_acks_recovered: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _sources: List[Callable[[], Dict[str, int]]] = field(
        default_factory=list, repr=False
    )

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def attach_source(self, source: Callable[[], Dict[str, int]]) -> None:
        """Fold ``source()``'s counters into every :meth:`as_dict` call."""
        with self._lock:
            self._sources.append(source)

    def as_dict(self) -> Dict[str, int]:
        """All counters, own fields plus attached sources, as one dict."""
        with self._lock:
            out = {
                f.name: getattr(self, f.name)
                for f in fields(self)
                if not f.name.startswith("_")
            }
            sources = list(self._sources)
        for source in sources:
            for name, value in source().items():
                out[name] = out.get(name, 0) + int(value)
        return out

    __call__ = as_dict


class _AckAggregator:
    """Buffers per-publication ACKs for the aggregated-logging extension.

    The paper suggests (Section VI-E) that "a publisher creates a single log
    entry per publication, regardless of the number of subscribers,
    containing all of the subscribers' hashes and signatures".  ACKs arriving
    within ``window`` seconds of the first one for a given ``seq`` are folded
    into one entry.

    Expiry is deadline-driven, not arrival-driven: :meth:`flush_expired`
    is called from the logging thread's wakeup tick, so a buffer whose
    window lapsed is flushed promptly even if no later ACK ever arrives
    (previously an idle topic could hold its last aggregated entry
    indefinitely).  Time flows through the injected ``now`` callable so
    tests can drive expiry with a simulated clock.
    """

    def __init__(
        self,
        window: float,
        flush: Callable[[LogEntry], None],
        now: Callable[[], float] = time.monotonic,
    ):
        self._window = window
        self._flush = flush
        self._now = now
        self._buffers: Dict[int, Tuple[float, LogEntry]] = {}
        self._lock = threading.Lock()

    def add(self, entry_base: LogEntry, ack_peer: str, ack_hash: bytes, ack_sig: bytes) -> None:
        now = self._now()
        with self._lock:
            buffered = self._buffers.get(entry_base.seq)
            if buffered is None:
                entry_base.aggregated = True
                entry_base.ack_peer_ids = [ack_peer]
                entry_base.ack_peer_hashes = [ack_hash]
                entry_base.ack_peer_sigs = [ack_sig]
                self._buffers[entry_base.seq] = (now, entry_base)
            else:
                _, entry = buffered
                entry.ack_peer_ids = entry.ack_peer_ids + [ack_peer]
                entry.ack_peer_hashes = entry.ack_peer_hashes + [ack_hash]
                entry.ack_peer_sigs = entry.ack_peer_sigs + [ack_sig]
            flushable = self._pop_expired(now)
        for entry in flushable:
            self._flush(entry)

    def _pop_expired(self, now: float) -> List[LogEntry]:
        """Remove and return expired buffers; caller holds ``_lock``."""
        expired = [
            seq
            for seq, (t0, _) in self._buffers.items()
            if now - t0 >= self._window
        ]
        return [self._buffers.pop(seq)[1] for seq in expired]

    def flush_expired(self) -> None:
        """Flush every buffer whose aggregation window has lapsed."""
        with self._lock:
            flushable = self._pop_expired(self._now())
        for entry in flushable:
            self._flush(entry)

    def flush_all(self) -> None:
        with self._lock:
            entries = [entry for _, entry in self._buffers.values()]
            self._buffers.clear()
        for entry in entries:
            self._flush(entry)


class _AdlpPublisherProtocol(PublisherProtocol):
    """Publisher side: sign once per publication, log once per ACK."""

    def __init__(self, outer: "AdlpProtocol", topic: str, type_name: str):
        self._outer = outer
        self._topic = topic
        self._type_name = type_name
        # seq -> (payload, own signature, subscribers whose link moved on
        # without their ACK): what a late ACK can still claim.  All links
        # share one payload object; a publication leaves when its last
        # owed ACK is logged.  Bounded so a subscriber that never ACKs
        # cannot leak memory.
        self._pending: "OrderedDict[int, Tuple[bytes, bytes, Set[str]]]" = (
            OrderedDict()
        )
        self._pending_lock = threading.Lock()
        self._evict_warned = False
        self._aggregator: Optional[_AckAggregator] = None
        if outer.config.aggregate_publisher_entries:
            self._aggregator = _AckAggregator(
                outer.config.aggregation_window,
                self._submit_entry,
                now=outer.clock.now,
            )
            outer._register_aggregator(self._aggregator)

    # Small hooks so subclasses (the adversary harness) can deviate in
    # exactly one unfaithful dimension at a time.
    def _now(self) -> float:
        return self._outer.clock.now()

    def _submit_entry(self, entry: LogEntry) -> None:
        self._outer._enqueue_entry(entry)

    # -- once per publication ----------------------------------------------

    def initial_seq(self) -> int:
        state = self._outer.seq_state
        if state is None:
            return 1
        # Resume after the highest number ever signed on this topic: reusing
        # one would audit as a ``replayed_sequence`` against a faithful node.
        return state.last_published(self._topic) + 1

    def make_frame(self, seq: int, payload: bytes) -> bytes:
        state = self._outer.seq_state
        if state is not None:
            # Journal before signing: a crash after the journal write but
            # before the send merely skips a number, which audits as a gap,
            # never as a replay.
            state.record_published(self._topic, seq)
        digest = message_digest(seq, payload)
        signature = self._outer.keypair.private.sign_digest(digest)
        self._outer.stats.bump("digests")
        self._outer.stats.bump("signatures")
        return AdlpMessage(seq=seq, payload=payload, signature=signature).encode()

    # -- once per (publication, subscriber) ---------------------------------

    def _own_evidence(self, seq: int, frame: bytes) -> Tuple[bytes, bytes]:
        """``(D'_x, s'_x)`` this publisher reports for ``seq``: what the
        frame it sends carries."""
        msg = AdlpMessage.decode(frame)
        return msg.payload, msg.signature

    def on_link_send(
        self, subscriber_id: str, connection: Connection, seq: int, frame: bytes
    ) -> None:
        connection.send_frame(frame)
        payload, signature = self._own_evidence(seq, frame)
        config = self._outer.config
        if not config.require_ack:
            self._remember_unacked(seq, subscriber_id, payload, signature)
            self._drain_async_acks(subscriber_id, connection)
            return
        # Bounded ACK wait with exponential backoff and capped retransmit:
        # a frame (or its ACK) lost to the network is re-sent up to
        # ``max_retransmits`` times; the subscriber's duplicate-seq handling
        # re-ACKs without re-delivering, so retransmission is idempotent.
        timeout = config.ack_timeout
        attempt = 0
        ack = None
        while True:
            ack = self._await_ack(subscriber_id, connection, seq, timeout)
            if ack is not None:
                break
            self._outer.stats.bump("ack_timeouts")
            if attempt >= config.max_retransmits or connection.closed:
                break
            attempt += 1
            timeout = min(timeout * config.retransmit_backoff, config.max_ack_timeout)
            self._outer.stats.bump("retransmits")
            try:
                connection.send_frame(frame)
            except ConnectionClosed:
                break
        if ack is None:
            # Log the publication anyway: the publisher's own record exists
            # even when the subscriber stays stealthy (the missing ACK is
            # itself evidence for the auditor).
            self._log_publication(seq, subscriber_id, None, payload, signature)
            if config.drop_unacked_subscriber:
                raise ConnectionClosed(
                    f"subscriber {subscriber_id} did not acknowledge seq {seq}"
                )
            self._remember_unacked(seq, subscriber_id, payload, signature)
            return
        self._outer.stats.bump("acks_received")
        self._log_publication(seq, subscriber_id, ack, payload, signature)

    # -- the pending window ---------------------------------------------------

    def _remember_unacked(
        self, seq: int, subscriber_id: str, payload: bytes, signature: bytes
    ) -> None:
        """This link moves on without ``subscriber_id``'s ACK for ``seq``:
        keep the publication so a late ACK can still be logged."""
        evicted = 0
        with self._pending_lock:
            pending = self._pending.get(seq)
            if pending is None:
                pending = self._pending[seq] = (payload, signature, set())
            pending[2].add(subscriber_id)
            while len(self._pending) > _PENDING_CAPACITY:
                self._pending.popitem(last=False)
                evicted += 1
        if evicted:
            # An un-ACKed publication fell off the pending window: any ACK
            # that arrives for it now can no longer be logged, so the
            # publisher's half of that evidence is gone.  Count it.
            self._outer.stats.bump("pending_evicted", evicted)
            if not self._evict_warned:
                self._evict_warned = True
                logger.warning(
                    "publisher %s topic %r evicted an un-ACKed publication "
                    "from its pending window (capacity %d); its evidence is "
                    "lost. Further evictions are counted in "
                    "stats()['pending_evicted'] without this warning.",
                    self._outer.component_id,
                    self._topic,
                    _PENDING_CAPACITY,
                )

    def _claim_unacked(
        self, seq: int, subscriber_id: str
    ) -> Optional[Tuple[bytes, bytes]]:
        """``(payload, signature)`` of a publication still owed
        ``subscriber_id``'s ACK, released from the window once no link is
        owed one; ``None`` if it was ACKed in time, evicted or never sent."""
        with self._pending_lock:
            payload, signature, owed = self._pending.get(seq, (b"", b"", ()))
            if subscriber_id not in owed:
                return None
            owed.remove(subscriber_id)
            if not owed:
                del self._pending[seq]
            return payload, signature

    def _await_ack(
        self, subscriber_id: str, connection: Connection, seq: int, timeout: float
    ) -> Optional[AdlpAck]:
        """Read frames until the ACK for ``seq`` arrives or time runs out.

        An ACK for an *earlier* publication arriving late (after its
        retransmits were exhausted and an unproven entry was logged) is
        still a valid subscriber signature: if the pending window still
        owes this subscriber's ACK for it, the proven entry is submitted
        instead of the ACK being discarded as stale -- evidence that
        reached us must not be thrown away.  Truly stale ACKs (evicted,
        already logged, or never published) are skipped.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                frame = connection.recv_frame(timeout=remaining)
            except ConnectionClosed:
                # Link lost before the ACK: the publication still gets its
                # (unproven) log entry.
                return None
            if frame is None:
                return None
            try:
                ack = AdlpAck.parse(frame)
            except ProtocolError:
                self._outer.stats.bump("invalid_frames")
                continue
            if ack.seq == seq:
                return ack
            late = self._claim_unacked(ack.seq, subscriber_id)
            if late is not None:
                self._outer.stats.bump("late_acks_recovered")
                self._log_publication(ack.seq, subscriber_id, ack, *late)
                continue
            # an old ACK nothing is owed for; ignore and keep reading
            self._outer.stats.bump("stale_frames")

    def _drain_async_acks(self, subscriber_id: str, connection: Connection) -> None:
        """require_ack=False ablation: collect whatever ACKs are available
        without blocking the send path."""
        while True:
            try:
                frame = connection.recv_frame(timeout=0.0005)
            except ConnectionClosed:
                return
            if frame is None:
                return
            try:
                ack = AdlpAck.parse(frame)
            except ProtocolError:
                self._outer.stats.bump("invalid_frames")
                continue
            self._outer.stats.bump("acks_received")
            unacked = self._claim_unacked(ack.seq, subscriber_id)
            if unacked is not None:
                self._log_publication(ack.seq, subscriber_id, ack, *unacked)

    def _log_publication(
        self,
        seq: int,
        subscriber_id: str,
        ack: Optional[AdlpAck],
        payload: bytes,
        signature: bytes,
    ) -> None:
        entry = LogEntry(
            component_id=self._outer.component_id,
            topic=self._topic,
            type_name=self._type_name,
            direction=Direction.OUT,
            seq=seq,
            timestamp=self._now(),
            scheme=Scheme.ADLP,
            data=payload,  # the publisher reports D'_x as-is (Table III)
            own_sig=signature,
        )
        if ack is None:
            self._submit_entry(entry)
            return
        if self._aggregator is not None:
            self._aggregator.add(
                entry, subscriber_id, ack.acknowledged_hash(), ack.signature
            )
            return
        entry.peer_id = subscriber_id
        entry.peer_hash = ack.acknowledged_hash()
        entry.peer_sig = ack.signature
        self._submit_entry(entry)

    def close(self) -> None:
        if self._aggregator is not None:
            self._aggregator.flush_all()


class _AdlpSubscriberProtocol(SubscriberProtocol):
    """Subscriber side: verify structure, ACK, log, deliver."""

    def __init__(self, outer: "AdlpProtocol", topic: str, type_name: str):
        self._outer = outer
        self._topic = topic
        self._type_name = type_name
        initial = 0
        if outer.seq_state is not None:
            # Seed from the journal so a restarted subscriber keeps
            # rejecting frames its predecessor already accepted (replay
            # across restart would be re-delivered *and* double-logged).
            initial = outer.seq_state.last_received(topic)
        self._tracker = SequenceTracker(initial=initial)
        # seq -> encoded ACK, for idempotent re-acknowledgement of
        # retransmitted/duplicated frames (never re-delivered, never
        # re-logged: the same signature bytes go back out, so duplicates
        # cannot corrupt the log -- Lemma 4's causality argument).
        self._ack_cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._ack_cache_bytes = 0
        self._ack_cache_lock = threading.Lock()

    def on_frame(
        self, publisher_id: str, connection: Connection, frame: bytes
    ) -> Optional[bytes]:
        outer = self._outer
        config = outer.config
        try:
            msg = AdlpMessage.parse(frame)
        except ProtocolError:
            outer.stats.bump("invalid_frames")
            return None
        if not self._tracker.accept(msg.seq):
            with self._ack_cache_lock:
                cached = self._ack_cache.get(msg.seq)
            if cached is not None:
                # A duplicate of a frame we already ACKed (retransmission
                # after a lost ACK, or a network-duplicated frame): re-ACK
                # so the publisher can make progress, deliver nothing.
                outer.stats.bump("dup_frames_dropped")
                try:
                    connection.send_frame(cached)
                except ConnectionClosed:
                    pass
                return None
            outer.stats.bump("stale_frames")
            return None

        digest = message_digest(msg.seq, msg.payload)
        outer.stats.bump("digests")

        if config.verify_on_receive:
            key = outer.resolve_key(publisher_id)
            if key is None or not key.verify_digest(digest, msg.signature):
                outer.stats.bump("invalid_signatures")
                return None

        signature = outer.keypair.private.sign_digest(digest)
        outer.stats.bump("signatures")

        if outer.seq_state is not None:
            outer.seq_state.record_received(self._topic, publisher_id, msg.seq)

        # ACK before delivering to the application, as the prototype does
        # ("performed in the middle of message deserialization step before
        # passing the data to the subscriber's application layer").
        self._send_ack(connection, msg.seq, digest, signature, msg.payload)

        entry = self._build_entry(publisher_id, msg, digest, signature)
        self._submit_entry(entry)
        return msg.payload

    def _now(self) -> float:
        return self._outer.clock.now()

    def _submit_entry(self, entry: LogEntry) -> None:
        self._outer._enqueue_entry(entry)

    def _send_ack(
        self,
        connection: Connection,
        seq: int,
        digest: bytes,
        signature: bytes,
        payload: bytes,
    ) -> None:
        if self._outer.config.ack_returns_data:
            ack = AdlpAck(
                seq=seq, signature=signature, returns_data=True, payload=payload
            )
        else:
            ack = AdlpAck(seq=seq, data_hash=digest, signature=signature)
        raw = ack.encode()
        self._remember_ack(seq, raw)
        try:
            connection.send_frame(raw)
            self._outer.stats.bump("acks_sent")
        except ConnectionClosed:
            pass  # publisher went away; still log and deliver

    def _remember_ack(self, seq: int, raw: bytes) -> None:
        # Bounded by count AND bytes: with ``ack_returns_data`` each cached
        # ACK embeds the full payload, so 128 entries of multi-megabyte
        # messages would otherwise pin hundreds of megabytes.  The newest
        # ACK always survives (it is the one a retransmit will ask for).
        with self._ack_cache_lock:
            old = self._ack_cache.pop(seq, None)
            if old is not None:
                self._ack_cache_bytes -= len(old)
            self._ack_cache[seq] = raw
            self._ack_cache_bytes += len(raw)
            while len(self._ack_cache) > 1 and (
                len(self._ack_cache) > _ACK_CACHE_CAPACITY
                or self._ack_cache_bytes > _ACK_CACHE_MAX_BYTES
            ):
                _, evicted = self._ack_cache.popitem(last=False)
                self._ack_cache_bytes -= len(evicted)

    def _build_entry(
        self, publisher_id: str, msg: AdlpMessage, digest: bytes, signature: bytes
    ) -> LogEntry:
        entry = LogEntry(
            component_id=self._outer.component_id,
            topic=self._topic,
            type_name=self._type_name,
            direction=Direction.IN,
            seq=msg.seq,
            timestamp=self._now(),
            scheme=Scheme.ADLP,
            own_sig=signature,
            peer_id=publisher_id,
            peer_sig=msg.signature,
        )
        if self._outer.config.subscriber_stores_hash:
            entry.data_hash = digest  # h(D''_y): the space-saving option
        else:
            entry.data = msg.payload  # D''_y as-is
        return entry


class AdlpProtocol(TransportProtocol):
    """Per-node ADLP: key custody, logging thread, protocol factories.

    :param component_id: this node's unique id (must match the node name it
        is installed on, since log entries carry it).
    :param log_server: the trusted logger, or any object with
        ``submit_batch`` and ``register_key`` -- the node registers its
        public key at startup (step 1 of the prototype flow).
    :param config: protocol knobs; see :class:`AdlpConfig`.
    :param keypair: pre-generated keys (tests); generated fresh when omitted.
    :param clock: timestamp source for log entries.
    """

    name = "adlp"

    def __init__(
        self,
        component_id: str,
        log_server,
        config: Optional[AdlpConfig] = None,
        keypair: Optional[KeyPair] = None,
        clock: Optional[Clock] = None,
    ):
        self.component_id = component_id
        self.config = config or AdlpConfig()
        self.clock = clock or SystemClock()
        self.keypair = keypair or generate_keypair(
            self.config.key_bits, scheme=self.config.signature_scheme
        )
        self.stats = AdlpStats()
        self._log_server = log_server
        #: Durable per-topic sequence counters (``None`` without a
        #: ``state_dir``); restart-safe freshness, see
        #: :mod:`repro.storage.seqstate`.
        self.seq_state: Optional[SequenceStateFile] = None
        if self.config.state_dir:
            # Component ids look like "/pub" -- flatten the leading/namespace
            # slashes so the journal lands *inside* state_dir (os.path.join
            # would treat "/pub.seqstate" as an absolute path).
            safe = component_id.replace("/", "_").strip("_") or "component"
            self.seq_state = SequenceStateFile(
                os.path.join(self.config.state_dir, f"{safe}.seqstate")
            )
        log_server.register_key(component_id, self.keypair.public)
        #: Live ACK aggregators (one per aggregating publisher protocol);
        #: the logging thread's tick sweeps their expired buffers so an
        #: aggregated entry flushes when its window lapses, not only when
        #: a later ACK happens to arrive.
        self._aggregators: List[_AckAggregator] = []
        self._aggregators_lock = threading.Lock()
        self.logging_thread = LoggingThread(
            component_id,
            log_server.submit_batch,
            max_retries=self.config.log_retry_limit,
            retry_backoff=self.config.log_retry_backoff,
            on_retry=lambda: self.stats.bump("log_submit_retries"),
            batch_max=self.config.submit_batch_max,
            tick=self._flush_expired_aggregates,
        )
        self.stats.attach_source(self._loss_counters)

    def _register_aggregator(self, aggregator: _AckAggregator) -> None:
        with self._aggregators_lock:
            self._aggregators.append(aggregator)

    def _flush_expired_aggregates(self) -> None:
        with self._aggregators_lock:
            aggregators = list(self._aggregators)
        for aggregator in aggregators:
            aggregator.flush_expired()

    def _loss_counters(self) -> Dict[str, int]:
        """Evidence-loss counters merged into ``stats()``: the logging
        thread's drops plus, for a :class:`~repro.core.remote.RemoteLogger`,
        its spill-queue counters -- so ``stats()["dropped"]`` is the total
        number of entries that will never reach the trusted logger."""
        out = {
            "dropped": self.logging_thread.dropped,
            "spilled": 0,
            "spilled_to_disk": 0,
            "spill_retries": 0,
        }
        peer_stats = getattr(self._log_server, "stats", None)
        if callable(peer_stats):
            for name, value in peer_stats().items():
                out[name] = out.get(name, 0) + int(value)
        return out

    def resolve_key(self, component_id: str) -> Optional[PublicKey]:
        """Look up a peer's public key (used by ``verify_on_receive``)."""
        keystore = getattr(self._log_server, "keystore", None)
        if keystore is None:
            return None
        return keystore.find(component_id)

    def _enqueue_entry(self, entry: LogEntry) -> None:
        self.logging_thread.enqueue(entry)

    def publisher_protocol(self, topic: str, type_name: str) -> PublisherProtocol:
        return _AdlpPublisherProtocol(self, topic, type_name)

    def subscriber_protocol(self, topic: str, type_name: str) -> SubscriberProtocol:
        return _AdlpSubscriberProtocol(self, topic, type_name)

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until all queued log entries reached the server."""
        return self.logging_thread.flush(timeout)

    def close(self) -> None:
        self.logging_thread.stop()
        if self.seq_state is not None:
            self.seq_state.close()
