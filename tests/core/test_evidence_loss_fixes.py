"""Regression tests for hot-path evidence-loss bugs.

Four fixes, one theme: evidence that exists must not silently evaporate.

1. An aggregated publisher entry whose window lapsed used to wait for a
   *later* ACK to flush it; on an idle topic it waited forever.  Expiry is
   now deadline-driven off the logging thread's tick.
2. Evicting an un-ACKed publication from the pending window was invisible;
   it is now counted (``pending_evicted``) and warned about once.
3. An ACK arriving after retransmit exhaustion was discarded as stale even
   though its publication was still pending; the proven entry is now
   submitted (``late_acks_recovered``).  The window holds exactly the
   publications a link moved past without an ACK (driven here through
   ``on_link_send`` over a scripted connection): an ACKed publication is
   logged from its frame and kept nowhere.
4. The subscriber's ACK cache was bounded by count only; with
   ``ack_returns_data`` each cached ACK embeds the payload, so it is now
   bounded by bytes as well.
"""

from __future__ import annotations

import pytest

from repro.core import AdlpConfig, AdlpProtocol, LogServer
from repro.core import adlp_protocol as adlp_module
from repro.core.adlp_protocol import _AckAggregator
from repro.core.entries import LogEntry
from repro.core.protocol import AdlpAck, message_digest
from repro.util.clock import SimulatedClock
from repro.util.concurrency import wait_for

TOPIC = "/t"


class FakeConn:
    """Scripted connection: hands out queued frames, swallows sends."""

    def __init__(self, frames=()):
        self.frames = list(frames)
        self.sent = []
        self.closed = False

    def send_frame(self, frame):
        self.sent.append(frame)

    def recv_frame(self, timeout=None):
        if self.frames:
            return self.frames.pop(0)
        return None


def subscriber_ack(keypool, seq: int, payload: bytes) -> AdlpAck:
    digest = message_digest(seq, payload)
    return AdlpAck(
        seq=seq, data_hash=digest, signature=keypool[1].private.sign_digest(digest)
    )


#: A link that moves on past an un-ACKed publication instead of dropping
#: the subscriber -- the only configuration in which a late ACK can arrive.
LENIENT = AdlpConfig(key_bits=512, drop_unacked_subscriber=False)


def send(pub_proto, subscriber_id: str, seq: int, payload: bytes, replies=()):
    """Publish ``payload`` to one subscriber link whose connection answers
    with ``replies`` and then falls silent (an immediate ACK timeout)."""
    pub_proto.on_link_send(
        subscriber_id, FakeConn(replies), seq, pub_proto.make_frame(seq, payload)
    )


class TestAggregatorDeadlineFlush:
    def test_flush_expired_uses_injected_clock(self):
        clock = SimulatedClock()
        flushed = []
        agg = _AckAggregator(window=5.0, flush=flushed.append, now=clock.now)
        agg.add(LogEntry(component_id="/p", topic=TOPIC, seq=1), "/s", b"h", b"sig")
        agg.flush_expired()
        assert flushed == []  # window not lapsed: still buffering
        clock.advance(5.0)
        agg.flush_expired()
        assert len(flushed) == 1
        assert flushed[0].aggregated
        agg.flush_expired()
        assert len(flushed) == 1  # flushing is not repeated

    def test_idle_topic_flushes_without_later_ack(self, keypool):
        """The regression: the last publication's aggregated entry used to
        sit in the buffer until another ACK arrived.  The logging thread's
        tick must flush it once the window lapses -- with no further
        protocol activity at all."""
        clock = SimulatedClock()
        server = LogServer()
        config = AdlpConfig(
            key_bits=512,
            aggregate_publisher_entries=True,
            aggregation_window=5.0,
        )
        protocol = AdlpProtocol(
            "/pub", server, config=config, keypair=keypool[0], clock=clock
        )
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            payload = b"last message"
            send(pub_proto, "/sub0", 1, payload,
                 [subscriber_ack(keypool, 1, payload).encode()])
            # The window has not lapsed and no later ACK will ever arrive.
            assert protocol.flush(2.0)
            assert len(server) == 0
            clock.advance(6.0)
            # No protocol activity: only the logging thread's wakeup tick
            # can flush the buffer now.
            assert wait_for(lambda: len(server) == 1, timeout=3.0)
            entry = server.entries()[0]
            assert entry.aggregated
            assert entry.ack_peer_ids == ["/sub0"]
        finally:
            protocol.close()

    def test_close_still_flushes_unexpired_buffers(self, keypool):
        clock = SimulatedClock()
        server = LogServer()
        config = AdlpConfig(
            key_bits=512,
            aggregate_publisher_entries=True,
            aggregation_window=60.0,
        )
        protocol = AdlpProtocol(
            "/pub", server, config=config, keypair=keypool[0], clock=clock
        )
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            payload = b"m"
            send(pub_proto, "/sub0", 1, payload,
                 [subscriber_ack(keypool, 1, payload).encode()])
            pub_proto.close()  # explicit close flushes regardless of window
            assert protocol.flush(2.0)
            assert len(server) == 1
        finally:
            protocol.close()


class TestPendingEvictionCounted:
    def test_eviction_bumps_counter(self, keypool, monkeypatch):
        monkeypatch.setattr(adlp_module, "_PENDING_CAPACITY", 4)
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            for seq in range(1, 5):
                send(pub_proto, "/sub", seq, b"m%d" % seq)
            assert protocol.stats.pending_evicted == 0
            for seq in range(5, 8):
                send(pub_proto, "/sub", seq, b"m%d" % seq)
            assert protocol.stats.pending_evicted == 3
            assert "pending_evicted" in protocol.stats.as_dict()
        finally:
            protocol.close()

    def test_acked_publications_never_enter_the_window(self, keypool, monkeypatch):
        """Only what a late ACK can still claim is kept: a publication
        ACKed in time is logged from its frame and held nowhere, so it is
        neither counted against the cap nor ever "evicted"."""
        monkeypatch.setattr(adlp_module, "_PENDING_CAPACITY", 1)
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            for seq in range(1, 6):
                payload = b"m%d" % seq
                send(pub_proto, "/sub", seq, payload,
                     [subscriber_ack(keypool, seq, payload).encode()])
                assert not pub_proto._pending
            assert protocol.stats.pending_evicted == 0
            assert protocol.flush(2.0)
            entries = server.entries(component_id="/pub")
            assert [e.seq for e in entries] == [1, 2, 3, 4, 5]
            assert all(e.peer_id == "/sub" and e.peer_sig for e in entries)
        finally:
            protocol.close()

    def test_eviction_warns_once(self, keypool, monkeypatch, caplog):
        monkeypatch.setattr(adlp_module, "_PENDING_CAPACITY", 2)
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            with caplog.at_level("WARNING", logger="repro.core.adlp_protocol"):
                for seq in range(1, 7):
                    send(pub_proto, "/sub", seq, b"x")
            warnings = [
                r for r in caplog.records if "evicted an un-ACKed" in r.message
            ]
            assert len(warnings) == 1  # one warning, not one per eviction
            assert protocol.stats.pending_evicted == 4
        finally:
            protocol.close()

    def test_evicted_ack_cannot_be_logged(self, keypool, monkeypatch):
        """The loss the counter makes visible: an ACK for an evicted seq
        produces no proven entry (there is nothing to log it against)."""
        monkeypatch.setattr(adlp_module, "_PENDING_CAPACITY", 1)
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            send(pub_proto, "/sub", 1, b"one")
            send(pub_proto, "/sub", 2, b"two")  # evicts seq 1
            send(pub_proto, "/sub", 3, b"three",
                 [subscriber_ack(keypool, 1, b"one").encode()])
            assert protocol.stats.pending_evicted == 2
            assert protocol.stats.stale_frames == 1
            assert protocol.stats.late_acks_recovered == 0
            assert protocol.flush(2.0)
            # one unproven entry per publication, nothing proven
            entries = server.entries(component_id="/pub")
            assert [e.seq for e in entries] == [1, 2, 3]
            assert not any(e.peer_sig for e in entries)
        finally:
            protocol.close()


class TestLateAckRecovered:
    def test_late_ack_submits_proven_entry(self, keypool):
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            send(pub_proto, "/sub", 1, b"one")  # moves on without the ACK
            assert list(pub_proto._pending) == [1]
            # Awaiting seq 2, the late ACK for the still-pending seq 1
            # arrives first: it must be recovered, not discarded.
            send(pub_proto, "/sub", 2, b"two", [
                subscriber_ack(keypool, 1, b"one").encode(),
                subscriber_ack(keypool, 2, b"two").encode(),
            ])
            assert protocol.stats.late_acks_recovered == 1
            assert protocol.stats.stale_frames == 0
            assert protocol.stats.acks_received == 1
            assert not pub_proto._pending  # claimed: nothing left to hold
            assert protocol.flush(2.0)
            unproven, proven = server.entries(component_id="/pub", seq=1)
            assert not unproven.peer_sig
            # The recovered entry is *proven*: it carries the subscriber's
            # signature over the acknowledged hash.
            assert proven.data == b"one"
            assert proven.peer_id == "/sub"
            assert proven.peer_hash == message_digest(1, b"one")
            assert keypool[1].public.verify_digest(proven.peer_hash, proven.peer_sig)
            assert keypool[0].public.verify_digest(
                message_digest(1, b"one"), proven.own_sig
            )
        finally:
            protocol.close()

    def test_entry_stays_pending_for_other_links(self, keypool):
        """Recovery by one link must not release the publication: another
        subscriber link may still recover its own ACK for the same seq.
        Both links share one payload object while they wait."""
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            frame = pub_proto.make_frame(1, b"one")
            pub_proto.on_link_send("/subA", FakeConn(), 1, frame)
            pub_proto.on_link_send("/subB", FakeConn(), 1, frame)
            assert pub_proto._pending[1][2] == {"/subA", "/subB"}
            acks = [
                subscriber_ack(keypool, 1, b"one").encode(),
                subscriber_ack(keypool, 2, b"two").encode(),
            ]
            frame = pub_proto.make_frame(2, b"two")
            pub_proto.on_link_send("/subA", FakeConn(acks), 2, frame)
            assert pub_proto._pending[1][2] == {"/subB"}
            pub_proto.on_link_send("/subB", FakeConn(acks), 2, frame)
            assert not pub_proto._pending
            assert protocol.stats.late_acks_recovered == 2
            assert protocol.flush(2.0)
            peers = sorted(
                e.peer_id
                for e in server.entries(component_id="/pub", seq=1)
                if e.peer_sig
            )
            assert peers == ["/subA", "/subB"]
        finally:
            protocol.close()

    def test_truly_stale_ack_still_dropped(self, keypool):
        server = LogServer()
        protocol = AdlpProtocol("/pub", server, config=LENIENT, keypair=keypool[0])
        try:
            pub_proto = protocol.publisher_protocol(TOPIC, "std/String")
            ack1 = subscriber_ack(keypool, 1, b"one").encode()
            send(pub_proto, "/sub", 1, b"one", [ack1])
            # seq 99 was never published, and seq 1 was ACKed in time (a
            # re-ACK of a retransmitted frame): nothing is owed for either.
            ghost = subscriber_ack(keypool, 99, b"zzz")
            send(pub_proto, "/sub", 2, b"two", [
                ghost.encode(), ack1, subscriber_ack(keypool, 2, b"two").encode(),
            ])
            assert protocol.stats.stale_frames == 2
            assert protocol.stats.late_acks_recovered == 0
            assert protocol.flush(2.0)
            assert [e.seq for e in server.entries(component_id="/pub")] == [1, 2]
        finally:
            protocol.close()


class TestAckCacheByteBound:
    def test_cache_bounded_by_bytes(self, keypool, monkeypatch):
        monkeypatch.setattr(adlp_module, "_ACK_CACHE_MAX_BYTES", 1000)
        server = LogServer()
        protocol = AdlpProtocol(
            "/sub",
            server,
            config=AdlpConfig(key_bits=512, ack_returns_data=True),
            keypair=keypool[0],
        )
        try:
            sub_proto = protocol.subscriber_protocol(TOPIC, "std/String")
            raw = b"x" * 400
            for seq in range(1, 11):
                sub_proto._remember_ack(seq, raw)
            with sub_proto._ack_cache_lock:
                total = sum(len(v) for v in sub_proto._ack_cache.values())
                count = len(sub_proto._ack_cache)
                newest = next(reversed(sub_proto._ack_cache))
            assert total <= 1000
            assert count == 2  # 2 * 400 <= 1000 < 3 * 400
            assert newest == 10  # the newest ACK always survives
        finally:
            protocol.close()

    def test_single_oversized_ack_survives(self, keypool, monkeypatch):
        """The newest entry is kept even when it alone busts the byte cap:
        it is the ACK a retransmit will ask for."""
        monkeypatch.setattr(adlp_module, "_ACK_CACHE_MAX_BYTES", 100)
        server = LogServer()
        protocol = AdlpProtocol(
            "/sub", server, config=AdlpConfig(key_bits=512), keypair=keypool[0]
        )
        try:
            sub_proto = protocol.subscriber_protocol(TOPIC, "std/String")
            sub_proto._remember_ack(1, b"a" * 40)
            sub_proto._remember_ack(2, b"b" * 500)
            with sub_proto._ack_cache_lock:
                assert list(sub_proto._ack_cache) == [2]
        finally:
            protocol.close()

    def test_replacing_same_seq_does_not_leak_accounting(self, keypool):
        server = LogServer()
        protocol = AdlpProtocol(
            "/sub", server, config=AdlpConfig(key_bits=512), keypair=keypool[0]
        )
        try:
            sub_proto = protocol.subscriber_protocol(TOPIC, "std/String")
            for _ in range(50):
                sub_proto._remember_ack(7, b"y" * 123)
            with sub_proto._ack_cache_lock:
                assert sub_proto._ack_cache_bytes == 123
                assert len(sub_proto._ack_cache) == 1
        finally:
            protocol.close()

    def test_count_cap_still_applies(self, keypool, monkeypatch):
        monkeypatch.setattr(adlp_module, "_ACK_CACHE_CAPACITY", 5)
        server = LogServer()
        protocol = AdlpProtocol(
            "/sub", server, config=AdlpConfig(key_bits=512), keypair=keypool[0]
        )
        try:
            sub_proto = protocol.subscriber_protocol(TOPIC, "std/String")
            for seq in range(1, 20):
                sub_proto._remember_ack(seq, b"tiny")
            with sub_proto._ack_cache_lock:
                assert len(sub_proto._ack_cache) == 5
                assert list(sub_proto._ack_cache) == [15, 16, 17, 18, 19]
        finally:
            protocol.close()
