"""Retransmission and duplicate handling under scripted frame loss.

Frame-index map for a single pub/sub pair over :class:`FaultyTransport`
(the middleware's topology: the publisher listens, the subscriber
connects):

- ``connect`` side, frame 0: the subscriber's handshake header; frames 1+
  are its ACKs.
- ``accept`` side, frame 0: the publisher's handshake reply; frames 1+ are
  data frames (including retransmissions).
"""

import pytest

from repro.core import AdlpConfig, AdlpProtocol, LogServer
from repro.core.entries import Direction
from repro.middleware import Master, Node, handshake
from repro.middleware.msgtypes import StringMsg
from tests.sim.faulty import FaultSchedule, FaultyTransport
from repro.util.concurrency import wait_for


def make_pair(keypool, schedule, config):
    """One publisher + one subscriber node over a faulted inproc network."""
    master = Master(transport=FaultyTransport(schedule=schedule))
    server = LogServer()
    pub_protocol = AdlpProtocol("/pub", server, config=config, keypair=keypool[0])
    sub_protocol = AdlpProtocol("/sub", server, config=config, keypair=keypool[1])
    pub_node = Node("/pub", master, protocol=pub_protocol)
    sub_node = Node("/sub", master, protocol=sub_protocol)
    return server, pub_protocol, sub_protocol, pub_node, sub_node


class TestAckLossRetransmission:
    def test_publisher_retransmits_after_lost_ack(self, keypool):
        """The first ACK is dropped: the publisher times out, re-sends the
        frame, and the subscriber re-ACKs from its cache without a second
        delivery.  Stats match the injected fault exactly."""
        schedule = FaultSchedule(seed=1).script("connect", 1, "drop")
        config = AdlpConfig(
            key_bits=512,
            ack_timeout=0.2,
            max_retransmits=3,
            retransmit_backoff=2.0,
            max_ack_timeout=2.0,
        )
        server, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            pub.publish(StringMsg(data="survives ack loss"))
            assert sub.wait_for_messages(1)
            assert wait_for(
                lambda: pub_protocol.stats.acks_received == 1, timeout=5.0
            )

            assert pub_protocol.stats.ack_timeouts == 1
            assert pub_protocol.stats.retransmits == 1
            assert pub_protocol.stats.acks_received == 1
            assert sub_protocol.stats.dup_frames_dropped == 1
            # exactly-once delivery despite two copies on the wire
            assert sub.stats.received == 1

            pub_protocol.flush()
            sub_protocol.flush()
            # the publisher's entry carries the (re-sent) ACK: proven, not
            # an unproven-publication stub
            out_entries = server.entries(component_id="/pub", seq=1)
            assert len(out_entries) == 1
            assert out_entries[0].peer_sig
            assert len(server.entries(component_id="/sub", seq=1)) == 1
        finally:
            pub_node.shutdown()
            sub_node.shutdown()

    def test_duplicated_data_frame_delivered_once(self, keypool):
        """A network-duplicated data frame is delivered exactly once; the
        duplicate is re-ACKed from the cache and dropped."""
        schedule = FaultSchedule(seed=1).script("accept", 1, "dup")
        config = AdlpConfig(key_bits=512, ack_timeout=2.0)
        server, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            pub.publish(StringMsg(data="sent twice"))
            assert sub.wait_for_messages(1)
            assert wait_for(
                lambda: sub_protocol.stats.dup_frames_dropped == 1, timeout=5.0
            )
            assert sub.stats.received == 1
            assert pub_protocol.stats.retransmits == 0

            pub_protocol.flush()
            sub_protocol.flush()
            # one IN entry, not two: duplicates cannot corrupt the log
            assert len(server.entries(component_id="/sub")) == 1
        finally:
            pub_node.shutdown()
            sub_node.shutdown()


class TestPermanentAckLoss:
    def test_bounded_timeout_no_hang_clean_degradation(self, keypool):
        """Every ACK is dropped forever: the publisher must exhaust its
        retransmit budget in bounded time, log the unproven publication,
        and keep serving (``drop_unacked_subscriber=False``)."""
        schedule = FaultSchedule(seed=1).script_range("connect", 1, "drop")
        config = AdlpConfig(
            key_bits=512,
            ack_timeout=0.05,
            max_retransmits=2,
            retransmit_backoff=2.0,
            max_ack_timeout=0.2,
            drop_unacked_subscriber=False,
        )
        server, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            pub.publish(StringMsg(data="never acked"))
            # bounded: initial wait + 2 backed-off retries, well under 5s
            assert wait_for(
                lambda: pub_protocol.stats.ack_timeouts
                == config.max_retransmits + 1,
                timeout=5.0,
            )
            assert pub_protocol.stats.retransmits == config.max_retransmits
            assert pub_protocol.stats.acks_received == 0
            # the subscriber delivered once and swallowed each retransmit
            assert sub.wait_for_messages(1)
            assert sub.stats.received == 1
            assert wait_for(
                lambda: sub_protocol.stats.dup_frames_dropped
                == config.max_retransmits,
                timeout=5.0,
            )

            # clean degradation: the link survives and later messages flow
            pub.publish(StringMsg(data="still flowing"))
            assert sub.wait_for_messages(2, timeout=10.0)

            pub_protocol.flush()
            sub_protocol.flush()
            # the unproven publication is logged (evidence, not silence)
            out_entries = server.entries(
                component_id="/pub", direction=Direction.OUT, seq=1
            )
            assert len(out_entries) == 1
            assert not out_entries[0].peer_sig
        finally:
            pub_node.shutdown()
            sub_node.shutdown()

    def test_paper_faithful_default_never_retransmits(self, keypool):
        """With ``max_retransmits=0`` (the default) a lost ACK is treated
        as subscriber misbehavior: one timeout, no retransmission."""
        schedule = FaultSchedule(seed=1).script_range("connect", 1, "drop")
        config = AdlpConfig(key_bits=512, ack_timeout=0.1)
        server, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1)
            pub.publish(StringMsg(data="one strike"))
            assert wait_for(
                lambda: pub_protocol.stats.ack_timeouts == 1, timeout=5.0
            )
            assert pub_protocol.stats.retransmits == 0
            # the paper's penalty applies: the link is dropped
            assert wait_for(lambda: pub.stats.link_errors == 1, timeout=5.0)
        finally:
            pub_node.shutdown()
            sub_node.shutdown()


class TestHandshakeRetries:
    def test_dropped_client_header_is_resent(self, keypool, monkeypatch):
        """The subscriber's first handshake header is dropped; the retrying
        handshake re-sends it and the connection still comes up."""
        monkeypatch.setattr(handshake, "HANDSHAKE_TIMEOUT", 0.6)
        schedule = FaultSchedule(seed=1).script("connect", 0, "drop")
        config = AdlpConfig(key_bits=512, ack_timeout=2.0)
        _, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1, timeout=5.0)
            assert sub.wait_for_connection(timeout=5.0)
            pub.publish(StringMsg(data="after retried handshake"))
            assert sub.wait_for_messages(1)
        finally:
            pub_node.shutdown()
            sub_node.shutdown()

    def test_truncated_client_header_is_retried(self, keypool, monkeypatch):
        """A mangled (truncated) header frame is skipped by the server and
        the client's re-send completes the handshake."""
        monkeypatch.setattr(handshake, "HANDSHAKE_TIMEOUT", 0.6)
        schedule = FaultSchedule(seed=1).script("connect", 0, "truncate")
        config = AdlpConfig(key_bits=512, ack_timeout=2.0)
        _, pub_protocol, sub_protocol, pub_node, sub_node = make_pair(
            keypool, schedule, config
        )
        try:
            sub = sub_node.subscribe("/t", StringMsg, lambda m: None)
            pub = pub_node.advertise("/t", StringMsg)
            assert pub.wait_for_subscribers(1, timeout=5.0)
            assert sub.wait_for_connection(timeout=5.0)
            pub.publish(StringMsg(data="after mangled handshake"))
            assert sub.wait_for_messages(1)
        finally:
            pub_node.shutdown()
            sub_node.shutdown()
