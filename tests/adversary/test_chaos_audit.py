"""Chaos soak: the full pub-sub-logger-auditor stack under a lossy network.

The load-bearing claim: *network* faults (drops, duplicates, delays,
reorders, truncations) must never be mistaken for *component* misbehavior.
With retransmission enabled, every surviving transmission pair is classified
``valid``, the only ``hidden`` records are the genuinely hiding
subscriber's, and nobody is falsely convicted.

Marked ``soak`` (deselected from the tier-1 run); run with
``pytest -m soak``.  The randomized schedule derives from the shared
``deterministic_seed`` fixture, so a failure reproduces with the same
``PYTEST_SEED``.
"""

import pytest

from repro.adversary import GroundTruth, SubscriberBehavior, UnfaithfulAdlpProtocol
from repro.audit import Auditor, Topology
from repro.core import AdlpConfig, AdlpProtocol, LogServer
from repro.middleware import Master, Node, handshake
from repro.middleware.msgtypes import StringMsg
from tests.sim.faulty import FaultProfile, FaultSchedule, FaultyTransport
from repro.middleware.transport.tcp import TcpTransport
from repro.util.concurrency import wait_for

pytestmark = pytest.mark.soak

TOPIC = "/t"

#: Retransmission knobs generous enough that no publication permanently
#: fails under the probabilistic schedules below (per-round failure is
#: well under 0.5; sixteen retries make permanent loss vanishingly rare).
CHAOS_CONFIG = dict(
    key_bits=512,
    ack_timeout=0.1,
    max_retransmits=16,
    retransmit_backoff=1.5,
    max_ack_timeout=1.0,
    drop_unacked_subscriber=False,
)


class TestChaosAudit:
    def test_no_false_verdicts_under_randomized_faults(
        self, keypool, deterministic_seed, rng, monkeypatch
    ):
        """Two subscribers -- one faithful, one hiding its log entries --
        under a randomized fault schedule.  The auditor must classify every
        surviving entry valid and pin hidden records on the hiding
        subscriber alone."""
        monkeypatch.setattr(handshake, "HANDSHAKE_TIMEOUT", 1.0)
        publications = 30
        profile = FaultProfile(
            drop=round(rng.uniform(0.05, 0.15), 3),
            dup=round(rng.uniform(0.05, 0.15), 3),
            delay=round(rng.uniform(0.02, 0.08), 3),
            reorder=round(rng.uniform(0.02, 0.05), 3),
            truncate=round(rng.uniform(0.02, 0.08), 3),
            delay_by=0.002,
            # no disconnects: severed links lose frames with no redelivery
            # path (as in ROS), which is availability loss, not a verdict
        )
        schedule = FaultSchedule.symmetric(profile, seed=deterministic_seed)
        master = Master(transport=FaultyTransport(schedule=schedule))
        server = LogServer()
        truth = GroundTruth()
        config = AdlpConfig(**CHAOS_CONFIG)

        pub_protocol = UnfaithfulAdlpProtocol(
            "/pub", server, truth, config=config, keypair=keypool[0]
        )
        honest_protocol = UnfaithfulAdlpProtocol(
            "/sub0", server, truth, config=config, keypair=keypool[1]
        )
        hiding_protocol = UnfaithfulAdlpProtocol(
            "/sub1",
            server,
            truth,
            subscriber_behavior=SubscriberBehavior(hide_entries=True),
            config=config,
            keypair=keypool[2],
        )
        pub_node = Node("/pub", master, protocol=pub_protocol)
        sub0_node = Node("/sub0", master, protocol=honest_protocol)
        sub1_node = Node("/sub1", master, protocol=hiding_protocol)
        protocols = [pub_protocol, honest_protocol, hiding_protocol]
        nodes = [pub_node, sub0_node, sub1_node]
        try:
            sub0 = sub0_node.subscribe(TOPIC, StringMsg, lambda m: None)
            sub1 = sub1_node.subscribe(TOPIC, StringMsg, lambda m: None)
            pub = pub_node.advertise(TOPIC, StringMsg, queue_size=64)
            assert pub.wait_for_subscribers(2, timeout=10.0)
            assert sub0.wait_for_connection(timeout=10.0)
            assert sub1.wait_for_connection(timeout=10.0)

            for i in range(publications):
                pub.publish(StringMsg(data=f"chaos message {i}"))

            # exactly-once delivery to both, despite dups and retransmits
            assert wait_for(
                lambda: sub0.stats.received == publications
                and sub1.stats.received == publications,
                timeout=25.0,
            ), (
                f"deliveries stalled: sub0={sub0.stats.received} "
                f"sub1={sub1.stats.received} of {publications}"
            )
            # every publication eventually won an ACK from both links
            assert wait_for(
                lambda: pub_protocol.stats.acks_received == 2 * publications,
                timeout=25.0,
            )
        finally:
            for protocol in protocols:
                protocol.flush()
            for node in nodes:
                node.shutdown()
            for protocol in protocols:
                protocol.flush()

        # the schedule actually did something
        faults = master.transport.stats
        assert faults.total_faults() > 0

        topology = Topology(
            publisher_of={TOPIC: "/pub"},
            subscribers_of={TOPIC: ["/sub0", "/sub1"]},
        )
        report = Auditor.for_server(server, topology).audit_server(server)

        # no false convictions: every surviving entry is valid
        invalid = report.invalid_entries()
        assert invalid == [], [
            (c.component_id, c.entry.seq, c.reasons) for c in invalid
        ]
        # hidden records exist exactly for the hiding subscriber's receipts
        assert {h.component_id for h in report.hidden} == {"/sub1"}
        assert len(report.hidden) == publications
        assert report.flagged_components() == ["/sub1"]
        assert "/pub" in report.clean_components()
        assert "/sub0" in report.clean_components()

    def test_acceptance_tcp_drop20_dup10_seed42(self, keypool, monkeypatch):
        """The issue's acceptance scenario: ``FaultyTransport(drop=0.2,
        dup=0.1, seed=42)`` over real TCP, 200 messages, one subscriber.
        Must complete without deadlock, deliver exactly once, and audit
        with zero false invalid/hidden verdicts."""
        monkeypatch.setattr(handshake, "HANDSHAKE_TIMEOUT", 1.0)
        publications = 200
        transport = FaultyTransport(TcpTransport(), drop=0.2, dup=0.1, seed=42)
        master = Master(transport=transport)
        server = LogServer()
        config = AdlpConfig(
            key_bits=512,
            ack_timeout=0.05,
            max_retransmits=16,
            retransmit_backoff=1.5,
            max_ack_timeout=0.5,
            drop_unacked_subscriber=False,
        )
        pub_protocol = AdlpProtocol("/pub", server, config=config, keypair=keypool[0])
        sub_protocol = AdlpProtocol("/sub", server, config=config, keypair=keypool[1])
        pub_node = Node("/pub", master, protocol=pub_protocol)
        sub_node = Node("/sub", master, protocol=sub_protocol)
        try:
            delivered = []
            sub = sub_node.subscribe(TOPIC, StringMsg, lambda m: delivered.append(m.data))
            pub = pub_node.advertise(TOPIC, StringMsg, queue_size=publications + 8)
            assert pub.wait_for_subscribers(1, timeout=10.0)
            assert sub.wait_for_connection(timeout=10.0)

            for i in range(publications):
                pub.publish(StringMsg(data=f"msg-{i:04d}"))

            # no deadlock: all 200 complete within the soak budget
            assert wait_for(
                lambda: sub.stats.received == publications, timeout=25.0
            ), f"stalled at {sub.stats.received}/{publications}"
            assert wait_for(
                lambda: pub_protocol.stats.acks_received == publications,
                timeout=25.0,
            )
            # exactly-once: no message delivered twice or skipped
            assert delivered == [f"msg-{i:04d}" for i in range(publications)]
            # the chaos was real, and retransmission absorbed it
            assert transport.stats.drops > 0
            assert transport.stats.dups > 0
            assert pub_protocol.stats.retransmits > 0
            assert sub_protocol.stats.dup_frames_dropped > 0
        finally:
            pub_protocol.flush()
            sub_protocol.flush()
            pub_node.shutdown()
            sub_node.shutdown()
            pub_protocol.flush()
            sub_protocol.flush()

        topology = Topology(publisher_of={TOPIC: "/pub"})
        report = Auditor.for_server(server, topology).audit_server(server)
        assert report.invalid_entries() == []
        assert report.hidden == []
        assert report.flagged_components() == []
        # both sides logged every transmission exactly once
        assert len(server.entries(component_id="/pub")) == publications
        assert len(server.entries(component_id="/sub")) == publications
