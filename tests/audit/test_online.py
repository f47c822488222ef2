"""Streaming audit: findings surface during operation, not just post hoc."""

import pytest

from repro.audit.auditor import Auditor, Topology
from repro.audit.online import OnlineAuditor, OnlineFinding
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest
from repro.crypto.keystore import KeyStore
from repro.util.clock import SimulatedClock
from tests.audit.reference import per_signature_verification
from tests.audit.test_aggregated_audit import aggregated_entry, subscriber_entry

TOPOLOGY = Topology(publisher_of={"/t": "/pub"})


@pytest.fixture()
def keystore(keypool):
    store = KeyStore()
    store.register("/pub", keypool[0].public)
    store.register("/sub", keypool[1].public)
    return store


def honest_pair(keypool, seq=1, payload=b"data", forge_pub_sig=False):
    digest = message_digest(seq, payload)
    s_x = keypool[0].private.sign_digest(digest)
    s_y = keypool[1].private.sign_digest(digest)
    own_sig = s_x
    if forge_pub_sig:
        own_sig = bytes([s_x[0] ^ 0x01]) + s_x[1:]
    pub = LogEntry(
        component_id="/pub", topic="/t", type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=payload, own_sig=own_sig,
        peer_id="/sub", peer_hash=digest, peer_sig=s_y,
    )
    sub = LogEntry(
        component_id="/sub", topic="/t", type_name="std/String",
        direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
        data_hash=digest, own_sig=s_y, peer_id="/pub", peer_sig=s_x,
    )
    return pub, sub


class TestHappyStream:
    def test_complete_pairs_judged_immediately(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, clock=clock)
        pub, sub = honest_pair(keypool)
        auditor.ingest(pub)
        assert auditor.pending_transmissions == 1
        auditor.ingest(sub)
        assert auditor.pending_transmissions == 0
        assert auditor.findings == []
        assert auditor.judged_entries == 2

    def test_order_independent(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, clock=clock)
        pub, sub = honest_pair(keypool)
        auditor.ingest(sub)  # subscriber's entry first
        auditor.ingest(pub)
        assert auditor.findings == []


class TestGracePeriod:
    def test_one_sided_transmission_flagged_after_grace(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=5.0, clock=clock)
        pub, _ = honest_pair(keypool)
        auditor.ingest(pub)
        auditor.poll()
        assert auditor.findings == []  # counterpart may still arrive
        clock.advance(6.0)
        auditor.poll()
        hidden = [f for f in auditor.findings if f.kind == "hidden"]
        assert len(hidden) == 1
        assert hidden[0].component_id == "/sub"  # the subscriber hid

    def test_late_counterpart_beats_the_clock(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=5.0, clock=clock)
        pub, sub = honest_pair(keypool)
        auditor.ingest(pub)
        clock.advance(4.0)
        auditor.ingest(sub)  # arrives within grace
        clock.advance(10.0)
        auditor.poll()
        assert auditor.findings == []

    def test_drain_judges_everything_now(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=100.0, clock=clock)
        pub, _ = honest_pair(keypool)
        auditor.ingest(pub)
        auditor.drain()
        assert auditor.pending_transmissions == 0
        assert any(f.kind == "hidden" for f in auditor.findings)


class TestStreamingDetection:
    def test_falsified_pair_flagged_on_completion(self, keystore, keypool):
        clock = SimulatedClock()
        found = []
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, clock=clock, on_finding=found.append
        )
        pub, _ = honest_pair(keypool, payload=b"real")
        # subscriber claims different data (self-signed)
        fake_digest = message_digest(1, b"fake")
        sub = LogEntry(
            component_id="/sub", topic="/t", type_name="std/String",
            direction=Direction.IN, seq=1, scheme=Scheme.ADLP,
            data_hash=fake_digest,
            own_sig=keypool[1].private.sign_digest(fake_digest),
            peer_id="/pub", peer_sig=pub.own_sig,
        )
        auditor.ingest(pub)
        auditor.ingest(sub)
        assert [f.kind for f in found].count("invalid") == 1
        assert auditor.flagged_components() == ["/sub"]

    def test_callback_receives_findings(self, keystore, keypool):
        clock = SimulatedClock()
        found = []
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, grace_period=1.0, clock=clock,
            on_finding=found.append,
        )
        pub, _ = honest_pair(keypool)
        auditor.ingest(pub)
        clock.advance(2.0)
        auditor.poll()
        assert found and isinstance(found[0], OnlineFinding)

    def test_attached_to_live_log_server(self, keypool):
        """The watchdog deployment: attach to a LogServer and catch a
        hiding subscriber while the system runs."""
        from repro.adversary import SubscriberBehavior
        from tests.helpers import run_scenario

        # run_scenario builds its own server, so attach via a wrapper run:
        from repro.core import LogServer

        found = []
        result = run_scenario(
            keypool,
            subscriber_behaviors=[SubscriberBehavior(hide_entries=True)],
            publications=2,
        )
        # replay the ingestion stream through an attached online auditor
        server = LogServer()
        for component in result.server.components():
            server.register_key(component, result.server.public_key(component))
        auditor = OnlineAuditor.attach(
            server, result.topology, grace_period=0.0, on_finding=found.append
        )
        for entry in result.server.entries():
            server.submit(entry)
        auditor.drain()
        auditor.detach()
        hidden = [f for f in found if f.kind == "hidden"]
        assert hidden and all(f.component_id == "/sub0" for f in hidden)
        # detached: further submissions are not observed
        before = auditor.judged_entries
        server.submit(result.server.entries()[0])
        auditor.drain()
        assert auditor.judged_entries == before

    def test_observer_errors_do_not_break_ingestion(self, keypool):
        from repro.core import LogServer
        from repro.core.entries import LogEntry

        server = LogServer()
        server.add_observer(lambda entry: (_ for _ in ()).throw(RuntimeError))
        server.submit(LogEntry(component_id="/a", topic="/t", seq=1))
        assert len(server) == 1

    def test_multiple_transmissions_independent(self, keystore, keypool):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=1.0, clock=clock)
        for seq in range(1, 4):
            pub, sub = honest_pair(keypool, seq=seq)
            auditor.ingest(pub)
            auditor.ingest(sub)
        # one more left dangling
        pub, _ = honest_pair(keypool, seq=9)
        auditor.ingest(pub)
        clock.advance(2.0)
        auditor.poll()
        assert auditor.judged_entries == 7
        assert len(auditor.findings) == 1


class TestNoFalseConviction:
    """A transmission is judged once, with everything the log holds for
    it: a replay or an aggregated entry never makes an honest party look
    like it hid its entry."""

    def _hidden_and_invalid(self, auditor):
        hidden = [f for f in auditor.findings if f.kind == "hidden"]
        invalid = [f for f in auditor.findings if f.kind == "invalid"]
        return hidden, invalid

    @pytest.mark.parametrize("replayed, honest", [("sub", "/pub"), ("pub", "/sub")])
    def test_replay_after_completed_pair_charges_only_the_replay(
        self, keystore, keypool, replayed, honest
    ):
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=1.0, clock=clock)
        pub, sub = honest_pair(keypool)
        auditor.ingest(pub)
        auditor.ingest(sub)
        auditor.ingest(sub if replayed == "sub" else pub)
        hidden, invalid = self._hidden_and_invalid(auditor)
        # the replay is reported inline, before any grace period ends
        replayer = "/sub" if replayed == "sub" else "/pub"
        assert [(f.component_id, f.detail) for f in invalid] == [
            (replayer, "replayed_sequence")
        ]
        clock.advance(5.0)
        auditor.poll()
        auditor.drain()
        hidden, invalid = self._hidden_and_invalid(auditor)
        assert hidden == []
        assert honest not in auditor.flagged_components()
        assert auditor.final_audit().flagged_components() == [replayer]

    def test_honest_aggregated_publication_yields_no_finding(self, keypool):
        keystore = KeyStore()
        keystore.register("/pub", keypool[0].public)
        for i in range(3):
            keystore.register(f"/s{i}", keypool[1 + i].public)
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=1.0, clock=clock)
        entry, digest = aggregated_entry(keypool)
        auditor.ingest(entry)
        for i in range(3):
            auditor.ingest(subscriber_entry(keypool, i, digest))
        clock.advance(5.0)
        auditor.poll()
        auditor.drain()
        assert auditor.findings == []
        assert auditor.judged_entries == 4
        assert auditor.final_audit().flagged_components() == []

    def test_lone_honest_subscriber_convicts_the_hiding_publisher(self, keystore, keypool):
        """The publisher hid its OUT entry: the subscriber's entry is proven
        by the publisher signature it reports, so it is valid and the
        publisher is hidden -- what the batch audit says when it has to
        infer the topology from this one entry."""
        clock = SimulatedClock()
        auditor = OnlineAuditor(keystore, TOPOLOGY, grace_period=1.0, clock=clock)
        _, sub = honest_pair(keypool)
        auditor.ingest(sub)
        clock.advance(2.0)
        auditor.poll()
        assert [(f.kind, f.component_id) for f in auditor.findings] == [("hidden", "/pub")]
        assert auditor.final_audit() == Auditor(keystore).audit([sub])
        # a log not seen yet cannot vote on its topology
        with pytest.raises(TypeError):
            OnlineAuditor(keystore)

    def test_out_entry_of_another_component_is_not_the_topic_publishers(
        self, keystore, keypool
    ):
        auditor = OnlineAuditor(keystore, TOPOLOGY, clock=SimulatedClock())
        pub, _ = honest_pair(keypool)
        digest = pub.reported_hash()
        impostor = LogEntry(
            component_id="/sub", topic="/t", type_name="std/String",
            direction=Direction.OUT, seq=1, scheme=Scheme.ADLP, data=pub.data,
            own_sig=keypool[1].private.sign_digest(digest), peer_id="/pub",
        )
        auditor.ingest(impostor)
        assert [(f.kind, f.component_id, f.detail) for f in auditor.findings] == [
            ("invalid", "/sub", "not_topic_publisher")
        ]

    def test_late_counterpart_rejudges_a_closed_transmission(self, keystore, keypool):
        clock = SimulatedClock()
        found = []
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, grace_period=1.0, clock=clock, on_finding=found.append
        )
        pub, sub = honest_pair(keypool)
        auditor.ingest(sub)
        clock.advance(2.0)
        auditor.poll()  # closed one-sided: the publisher looks hidden
        assert [(f.kind, f.component_id) for f in found] == [("hidden", "/pub")]
        auditor.ingest(pub)  # the counterpart arrives after all
        report = auditor.final_audit()
        batch = Auditor(keystore, TOPOLOGY).audit([sub, pub])
        assert report.classified == batch.classified
        assert report.hidden == batch.hidden == []
        assert auditor.pending_transmissions == 0
        # the pair was judged whole: the honest subscriber was never charged
        assert [(f.kind, f.component_id) for f in found] == [("hidden", "/pub")]


class TestFinalAudit:
    """``final_audit`` is the report of the fold the stream was fed to:
    what a batch audit of the same entries says, and nothing it has
    already reported is reported again."""

    def _entries(self, keypool):
        entries = []
        for seq in range(1, 9):
            pub, sub = honest_pair(keypool, seq, forge_pub_sig=(seq % 3 == 0))
            entries.extend([pub, sub])
        # one hidden subscriber entry: publisher logs, subscriber doesn't
        pub, _ = honest_pair(keypool, 9)
        entries.append(pub)
        return entries

    def test_final_audit_equals_batch_audit(self, keystore, keypool):
        entries = self._entries(keypool)
        online = OnlineAuditor(keystore, TOPOLOGY, grace_period=1.0, clock=SimulatedClock())
        for entry in entries:
            online.ingest(entry)
        report = online.final_audit()
        batch = Auditor(keystore, TOPOLOGY).audit(entries)
        assert report == batch
        assert report.hidden  # the one-sided transmissions were closed

    def test_final_audit_emits_only_fresh_findings(self, keystore, keypool):
        entries = self._entries(keypool)
        seen = []
        online = OnlineAuditor(
            keystore, TOPOLOGY, grace_period=1.0, clock=SimulatedClock(),
            on_finding=seen.append,
        )
        for entry in entries:
            online.ingest(entry)
        online.drain()
        inline_count = len(seen)
        assert inline_count > 0
        online.final_audit()
        # everything was already judged inline; the final audit must not
        # re-report the same findings
        assert len(seen) == inline_count

    def test_final_audit_equals_inline_verification(self, keystore, keypool):
        """The stream is verified as one signature batch per ingested
        entry, and must say what an audit that verifies signature by
        signature says."""
        entries = self._entries(keypool)
        online = OnlineAuditor(keystore, TOPOLOGY, clock=SimulatedClock())
        for entry in entries:
            online.ingest(entry)
        batched = online.final_audit()
        with per_signature_verification():
            inline = Auditor(keystore, TOPOLOGY).audit(entries)
        assert [(c.verdict, c.reasons) for c in batched.classified] == [
            (c.verdict, c.reasons) for c in inline.classified
        ]
        assert batched.flagged_components() == inline.flagged_components()
