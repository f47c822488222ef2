"""Amortized verification: the online auditor's sampling mode.

With ``verify_sample_rate < 1`` only a fraction of completed
transmissions is judged inline; everything else waits for
:meth:`OnlineAuditor.final_audit`, which batch-audits the full ingest
history.  The invariant: sampling trades detection *latency*, never
detection itself -- the final audit must equal an unsampled batch audit
of the same entries.
"""

import pytest

from repro.audit.auditor import Auditor, Topology
from repro.audit.online import OnlineAuditor
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest
from repro.crypto.keystore import KeyStore
from repro.util.clock import SimulatedClock
from tests.audit.reference import per_signature_verification

TOPOLOGY = Topology(publisher_of={"/t": "/pub"})


@pytest.fixture()
def keystore(keypool):
    store = KeyStore()
    store.register("/pub", keypool[0].public)
    store.register("/sub", keypool[1].public)
    return store


def make_pair(keypool, seq, payload=None, forge_pub_sig=False):
    payload = payload if payload is not None else b"data-%d" % seq
    digest = message_digest(seq, payload)
    s_x = keypool[0].private.sign_digest(digest)
    s_y = keypool[1].private.sign_digest(digest)
    own_sig = s_x
    if forge_pub_sig:
        corrupted = bytearray(s_x)
        corrupted[0] ^= 0x01
        own_sig = bytes(corrupted)
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


class TestSamplingGate:
    def test_rate_validation(self, keystore):
        with pytest.raises(ValueError):
            OnlineAuditor(keystore, verify_sample_rate=1.5)
        with pytest.raises(ValueError):
            OnlineAuditor(keystore, verify_sample_rate=-0.1)

    def test_rate_one_samples_everything(self, keystore, keypool, deterministic_seed):
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, clock=SimulatedClock(),
            verify_sample_rate=1.0, sample_seed=deterministic_seed,
        )
        for seq in range(1, 6):
            pub, sub = make_pair(keypool, seq)
            auditor.ingest(pub)
            auditor.ingest(sub)
        assert auditor.sampled_transmissions == 5
        assert auditor.deferred_transmissions == 0
        assert auditor.judged_entries == 10

    def test_rate_zero_defers_everything(self, keystore, keypool, deterministic_seed):
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, clock=SimulatedClock(),
            verify_sample_rate=0.0, sample_seed=deterministic_seed,
        )
        for seq in range(1, 6):
            pub, sub = make_pair(keypool, seq, forge_pub_sig=True)
            auditor.ingest(pub)
            auditor.ingest(sub)
        assert auditor.sampled_transmissions == 0
        assert auditor.deferred_transmissions == 5
        assert auditor.findings == []  # nothing verified inline...
        report = auditor.final_audit()
        assert "/pub" in report.flagged_components()  # ...but nothing escapes
        assert any(f.component_id == "/pub" for f in auditor.findings)

    def test_partial_rate_splits_deterministically(
        self, keystore, keypool, deterministic_seed
    ):
        auditor = OnlineAuditor(
            keystore, TOPOLOGY, clock=SimulatedClock(),
            verify_sample_rate=0.4, sample_seed=deterministic_seed,
        )
        for seq in range(1, 21):
            pub, sub = make_pair(keypool, seq)
            auditor.ingest(pub)
            auditor.ingest(sub)
        assert auditor.sampled_transmissions + auditor.deferred_transmissions == 20
        assert 0 < auditor.sampled_transmissions < 20

        # the same seed gives the same split
        again = OnlineAuditor(
            keystore, TOPOLOGY, clock=SimulatedClock(),
            verify_sample_rate=0.4, sample_seed=deterministic_seed,
        )
        for seq in range(1, 21):
            pub, sub = make_pair(keypool, seq)
            again.ingest(pub)
            again.ingest(sub)
        assert again.sampled_transmissions == auditor.sampled_transmissions


class TestFinalAudit:
    def _entries(self, keypool):
        entries = []
        for seq in range(1, 9):
            pub, sub = make_pair(keypool, seq, forge_pub_sig=(seq % 3 == 0))
            entries.extend([pub, sub])
        # one hidden subscriber entry: publisher logs, subscriber doesn't
        pub, _ = make_pair(keypool, 9)
        entries.append(pub)
        return entries

    def test_final_audit_equals_batch_audit(
        self, keystore, keypool, deterministic_seed
    ):
        entries = self._entries(keypool)
        online = OnlineAuditor(
            keystore, TOPOLOGY, grace_period=1.0, clock=SimulatedClock(),
            verify_sample_rate=0.25, sample_seed=deterministic_seed,
        )
        for entry in entries:
            online.ingest(entry)
        report = online.final_audit()
        batch = Auditor(keystore, TOPOLOGY).audit(entries)

        def signature(r):
            return sorted(
                (c.entry.component_id, c.entry.seq, c.verdict.name, c.reasons)
                for c in r.classified
            )

        assert signature(report) == signature(batch)
        assert sorted(h.component_id for h in report.hidden) == sorted(
            h.component_id for h in batch.hidden
        )

    def test_final_audit_emits_only_fresh_findings(
        self, keystore, keypool, deterministic_seed
    ):
        entries = self._entries(keypool)
        seen = []
        online = OnlineAuditor(
            keystore, TOPOLOGY, grace_period=1.0, clock=SimulatedClock(),
            verify_sample_rate=1.0, sample_seed=deterministic_seed,
            on_finding=seen.append,
        )
        for entry in entries:
            online.ingest(entry)
        online.drain()
        inline_count = len(seen)
        online.final_audit()
        # everything was already verified inline; the final audit must not
        # re-report the same findings
        assert len(seen) == inline_count

    def test_final_audit_equals_inline_verification(
        self, keystore, keypool, deterministic_seed
    ):
        """Nothing judged inline: the final audit verifies the whole
        history as one signature batch, and must say what an audit that
        verifies signature by signature says."""
        entries = self._entries(keypool)
        online = OnlineAuditor(
            keystore, TOPOLOGY, clock=SimulatedClock(),
            verify_sample_rate=0.0, sample_seed=deterministic_seed,
        )
        for entry in entries:
            online.ingest(entry)
        batched = online.final_audit()
        with per_signature_verification():
            inline = Auditor(keystore, TOPOLOGY).audit(entries)
        assert [(c.verdict, c.reasons) for c in batched.classified] == [
            (c.verdict, c.reasons) for c in inline.classified
        ]
        assert batched.flagged_components() == inline.flagged_components()
