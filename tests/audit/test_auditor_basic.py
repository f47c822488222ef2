"""Auditor mechanics: obvious detection, topology, naive entries, replay."""

import os

import pytest

from repro.adversary import forge_impersonated_entry
from repro.audit import Auditor, EntryClass, Reason, Topology
from repro.core import LogServer
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.protocol import message_digest
from repro.errors import LogIntegrityError

from tests.helpers import run_scenario


@pytest.fixture()
def server(keypool):
    server = LogServer()
    server.register_key("/pub", keypool[0].public)
    server.register_key("/sub", keypool[1].public)
    return server


TOPOLOGY = Topology(publisher_of={"/t": "/pub"}, subscribers_of={"/t": ["/sub"]})


def signed_out_entry(keypool, component="/pub", seq=1, payload=b"data", **extra):
    digest = message_digest(seq, payload)
    return LogEntry(
        component_id=component,
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=seq,
        scheme=Scheme.ADLP,
        data=payload,
        own_sig=keypool[0].private.sign_digest(digest),
        **extra,
    )


class TestObviousDetection:
    def test_unknown_component(self, server, keypool):
        entry = signed_out_entry(keypool, component="/ghost")
        server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.UNKNOWN_COMPONENT in c.reasons

    def test_missing_commitment(self, server):
        entry = LogEntry(
            component_id="/pub",
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
        )
        server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.MISSING_COMMITMENT in c.reasons

    def test_impersonation_caught_by_signature(self, server, keypool):
        entry = forge_impersonated_entry(
            "/pub", keypool[1], "/t", "std/String", 1, b"data"
        )
        server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.BAD_OWN_SIGNATURE in c.reasons

    def test_out_entry_by_non_publisher(self, server, keypool):
        digest = message_digest(1, b"data")
        entry = LogEntry(
            component_id="/sub",  # not the topic's publisher
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
            data=b"data",
            own_sig=keypool[1].private.sign_digest(digest),
        )
        server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.NOT_TOPIC_PUBLISHER in c.reasons

    def test_duplicate_in_entries_flagged_as_replay(self, server, keypool):
        digest = message_digest(1, b"data")
        for _ in range(2):
            entry = LogEntry(
                component_id="/sub",
                topic="/t",
                type_name="std/String",
                direction=Direction.IN,
                seq=1,
                scheme=Scheme.ADLP,
                data_hash=digest,
                own_sig=keypool[1].private.sign_digest(digest),
                peer_id="/pub",
                peer_sig=keypool[0].private.sign_digest(digest),
            )
            server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        replays = [
            c
            for c in report.invalid_entries()
            if Reason.REPLAYED_SEQUENCE in c.reasons
        ]
        assert len(replays) == 1  # second copy flagged, first judged normally


class TestTypeConsistency:
    def test_type_mismatch_is_obviously_detectable(self, server, keypool):
        """Section IV-B: type(D) disagreement is caught immediately."""
        digest = message_digest(1, b"data")
        entry = LogEntry(
            component_id="/pub",
            topic="/t",
            type_name="wrong/Type",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
            data=b"data",
            own_sig=keypool[0].private.sign_digest(digest),
        )
        server.submit(entry)
        topology = Topology(
            publisher_of={"/t": "/pub"}, type_of={"/t": "std/String"}
        )
        report = Auditor.for_server(server, topology).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.TYPE_MISMATCH in c.reasons

    def test_matching_type_passes_phase1(self, server, keypool):
        digest = message_digest(1, b"data")
        entry = LogEntry(
            component_id="/pub",
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.ADLP,
            data=b"data",
            own_sig=keypool[0].private.sign_digest(digest),
        )
        server.submit(entry)
        topology = Topology(
            publisher_of={"/t": "/pub"}, type_of={"/t": "std/String"}
        )
        report = Auditor.for_server(server, topology).audit_server(server)
        [c] = report.invalid_entries()
        # fails later (no ACK), but not on the type check
        assert Reason.TYPE_MISMATCH not in c.reasons


class TestNaiveEntriesAreUnverifiable:
    def test_naive_scheme_cannot_be_audited(self, server):
        entry = LogEntry(
            component_id="/pub",
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=1,
            scheme=Scheme.NAIVE,
            data=b"data",
        )
        server.submit(entry)
        report = Auditor.for_server(server, TOPOLOGY).audit_server(server)
        [c] = report.invalid_entries()
        assert Reason.UNVERIFIABLE_SCHEME in c.reasons


class TestTopology:
    def test_from_entries_majority_vote(self, keypool):
        result = run_scenario(keypool, publications=2)
        entries = result.server.entries()
        topology = Topology.from_entries(entries)
        assert topology.publisher_of["/t"] == "/pub"
        assert topology.subscribers_of["/t"] == ["/sub0"]

    def test_audit_without_explicit_topology(self, keypool):
        result = run_scenario(keypool, publications=2)
        report = Auditor.for_server(result.server).audit_server(result.server)
        assert report.flagged_components() == []
        assert len(report.valid_entries()) == 4


class TestStoreIntegration:
    def test_audit_server_checks_tamper_evidence_first(self, keypool):
        result = run_scenario(keypool, publications=1)
        result.server.store.tamper(0, b"rewritten history")
        with pytest.raises(LogIntegrityError):
            Auditor.for_server(result.server).audit_server(result.server)


class TestReportAccounting:
    def test_component_verdict_counts(self, keypool):
        result = run_scenario(keypool, publications=3)
        report = result.report
        assert report.components["/pub"].valid_entries == 3
        assert report.components["/pub"].invalid_entries == 0
        assert not report.components["/pub"].flagged

    def test_reasons_for(self, keypool):
        from repro.adversary import SubscriberBehavior
        from repro.adversary.behaviors import flip_first_byte

        result = run_scenario(
            keypool,
            subscriber_behaviors=[SubscriberBehavior(falsify=flip_first_byte)],
            publications=2,
        )
        reasons = result.report.reasons_for("/sub0")
        assert reasons  # at least one invalidity reason recorded


class TestBatchedVerification:
    """``audit`` verifies once, as a batch, and forgets the booleans."""

    @staticmethod
    def _pairs(keypool, count):
        from tests.audit.workload import honest_pair

        return [
            entry
            for seq in range(1, count + 1)
            for entry in honest_pair(keypool, "/t", seq, b"data-%d" % seq)
        ]

    def test_pre_pass_answers_every_check(self, server, keypool, monkeypatch):
        """Every signature the phases ask about was in the batch, also when
        the keystore hands out a fresh (equal, not identical) key object
        per lookup: the memo is keyed by the key, not by ``id(key)``."""
        from repro.crypto.keys import PublicKey

        class FreshKeys:
            def find(self, component_id):
                key = server.keystore.find(component_id)
                return None if key is None else PublicKey(key.numbers, key.scheme_name)

        entries = self._pairs(keypool, 6)
        singles = []
        original = PublicKey.verify_digest
        monkeypatch.setattr(
            PublicKey, "verify_digest",
            lambda self, d, s: singles.append(1) or original(self, d, s),
        )
        report = Auditor(FreshKeys(), TOPOLOGY).audit(entries)
        assert len(report.valid_entries()) == len(entries)
        assert not singles  # the batch goes to the scheme; no per-check fallback

    def test_feeding_k_more_entries_verifies_only_theirs(self, server, keypool, monkeypatch):
        """A fold of n entries fed k more verifies the k entries' triples,
        each once, and nothing it verified before -- also not when the
        report closes the fold."""
        from repro.audit.auditor import AuditFold
        from repro.crypto.schemes import get_scheme

        scheme = get_scheme(keypool[0].public.scheme_name)
        batches = []
        original = scheme.verify_batch
        monkeypatch.setattr(
            scheme, "verify_batch",
            lambda triples: batches.append(list(triples)) or original(triples),
        )
        entries = self._pairs(keypool, 23)
        fold = AuditFold(server.keystore, TOPOLOGY)
        fold.feed(entries[:40])
        assert len(batches) == 1
        new = entries[40:]
        fold.feed(new)
        fold.report()
        assert len(batches) == 2
        pub_key, sub_key = keypool[0].public.numbers, keypool[1].public.numbers
        expected = [
            (pub_key if entry.component_id == "/pub" else sub_key,
             entry.reported_hash(), entry.own_sig)
            for entry in new
        ]
        assert sorted(batches[1], key=repr) == sorted(expected, key=repr)
        assert fold.report() == Auditor(server.keystore, TOPOLOGY).audit(entries)

    def test_booleans_do_not_outlive_the_audit(self, server, keypool, monkeypatch):
        """The booleans live in the audit's own fold: the ``Auditor`` keeps
        nothing but its keystore and topology, also when the audit fails."""
        from repro.audit.auditor import AuditFold

        auditor = Auditor(server.keystore, TOPOLOGY)
        state = dict(vars(auditor))
        auditor.audit(self._pairs(keypool, 2))
        assert vars(auditor) == state
        monkeypatch.setattr(
            AuditFold, "report", lambda *args: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError):
            auditor.audit(self._pairs(keypool, 2))
        assert vars(auditor) == state
