"""Signed tree heads and equivocation evidence: the static artifacts.

Signing, verification, wire round-trips, conflict semantics, and the
self-contained evidence object a conviction rests on.
"""

import pytest

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.errors import DecodingError, LoggingError
from repro.gossip import (
    EquivocationEvidence,
    SignedTreeHead,
    issue_sth,
    make_evidence,
    require_valid,
)
from repro.gossip.evidence import KIND_FORK


def entry(seq, component="/p", topic="/t"):
    return LogEntry(
        component_id=component, topic=topic, type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=b"payload-%d" % seq,
    )


@pytest.fixture()
def signer(keypool):
    return keypool[0].private


class TestSignedTreeHead:
    def test_sign_and_verify(self, signer, keypool):
        sth = issue_sth(signer, "log-1", 7, b"h" * 32, b"r" * 32)
        assert sth.verify(signer.public_key)
        assert not sth.verify(keypool[1].public)
        assert sth.key_fingerprint == signer.public_key.fingerprint()

    def test_signature_covers_every_field(self, signer):
        base = issue_sth(signer, "log-1", 7, b"h" * 32, b"r" * 32, timestamp=5.0)
        for field, value in [
            ("log_id", "log-2"),
            ("entries", 8),
            ("chain_head", b"x" * 32),
            ("merkle_root", b"x" * 32),
            ("timestamp", 6.0),
        ]:
            tampered = SignedTreeHead.from_bytes(base.to_bytes())
            setattr(tampered, field, value)
            assert not tampered.verify(signer.public_key), field

    def test_wire_round_trip(self, signer):
        sth = issue_sth(signer, "log-9", 42, b"h" * 32, b"r" * 32)
        back = SignedTreeHead.from_bytes(sth.to_bytes())
        assert back.log_id == "log-9"
        assert back.entries == 42
        assert back.verify(signer.public_key)

    def test_malformed_bytes_rejected(self):
        with pytest.raises(DecodingError):
            SignedTreeHead.from_bytes(b"\xff\xff not a head")
        with pytest.raises(DecodingError):
            SignedTreeHead.from_bytes(SignedTreeHead(log_id="x").encode())

    def test_conflicts_with(self, signer):
        a = issue_sth(signer, "log-1", 5, b"h" * 32, b"r" * 32)
        forked = issue_sth(signer, "log-1", 5, b"h" * 32, b"R" * 32)
        later = issue_sth(signer, "log-1", 6, b"h" * 32, b"r" * 32)
        other_log = issue_sth(signer, "log-2", 5, b"h" * 32, b"R" * 32)
        assert a.conflicts_with(forked) and forked.conflicts_with(a)
        assert not a.conflicts_with(a)
        assert not a.conflicts_with(later)
        assert not a.conflicts_with(other_log)

    def test_require_valid(self, signer, keypool):
        sth = issue_sth(signer, "log-1", 1, b"h" * 32, b"r" * 32)
        assert require_valid(sth, signer.public_key) is sth
        with pytest.raises(LoggingError):
            require_valid(sth, keypool[1].public)


class TestLogServerSth:
    def test_server_signs_its_commitment(self, signer):
        server = LogServer(signer=signer)
        for i in range(3):
            server.submit(entry(i))
        sth = server.signed_tree_head(timestamp=1.0)
        assert sth.verify(signer.public_key)
        assert sth.entries == 3
        assert sth.chain_head == server.store.head()
        assert sth.merkle_root == server.merkle_root()

    def test_unsigned_server_refuses(self):
        with pytest.raises(LoggingError, match="signer"):
            LogServer().signed_tree_head()

    def test_attach_signer_later(self, signer):
        server = LogServer()
        server.attach_signer(signer, log_id="late")
        assert server.signed_tree_head().log_id == "late"


class TestEvidence:
    def test_evidence_verifies_and_round_trips(self, signer):
        a = issue_sth(signer, "log-1", 5, b"h" * 32, b"r" * 32)
        b = issue_sth(signer, "log-1", 5, b"h" * 32, b"R" * 32)
        ev = make_evidence(KIND_FORK, a, b, detail="d", sources=("x", "y"))
        assert ev.verify(signer.public_key)
        assert ev.log_id == "log-1"
        back = EquivocationEvidence.from_bytes(ev.to_bytes())
        assert back.kind == KIND_FORK
        assert back.verify(signer.public_key)
        assert back.first.merkle_root == ev.first.merkle_root
        assert back.sources == ("x", "y")

    def test_evidence_rejects_wrong_key_and_shape(self, signer, keypool):
        a = issue_sth(signer, "log-1", 5, b"h" * 32, b"r" * 32)
        b = issue_sth(signer, "log-1", 5, b"h" * 32, b"R" * 32)
        ev = make_evidence(KIND_FORK, a, b)
        assert not ev.verify(keypool[1].public)
        # A non-conflicting pair is not fork evidence, however signed.
        c = issue_sth(signer, "log-1", 6, b"h" * 32, b"r" * 32)
        bogus = make_evidence(KIND_FORK, a, c)
        assert not bogus.verify(signer.public_key)
