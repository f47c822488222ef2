"""LogServer's one Merkle tree: rollback, proofs beside a writer, signing
outside the ingest lock, and clients that refuse a proof for another position.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import LogServer, LogServerEndpoint
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_store import InMemoryLogStore
from repro.core.remote import RemoteLogger
from repro.crypto.merkle import MerkleProof
from repro.errors import LoggingError

JOIN_TIMEOUT = 60.0


def make_entry(i: int) -> LogEntry:
    return LogEntry(
        component_id="/pub%d" % (i % 3),
        topic="/t",
        type_name="std/String",
        direction=Direction.OUT,
        seq=i,
        timestamp=float(i),
        scheme=Scheme.ADLP,
        data=b"payload-%04d" % i,
        own_sig=b"\x5a" * 16,
    )


def batches(count: int, size: int):
    return [
        [make_entry(b * size + i) for i in range(size)] for b in range(count)
    ]


class FailingStore(InMemoryLogStore):
    """Fails the ``fail_on``-th ``append_batch`` after landing ``landed``
    records of it (0: an atomic group commit that kept nothing)."""

    def __init__(self, fail_on: int, landed: int):
        super().__init__()
        self._calls = 0
        self._fail_on = fail_on
        self._landed = landed

    def append_batch(self, records):
        self._calls += 1
        if self._calls == self._fail_on:
            super().append_batch(records[: self._landed])
            raise IOError("disk died mid-batch")
        return super().append_batch(records)


def everything_provable(server: LogServer, heads):
    """Every proof a holder of ``heads`` (``size -> root``) could ask for."""
    sizes = sorted(heads)
    answers = {}
    for size in sizes:
        answers["root", size] = heads[size]
        for index in range(size):
            answers["inclusion", index, size] = server.prove_inclusion(index, size)
        for old in sizes:
            if old <= size:
                answers["consistency", old, size] = server.prove_consistency(old, size)
    return answers


class TestRollback:
    @pytest.mark.parametrize("landed", [0, 3])
    def test_failed_batch_leaves_every_earlier_proof_unchanged(self, keypool, landed):
        signer = keypool[0].private
        server = LogServer(FailingStore(fail_on=5, landed=landed), signer=signer)
        reference = LogServer(signer=signer)
        stream = batches(8, 7)
        heads = {}
        for batch in stream[:4]:
            server.submit_batch(batch)
            sth = server.signed_tree_head(timestamp=0.0)
            heads[sth.entries] = sth.merkle_root
        before = everything_provable(server, heads)

        with pytest.raises(IOError):
            server.submit_batch(stream[4])
        assert len(server) == 28 + landed
        assert everything_provable(server, heads) == before

        # the log goes on as if the failed batch had only ever been its
        # landed prefix: same heads and proofs as a server that never failed
        for batch in stream[:4] + [stream[4][:landed]] + stream[5:]:
            reference.submit_batch(batch)
        for batch in stream[5:]:
            server.submit_batch(batch)
        assert server.commitment() == reference.commitment()
        assert (
            server.signed_tree_head(timestamp=0.0).to_bytes()
            == reference.signed_tree_head(timestamp=0.0).to_bytes()
        )
        heads[len(server)] = server.merkle_root()
        assert everything_provable(server, heads) == everything_provable(reference, heads)
        for (kind, *where), proof in before.items():
            if kind == "inclusion":
                index, size = where
                record = server.raw_records(index, 1)[0]
                assert proof.verify(record, heads[size])
        server.verify_integrity()


class TestProofsBesideAWriter:
    def test_every_proof_verifies_against_the_head_it_was_asked_for(self, keypool, rng):
        key = keypool[0]
        server = LogServer(signer=key.private)
        stream = batches(120, 8)
        records = [entry.encode() for batch in stream for entry in batch]
        server.submit_batch(stream[0])
        failures = []
        proofs = 0

        def writer():
            try:
                for batch in stream[1:]:
                    server.submit_batch(batch)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        def prover():
            nonlocal proofs
            try:
                previous = server.signed_tree_head()
                for _ in range(150):
                    sth = server.signed_tree_head()
                    index = rng.randrange(sth.entries)
                    inclusion = server.prove_inclusion(index, sth.entries)
                    growth = server.prove_consistency(previous.entries, sth.entries)
                    if not (
                        sth.verify(key.public)
                        and inclusion.verify(records[index], sth.merkle_root)
                        and growth.verify(previous.merkle_root, sth.merkle_root)
                    ):
                        failures.append((index, previous.entries, sth.entries))
                    previous = sth
                    proofs += 1
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer), threading.Thread(target=prover)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert proofs == 150
        assert len(server) == len(records)
        final = server.signed_tree_head()
        for index in (0, len(records) // 2, len(records) - 1):
            assert server.prove_inclusion(index, final.entries).verify(
                records[index], final.merkle_root
            )


class SigningProbe:
    """A logger identity whose ``sign`` runs ``during`` mid-signature."""

    def __init__(self, key, during):
        self._key = key
        self._during = during
        self.public_key = key.public_key

    def sign(self, payload: bytes) -> bytes:
        self._during()
        return self._key.sign(payload)


class TestSigningOutsideTheLock:
    def test_ingest_proceeds_while_a_tree_head_is_being_signed(self, keypool):
        first, second = keypool[0], keypool[1]
        server = LogServer()
        ingested = []

        def during_signature():
            # were the ingest lock still held, this submit could not finish
            submitter = threading.Thread(
                target=lambda: ingested.append(server.submit(make_entry(99)))
            )
            submitter.start()
            submitter.join(JOIN_TIMEOUT)
            assert not submitter.is_alive(), "submit blocked behind the STH signature"
            server.attach_signer(second.private, log_id="second")

        server.attach_signer(SigningProbe(first.private, during_signature), log_id="first")
        server.submit(make_entry(1))
        root = server.merkle_root()
        sth = server.signed_tree_head()
        assert ingested == [1]
        # the head is the snapshot taken before the signature, under the
        # identity read with it -- not a mix with the one attached meanwhile
        assert (sth.log_id, sth.entries, sth.merkle_root) == ("first", 1, root)
        assert sth.verify(first.public) and not sth.verify(second.public)
        later = server.signed_tree_head()
        assert (later.log_id, later.entries) == ("second", 2)
        assert later.verify(second.public)

    def test_no_signer_still_refuses(self):
        with pytest.raises(LoggingError):
            LogServer().signed_tree_head()


class RelabellingServer(LogServer):
    """A logger that answers a proof request with the neighbour's proof."""

    honest_labels = False

    def prove_inclusion(self, index, tree_size=None):
        proof = super().prove_inclusion(index + 1, tree_size)
        if self.honest_labels:
            return proof
        return MerkleProof(index, proof.tree_size, proof.path)

    def prove_consistency(self, old_size, new_size=None):
        return super().prove_consistency(old_size + 1, new_size)


class TestClientRefusesAnotherPosition:
    @pytest.fixture()
    def lying(self, keypool):
        server = RelabellingServer(signer=keypool[0].private)
        for batch in batches(2, 4):
            server.submit_batch(batch)
        endpoint = LogServerEndpoint(server)
        client = RemoteLogger(endpoint.address)
        client.enable_sth_verification(keypool[0].public)
        yield server, client
        client.close()
        endpoint.close()

    def test_echo_of_another_index_or_size_raises(self, lying):
        server, client = lying
        server.honest_labels = True
        with pytest.raises(LoggingError, match="leaf 2 at size 8, got one for leaf 3"):
            client.prove_inclusion(2, tree_size=8)
        with pytest.raises(LoggingError, match="2 -> 8, got one for 3 -> 8"):
            client.prove_consistency(2, 8)

    def test_relabelled_neighbour_proof_does_not_verify(self, lying):
        server, client = lying
        record = server.raw_records(3, 1)[0]
        # the path is a genuine one for leaf 3; it is offered for leaf 2
        assert LogServer.prove_inclusion(server, 3, 8).verify(record, server.merkle_root())
        assert client.prove_inclusion(2, tree_size=8).path == server.prove_inclusion(2, 8).path
        assert not client.verify_own_entry(record, 2)
