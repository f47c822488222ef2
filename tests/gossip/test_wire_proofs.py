"""Proofs over the wire: fetch-and-verify clients, typed range errors.

A client must never have to trust the transport or parse a server
traceback: heads arrive signed, proofs verify locally against those
heads, and a malformed request comes back as a typed
:class:`~repro.errors.ProofError` across every backend (plain and
sharded).
"""

import pytest

from repro.core import LogServer, LogServerEndpoint
from repro.core.remote import RemoteLogger
from repro.errors import LogIntegrityError, LoggingError, ProofError
from repro.sharding import ShardedLogServer

from tests.sharding.workload import (
    GOLDEN_SHARDS_4,
    TOPICS,
    honest_pair,
    register_pair,
)


def _stream(keypool, count=8, topics=TOPICS):
    records = []
    for i in range(count):
        pub, _ = honest_pair(keypool, topics[i % len(topics)], i + 1, b"w%d" % i)
        records.append(pub.encode())
    return records


@pytest.fixture()
def plain(keypool):
    server = LogServer(signer=keypool[2].private, log_id="wire-plain")
    register_pair(server, keypool)
    endpoint = LogServerEndpoint(server)
    client = RemoteLogger(endpoint.address)
    yield server, client
    client.close()
    endpoint.close()


@pytest.fixture()
def sharded(keypool):
    server = ShardedLogServer(shards=4)
    server.attach_signer(keypool[2].private, log_id="wire-sharded")
    register_pair(server, keypool)
    endpoint = LogServerEndpoint(server)
    client = RemoteLogger(endpoint.address)
    yield server, client
    client.close()
    endpoint.close()


class TestClientVerification:
    def test_fetch_sth_matches_server_commitment(self, plain, keypool):
        server, client = plain
        records = _stream(keypool)
        for record in records:
            server.submit(record)
        sth = client.fetch_sth()
        assert sth.verify(keypool[2].public)
        assert sth.log_id == "wire-plain"
        assert sth.entries == len(records)
        assert sth.merkle_root == server.merkle_root()

    def test_inclusion_proof_verifies_against_signed_root(self, plain, keypool):
        server, client = plain
        records = _stream(keypool)
        for record in records:
            server.submit(record)
        sth = client.fetch_sth()
        for index, record in enumerate(records):
            proof = client.prove_inclusion(index, tree_size=sth.entries)
            assert proof.verify(record, sth.merkle_root)

    def test_consistency_proof_links_two_fetched_heads(self, plain, keypool):
        server, client = plain
        records = _stream(keypool)
        for record in records[:3]:
            server.submit(record)
        old = client.fetch_sth()
        for record in records[3:]:
            server.submit(record)
        new = client.fetch_sth()
        proof = client.prove_consistency(old.entries, new.entries)
        assert proof.verify(old.merkle_root, new.merkle_root)

    def test_verified_sth_requires_arming(self, plain):
        _, client = plain
        with pytest.raises(LoggingError, match="enable_sth_verification"):
            client.verified_sth()

    def test_verified_sth_challenges_growth(self, plain, keypool):
        server, client = plain
        monitor = client.enable_sth_verification(keypool[2].public)
        assert client.sth_monitor is monitor
        records = _stream(keypool)
        for record in records[:4]:
            server.submit(record)
        first = client.verified_sth()
        for record in records[4:]:
            server.submit(record)
        second = client.verified_sth()
        assert second.entries == len(records) > first.entries
        assert monitor.verified_head().entries == second.entries
        assert monitor.evidence() == []

    def test_verified_sth_rejects_wrong_identity(self, plain, keypool):
        server, client = plain
        client.enable_sth_verification(keypool[3].public)  # not the signer
        server.submit(_stream(keypool, count=1)[0])
        with pytest.raises(LogIntegrityError):
            client.verified_sth()

    def test_verify_own_entry_end_to_end(self, plain, keypool):
        server, client = plain
        client.enable_sth_verification(keypool[2].public)
        records = _stream(keypool)
        for record in records:
            server.submit(record)
        assert client.verify_own_entry(records[5], 5)
        # A record the log never saw does not verify at any index.
        stranger = _stream(keypool, count=1, topics=["/zz"])[0]
        assert not client.verify_own_entry(stranger, 5)

    def test_verify_own_entry_beyond_signed_head(self, plain, keypool):
        server, client = plain
        client.enable_sth_verification(keypool[2].public)
        record = _stream(keypool, count=1)[0]
        server.submit(record)
        with pytest.raises(ProofError, match="not covered"):
            client.verify_own_entry(record, 7)


class TestTypedErrorsPlain:
    def test_out_of_range_index_is_proof_error(self, plain, keypool):
        server, client = plain
        server.submit(_stream(keypool, count=1)[0])
        with pytest.raises(ProofError):
            client.prove_inclusion(5)
        # ...and still an IndexError for pre-gossip catch sites.
        with pytest.raises(IndexError):
            client.prove_inclusion(5)

    def test_negative_index_refused_locally(self, plain):
        _, client = plain
        with pytest.raises(ProofError, match="out of range"):
            client.prove_inclusion(-1)
        with pytest.raises(ProofError, match="out of range"):
            client.prove_consistency(-2)

    def test_consistency_range_errors_are_typed(self, plain, keypool):
        server, client = plain
        for record in _stream(keypool, count=3):
            server.submit(record)
        with pytest.raises(ProofError):
            client.prove_consistency(5, 9)  # beyond the tree
        with pytest.raises(ProofError):
            client.prove_consistency(3, 2)  # old > new

    def test_unsigned_server_refuses_sth_cleanly(self, keypool):
        server = LogServer()  # no signer attached
        endpoint = LogServerEndpoint(server)
        client = RemoteLogger(endpoint.address)
        try:
            with pytest.raises(LoggingError, match="signer"):
                client.fetch_sth()
        finally:
            client.close()
            endpoint.close()


class TestTypedErrorsSharded:
    def test_per_shard_proofs_verify(self, sharded, keypool):
        server, client = sharded
        records = _stream(keypool)
        for record in records:
            server.submit(record)
        by_shard = {}
        for i, record in enumerate(records):
            shard = GOLDEN_SHARDS_4[TOPICS[i % len(TOPICS)]]
            by_shard.setdefault(shard, []).append(record)
        for shard, shard_records in by_shard.items():
            sth = client.fetch_sth(shard=shard)
            assert sth.verify(keypool[2].public)
            assert sth.scope == shard + 1
            for index, record in enumerate(shard_records):
                proof = client.prove_inclusion(
                    index, tree_size=sth.entries, shard=shard
                )
                assert proof.verify(record, sth.merkle_root)

    def test_untargeted_proof_refused(self, sharded, keypool):
        server, client = sharded
        server.submit(_stream(keypool, count=1)[0])
        with pytest.raises(LoggingError, match="shard id"):
            client.prove_inclusion(0)
        with pytest.raises(LoggingError, match="shard id"):
            client.prove_consistency(0)

    def test_untargeted_sth_is_the_signed_set_head(self, sharded, keypool):
        server, client = sharded
        for record in _stream(keypool):
            server.submit(record)
        sth = client.fetch_sth()
        assert sth.verify(keypool[2].public)
        assert sth.scope == 0
        assert sth.merkle_root == server.commitment().root

    def test_out_of_range_shard_and_index_are_typed(self, sharded, keypool):
        server, client = sharded
        server.submit(_stream(keypool, count=1)[0])
        with pytest.raises(ProofError):
            client.prove_inclusion(0, shard=9)
        with pytest.raises(ProofError):
            client.prove_inclusion(99, shard=0)
