"""Satellite: ``ShardedLogServer(shards=1)`` is byte-identical to a plain
``LogServer`` fed the same stream -- chain head, Merkle root, raw records,
and audit verdicts -- on randomized workloads, per-entry and batched.

A multi-shard section widens the claim: at 2 and 4 shards the *verdicts*
(order-independent) still equal the unsharded audit's, which is what makes
the shard-by-shard audit exact rather than approximate.
"""

import pytest

from repro.audit import Auditor
from repro.core import LogServer
from repro.sharding import ShardedLogServer, audit_sharded

from tests.sharding.workload import (
    build_stream,
    register_pair,
    report_summary,
    topology_for,
)


def feed_per_entry(server, records):
    for record in records:
        server.submit(record)


def feed_batched(server, records, rng):
    """Submit in random-sized batches (the group-commit path)."""
    position = 0
    while position < len(records):
        size = rng.randrange(1, 6)
        server.submit_batch(records[position : position + size])
        position += size


@pytest.fixture()
def stream(keypool, rng):
    return build_stream(keypool, rng, transmissions=30)


@pytest.fixture()
def plain(keypool, stream):
    server = LogServer()
    register_pair(server, keypool)
    feed_per_entry(server, stream)
    return server


class TestSingleShardByteIdentity:
    def test_chain_head_and_merkle_root_identical(self, keypool, stream, plain):
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        feed_per_entry(sharded, stream)

        mine = sharded.commitment().shard_commitments[0]
        theirs = plain.commitment()
        assert mine == theirs
        assert mine.chain_head == theirs.chain_head
        assert mine.merkle_root == theirs.merkle_root
        assert mine.entries == theirs.entries == len(stream)

    def test_raw_records_identical(self, keypool, stream, plain):
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        feed_per_entry(sharded, stream)
        assert sharded.shard_raw_records(0) == plain.raw_records()

    def test_batched_path_identical(self, keypool, rng, stream, plain):
        """Group commit must not perturb the chain: random batch splits
        fold to the same head as per-entry submission."""
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        feed_batched(sharded, stream, rng)
        assert sharded.commitment().shard_commitments[0] == plain.commitment()

    def test_audit_verdicts_identical(self, keypool, stream, plain):
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        feed_per_entry(sharded, stream)

        topology = topology_for()
        plain_report = Auditor(plain.keystore, topology).audit(plain.entries())
        result = audit_sharded(sharded, topology=topology)
        assert not result.tampered_shards
        assert report_summary(result.report) == report_summary(plain_report)
        # at one shard even the classification ORDER matches
        assert [c.entry for c in result.report.classified] == [
            c.entry for c in plain_report.classified
        ]

    def test_derived_topology_matches_too(self, keypool, stream, plain):
        """With no a-priori topology each side derives its own votes; the
        verdicts must still agree."""
        sharded = ShardedLogServer(shards=1)
        register_pair(sharded, keypool)
        feed_per_entry(sharded, stream)

        plain_report = Auditor.for_server(plain).audit_server(plain)
        result = audit_sharded(sharded)
        assert report_summary(result.report) == report_summary(plain_report)


class TestMultiShardVerdictEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_verdict_multiset_matches_unsharded_audit(
        self, keypool, rng, stream, plain, shards
    ):
        sharded = ShardedLogServer(shards=shards)
        register_pair(sharded, keypool)
        feed_batched(sharded, stream, rng)
        assert len(sharded) == len(plain)

        topology = topology_for()
        plain_report = Auditor(plain.keystore, topology).audit(plain.entries())
        result = audit_sharded(sharded, topology=topology)
        assert not result.tampered_shards
        assert report_summary(result.report) == report_summary(plain_report)

    def test_shard_records_partition_the_plain_log(self, keypool, stream, plain):
        sharded = ShardedLogServer(shards=4)
        register_pair(sharded, keypool)
        feed_per_entry(sharded, stream)
        scattered = [
            record
            for shard in range(4)
            for record in sharded.shard_raw_records(shard)
        ]
        assert sorted(scattered) == sorted(plain.raw_records())
