"""GossipRelay: pooling, cross-checking, and split-view conviction."""

import pytest

from repro.crypto.merkle import MerkleTree
from repro.errors import LogIntegrityError
from repro.gossip import (
    GossipRelay,
    SignedTreeHead,
    TreeHeadMonitor,
    gossip_round,
    issue_sth,
)
from repro.gossip.evidence import KIND_CONSISTENCY, KIND_FORK


@pytest.fixture()
def signer(keypool):
    return keypool[0].private


def head(signer, entries, root, log_id="log-1", chain=None):
    return issue_sth(signer, log_id, entries, chain or root, root)


class TestObserve:
    def test_fork_detected_across_sources(self, signer):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        assert relay.observe(head(signer, 5, b"a" * 32), "x") == []
        evidence = relay.observe(head(signer, 5, b"b" * 32), "y")
        assert len(evidence) == 1
        ev = evidence[0]
        assert ev.kind == KIND_FORK
        assert ev.verify(signer.public_key)
        assert set(ev.sources) == {"x", "y"}

    def test_identical_head_is_not_evidence(self, signer):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        sth = head(signer, 5, b"a" * 32)
        relay.observe(sth)
        assert relay.observe(SignedTreeHead.from_bytes(sth.to_bytes())) == []

    def test_duplicate_conviction_deduped(self, signer):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        relay.observe(head(signer, 5, b"a" * 32))
        assert relay.observe(head(signer, 5, b"b" * 32))
        assert relay.observe(head(signer, 5, b"b" * 32)) == []
        assert len(relay.evidence()) == 1

    def test_forged_head_dropped_not_convicting(self, signer, keypool):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        relay.observe(head(signer, 5, b"a" * 32))
        forged = head(keypool[1].private, 5, b"b" * 32)  # wrong key, same log
        assert relay.observe(forged) == []
        assert relay.evidence() == []
        assert relay.stats()["rejected_heads"] == 1

    def test_unverifiable_conflict_convicts_nobody(self, signer):
        # No registered key: the conflicting pair is pooled but produces
        # no evidence -- anyone could have forged one side.
        relay = GossipRelay("r")
        relay.observe(head(signer, 5, b"a" * 32))
        assert relay.observe(head(signer, 5, b"b" * 32)) == []
        assert relay.evidence() == []
        # Registering the key and re-gossiping the same heads convicts.
        relay.register_key("log-1", signer.public_key)
        assert relay.observe(head(signer, 5, b"b" * 32))

    def test_logs_are_independent(self, signer, keypool):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        relay.register_key("log-2", keypool[1].private.public_key)
        relay.observe(head(signer, 5, b"a" * 32))
        assert relay.observe(head(keypool[1].private, 5, b"b" * 32, log_id="log-2")) == []

    def test_listener_fires_once_per_evidence(self, signer):
        relay = GossipRelay("r")
        relay.register_key("log-1", signer.public_key)
        seen = []
        relay.add_listener(seen.append)
        relay.observe(head(signer, 5, b"a" * 32))
        relay.observe(head(signer, 5, b"b" * 32))
        relay.observe(head(signer, 5, b"b" * 32))
        assert len(seen) == 1

    def test_history_eviction(self, signer):
        relay = GossipRelay("r", history_limit=4)
        relay.register_key("log-1", signer.public_key)
        for n in range(1, 10):
            relay.observe(head(signer, n, bytes([n]) * 32))
        assert relay.stats()["heads"] == 4
        assert relay.latest("log-1").entries == 9


class TestConsistencyChallenge:
    def test_append_only_growth_passes(self, signer):
        payloads = [b"r%d" % i for i in range(8)]
        tree = MerkleTree(payloads)
        relay = GossipRelay(
            "r",
            consistency_prover=lambda old, new: tree.prove_consistency(
                old.entries, new.entries
            ),
        )
        relay.register_key("log-1", signer.public_key)
        relay.observe(head(signer, 4, tree.root_at(4)))
        assert relay.observe(head(signer, 8, tree.root_at(8))) == []
        assert relay.evidence() == []

    def test_rewritten_history_convicted(self, signer):
        honest = MerkleTree([b"r%d" % i for i in range(8)])
        rewritten = MerkleTree([b"x%d" % i for i in range(8)])
        relay = GossipRelay(
            "r",
            consistency_prover=lambda old, new: rewritten.prove_consistency(
                old.entries, new.entries
            ),
        )
        relay.register_key("log-1", signer.public_key)
        relay.observe(head(signer, 4, honest.root_at(4)))
        evidence = relay.observe(head(signer, 8, rewritten.root_at(8)))
        assert len(evidence) == 1
        assert evidence[0].kind == KIND_CONSISTENCY
        assert evidence[0].verify(signer.public_key)

    def test_refusing_the_challenge_is_evidence(self, signer):
        def refuse(old, new):
            raise RuntimeError("no proof for you")

        relay = GossipRelay("r", consistency_prover=refuse)
        relay.register_key("log-1", signer.public_key)
        relay.observe(head(signer, 4, b"a" * 32))
        evidence = relay.observe(head(signer, 8, b"b" * 32))
        assert len(evidence) == 1
        assert evidence[0].kind == KIND_CONSISTENCY
        assert "failed the consistency challenge" in evidence[0].detail


class TestExchange:
    def test_exchange_unions_pools_and_detects(self, signer):
        a, b = GossipRelay("a"), GossipRelay("b")
        for relay in (a, b):
            relay.register_key("log-1", signer.public_key)
        a.observe(head(signer, 5, b"a" * 32), "group-a")
        b.observe(head(signer, 5, b"b" * 32), "group-b")
        evidence = a.exchange(b)
        assert evidence
        assert a.evidence() and b.evidence()
        assert a.stats()["rounds"] == 1 and b.stats()["rounds"] == 1

    def test_ring_round_bounds_detection(self, signer):
        relays = [GossipRelay(f"n{i}") for i in range(5)]
        for relay in relays:
            relay.register_key("log-1", signer.public_key)
        relays[0].observe(head(signer, 5, b"a" * 32), "east")
        relays[3].observe(head(signer, 5, b"b" * 32), "west")
        rounds = 0
        while not any(r.evidence() for r in relays):
            assert rounds < 3, "ring of 5 must connect within ceil(5/2) rounds"
            gossip_round(relays)
            rounds += 1
        assert rounds <= 3

    def test_single_relay_round_is_a_no_op(self, signer):
        relay = GossipRelay("solo")
        assert gossip_round([relay]) == []
        assert relay.stats()["rounds"] == 0


class TestMonitor:
    def test_caches_newest_verified_head(self, signer):
        monitor = TreeHeadMonitor(signer.public_key)
        tree = MerkleTree([b"r%d" % i for i in range(6)])
        prover = lambda old, new: tree.prove_consistency(old, new)
        monitor.observe(head(signer, 3, tree.root_at(3)), prover)
        monitor.observe(head(signer, 6, tree.root_at(6)), prover)
        assert monitor.verified_head().entries == 6
        # An older (still consistent) head does not regress the cache.
        monitor.observe(head(signer, 3, tree.root_at(3)), prover)
        assert monitor.verified_head().entries == 6

    def test_bad_signature_raises(self, signer, keypool):
        monitor = TreeHeadMonitor(keypool[1].public)
        with pytest.raises(LogIntegrityError):
            monitor.observe(head(signer, 3, b"a" * 32))
        assert monitor.verified_head() is None

    def test_fork_raises_and_records(self, signer):
        monitor = TreeHeadMonitor(signer.public_key)
        monitor.observe(head(signer, 3, b"a" * 32))
        with pytest.raises(LogIntegrityError, match="equivocated"):
            monitor.observe(head(signer, 3, b"b" * 32))
        assert len(monitor.evidence()) == 1
        assert monitor.evidence()[0].verify(signer.public_key)
        # The lying head never enters the cache.
        assert monitor.verified_head().merkle_root == b"a" * 32

    def test_non_append_only_growth_raises(self, signer):
        honest = MerkleTree([b"r%d" % i for i in range(4)])
        rewritten = MerkleTree([b"x%d" % i for i in range(8)])
        monitor = TreeHeadMonitor(signer.public_key)
        monitor.observe(head(signer, 4, honest.root()))
        with pytest.raises(LogIntegrityError, match="append-only"):
            monitor.observe(
                head(signer, 8, rewritten.root()),
                lambda old, new: rewritten.prove_consistency(old, new),
            )
        assert monitor.evidence()[0].kind == KIND_CONSISTENCY
