"""MerkleFrontier: equivalence with the full tree, serialization, validation."""

from __future__ import annotations

import pytest

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleFrontier,
    MerkleTree,
    leaf_hash,
)
from repro.errors import LogIntegrityError


def payloads(n: int):
    return [b"record-%04d" % i for i in range(n)]


class TestTreeEquivalence:
    @pytest.mark.parametrize("n", list(range(0, 18)) + [31, 32, 33, 64, 65])
    def test_root_matches_full_tree_at_every_size(self, n):
        """The frontier must reproduce the promote-the-odd-node (RFC 6962)
        shape exactly -- including awkward sizes like 2^k +/- 1."""
        frontier = MerkleFrontier()
        for payload in payloads(n):
            frontier.append(payload)
        assert len(frontier) == n
        assert frontier.root() == MerkleTree(payloads(n)).root()

    def test_empty_root(self):
        assert MerkleFrontier().root() == EMPTY_ROOT

    def test_from_leaf_hashes(self):
        leaves = [leaf_hash(p) for p in payloads(13)]
        frontier = MerkleFrontier.from_leaf_hashes(leaves)
        assert frontier.root() == MerkleTree(payloads(13)).root()

    def test_continue_from_checkpointed_frontier(self):
        """The recovery pattern: restore the frontier at a checkpoint and
        append the replayed tail on top."""
        frontier = MerkleFrontier()
        for payload in payloads(10):
            frontier.append(payload)
        restored = MerkleFrontier.from_bytes(frontier.to_bytes())
        for payload in payloads(17)[10:]:
            restored.append(payload)
        assert restored.root() == MerkleTree(payloads(17)).root()


class TestSerialization:
    @pytest.mark.parametrize("n", [0, 1, 7, 16, 21])
    def test_round_trip(self, n):
        frontier = MerkleFrontier()
        for payload in payloads(n):
            frontier.append(payload)
        restored = MerkleFrontier.from_bytes(frontier.to_bytes())
        assert len(restored) == n
        assert restored.root() == frontier.root()

    def test_truncated_blob_is_rejected(self):
        frontier = MerkleFrontier()
        for payload in payloads(5):
            frontier.append(payload)
        with pytest.raises(LogIntegrityError):
            MerkleFrontier.from_bytes(frontier.to_bytes()[:-1])

    def test_non_power_of_two_peak_is_rejected(self):
        with pytest.raises(LogIntegrityError):
            MerkleFrontier([(3, b"\x00" * 32)])

    def test_non_shrinking_peaks_are_rejected(self):
        with pytest.raises(LogIntegrityError):
            MerkleFrontier([(2, b"\x00" * 32), (2, b"\x11" * 32)])

    def test_short_digest_is_rejected(self):
        with pytest.raises(LogIntegrityError):
            MerkleFrontier([(4, b"\x00" * 16)])


class TestCopy:
    def test_copy_is_independent(self):
        frontier = MerkleFrontier()
        for payload in payloads(6):
            frontier.append(payload)
        snapshot = frontier.copy()
        frontier.append(b"after-snapshot")
        assert len(snapshot) == 6
        assert snapshot.root() == MerkleTree(payloads(6)).root()
        assert snapshot.root() != frontier.root()


class TestTreeRollbackHelpers:
    def test_frontier_snapshot_of_tree(self):
        tree = MerkleTree(payloads(11))
        assert tree.frontier().root() == tree.root()
        assert len(tree.frontier()) == 11
