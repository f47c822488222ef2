"""Property tests for historical Merkle proofs and RFC 6962 consistency.

The gossip layer's split-view detection rests on three algebraic facts:

- ``root_at(n)`` equals the root of a fresh tree over the first ``n``
  leaves (historical roots are well-defined);
- an inclusion proof at any historical size verifies against that size's
  root, and at no other;
- a consistency proof links any two historical sizes of the same log and
  *only* those -- a truncate-and-diverge rewrite breaks it.

Randomized sizes are drawn from the session's ``PYTEST_SEED``-derived
PRNG (reproduce any failure with ``PYTEST_SEED=<n> pytest ...``);
hypothesis covers the payload-shape space on top.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleConsistencyProof,
    MerkleTree,
    leaf_hash,
)
from repro.errors import ProofError


def _payloads(n, tag=b"r"):
    return [b"%s-%06d" % (tag, i) for i in range(n)]


class TestHistoricalRoots:
    def test_empty_tree(self):
        tree = MerkleTree()
        assert tree.root() == EMPTY_ROOT
        assert tree.root_at(0) == EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert tree.root_at(1) == leaf_hash(b"only")
        assert tree.root_at(0) == EMPTY_ROOT

    def test_root_at_matches_prefix_tree(self, rng):
        n = rng.randrange(2, 80)
        payloads = _payloads(n)
        tree = MerkleTree(payloads)
        for size in sorted(rng.sample(range(n + 1), min(12, n + 1))):
            assert tree.root_at(size) == MerkleTree(payloads[:size]).root(), size

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
    def test_power_of_two_boundaries(self, n):
        payloads = _payloads(n + 1)
        tree = MerkleTree(payloads)
        # n is a complete tree; n+1 hangs one extra leaf off it.
        assert tree.root_at(n) == MerkleTree(payloads[:n]).root()
        assert tree.root_at(n + 1) == tree.root()

    def test_root_at_out_of_range(self):
        tree = MerkleTree(_payloads(3))
        with pytest.raises(ProofError):
            tree.root_at(4)
        with pytest.raises(ProofError):
            tree.root_at(-1)


class TestHistoricalInclusion:
    def test_inclusion_at_every_historical_size(self, rng):
        n = rng.randrange(2, 48)
        payloads = _payloads(n)
        tree = MerkleTree(payloads)
        for _ in range(10):
            size = rng.randrange(1, n + 1)
            index = rng.randrange(size)
            proof = tree.prove(index, tree_size=size)
            assert proof.verify(payloads[index], tree.root_at(size))

    def test_historical_proof_fails_against_other_size(self, rng):
        n = rng.randrange(3, 40)
        payloads = _payloads(n)
        tree = MerkleTree(payloads)
        size = rng.randrange(2, n + 1)
        proof = tree.prove(0, tree_size=size)
        other = rng.choice([s for s in range(1, n + 1) if s != size])
        if tree.root_at(other) != tree.root_at(size):
            assert not proof.verify(payloads[0], tree.root_at(other))

    def test_index_beyond_historical_size_refused(self):
        tree = MerkleTree(_payloads(8))
        with pytest.raises(ProofError):
            tree.prove(5, tree_size=5)
        with pytest.raises(ProofError):
            tree.prove(-1)
        with pytest.raises(ProofError):
            tree.prove(8)

    def test_prove_out_of_range_is_still_an_index_error(self):
        # ProofError subclasses IndexError: pre-gossip callers that caught
        # IndexError keep working.
        with pytest.raises(IndexError):
            MerkleTree([b"a"]).prove(1)


class TestConsistencyProofs:
    def test_every_size_pair_links(self, rng):
        n = rng.randrange(2, 56)
        tree = MerkleTree(_payloads(n))
        for _ in range(14):
            old = rng.randrange(0, n + 1)
            new = rng.randrange(old, n + 1)
            proof = tree.prove_consistency(old, new)
            assert proof.verify(tree.root_at(old), tree.root_at(new)), (old, new)

    def test_empty_and_single_leaf_edges(self):
        tree = MerkleTree(_payloads(5))
        assert tree.prove_consistency(0, 5).verify(EMPTY_ROOT, tree.root())
        p = tree.prove_consistency(1, 5)
        assert p.verify(tree.root_at(1), tree.root())
        same = tree.prove_consistency(5, 5)
        assert same.verify(tree.root(), tree.root())
        assert not same.verify(tree.root(), EMPTY_ROOT)

    @pytest.mark.parametrize("old", [1, 2, 4, 8, 16])
    def test_power_of_two_old_sizes(self, old):
        # A complete old tree is its own single subproof node.
        tree = MerkleTree(_payloads(17))
        proof = tree.prove_consistency(old, 17)
        assert proof.verify(tree.root_at(old), tree.root())

    def test_swapped_roots_fail(self, rng):
        n = rng.randrange(3, 40)
        tree = MerkleTree(_payloads(n))
        old = rng.randrange(1, n)
        proof = tree.prove_consistency(old, n)
        if tree.root_at(old) != tree.root():
            assert not proof.verify(tree.root(), tree.root_at(old))

    def test_forked_log_fails_consistency(self, rng):
        """The split-view core: rewrite one record past a common prefix
        and the honest old root no longer links to the forked new root."""
        n = rng.randrange(4, 40)
        payloads = _payloads(n)
        fork_at = rng.randrange(1, n)
        forked = list(payloads)
        forked[fork_at] = b"tampered"
        honest, lie = MerkleTree(payloads), MerkleTree(forked)
        for old in range(fork_at + 1, n + 1):
            proof = lie.prove_consistency(old, n)
            assert not proof.verify(honest.root_at(old), lie.root()), old

    def test_out_of_range_pairs_refused(self):
        tree = MerkleTree(_payloads(6))
        with pytest.raises(ProofError):
            tree.prove_consistency(4, 3)  # old > new
        with pytest.raises(ProofError):
            tree.prove_consistency(2, 7)  # new beyond the tree
        with pytest.raises(ProofError):
            tree.prove_consistency(-1, 3)

    @given(
        st.lists(st.binary(max_size=12), min_size=0, max_size=40),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_consistency_property(self, payloads, data):
        tree = MerkleTree(payloads)
        n = len(payloads)
        old = data.draw(st.integers(min_value=0, max_value=n))
        new = data.draw(st.integers(min_value=old, max_value=n))
        proof = tree.prove_consistency(old, new)
        assert proof.verify(tree.root_at(old), tree.root_at(new))

    def test_frontier_agrees_with_historical_roots(self, rng):
        """The incremental frontier (what LogServer signs from) equals
        the batch tree's root at every prefix."""
        n = rng.randrange(1, 48)
        payloads = _payloads(n)
        tree = MerkleTree(payloads)
        frontier = MerkleTree().frontier()
        for size, payload in enumerate(payloads, start=1):
            frontier.append(payload)
            assert frontier.root() == tree.root_at(size), size


class TestConsistencyProofWireShape:
    def test_proof_carries_its_claim(self):
        tree = MerkleTree(_payloads(9))
        proof = tree.prove_consistency(3, 9)
        assert isinstance(proof, MerkleConsistencyProof)
        assert proof.old_size == 3 and proof.new_size == 9
        assert all(isinstance(h, bytes) and len(h) == 32 for h in proof.path)
