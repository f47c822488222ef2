"""The incremental MerkleTree: byte identity with the recursive reference,
hash-count complexity, and proofs bound to their position.

Three claims, three kinds of test:

- *Differential.*  For any interleaving of ``append`` and ``truncate``, every
  root, historical root, inclusion proof, consistency proof and frontier
  serialisation equals what ``tests/crypto/reference_merkle.py`` (the O(n)
  recursion this tree replaced) computes over the same leaves.
- *Complexity.*  Counted in ``node_hash`` / ``leaf_hash`` calls, not seconds:
  proofs cost O(log n) node hashes and no leaf hash, appends amortise to
  two hashes.
- *Position binding.*  ``MerkleProof.verify`` accepts a path only for the
  ``(leaf_index, tree_size)`` it was built for.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.merkle as merkle
from repro.crypto.merkle import MerkleProof, MerkleTree

from tests.crypto.reference_merkle import ReferenceMerkleTree


def payload(i: int) -> bytes:
    return b"record-%06d" % i


def assert_same_tree(tree: MerkleTree, reference: ReferenceMerkleTree) -> None:
    """Everything the tree can be asked, at every size and index it holds."""
    n = len(reference)
    assert len(tree) == n
    assert tree.root() == reference.root()
    assert tree.frontier().to_bytes() == reference.frontier().to_bytes()
    for m in range(n + 1):
        assert tree.root_at(m) == reference.root_at(m), m
        assert tree.prove_consistency(m, n) == reference.prove_consistency(m, n), (m, n)
        for i in range(m):
            assert tree.prove(i, m) == reference.prove(i, m), (i, m)


class TestDifferential:
    def test_every_question_up_to_200_leaves(self):
        """Grow to 200 leaves comparing the live root and frontier at each
        size, then ask the grown tree everything about its whole history:
        every ``(i, m)`` inclusion proof and ``(m, n)`` consistency proof."""
        tree, reference = MerkleTree(), ReferenceMerkleTree()
        for n in range(200):
            assert tree.root() == reference.root(), n
            assert tree.frontier().to_bytes() == reference.frontier().to_bytes(), n
            tree.append(payload(n))
            reference.append(payload(n))
        assert_same_tree(tree, reference)
        for n in range(200):
            for m in range(n + 1):
                assert tree.prove_consistency(m, n) == reference.prove_consistency(m, n), (m, n)

    def test_around_powers_of_two_up_to_300_leaves(self):
        tree, reference = MerkleTree(), ReferenceMerkleTree()
        for n in range(301):
            if n in (255, 256, 257, 299, 300):
                assert tree.root() == reference.root(), n
                assert tree.frontier().to_bytes() == reference.frontier().to_bytes(), n
                for m in range(n + 1):
                    assert tree.prove_consistency(m) == reference.prove_consistency(m), (m, n)
                for i in range(n):
                    assert tree.prove(i) == reference.prove(i), (i, n)
            tree.append(payload(n))
            reference.append(payload(n))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(1, 40)),
                st.tuples(st.just("truncate"), st.integers(0, 100)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_interleaved_append_and_truncate(self, steps):
        tree, reference = MerkleTree(), ReferenceMerkleTree()
        serial = 0
        for action, amount in steps:
            if action == "append":
                for _ in range(min(amount, 160 - len(reference))):
                    # a fresh payload each time: a stale node surviving a
                    # truncate would otherwise hash to the right value
                    assert tree.append(payload(serial)) == reference.append(payload(serial))
                    serial += 1
            else:
                size = len(reference) * amount // 100
                tree.truncate(size)
                reference.truncate(size)
            assert tree.root() == reference.root()
        assert_same_tree(tree, reference)

    def test_constructor_takes_any_iterable(self):
        payloads = [payload(i) for i in range(21)]
        assert MerkleTree(iter(payloads)).root() == ReferenceMerkleTree(payloads).root()

    def test_truncate_out_of_range(self):
        tree = MerkleTree(payload(i) for i in range(5))
        for size in (-1, 6):
            with pytest.raises(IndexError):
                tree.truncate(size)
        assert len(tree) == 5


class _HashCounter:
    """Counts calls to the module's two hash primitives."""

    def __init__(self, monkeypatch):
        self.node = self.leaf = 0
        node_hash, leaf_hash = merkle.node_hash, merkle.leaf_hash

        def counted_node(left, right):
            self.node += 1
            return node_hash(left, right)

        def counted_leaf(data):
            self.leaf += 1
            return leaf_hash(data)

        monkeypatch.setattr(merkle, "node_hash", counted_node)
        monkeypatch.setattr(merkle, "leaf_hash", counted_leaf)

    def take(self):
        counts, self.node, self.leaf = (self.node, self.leaf), 0, 0
        return counts


class TestComplexity:
    N = 100_000
    LOG2_N = 17  # ceil(log2(100 000))

    def test_hash_counts_at_100k(self, monkeypatch, rng):
        counter = _HashCounter(monkeypatch)
        tree = MerkleTree()
        for i in range(self.N):
            tree.append(b"%d" % i)
        node, leaf = counter.take()
        assert leaf == self.N
        assert node + leaf <= 2 * self.N  # amortised <= 2 hashes per append

        sizes = [self.N, self.N - 1, 65_536, 65_537, 99_999, 1] + [
            rng.randrange(1, self.N + 1) for _ in range(50)
        ]
        for size in sizes:
            index = rng.randrange(size)
            proof = tree.prove(index, size)
            node, leaf = counter.take()
            assert leaf == 0 and node <= 2 * self.LOG2_N, ("prove", index, size, node)
            old = rng.randrange(size + 1)
            consistency = tree.prove_consistency(old, size)
            node, leaf = counter.take()
            assert leaf == 0 and node <= 2 * self.LOG2_N, ("consistency", old, size, node)
            root, old_root = tree.root_at(size), tree.root_at(old)
            node, leaf = counter.take()
            assert leaf == 0 and node <= 2 * self.LOG2_N, ("root_at", old, size, node)
            assert proof.verify(b"%d" % index, root)
            assert consistency.verify(old_root, root)
            counter.take()

        tree.frontier()
        assert counter.take() == (0, 0)


class TestPositionBinding:
    """A proof is for one leaf of one tree size, and says so."""

    def test_honest_proofs_accepted_at_every_position(self):
        n = 130
        tree = MerkleTree(payload(i) for i in range(n))
        for m in range(1, n + 1):
            root = tree.root_at(m)
            for i in range(m):
                assert tree.prove(i, m).verify(payload(i), root), (i, m)

    def test_relabelled_index_refused(self):
        """Leaf 1's path presented as leaf 0's: the hashes still fold to the
        root, so only the derived directions can tell."""
        tree = MerkleTree(payload(i) for i in range(8))
        honest = tree.prove(1)
        assert honest.verify(payload(1), tree.root())
        relabelled = MerkleProof(0, 8, honest.path)
        assert not relabelled.verify(payload(1), tree.root())

    @pytest.mark.parametrize("n", [2, 7, 8, 13, 64, 100])
    def test_every_relabelling_refused(self, n):
        tree = MerkleTree(payload(i) for i in range(n))
        root = tree.root()
        for i in range(n):
            honest = tree.prove(i)
            for other in range(n):
                if other != i:
                    moved = dataclasses.replace(honest, leaf_index=other)
                    assert not moved.verify(payload(i), root), (i, other)

    def test_relabelled_size_refused(self):
        tree = MerkleTree(payload(i) for i in range(13))
        honest = tree.prove(12, 13)  # the promoted last leaf: a short path
        for size in (0, 1, 12, 14, 16, 26):
            resized = dataclasses.replace(honest, tree_size=size)
            assert not resized.verify(payload(12), tree.root()), size

    def test_out_of_range_labels_refused(self):
        tree = MerkleTree(payload(i) for i in range(4))
        honest = tree.prove(0)
        for index, size in ((-1, 4), (4, 4), (0, 0), (0, -4)):
            assert not MerkleProof(index, size, honest.path).verify(payload(0), tree.root())

    def test_flipped_flag_refused(self):
        tree = MerkleTree(payload(i) for i in range(11))
        root = tree.root()
        for i in range(11):
            honest = tree.prove(i)
            for level, (sibling, is_right) in enumerate(honest.path):
                path = list(honest.path)
                path[level] = (sibling, not is_right)
                flipped = dataclasses.replace(honest, path=tuple(path))
                assert not flipped.verify(payload(i), root), (i, level)

    def test_flipped_flag_refused_even_when_the_hashes_agree(self):
        """Two identical leaves: swapping sides reproduces the root's bytes,
        so only the position check can refuse it."""
        tree = MerkleTree([b"same", b"same"])
        honest = tree.prove(0)
        (sibling, is_right), = honest.path
        assert honest.verify(b"same", tree.root())
        assert not MerkleProof(0, 2, ((sibling, not is_right),)).verify(b"same", tree.root())

    def test_short_and_long_paths_refused(self):
        tree = MerkleTree(payload(i) for i in range(16))
        root = tree.root()
        honest = tree.prove(5)
        short = dataclasses.replace(honest, path=honest.path[:-1])
        # the shortened path is an honest proof into the 8-leaf left subtree
        assert dataclasses.replace(short, tree_size=8).verify(payload(5), tree.root_at(8))
        assert not short.verify(payload(5), tree.root_at(8))
        assert not short.verify(payload(5), root)
        long = dataclasses.replace(honest, path=honest.path + ((root, True),))
        assert not long.verify(payload(5), merkle.node_hash(root, root))
        assert not long.verify(payload(5), root)
        single = MerkleTree([b"only"])
        assert single.prove(0).verify(b"only", single.root())
        assert not MerkleProof(0, 1, ((root, True),)).verify(b"only", single.root())
