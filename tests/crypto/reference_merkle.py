"""The O(n) recursive RFC 6962 Merkle tree, kept as the test oracle.

This is the implementation ``repro.crypto.merkle.MerkleTree`` had before it
became incremental, moved here untouched (only the class name changed): it
keeps the leaf hashes and rebuilds every level -- or recurses over leaf
slices -- for each root and proof.  Slow and obviously a transcription of
the RFC, which is what a differential oracle should be.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleConsistencyProof,
    MerkleFrontier,
    MerkleProof,
    leaf_hash,
    node_hash,
)
from repro.errors import ProofError


def _mth(leaves: Sequence[bytes]) -> bytes:
    """Merkle tree head over already-hashed leaves (RFC 6962 MTH)."""
    n = len(leaves)
    if n == 0:
        return EMPTY_ROOT
    if n == 1:
        return leaves[0]
    k = _largest_power_of_two_below(n)
    return node_hash(_mth(leaves[:k]), _mth(leaves[k:]))


def _largest_power_of_two_below(n: int) -> int:
    """The largest power of two strictly less than ``n`` (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def _subproof(m: int, leaves: Sequence[bytes], complete: bool) -> List[bytes]:
    """RFC 6962 SUBPROOF(m, D[n], b) over already-hashed leaves."""
    n = len(leaves)
    if m == n:
        return [] if complete else [_mth(leaves)]
    k = _largest_power_of_two_below(n)
    if m <= k:
        return _subproof(m, leaves[:k], complete) + [_mth(leaves[k:])]
    return _subproof(m - k, leaves[k:], False) + [_mth(leaves[:k])]


class ReferenceMerkleTree:
    """A Merkle tree over an ordered list of byte records.

    Odd nodes are promoted (not duplicated) to the next level, matching
    RFC 6962's tree shape for non-power-of-two sizes.
    """

    def __init__(self, payloads: Sequence[bytes] = ()) -> None:
        self._leaves: List[bytes] = [leaf_hash(p) for p in payloads]

    def append(self, payload: bytes) -> int:
        """Append a record; returns its leaf index."""
        self._leaves.append(leaf_hash(payload))
        return len(self._leaves) - 1

    def truncate(self, size: int) -> None:
        """Drop leaves beyond ``size`` (rollback of a failed append)."""
        if not 0 <= size <= len(self._leaves):
            raise IndexError("truncation size out of range")
        del self._leaves[size:]

    def frontier(self) -> "MerkleFrontier":
        """The compact O(log n) frontier equivalent of this tree."""
        return MerkleFrontier.from_leaf_hashes(self._leaves)

    def __len__(self) -> int:
        return len(self._leaves)

    def _levels(self, tree_size: int = -1) -> List[List[bytes]]:
        """All tree levels bottom-up (levels[0] == leaves).

        ``tree_size`` restricts the tree to its first ``tree_size`` leaves,
        reconstructing the historical shape at that size.
        """
        leaves = self._leaves if tree_size < 0 else self._leaves[:tree_size]
        levels = [list(leaves)]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(node_hash(prev[i], prev[i + 1]))
            if len(prev) % 2 == 1:
                nxt.append(prev[-1])  # promote the odd node
            levels.append(nxt)
        return levels

    def root(self) -> bytes:
        """Current root digest (:data:`EMPTY_ROOT` when empty)."""
        if not self._leaves:
            return EMPTY_ROOT
        return self._levels()[-1][0]

    def root_at(self, tree_size: int) -> bytes:
        """Root digest of the historical tree over the first ``tree_size`` leaves."""
        self._check_size(tree_size)
        if tree_size == 0:
            return EMPTY_ROOT
        return self._levels(tree_size)[-1][0]

    def _check_size(self, tree_size: int) -> None:
        if not 0 <= tree_size <= len(self._leaves):
            raise ProofError(
                "tree size %d out of range for a log of %d entries"
                % (tree_size, len(self._leaves))
            )

    def prove(self, leaf_index: int, tree_size: int = -1) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``leaf_index``.

        When ``tree_size`` is given, the proof targets the historical tree
        over the first ``tree_size`` leaves (so it verifies against the root
        a signed tree head of that size committed to).
        """
        if tree_size < 0:
            tree_size = len(self._leaves)
        else:
            self._check_size(tree_size)
        if not 0 <= leaf_index < tree_size:
            raise ProofError(
                "leaf index %d out of range for tree size %d"
                % (leaf_index, tree_size)
            )
        path: List[Tuple[bytes, bool]] = []
        index = leaf_index
        for level in self._levels(tree_size)[:-1]:
            if index % 2 == 0:
                if index + 1 < len(level):
                    path.append((level[index + 1], True))
                # else: promoted odd node, no sibling at this level
            else:
                path.append((level[index - 1], False))
            index //= 2
        return MerkleProof(
            leaf_index=leaf_index, tree_size=tree_size, path=tuple(path)
        )

    def prove_consistency(
        self, old_size: int, new_size: int = -1
    ) -> MerkleConsistencyProof:
        """Build an RFC 6962 consistency proof between two sizes of this log."""
        if new_size < 0:
            new_size = len(self._leaves)
        else:
            self._check_size(new_size)
        if not 0 <= old_size <= new_size:
            raise ProofError(
                "inconsistent proof range: old size %d, new size %d"
                % (old_size, new_size)
            )
        if old_size == new_size or old_size == 0:
            # Equal sizes and the empty prefix verify without any path.
            return MerkleConsistencyProof(old_size=old_size, new_size=new_size)
        path = _subproof(old_size, self._leaves[:new_size], True)
        return MerkleConsistencyProof(
            old_size=old_size, new_size=new_size, path=tuple(path)
        )
