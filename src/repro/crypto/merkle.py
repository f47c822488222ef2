"""RFC 6962 Merkle tree: roots, inclusion proofs, consistency proofs.

Complements the hash chain (related work [27], Crosby & Wallach): the log
server commits to a Merkle root over ingested entries, and a third-party
investigator can check that a specific log entry sits at a given index of a
committed log -- or that one committed log extends another -- without
downloading the whole log.

:class:`MerkleTree` is the logger's one commitment structure: it keeps the
hash of every complete subtree, so appends are amortised O(1) and every
root and proof, at the current or any historical size, is O(log n).
:class:`MerkleFrontier` is the tree's O(log n)-state summary (its peaks):
enough to continue the tree and check its root, which is what a durable
store checkpoints.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from repro.crypto.hashing import HASH_LEN, sha256, sha256_prefixed
from repro.errors import LogIntegrityError, ProofError

# Domain-separation prefixes prevent a leaf from being reinterpreted as an
# interior node (the classic second-preimage attack on naive Merkle trees).
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Root of the empty tree.
EMPTY_ROOT = sha256(b"repro.merkle.empty")


def leaf_hash(payload: bytes) -> bytes:
    """Hash of a leaf record."""
    return sha256_prefixed(_LEAF_PREFIX, payload)


def node_hash(left: bytes, right: bytes) -> bytes:
    """Hash of an interior node from its two children."""
    return sha256(_NODE_PREFIX + left + right)


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the leaf's index and sibling digests bottom-up.

    Each element of :attr:`path` is ``(sibling_digest, sibling_is_right)``.
    The flags are redundant with ``(leaf_index, tree_size)`` -- RFC 6962
    section 2.1.1 fixes the side of every sibling -- and :meth:`verify`
    refuses a proof whose flags or length disagree with them, so a valid
    proof places the payload *at* :attr:`leaf_index`, not merely somewhere
    under the root.
    """

    leaf_index: int
    tree_size: int
    path: Tuple[Tuple[bytes, bool], ...] = field(default_factory=tuple)

    def verify(self, payload: bytes, root: bytes) -> bool:
        """Check that ``payload`` is leaf :attr:`leaf_index` of the
        :attr:`tree_size`-leaf tree whose root is ``root``."""
        if not 0 <= self.leaf_index < self.tree_size:
            return False
        # ``node`` and ``last`` index this level's nodes; an even ``node``
        # that is also the last one was promoted and has no sibling here.
        node, last = self.leaf_index, self.tree_size - 1
        digest = leaf_hash(payload)
        for sibling, sibling_is_right in self.path:
            while node == last and not node & 1:
                if not last:
                    return False  # path runs past the root
                node >>= 1
                last >>= 1
            if bool(sibling_is_right) == bool(node & 1):
                return False  # sibling claimed on the wrong side
            if node & 1:
                digest = node_hash(sibling, digest)
            else:
                digest = node_hash(digest, sibling)
            node >>= 1
            last >>= 1
        # a path that stops below the root leaves ``last`` non-zero
        return not last and digest == root


@dataclass(frozen=True)
class MerkleConsistencyProof:
    """An RFC 6962 consistency proof between two sizes of the same log.

    :attr:`path` is the node sequence produced by the SUBPROOF algorithm;
    a verifier folds it to recompute *both* the old root and the new root,
    proving the tree at :attr:`new_size` is an append-only extension of the
    tree at :attr:`old_size`.
    """

    old_size: int
    new_size: int
    path: Tuple[bytes, ...] = field(default_factory=tuple)

    def verify(self, old_root: bytes, new_root: bytes) -> bool:
        """Check that the tree grew append-only from ``old_root`` to ``new_root``."""
        m, n = self.old_size, self.new_size
        if m < 0 or m > n:
            return False
        if m == n:
            return not self.path and old_root == new_root
        if m == 0:
            # The empty tree is a prefix of everything; nothing to fold.
            return not self.path and old_root == EMPTY_ROOT
        path = list(self.path)
        node, last_node = m - 1, n - 1
        while node % 2 == 1:
            node //= 2
            last_node //= 2
        if node:
            if not path:
                return False
            old_digest = new_digest = path.pop(0)
        else:
            # old_size is a power of two: its root is a node of the new tree.
            old_digest = new_digest = old_root
        while node or last_node:
            if node % 2 == 1:
                if not path:
                    return False
                sibling = path.pop(0)
                old_digest = node_hash(sibling, old_digest)
                new_digest = node_hash(sibling, new_digest)
            elif node < last_node:
                if not path:
                    return False
                new_digest = node_hash(new_digest, path.pop(0))
            node //= 2
            last_node //= 2
        return not path and old_digest == old_root and new_digest == new_root


class MerkleTree:
    """An RFC 6962 Merkle tree over an ordered list of byte records.

    The tree keeps the hash of every *complete* subtree it has ever closed:
    ``_rows[k]`` is one flat ``bytearray`` holding the ``len(self) >> k``
    complete height-``k`` subtree hashes left to right, 32 bytes each
    (``_rows[0]`` is the leaf hashes).  Appending hashes the leaf once and
    merges upward while the new node is a right child -- amortised one node
    hash per leaf, about 64 bytes per entry resident.  Complete subtrees
    never change as the log grows, so the same rows answer for *every*
    historical size: any range ``D[lo:hi]`` the RFC 6962 recursion reaches
    is a left-to-right run of complete subtrees (the binary decomposition
    of ``hi - lo``), and roots, inclusion proofs, consistency proofs and the
    checkpoint frontier are all read off the rows in O(log n) node hashes
    and zero leaf hashes.  Odd nodes are promoted (not duplicated), which is
    RFC 6962's tree shape for non-power-of-two sizes.
    """

    def __init__(self, payloads: Iterable[bytes] = ()) -> None:
        self._rows: List[bytearray] = [bytearray()]
        self._size = 0
        for payload in payloads:
            self.append(payload)

    def append(self, payload: bytes) -> int:
        """Append a record; returns its leaf index."""
        return self.append_leaf(leaf_hash(payload))

    def append_leaf(self, digest: bytes) -> int:
        """Append a record by its already computed :func:`leaf_hash`;
        returns its leaf index."""
        rows = self._rows
        index = self._size
        rows[0] += digest
        height, position = 0, index
        while position & 1:
            # the node just written closes a subtree one level up
            digest = node_hash(rows[height][-2 * HASH_LEN:-HASH_LEN], digest)
            height += 1
            position >>= 1
            if height == len(rows):
                rows.append(bytearray())
            rows[height] += digest
        self._size = index + 1
        return index

    def __len__(self) -> int:
        return self._size

    def leaf(self, index: int) -> bytes:
        """The leaf hash of record ``index``."""
        self._check_size(index + 1)
        return bytes(self._rows[0][index * HASH_LEN:(index + 1) * HASH_LEN])

    def _peaks(self, lo: int, hi: int) -> List[Tuple[int, bytes]]:
        """The complete subtrees tiling leaves ``[lo, hi)`` left to right,
        largest first, as ``(leaf_count, digest)``.

        ``lo`` must be a multiple of the smallest power of two >= ``hi -
        lo``, which holds for every range the RFC 6962 recursion produces.
        """
        peaks = []
        while lo < hi:
            height = (hi - lo).bit_length() - 1
            offset = (lo >> height) * HASH_LEN
            peaks.append(
                (1 << height, bytes(self._rows[height][offset:offset + HASH_LEN]))
            )
            lo += 1 << height
        return peaks

    def _range_root(self, lo: int, hi: int) -> bytes:
        """RFC 6962 MTH over the non-empty leaf range ``[lo, hi)``."""
        return _fold_peaks(self._peaks(lo, hi))

    def frontier(self) -> "MerkleFrontier":
        """The compact O(log n) frontier equivalent of this tree."""
        return MerkleFrontier(self._peaks(0, self._size))

    def root(self) -> bytes:
        """Current root digest (:data:`EMPTY_ROOT` when empty)."""
        return self.root_at(self._size)

    def root_at(self, tree_size: int) -> bytes:
        """Root digest of the historical tree over the first ``tree_size`` leaves."""
        self._check_size(tree_size)
        if tree_size == 0:
            return EMPTY_ROOT
        return self._range_root(0, tree_size)

    def _check_size(self, tree_size: int) -> None:
        if not 0 <= tree_size <= self._size:
            raise ProofError(
                "tree size %d out of range for a log of %d entries"
                % (tree_size, self._size)
            )

    def prove(self, leaf_index: int, tree_size: int = -1) -> MerkleProof:
        """Build an inclusion proof for the leaf at ``leaf_index``.

        When ``tree_size`` is given, the proof targets the historical tree
        over the first ``tree_size`` leaves (so it verifies against the root
        a signed tree head of that size committed to).
        """
        if tree_size < 0:
            tree_size = self._size
        else:
            self._check_size(tree_size)
        if not 0 <= leaf_index < tree_size:
            raise ProofError(
                "leaf index %d out of range for tree size %d"
                % (leaf_index, tree_size)
            )
        # RFC 6962 PATH(m, D[n]), walked root-down: at most one sibling (the
        # ragged right remainder, met on the first left turn) needs hashing;
        # every other one is a stored complete subtree.
        path: List[Tuple[bytes, bool]] = []
        lo, hi = 0, tree_size
        while hi - lo > 1:
            split = lo + _largest_power_of_two_below(hi - lo)
            if leaf_index < split:
                path.append((self._range_root(split, hi), True))
                hi = split
            else:
                path.append((self._range_root(lo, split), False))
                lo = split
        path.reverse()
        return MerkleProof(
            leaf_index=leaf_index, tree_size=tree_size, path=tuple(path)
        )

    def prove_consistency(
        self, old_size: int, new_size: int = -1
    ) -> MerkleConsistencyProof:
        """Build an RFC 6962 consistency proof between two sizes of this log."""
        if new_size < 0:
            new_size = self._size
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
        # RFC 6962 SUBPROOF(m, D[n], true), walked root-down like ``prove``.
        path: List[bytes] = []
        lo, hi, complete = 0, new_size, True
        while old_size != hi:
            split = lo + _largest_power_of_two_below(hi - lo)
            if old_size <= split:
                path.append(self._range_root(split, hi))
                hi = split
            else:
                path.append(self._range_root(lo, split))
                lo, complete = split, False
        if not complete:
            path.append(self._range_root(lo, hi))
        path.reverse()
        return MerkleConsistencyProof(
            old_size=old_size, new_size=new_size, path=tuple(path)
        )


def _largest_power_of_two_below(n: int) -> int:
    """The largest power of two strictly less than ``n`` (n >= 2)."""
    return 1 << ((n - 1).bit_length() - 1)


def _fold_peaks(peaks: Sequence[Tuple[int, bytes]]) -> bytes:
    """Root over a non-empty run of ``(size, digest)`` peaks, largest first:
    each peak is the left sibling of everything to its right."""
    digest = peaks[-1][1]
    for _, peak in reversed(peaks[:-1]):
        digest = node_hash(peak, digest)
    return digest


_PEAK = struct.Struct("<Q32s")


class MerkleFrontier:
    """Incremental Merkle root computation in O(log n) state.

    The frontier holds one digest per perfect subtree ("peak") of the
    current leaf count, largest first -- exactly the binary decomposition
    of ``n``.  Appending a leaf pushes a size-1 peak and merges equal-sized
    neighbors; the root folds the peaks right-to-left, which reproduces
    :class:`MerkleTree`'s promote-the-odd-node (RFC 6962) shape for every
    size.  It keeps no history, so it answers no proof; because the state
    is logarithmic and serializable, a checkpoint can commit to the whole
    log without storing any leaves, and recovery can *continue* the
    frontier from the checkpoint and verify that appending the replayed
    tail reproduces the full tree's root.
    """

    def __init__(self, peaks: Sequence[Tuple[int, bytes]] = ()) -> None:
        self._peaks: List[Tuple[int, bytes]] = list(peaks)
        for (size, digest), (next_size, _) in zip(self._peaks, self._peaks[1:]):
            if size <= next_size:
                raise LogIntegrityError("frontier peaks must strictly shrink")
        for size, digest in self._peaks:
            if size & (size - 1) or len(digest) != 32:
                raise LogIntegrityError("malformed frontier peak")

    @classmethod
    def from_leaf_hashes(cls, leaves: Iterable[bytes]) -> "MerkleFrontier":
        frontier = cls()
        for leaf in leaves:
            frontier.append_leaf(leaf)
        return frontier

    def append(self, payload: bytes) -> bytes:
        """Fold one record into the frontier; returns its leaf hash."""
        leaf = leaf_hash(payload)
        self.append_leaf(leaf)
        return leaf

    def append_leaf(self, leaf: bytes) -> None:
        """Fold an already-hashed leaf into the frontier."""
        self._peaks.append((1, leaf))
        while len(self._peaks) >= 2 and self._peaks[-1][0] == self._peaks[-2][0]:
            right_size, right = self._peaks.pop()
            left_size, left = self._peaks.pop()
            self._peaks.append((left_size + right_size, node_hash(left, right)))

    def __len__(self) -> int:
        return sum(size for size, _ in self._peaks)

    def root(self) -> bytes:
        """Root digest; equals ``MerkleTree(payloads).root()`` at any size."""
        return _fold_peaks(self._peaks) if self._peaks else EMPTY_ROOT

    def copy(self) -> "MerkleFrontier":
        return MerkleFrontier(self._peaks)

    # -- checkpoint serialization -----------------------------------------

    def to_bytes(self) -> bytes:
        return b"".join(_PEAK.pack(size, digest) for size, digest in self._peaks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MerkleFrontier":
        if len(blob) % _PEAK.size:
            raise LogIntegrityError("malformed frontier serialization")
        return cls(
            [
                _PEAK.unpack_from(blob, offset)
                for offset in range(0, len(blob), _PEAK.size)
            ]
        )
