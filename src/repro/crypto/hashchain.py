"""Tamper-evident hash chain.

The paper assumes "a tamper-resistant or tamper-evident logging mechanism is
in place [7], [15] for the protection of log integrity" (Section II-A).  This
module realizes that assumption with the classic Schneier-Kelsey style hash
chain: each appended record is bound to the digest of everything before it,
so any retroactive modification, deletion, or reordering of records changes
every subsequent chain digest and is detected by :func:`verify_chain`.

A chain step consumes a record's RFC 6962 leaf hash, the same digest the
Merkle commitment takes: a store hashes each record in full once and feeds
that one leaf to both structures (:meth:`HashChain.append_leaf`).

:class:`HashChain` is the running state only -- head digest and length.
The records and their per-record digests live wherever the store keeps
them (a list in memory, the WAL on disk).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.crypto.hashing import sha256
from repro.crypto.merkle import leaf_hash

#: Well-known digest anchoring the start of every chain.
GENESIS = sha256(b"repro.hashchain.genesis")


def chain_digest(prev_digest: bytes, payload: bytes) -> bytes:
    """Digest binding ``payload`` to the running chain state.

    Computed as ``h(prev || leaf_hash(payload))``; hashing the payload
    first keeps the combiner fixed-width and prevents boundary-shifting
    collisions between ``prev`` and ``payload``.
    """
    return sha256(prev_digest + leaf_hash(payload))


class HashChain:
    """The head and length of an append-only chain of byte records."""

    def __init__(self, head: bytes = GENESIS, length: int = 0) -> None:
        self._head = head
        self._length = length

    def append(self, payload: bytes) -> bytes:
        """Chain ``payload`` onto the head; returns its chain digest."""
        return self.append_leaf(leaf_hash(payload))

    def append_leaf(self, leaf: bytes) -> bytes:
        """Chain a record by its already computed :func:`leaf_hash`."""
        self._head = sha256(self._head + leaf)
        self._length += 1
        return self._head

    def adopt(self, digest: bytes) -> None:
        """Advance over a record whose chain digest was computed in an
        earlier life of this chain, without recomputing it.

        This is the recovery fast path: a durable store replaying a WAL
        prefix that a checkpoint anchors adopts the stored digests and
        checks only where they lead (the checkpointed head).
        """
        self._head = digest
        self._length += 1

    def copy(self) -> "HashChain":
        """An independent chain at the same head and length."""
        return HashChain(self._head, self._length)

    @property
    def head(self) -> bytes:
        """Digest of the latest entry (GENESIS when empty)."""
        return self._head

    def __len__(self) -> int:
        return self._length


def verify_chain(
    records: Iterable[Tuple[bytes, bytes]], genesis: bytes = GENESIS
) -> Tuple[bool, Optional[int]]:
    """Check a ``(payload, digest)`` sequence for chain consistency.

    Returns ``(True, None)`` if consistent, otherwise ``(False, i)`` where
    ``i`` is the index of the first inconsistent record.
    """
    prev = genesis
    for i, (payload, digest) in enumerate(records):
        expected = chain_digest(prev, payload)
        if digest != expected:
            return False, i
        prev = digest
    return True, None
