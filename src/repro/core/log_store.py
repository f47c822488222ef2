"""Tamper-evident log storage: the interface and the in-memory backend.

The paper assumes the logs themselves are protected by a tamper-evident
mechanism (Section II-A).  Every backend realizes this with the hash chain
of :mod:`repro.crypto.hashchain`:

- :class:`InMemoryLogStore` -- fast, used by tests and benchmarks;
- :class:`~repro.core.dedup_store.DedupLogStore` -- in memory, with large
  payloads stored once;
- :class:`~repro.storage.durable_store.DurableLogStore` -- on disk, crash
  recoverable; the format of the "remote log server / local file"
  deployments the paper mentions and of an exported evidence case.

A store has one write path, :meth:`LogStore.append_batch`: a lone record
is a batch of one.  It hashes each record in full once, into its RFC 6962
leaf hash; the chain steps on that leaf, and the batch returns the leaves
so a :class:`~repro.core.log_server.LogServer` grows its Merkle tree
without hashing the records again.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Tuple

from repro.crypto.hashchain import HashChain, verify_chain
from repro.crypto.merkle import leaf_hash
from repro.errors import LogIntegrityError


class LogStore:
    """Interface: append-only store of encoded log records."""

    def append_batch(self, records: List[bytes]) -> List[bytes]:
        """Store records as one group commit; returns their leaf hashes
        (their indices run on from the store's length before the call).

        Implementations hold their lock once for the whole batch and roll
        back in-memory state if the batch cannot be stored completely, so
        a batch is never half-reflected in the live store.  The resulting
        chain head and Merkle commitments are byte-identical to storing
        the same records in batches of any other size.
        """
        raise NotImplementedError

    def records(self) -> List[bytes]:
        """All records in append order."""
        raise NotImplementedError

    def iter_records(self, start: int = 0) -> Iterator[bytes]:
        """Records from index ``start`` on, in append order.

        The read path every consumer of a whole log uses; a store that
        keeps its records out of memory streams them instead of building
        :meth:`records`' list.
        """
        return iter(self.records()[start:])

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def total_bytes(self) -> int:
        """Total payload bytes stored (excluding framing/digests)."""
        raise NotImplementedError

    def verify(self) -> None:
        """Raise :class:`LogIntegrityError` if tampering is detected."""
        raise NotImplementedError

    def head(self) -> bytes:
        """Current chain-head digest (a compact commitment to the log)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (no-op by default)."""


class InMemoryLogStore(LogStore):
    """Hash-chained records held in memory."""

    def __init__(self) -> None:
        self._chain = HashChain()
        #: ``(record, chain digest)`` in append order
        self._records: List[Tuple[bytes, bytes]] = []
        self._bytes = 0
        self._lock = threading.Lock()

    def append_batch(self, records: List[bytes]) -> List[bytes]:
        leaves = [leaf_hash(record) for record in records]
        with self._lock:
            for record, leaf in zip(records, leaves):
                self._records.append((record, self._chain.append_leaf(leaf)))
                self._bytes += len(record)
        return leaves

    def records(self) -> List[bytes]:
        with self._lock:
            return [record for record, _ in self._records]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def verify(self) -> None:
        with self._lock:
            ok, index = verify_chain(self._records)
            if not ok:
                raise LogIntegrityError(f"hash chain broken at entry {index}")
            if self._records and self._records[-1][1] != self._chain.head:
                raise LogIntegrityError("chain head disagrees with records")

    def head(self) -> bytes:
        with self._lock:
            return self._chain.head

    def tamper(self, index: int, record: bytes) -> None:
        """**Test helper**: overwrite a record in place, simulating an
        attacker modifying stored logs.  :meth:`verify` must detect this."""
        with self._lock:
            self._records[index] = (record, self._records[index][1])
