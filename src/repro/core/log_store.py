"""Tamper-evident log storage backends.

The paper assumes the logs themselves are protected by a tamper-evident
mechanism (Section II-A).  Both backends realize this with the hash chain of
:mod:`repro.crypto.hashchain`:

- :class:`InMemoryLogStore` -- fast, used by tests and benchmarks;
- :class:`FileLogStore` -- appends length-framed records to disk and can
  re-open and re-verify them, for the "remote log server / local file"
  deployments the paper mentions.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import Iterator, List, Tuple

from repro.crypto.hashchain import (
    GENESIS,
    HashChain,
    chain_digest,
    verify_chain,
)
from repro.errors import LogIntegrityError

_FRAME = struct.Struct("<I")


class LogStore:
    """Interface: append-only store of encoded log records."""

    def append(self, record: bytes) -> int:
        """Store a record; returns its index."""
        raise NotImplementedError

    def append_batch(self, records: List[bytes]) -> List[int]:
        """Store several records as one group commit; returns their indices.

        Implementations hold their lock once for the whole batch and roll
        back in-memory state if the batch cannot be stored completely, so
        a batch is never half-reflected in the live store.  The resulting
        chain head and Merkle commitments are byte-identical to appending
        the same records one at a time.
        """
        return [self.append(record) for record in records]

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

    def append(self, record: bytes) -> int:
        with self._lock:
            self._records.append((record, self._chain.append(record)))
            self._bytes += len(record)
            return len(self._records) - 1

    def append_batch(self, records: List[bytes]) -> List[int]:
        with self._lock:
            base = len(self._records)
            for record in records:
                self._records.append((record, self._chain.append(record)))
                self._bytes += len(record)
            return list(range(base, base + len(records)))

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


class FileLogStore(LogStore):
    """Hash-chained records appended to a file.

    On-disk layout per record: 4-byte little-endian length, the record
    bytes, then the 32-byte chain digest.  Reopening an existing file
    replays and re-verifies the chain.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._count = 0
        self._bytes = 0
        self._head = GENESIS
        if os.path.exists(path):
            self._replay()
        self._file = open(path, "ab")

    def _replay(self) -> None:
        prev = GENESIS
        count = 0
        total = 0
        with open(self.path, "rb") as f:
            while True:
                raw_len = f.read(_FRAME.size)
                if not raw_len:
                    break
                if len(raw_len) < _FRAME.size:
                    raise LogIntegrityError("truncated record length")
                (length,) = _FRAME.unpack(raw_len)
                record = f.read(length)
                digest = f.read(32)
                if len(record) < length or len(digest) < 32:
                    raise LogIntegrityError("truncated record")
                if chain_digest(prev, record) != digest:
                    raise LogIntegrityError(f"chain broken at record {count}")
                prev = digest
                count += 1
                total += length
        self._head = prev
        self._count = count
        self._bytes = total

    def append(self, record: bytes) -> int:
        with self._lock:
            digest = chain_digest(self._head, record)
            self._file.write(_FRAME.pack(len(record)) + record + digest)
            self._file.flush()
            self._head = digest
            index = self._count
            self._count += 1
            self._bytes += len(record)
            return index

    def records(self) -> List[bytes]:
        with self._lock:
            self._file.flush()
            result = []
            with open(self.path, "rb") as f:
                while True:
                    raw_len = f.read(_FRAME.size)
                    if not raw_len:
                        break
                    (length,) = _FRAME.unpack(raw_len)
                    result.append(f.read(length))
                    f.read(32)
            return result

    def __len__(self) -> int:
        with self._lock:
            return self._count

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def verify(self) -> None:
        with self._lock:
            self._file.flush()
        self._replay()

    def head(self) -> bytes:
        with self._lock:
            return self._head

    def close(self) -> None:
        with self._lock:
            self._file.close()
