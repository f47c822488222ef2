"""Content-addressed, deduplicating log storage.

Section VI-E suggests the aggregation "kind of optimization can also be
done at the log server-side".  This store does exactly that, transparently
to the components: on ingest, a log entry's bulky ``data`` field is
replaced by its digest and the payload is stored **once** in a
content-addressed blob table.  When N subscribers cause N publisher
entries for one ~900 KB camera frame, the frame is persisted once instead
of N times -- without changing the wire protocol or the components.

Integrity is preserved: the hash chain runs over the *original* encoded
entries (digests are computed before stripping; only the digests are
kept), and :meth:`records` reconstructs byte-identical originals from the
blob table, so the chain re-verifies and signatures still check.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.core.entries import LogEntry
from repro.core.log_store import LogStore
from repro.crypto.hashchain import GENESIS, HashChain, chain_digest
from repro.crypto.hashing import sha256
from repro.crypto.merkle import leaf_hash
from repro.errors import LogIntegrityError

#: data fields smaller than this are kept inline (dedup bookkeeping would
#: cost more than it saves)
MIN_DEDUP_SIZE = 256


class DedupLogStore(LogStore):
    """In-memory deduplicating store with exact-reconstruction semantics."""

    def __init__(self, min_dedup_size: int = MIN_DEDUP_SIZE):
        self._digests: List[bytes] = []  # chain digests over ORIGINAL records
        self._chain = HashChain()
        self._stripped: List[bytes] = []  # stored, possibly deduped records
        self._blob_refs: List[bytes] = []  # b"" when not deduped
        self._blobs: Dict[bytes, bytes] = {}
        self._min_dedup_size = min_dedup_size
        self._logical_bytes = 0  # what a plain store would hold
        self._lock = threading.Lock()

    # -- ingestion -------------------------------------------------------

    def append_batch(self, records: List[bytes]) -> List[bytes]:
        """All or nothing: every record is chained and stripped before any
        of them is stored, under one lock acquisition."""
        leaves = [leaf_hash(record) for record in records]
        with self._lock:
            chain, rows = self._chain.copy(), []
            for record, leaf in zip(records, leaves):
                rows.append((chain.append_leaf(leaf), *self._strip(record)))
            for digest, stored, ref, payload in rows:
                self._digests.append(digest)
                self._stripped.append(stored)
                self._blob_refs.append(ref)
                if ref:
                    self._blobs.setdefault(ref, payload)
            self._chain = chain
            self._logical_bytes += sum(map(len, records))
        return leaves

    def _strip(self, record: bytes) -> Tuple[bytes, bytes, bytes]:
        """``(stored form, blob ref, blob)``: a large ``data`` payload
        moves to the blob table; anything else is stored as is."""
        try:
            decoded = LogEntry.decode(record)
        except Exception:
            return record, b"", b""
        payload = decoded.data
        if len(payload) < self._min_dedup_size:
            return record, b"", b""
        decoded.data = b""
        stripped = decoded.encode()
        if self._reassemble(stripped, payload) != record:
            # non-canonical encodings cannot be reconstructed exactly;
            # store such records verbatim rather than corrupt the chain
            return record, b"", b""
        return stripped, sha256(payload), payload

    @staticmethod
    def _reassemble(stripped: bytes, payload: bytes) -> bytes:
        decoded = LogEntry.decode(stripped)
        decoded.data = payload
        return decoded.encode()

    def _reconstruct(self, index: int) -> bytes:
        stripped = self._stripped[index]
        ref = self._blob_refs[index]
        if not ref:
            return stripped
        payload = self._blobs.get(ref)
        if payload is None:
            raise LogIntegrityError(f"missing blob {ref.hex()}")
        return self._reassemble(stripped, payload)

    # -- LogStore interface ------------------------------------------------

    def records(self) -> List[bytes]:
        with self._lock:
            return [self._reconstruct(i) for i in range(len(self._stripped))]

    def __len__(self) -> int:
        with self._lock:
            return len(self._stripped)

    @property
    def total_bytes(self) -> int:
        """Logical bytes ingested (comparable to a plain store)."""
        with self._lock:
            return self._logical_bytes

    @property
    def physical_bytes(self) -> int:
        """Bytes actually held after deduplication."""
        with self._lock:
            return sum(len(s) for s in self._stripped) + sum(
                len(b) for b in self._blobs.values()
            )

    @property
    def dedup_ratio(self) -> float:
        """logical / physical; 1.0 means no saving."""
        physical = self.physical_bytes
        return self.total_bytes / physical if physical else 1.0

    def verify(self) -> None:
        """Reconstruct every record and re-verify the original chain."""
        with self._lock:
            prev = GENESIS
            for i, expected in enumerate(self._digests):
                record = self._reconstruct(i)
                prev = chain_digest(prev, record)
                if prev != expected:
                    raise LogIntegrityError(
                        f"record {i} does not reconstruct to its chained form"
                    )

    def head(self) -> bytes:
        with self._lock:
            return self._chain.head
