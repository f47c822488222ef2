"""Disk overflow for the component-side evidence spill queue.

:class:`~repro.core.remote.RemoteLogger` parks entries it cannot deliver in
a bounded in-memory deque; before this module, overflowing that deque
silently discarded the *oldest* evidence.  :class:`DiskSpillFile` catches
the overflow instead: records are appended (length-prefixed and
CRC-checksummed, same discipline as the WAL) and consumed oldest-first once
the log server is reachable again, so a long outage costs disk space, not
evidence.

The file is strictly FIFO: a read offset chases the append offset, and the
file is truncated back to empty whenever the reader fully drains it.  The
read offset is persisted in a tiny sidecar file (``<path>.offset``) so a
restarted component resumes draining exactly where its predecessor stopped
-- re-sending already-delivered evidence would fabricate duplicate entries
and hand the auditor false ``replayed_sequence`` verdicts.  A torn tail
record (component crashed mid-spill) is truncated on open, exactly like a
WAL torn tail.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import List, Optional

from repro.storage.crashpoints import crashpoint

_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")
_OFFSET = struct.Struct("<Q")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


class DiskSpillFile:
    """An append-only FIFO of byte records with crash-tolerant framing."""

    def __init__(self, path: str):
        self.path = path
        self.offset_path = path + ".offset"
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        #: start offsets of records not yet consumed, oldest first
        self._pending: List[int] = []
        self._scan_existing()
        self._file = open(path, "ab")

    def _load_offset(self) -> int:
        try:
            with open(self.offset_path, "rb") as f:
                raw = f.read(_OFFSET.size)
        except FileNotFoundError:
            return 0
        if len(raw) < _OFFSET.size:
            return 0  # torn offset write: worst case we re-scan from 0
        return _OFFSET.unpack(raw)[0]

    def _store_offset(self, offset: int) -> None:
        with open(self.offset_path, "wb") as f:
            f.write(_OFFSET.pack(offset))
            f.flush()

    def _scan_existing(self) -> None:
        if not os.path.exists(self.path):
            self._store_offset(0)
            return
        consumed = min(self._load_offset(), os.path.getsize(self.path))
        pending, good_end = self._scan_from(consumed)
        if not pending and consumed > 0 and os.path.getsize(self.path) > 0:
            # The sidecar offset is bogus: either it did not land on a
            # record boundary (a torn or stale offset write tripped the
            # scan's first CRC check), or it claims everything up to EOF
            # was consumed -- impossible for a non-empty file, because a
            # legitimate full drain truncates the file to zero.  Trusting
            # it would discard every record after the bogus offset --
            # spilled evidence lost to a bookkeeping file.  Rescan from 0
            # instead: the worst case is re-sending already-delivered
            # records, which the auditor sees as duplicates (never as
            # loss).
            pending, good_end = self._scan_from(0)
            self._store_offset(0)
        if good_end < os.path.getsize(self.path):
            with open(self.path, "r+b") as f:
                f.truncate(good_end)
        self._pending = pending

    def _scan_from(self, start: int) -> "tuple[List[int], int]":
        """Walk records from ``start``; returns (record offsets, end of the
        last whole record) -- the tail past that end is torn."""
        good_end = start
        pending: List[int] = []
        with open(self.path, "rb") as f:
            f.seek(start)
            while True:
                offset = f.tell()
                head = f.read(_LEN.size)
                if not head:
                    break
                if len(head) < _LEN.size:
                    break  # torn tail
                (length,) = _LEN.unpack(head)
                payload = f.read(length)
                crc_raw = f.read(_CRC.size)
                if len(payload) < length or len(crc_raw) < _CRC.size:
                    break  # torn tail
                if _CRC.unpack(crc_raw)[0] != _crc(head + payload):
                    break  # torn tail
                pending.append(offset)
                good_end = f.tell()
        return pending, good_end

    def __len__(self) -> int:
        """Pending (unconsumed) records."""
        with self._lock:
            return len(self._pending)

    def append(self, record: bytes) -> None:
        """Park one record at the back of the FIFO."""
        head = _LEN.pack(len(record))
        encoded = head + record + _CRC.pack(_crc(head + record))
        with self._lock:
            offset = self._file.tell()
            half = len(encoded) // 2
            self._file.write(encoded[:half])
            self._file.flush()
            crashpoint("spill.mid_record")
            self._file.write(encoded[half:])
            self._file.flush()
            self._pending.append(offset)

    def append_many(self, records: List[bytes]) -> None:
        """Park a whole batch at the back of the FIFO under one lock
        acquisition and one flush -- the write-side analogue of
        :meth:`peek_many` (a spilling client parks batches, not single
        records)."""
        if not records:
            return
        with self._lock:
            for record in records:
                head = _LEN.pack(len(record))
                encoded = head + record + _CRC.pack(_crc(head + record))
                offset = self._file.tell()
                self._file.write(encoded)
                self._pending.append(offset)
            self._file.flush()

    def peek(self) -> Optional[bytes]:
        """The oldest pending record, without consuming it."""
        with self._lock:
            if not self._pending:
                return None
            self._file.flush()
            with open(self.path, "rb") as f:
                f.seek(self._pending[0])
                (length,) = _LEN.unpack(f.read(_LEN.size))
                return f.read(length)

    def peek_many(self, count: int) -> List[bytes]:
        """The oldest ``count`` pending records (fewer if the FIFO is
        shorter), without consuming them -- the read side of a batched
        spill drain."""
        with self._lock:
            if not self._pending or count < 1:
                return []
            self._file.flush()
            out: List[bytes] = []
            with open(self.path, "rb") as f:
                for offset in self._pending[:count]:
                    f.seek(offset)
                    (length,) = _LEN.unpack(f.read(_LEN.size))
                    out.append(f.read(length))
            return out

    def consume(self) -> None:
        """Drop the oldest pending record (it was delivered)."""
        self.consume_many(1)

    def consume_many(self, count: int) -> None:
        """Drop the oldest ``count`` pending records (they were delivered)."""
        with self._lock:
            if count < 1:
                return
            if count > len(self._pending):
                raise IndexError("spill file is empty")
            del self._pending[:count]
            if not self._pending:
                # Fully drained: reclaim the disk space.
                self._file.truncate(0)
                self._file.seek(0)
                self._store_offset(0)
            else:
                self._store_offset(self._pending[0])

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()
