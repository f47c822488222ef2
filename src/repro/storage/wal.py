"""Append-only write-ahead log with CRC-checksummed records.

On-disk layout: a directory of numbered segment files ::

    wal-00000001.seg
    wal-00000002.seg
    ...

Each segment starts with a 16-byte header (magic, segment index, CRC).
Each record is::

    uint32 length | uint8 type | payload (length bytes) | uint32 crc32

where the CRC covers the length, type, and payload bytes, so a corrupted
length prefix is detected just like corrupted payload bytes.  Record
*types* are opaque to the WAL; :mod:`repro.storage.durable_store` uses
them to distinguish chained log entries from key registrations.

Two read paths with deliberately different strictness:

- **Recovery** (:meth:`WriteAheadLog.__init__` replay) tolerates a *torn
  tail*: a short or CRC-invalid record in the **last** segment is treated
  as an interrupted write -- the segment is truncated at the record's
  start (never mid-record, never mid-log) and appending resumes from the
  clean tail.  Anything wrong in a sealed (non-last) segment is tampering
  and raises.
- **Verification** (:func:`scan` with ``strict=True``) tolerates nothing:
  any short read or CRC mismatch anywhere raises
  :class:`~repro.errors.LogIntegrityError`.  A store believed intact has
  no torn tail to excuse.
- **Random access** (:meth:`WriteAheadLog.read`) reads one record back at
  the ``(segment, offset)`` its append reported, CRC-checked like any
  other read.

The fsync policy bounds what a crash can lose: ``always`` fsyncs every
record (lose nothing), ``interval`` fsyncs at most every
``fsync_interval`` seconds (lose a bounded suffix), ``never`` leaves
durability to the OS (lose the page cache).  Sealed segments are always
fsynced at rotation, so only the active segment is ever at risk.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import LogIntegrityError
from repro.storage.crashpoints import crashpoint

_MAGIC = b"ADLPWAL1"
_SEG_INDEX = struct.Struct("<I")
_REC_HEAD = struct.Struct("<IB")  # payload length, record type
_CRC = struct.Struct("<I")

#: Total bytes of a segment header: magic + index + crc.
SEGMENT_HEADER_SIZE = len(_MAGIC) + _SEG_INDEX.size + _CRC.size

#: Upper bound on a single record's payload (sanity check against reading
#: gigabytes because a corrupted length prefix says so).
MAX_RECORD_BYTES = 1 << 31

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _encode_header(index: int) -> bytes:
    body = _MAGIC + _SEG_INDEX.pack(index)
    return body + _CRC.pack(_crc(body))


@dataclass(frozen=True)
class WalRecord:
    """One replayed record: its type byte, payload, home segment, and the
    offset of its header within that segment."""

    rtype: int
    payload: bytes
    segment: int
    offset: int


@dataclass(frozen=True)
class FsyncPolicy:
    """When appended records are forced to stable storage.

    :attr:`mode` is ``"always"``, ``"interval"``, or ``"never"``;
    :attr:`interval` applies only to ``interval`` mode.
    """

    mode: str = "interval"
    interval: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in ("always", "interval", "never"):
            raise ValueError(f"unknown fsync mode {self.mode!r}")
        if self.interval <= 0:
            raise ValueError("fsync interval must be positive")

    @classmethod
    def of(cls, value) -> "FsyncPolicy":
        """Coerce a policy, mode string, or None into a policy."""
        if isinstance(value, FsyncPolicy):
            return value
        if value is None:
            return cls()
        return cls(mode=str(value))


class _TornTail(Exception):
    """Internal: scan hit an interrupted write at ``offset`` of a segment."""

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


def _corrupt(path: str, tear: _TornTail) -> LogIntegrityError:
    return LogIntegrityError(
        f"corrupt WAL record in {os.path.basename(path)} at offset "
        f"{tear.offset}: {tear.reason}"
    )


def _read_record(
    read: Callable[[int, int], bytes], offset: int, split: int = 0
) -> Optional[Tuple[int, bytes, bytes]]:
    """The record at ``offset`` as ``(rtype, payload[:split],
    payload[split:])``, read in order through ``read(size, position)``;
    ``None`` at a clean end of the segment.  Raises :class:`_TornTail` on a
    short or CRC-invalid read.  Reading the two parts separately keeps a
    large payload in the one buffer it was read into."""
    head = read(_REC_HEAD.size + split, offset)
    if not head:
        return None
    if len(head) < _REC_HEAD.size + split:
        raise _TornTail(offset, "short record header")
    length, rtype = _REC_HEAD.unpack_from(head)
    if not split <= length <= MAX_RECORD_BYTES:
        raise _TornTail(offset, "implausible record length")
    rest = read(length - split, offset + len(head))
    crc_raw = read(_CRC.size, offset + _REC_HEAD.size + length)
    if len(rest) < length - split or len(crc_raw) < _CRC.size:
        raise _TornTail(offset, "short record body")
    if _CRC.unpack(crc_raw)[0] != zlib.crc32(rest, zlib.crc32(head)):
        raise _TornTail(offset, "record checksum mismatch")
    return rtype, head[_REC_HEAD.size :], rest


def _scan_segment(path: str, expected_index: int) -> Iterator[WalRecord]:
    """Yield records of one segment; raise :class:`_TornTail` on a short or
    CRC-invalid read (the caller decides whether that is torn or tamper)."""
    with open(path, "rb") as f:
        header = f.read(SEGMENT_HEADER_SIZE)
        if len(header) < SEGMENT_HEADER_SIZE:
            raise _TornTail(0, "short segment header")
        body, crc_raw = header[: -_CRC.size], header[-_CRC.size :]
        if (
            body[: len(_MAGIC)] != _MAGIC
            or _CRC.unpack(crc_raw)[0] != _crc(body)
        ):
            raise _TornTail(0, "corrupt segment header")
        (seg_index,) = _SEG_INDEX.unpack(body[len(_MAGIC) :])
        if seg_index != expected_index:
            raise LogIntegrityError(
                f"segment {path} carries index {seg_index}, "
                f"expected {expected_index}"
            )
        offset = SEGMENT_HEADER_SIZE

        def read(size: int, position: int) -> bytes:
            return f.read(size)  # records are read in order: f is there

        while True:
            record = _read_record(read, offset)
            if record is None:
                return
            rtype, _, payload = record
            start = offset
            offset += _REC_HEAD.size + len(payload) + _CRC.size
            # nothing here holds the record while the next one is read
            del record
            yield WalRecord(
                rtype=rtype, payload=payload, segment=seg_index, offset=start
            )
            del payload


def _scan_segments(
    pairs: List[Tuple[int, str]], sink: Callable[[WalRecord], None]
) -> Optional[_TornTail]:
    """Hand every record of the ``(index, path)`` segments to ``sink``.  A
    tear in a sealed segment is tampering and raises; one in the last
    segment ends the scan and is returned."""
    for position, (index, path) in enumerate(pairs):
        try:
            for record in _scan_segment(path, index):
                sink(record)
                del record  # freed before the next record is read
        except _TornTail as tear:
            if position < len(pairs) - 1:
                raise _corrupt(path, tear) from None
            return tear
    return None


def segment_paths(directory: str) -> List[Tuple[int, str]]:
    """Sorted ``(index, path)`` pairs of the directory's segment files."""
    pairs = []
    for name in os.listdir(directory):
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
            raw = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            try:
                pairs.append((int(raw), os.path.join(directory, name)))
            except ValueError:
                raise LogIntegrityError(f"alien file in WAL directory: {name}")
    pairs.sort()
    for position, (index, _) in enumerate(pairs):
        if index != pairs[0][0] + position:
            raise LogIntegrityError(
                f"WAL segment sequence has a gap before index {index}"
            )
    return pairs


def scan(
    directory: str,
    strict: bool = True,
    sink: Optional[Callable[[WalRecord], None]] = None,
) -> Tuple[List[WalRecord], int]:
    """Read every record in the WAL directory.

    Returns ``(records, torn_bytes)``.  With ``strict=True`` (the tamper
    check) any corruption raises :class:`LogIntegrityError` and
    ``torn_bytes`` is always 0; with ``strict=False`` a torn tail in the
    last segment is *reported* (records up to the tear, plus the count of
    unreadable tail bytes) but the files are not modified.  With a
    ``sink`` each record is handed to it instead of being collected (the
    list comes back empty), so a pass over the whole log holds one record
    at a time.
    """
    records: List[WalRecord] = []
    pairs = segment_paths(directory)
    tear = _scan_segments(pairs, sink or records.append)
    if tear is None:
        return records, 0
    if strict:
        raise _corrupt(pairs[-1][1], tear)
    return records, os.path.getsize(pairs[-1][1]) - tear.offset


class WriteAheadLog:
    """The writable WAL: replay-on-open, append, rotate, fsync policy.

    Opening replays every existing record through ``replay_sink`` (in
    order), truncates a torn tail, then positions for appending.  The
    number of tail bytes discarded is exposed as :attr:`truncated_bytes`.
    """

    def __init__(
        self,
        directory: str,
        fsync: "FsyncPolicy | str | None" = None,
        segment_max_bytes: int = 4 * 1024 * 1024,
        replay_sink: Optional[Callable[[WalRecord], None]] = None,
    ):
        if segment_max_bytes < SEGMENT_HEADER_SIZE + _REC_HEAD.size:
            raise ValueError("segment_max_bytes is implausibly small")
        self.directory = directory
        self.fsync_policy = FsyncPolicy.of(fsync)
        self.segment_max_bytes = segment_max_bytes
        self.truncated_bytes = 0
        self._lock = threading.Lock()
        #: ``(segment, fd)`` of the segment :meth:`read` last opened
        self._reader: Optional[Tuple[int, int]] = None
        self._last_sync = time.monotonic()
        os.makedirs(directory, exist_ok=True)
        self._replay(replay_sink)

    # -- opening / replay -------------------------------------------------

    def _replay(self, sink: Optional[Callable[[WalRecord], None]]) -> None:
        pairs = segment_paths(self.directory)
        if not pairs:
            self._create_segment(1)
            return
        tear = _scan_segments(pairs, sink or (lambda record: None))
        index, path = pairs[-1]
        if tear is not None:
            truncate_at = tear.offset
            size = os.path.getsize(path)
            self.truncated_bytes = size - truncate_at
            if truncate_at < SEGMENT_HEADER_SIZE:
                # Even the header is torn (crash during rotation): restart
                # the segment from scratch.
                with open(path, "wb") as f:
                    f.write(_encode_header(index))
                    f.flush()
                    os.fsync(f.fileno())
            else:
                with open(path, "r+b") as f:
                    f.truncate(truncate_at)
                    f.flush()
                    os.fsync(f.fileno())
        self._segment_index = index
        self._file = open(path, "ab")
        self._segment_bytes = os.path.getsize(path)

    def _create_segment(self, index: int) -> None:
        path = os.path.join(self.directory, _segment_name(index))
        self._file = open(path, "ab")
        self._file.write(_encode_header(index))
        self._file.flush()
        self._segment_index = index
        self._segment_bytes = SEGMENT_HEADER_SIZE

    # -- appending --------------------------------------------------------

    def _write_record(self, rtype: int, parts: Sequence[bytes]) -> None:
        """Buffer one record whose payload is the concatenation of
        ``parts`` (lock held).  Head, parts and CRC go to the file as
        separate buffers under a running CRC, so a large part is never
        copied; the ``wal.mid_record`` crashpoint sits at the byte midpoint
        of the record and, when armed, flushes first, so it leaves a
        genuinely torn record on disk rather than an empty Python buffer.
        """
        length = 0
        for part in parts:
            length += len(part)
        head = _REC_HEAD.pack(length, rtype)
        crc = zlib.crc32(head)
        for part in parts:
            crc = zlib.crc32(part, crc)
        total = _REC_HEAD.size + length + _CRC.size
        write = self._file.write
        cut = total // 2  # bytes still to write before the midpoint
        for buffer in (head, *parts, _CRC.pack(crc)):
            if 0 <= cut < len(buffer):
                view = memoryview(buffer)
                write(view[:cut])
                crashpoint("wal.mid_record", self._file.flush)
                write(view[cut:])
            else:
                write(buffer)
            cut -= len(buffer)
        self._segment_bytes += total

    def append(self, rtype: int, *parts: bytes) -> Tuple[int, int]:
        """Durably append one record whose payload is ``parts``
        concatenated (durability per the fsync policy); returns the
        ``(segment, offset)`` it was written at.

        An in-process failure (an I/O error mid-record) truncates the
        segment back to the pre-record offset before re-raising, like
        :meth:`append_many`: torn bytes left mid-segment would misplace
        every later record's offset and make recovery cut the log there,
        dropping acked records written after them.  A process death
        (:class:`~repro.storage.crashpoints.SimulatedCrash` included)
        still leaves the torn tail for the recovery scan.
        """
        with self._lock:
            where = (self._segment_index, self._segment_bytes)
            start = self._file.tell()
            try:
                self._write_record(rtype, parts)
                self._file.flush()
                crashpoint("wal.pre_fsync")
                self._maybe_sync()
            except Exception:
                self._discard_tail(start, where[1])
                raise
            if self._segment_bytes >= self.segment_max_bytes:
                self._rotate()
            return where

    def append_many(self, items: Sequence[Tuple]) -> Tuple[int, List[int]]:
        """Durably append ``(rtype, *parts)`` records as one group commit;
        returns the segment they were written to and their offsets in it
        (a batch never straddles a rotation).

        The whole batch is written as one burst and synced **once** per the
        fsync policy (one fsync per batch under ``always``, instead of one
        per record) -- the group-commit coalescing that makes batched
        submission cheap.  A *process death* between two records of the
        batch leaves a clean prefix on disk: recovery replays the records
        written before the tear and truncates the rest, exactly like a
        torn single-record tail.

        An in-process failure (an I/O error surfacing mid-burst) instead
        truncates the segment back to the pre-batch offset before
        re-raising.  Unlike a torn half-record -- which the CRC makes
        invisible to recovery -- a *complete* prefix of an abandoned batch
        would replay as real entries, and the caller's per-entry fallback
        re-submission would then append non-chaining duplicates after it,
        wedging recovery permanently.  The live store and the segment must
        agree on the same prefix, so the leaked prefix has to go.
        """
        with self._lock:
            segment = self._segment_index
            offsets: List[int] = []
            if not items:
                return segment, offsets
            start = self._file.tell()
            segment_bytes = self._segment_bytes
            try:
                for position, (rtype, *parts) in enumerate(items):
                    if position:
                        crashpoint("wal.batch_mid", self._file.flush)
                    offsets.append(self._segment_bytes)
                    self._write_record(rtype, parts)
                self._file.flush()
                crashpoint("wal.pre_fsync")
                self._maybe_sync()
            except BaseException:
                self._discard_tail(start, segment_bytes)
                raise
            if self._segment_bytes >= self.segment_max_bytes:
                self._rotate()
            return segment, offsets

    def _discard_tail(self, start: int, segment_bytes: int) -> None:
        """Cut an abandoned write off the active segment (lock held)."""
        try:
            self._file.flush()
            self._file.truncate(start)
            self._segment_bytes = segment_bytes
        except OSError:
            pass  # the recovery scan will truncate the tail instead

    def _maybe_sync(self) -> None:
        policy = self.fsync_policy
        if policy.mode == "always":
            os.fsync(self._file.fileno())
            self._last_sync = time.monotonic()
        elif policy.mode == "interval":
            now = time.monotonic()
            if now - self._last_sync >= policy.interval:
                os.fsync(self._file.fileno())
                self._last_sync = now

    def _rotate(self) -> None:
        # A sealed segment is a durability boundary: it is always fsynced,
        # so torn tails can only ever exist in the active (last) segment.
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        crashpoint("wal.pre_rotate")
        self._create_segment(self._segment_index + 1)

    # -- reading ----------------------------------------------------------

    def read(
        self, segment: int, offset: int, split: int
    ) -> Tuple[int, bytes, bytes]:
        """The record an append reported at ``(segment, offset)``, as
        ``(rtype, payload[:split], payload[split:])``: positioned reads
        (no buffer of our own; the OS page cache is the cache), CRC-checked
        like every other read, so anything but an intact record there
        raises :class:`LogIntegrityError`.  An append has flushed its
        record to the OS before returning, so this handle sees it."""
        path = os.path.join(self.directory, _segment_name(segment))
        with self._lock:
            if self._reader is None or self._reader[0] != segment:
                self._close_reader()
                try:
                    self._reader = (segment, os.open(path, os.O_RDONLY))
                except FileNotFoundError:
                    raise LogIntegrityError(
                        f"WAL segment {path} is missing"
                    ) from None
            fd = self._reader[1]
            try:
                record = _read_record(
                    lambda size, position: os.pread(fd, size, position),
                    offset,
                    split,
                )
                if record is None:
                    raise _TornTail(offset, "no record there")
            except _TornTail as tear:
                raise _corrupt(path, tear) from None
            return record

    def _close_reader(self) -> None:
        if self._reader is not None:
            os.close(self._reader[1])
            self._reader = None

    # -- maintenance ------------------------------------------------------

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._last_sync = time.monotonic()

    def flush(self) -> None:
        """Push buffered bytes to the OS (readable by other handles)."""
        with self._lock:
            self._file.flush()

    @property
    def segment_index(self) -> int:
        """Index of the active segment."""
        with self._lock:
            return self._segment_index

    def close(self) -> None:
        with self._lock:
            self._close_reader()
            if not self._file.closed:
                self._file.flush()
                os.fsync(self._file.fileno())
                self._file.close()

    def abandon(self) -> None:
        """Close without syncing -- test helper for simulated crashes, so a
        half-dead store object cannot later flush bytes into a directory a
        recovered store has already reopened."""
        with self._lock:
            self._close_reader()
            if not self._file.closed:
                self._file.close()
