"""A crash-recoverable, tamper-evident log store.

:class:`DurableLogStore` implements the :class:`~repro.core.log_store.LogStore`
interface on top of the write-ahead log of :mod:`repro.storage.wal` and the
checkpoints of :mod:`repro.storage.checkpoint`.  A record's bytes live in
the WAL only: memory holds the chain head, the Merkle frontier, and one
8-byte WAL location per record, and reads come back from the segment
files.  Every append is durably journaled before the store counts it, so a
process crash at any instant recovers to a consistent *prefix* of the
accepted log:

- the WAL record of entry ``i`` carries its chain digest, so recovery
  rebuilds the identical hash chain and Merkle commitment a never-crashed
  run would have;
- each record is hashed in full once, into its Merkle leaf hash: the
  frontier computes it and the chain steps on it, on append, on the
  recovery tail and in :meth:`DurableLogStore.verify` alike, and
  :meth:`DurableLogStore.append_batch` hands the leaves to the caller;
- a torn tail write is truncated at the first corrupt record of the active
  segment -- the affected entry is *absent*, never corrupt, and nothing
  before it is lost;
- the latest checkpoint bounds both recovery work (only the tail after the
  checkpoint is chain-re-verified on open) and silent truncation: it is
  written only after the WAL is synced, so a WAL ending before it is
  tampering, refused before a byte on disk changes;
- recovery streams: one record is in memory at a time.

Reads (:meth:`DurableLogStore.iter_records`) run under the store lock and
cover the first ``len(store)`` records only -- each was flushed to the OS
before its append returned, sealed segments never change, and the
in-process failure path of a batch truncates under the same lock.  Each
record read is CRC-checked; one altered on disk *and* re-checksummed is
caught by :meth:`DurableLogStore.verify` (and, behind a
:class:`~repro.core.log_server.LogServer`, by its Merkle leaf check on
every record it serves).

Key registrations are journaled as unchained KEY records (a batch of one
through the same WAL write as entries) so the trusted logger's registry
survives a restart without perturbing the hash chain or the Merkle root
(which, per the paper, commit to log *entries* only).

Recovery invariants (proved by ``tests/storage/test_crash_recovery.py``):
after reopening a crashed store, ``head()``, ``merkle_root()``/frontier,
entry count, and every stored record equal those of an uncrashed store fed
the same prefix of appends.
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.log_store import LogStore
from repro.crypto.hashchain import GENESIS, HashChain
from repro.crypto.merkle import MerkleFrontier
from repro.errors import LogIntegrityError
from repro.storage.checkpoint import Checkpoint, CheckpointManager
from repro.storage.wal import FsyncPolicy, WalRecord, WriteAheadLog, scan

#: WAL record types used by this store.
REC_ENTRY = 1  # 32-byte chain digest || encoded log entry
REC_KEY = 2  # uint16 component-id length || id utf-8 || public key bytes

_DIGEST_SIZE = 32

#: a record's WAL location is ``segment << _SEGMENT_SHIFT | offset``
_SEGMENT_SHIFT = 40
_OFFSET_MASK = (1 << _SEGMENT_SHIFT) - 1

WAL_SUBDIR = "wal"
CHECKPOINT_SUBDIR = "checkpoints"


@dataclass(frozen=True)
class RecoveryInfo:
    """What recovery found when the store was opened."""

    entries: int  #: total entries recovered
    checkpoint_entries: Optional[int]  #: entry count of the checkpoint used
    replayed: int  #: entries chain-re-verified after the checkpoint
    truncated_bytes: int  #: torn tail bytes discarded from the last segment
    extra: Dict[str, Any] = field(default_factory=dict)  #: checkpoint extra


def _encode_key_record(component_id: str, key_bytes: bytes) -> bytes:
    raw_id = component_id.encode("utf-8")
    if len(raw_id) > 0xFFFF:
        raise ValueError("component id too long for a KEY record")
    return len(raw_id).to_bytes(2, "little") + raw_id + key_bytes


def _decode_key_record(payload: bytes) -> "tuple[str, bytes]":
    if len(payload) < 2:
        raise LogIntegrityError("malformed KEY record")
    id_len = int.from_bytes(payload[:2], "little")
    if len(payload) < 2 + id_len:
        raise LogIntegrityError("malformed KEY record")
    return payload[2 : 2 + id_len].decode("utf-8"), payload[2 + id_len :]


class DurableLogStore(LogStore):
    """Hash-chained records journaled through a WAL with checkpoints.

    :param path: store directory (created if missing) holding ``wal/`` and
        ``checkpoints/``.
    :param fsync: a :class:`~repro.storage.wal.FsyncPolicy` or one of the
        mode strings ``"always"`` / ``"interval"`` / ``"never"``.
    :param segment_max_bytes: WAL segment rotation threshold.
    :param checkpoint_every: automatic checkpoint cadence in appends
        (``0`` disables automatic checkpoints).
    :param keep_checkpoints: committed checkpoint files retained.

    The optional :attr:`checkpoint_extra_provider` callable (set by
    :class:`~repro.core.log_server.LogServer`) contributes server-side
    state -- key registry, per-component counters, Merkle frontier -- to
    every checkpoint, and gets it back through :attr:`recovery`.
    """

    def __init__(
        self,
        path: str,
        fsync: "FsyncPolicy | str | None" = None,
        segment_max_bytes: int = 4 * 1024 * 1024,
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.path = path
        self._lock = threading.RLock()
        self._chain = HashChain()
        self._frontier = MerkleFrontier()
        #: WAL location of record ``i`` (segment and offset, packed)
        self._locations = array("Q")
        self._bytes = 0
        self._keys: Dict[str, bytes] = {}
        self._checkpoint_every = checkpoint_every
        self._appends_since_checkpoint = 0
        self.checkpoint_extra_provider: Optional[Callable[[], Dict[str, Any]]] = None
        os.makedirs(path, exist_ok=True)
        self._checkpoints = CheckpointManager(
            os.path.join(path, CHECKPOINT_SUBDIR), keep=keep_checkpoints
        )
        self.recovery = self._recover(fsync, segment_max_bytes)

    # -- recovery ---------------------------------------------------------

    def _recover(self, fsync, segment_max_bytes) -> RecoveryInfo:
        checkpoint = self._checkpoints.load_latest()
        anchor = checkpoint.entry_count if checkpoint is not None else 0
        if checkpoint is not None:
            # continued over the replayed tail
            self._frontier = checkpoint.frontier.copy()
        # chain head and byte total where the checkpoint says they are
        prefix = {"head": GENESIS, "bytes": 0}

        def sink(record: WalRecord) -> None:
            if record.rtype == REC_KEY:
                component_id, key_bytes = _decode_key_record(record.payload)
                self._keys[component_id] = key_bytes
                return
            if record.rtype != REC_ENTRY:
                raise LogIntegrityError(
                    f"unknown WAL record type {record.rtype}"
                )
            if len(record.payload) < _DIGEST_SIZE:
                raise LogIntegrityError("ENTRY record shorter than its digest")
            view = memoryview(record.payload)
            digest = bytes(view[:_DIGEST_SIZE])
            payload = view[_DIGEST_SIZE:]
            index = len(self._chain)
            if index < anchor:
                # Pre-checkpoint prefix: adopt the stored digest; the
                # checkpoint head check below anchors the whole prefix.
                self._chain.adopt(digest)
            elif self._chain.append_leaf(self._frontier.append(payload)) != digest:
                raise LogIntegrityError(
                    f"chain broken at recovered entry {index}"
                )
            self._bytes += len(payload)
            if index + 1 == anchor:
                prefix["head"], prefix["bytes"] = digest, self._bytes
            self._locations.append(
                record.segment << _SEGMENT_SHIFT | record.offset
            )

        wal = WriteAheadLog(
            os.path.join(self.path, WAL_SUBDIR),
            fsync=fsync,
            segment_max_bytes=segment_max_bytes,
            replay_sink=sink,
        )
        self._wal = wal

        # the replay only read: these checks refuse before resume() writes
        if checkpoint is not None:
            if len(self._chain) < anchor:
                raise LogIntegrityError(
                    f"WAL holds {len(self._chain)} entries but the last "
                    f"checkpoint covers {anchor}: the journal lost "
                    f"checkpointed evidence, which a crash cannot do, so "
                    f"the WAL was tampered with"
                )
            if prefix["head"] != checkpoint.chain_head:
                raise LogIntegrityError(
                    "recovered WAL prefix does not reach the checkpointed "
                    "chain head"
                )
            if prefix["bytes"] != checkpoint.total_bytes:
                raise LogIntegrityError(
                    "recovered WAL prefix disagrees with the checkpointed "
                    "byte total"
                )

        if len(self._frontier) != len(self._chain):
            raise LogIntegrityError("frontier size disagrees with chain")
        wal.resume()
        return RecoveryInfo(
            entries=len(self._chain),
            checkpoint_entries=anchor if checkpoint is not None else None,
            replayed=len(self._chain) - anchor,
            truncated_bytes=wal.truncated_bytes,
            extra=dict(checkpoint.extra) if checkpoint is not None else {},
        )

    @property
    def recovered_keys(self) -> Dict[str, bytes]:
        """Key registrations replayed from KEY records (id -> key bytes)."""
        with self._lock:
            return dict(self._keys)

    # -- LogStore interface ----------------------------------------------

    def append_batch(self, records: List[bytes]) -> List[bytes]:
        """Group-commit ``records``: one WAL write burst, one fsync;
        returns their leaf hashes.

        The resulting chain head, frontier, and on-disk bytes are
        byte-identical to storing the records in batches of any other size
        -- only the fsync count changes (one per batch under the
        ``always`` policy).  Each record is hashed once, by a copy of the
        frontier, and a copy of the chain steps on that leaf; both copies
        are committed once the WAL burst has succeeded, so a burst that
        fails partway leaves the live store untouched; a crash mid-burst
        recovers the records written before the tear, exactly like a torn
        per-entry tail.
        """
        if not records:
            return []
        with self._lock:
            chain, frontier = self._chain.copy(), self._frontier.copy()
            leaves = [frontier.append(record) for record in records]
            items = [
                (REC_ENTRY, chain.append_leaf(leaf), record)
                for leaf, record in zip(leaves, records)
            ]
            segment, offsets = self._wal.append_many(items)
            self._chain, self._frontier = chain, frontier
            location = segment << _SEGMENT_SHIFT
            self._locations.extend(location | offset for offset in offsets)
            self._bytes += sum(map(len, records))
            self._appends_since_checkpoint += len(records)
            if (
                self._checkpoint_every
                and self._appends_since_checkpoint >= self._checkpoint_every
            ):
                self.checkpoint()
            return leaves

    def iter_records(self, start: int = 0) -> Iterator[bytes]:
        """Records ``start .. len(self)`` (length taken at the first read),
        each read back from its WAL segment under the store lock."""
        with self._lock:
            end = len(self._locations)
        for index in range(start, end):
            yield self._read(index)

    def _read(self, index: int) -> bytes:
        with self._lock:
            location = self._locations[index]
            rtype, _, payload = self._wal.read(
                location >> _SEGMENT_SHIFT,
                location & _OFFSET_MASK,
                _DIGEST_SIZE,
            )
        if rtype != REC_ENTRY:
            raise LogIntegrityError(
                f"WAL record of entry {index} has type {rtype}"
            )
        return payload

    def records(self) -> List[bytes]:
        return list(self.iter_records())

    def __len__(self) -> int:
        with self._lock:
            return len(self._chain)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def head(self) -> bytes:
        with self._lock:
            return self._chain.head

    def merkle_root(self) -> bytes:
        """Root of the incremental frontier over all stored records."""
        with self._lock:
            return self._frontier.root()

    # -- key registry journaling ------------------------------------------

    def append_key(self, component_id: str, key_bytes: bytes) -> None:
        """Journal a key registration (idempotent per (id, key))."""
        with self._lock:
            if self._keys.get(component_id) == key_bytes:
                return
            self._wal.append_many(
                [(REC_KEY, _encode_key_record(component_id, key_bytes))]
            )
            self._keys[component_id] = key_bytes

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Force a checkpoint now (also called by the append cadence).

        The WAL is fsynced first: a checkpoint must never be more durable
        than the records it covers, or recovery would report checkpointed
        evidence as lost.
        """
        with self._lock:
            self._wal.sync()
            extra: Dict[str, Any] = {}
            if self.checkpoint_extra_provider is not None:
                extra = dict(self.checkpoint_extra_provider())
            checkpoint = Checkpoint(
                entry_count=len(self._chain),
                chain_head=self._chain.head,
                total_bytes=self._bytes,
                frontier=self._frontier.copy(),
                extra=extra,
            )
            self._checkpoints.write(checkpoint)
            self._appends_since_checkpoint = 0
            return checkpoint

    @property
    def last_checkpoint_entries(self) -> Optional[int]:
        """Entry count of the newest committed checkpoint, if any."""
        pairs = self._checkpoints.paths()
        return pairs[-1][0] if pairs else None

    # -- integrity --------------------------------------------------------

    def verify(self) -> None:
        """Full tamper check against the *disk* state.

        Unlike recovery, nothing is excused: every record in every segment
        must CRC-validate, the recomputed chain must reproduce every stored
        digest and the in-memory head, and every committed checkpoint must
        match the chain and frontier at its entry count.
        """
        with self._lock:
            self._wal.flush()
            checkpoints = {
                c.entry_count: c for c in self._checkpoints.load_all_strict()
            }
            chain = HashChain()
            frontier = MerkleFrontier()
            total = 0
            self._check_checkpoint(checkpoints.get(0), GENESIS, frontier, 0)

            def check(record: WalRecord) -> None:
                nonlocal total
                if record.rtype == REC_KEY:
                    return
                if record.rtype != REC_ENTRY:
                    raise LogIntegrityError(
                        f"unknown WAL record type {record.rtype}"
                    )
                view = memoryview(record.payload)
                payload = view[_DIGEST_SIZE:]
                leaf = frontier.append(payload)
                if chain.append_leaf(leaf) != view[:_DIGEST_SIZE]:
                    raise LogIntegrityError(
                        f"chain broken at record {len(chain) - 1}"
                    )
                total += len(payload)
                self._check_checkpoint(
                    checkpoints.get(len(chain)), chain.head, frontier, total
                )

            scan(os.path.join(self.path, WAL_SUBDIR), strict=True, sink=check)
            count, head = len(chain), chain.head
            unseen = [n for n in checkpoints if n > count]
            if unseen:
                raise LogIntegrityError(
                    f"checkpoint at {min(unseen)} entries exceeds the "
                    f"{count} entries on disk"
                )
            if count != len(self._chain) or head != self._chain.head:
                raise LogIntegrityError(
                    "disk state disagrees with the live store"
                )

    @staticmethod
    def _check_checkpoint(
        checkpoint: Optional[Checkpoint],
        head: bytes,
        frontier: MerkleFrontier,
        total: int,
    ) -> None:
        if checkpoint is None:
            return
        if checkpoint.chain_head != head:
            raise LogIntegrityError(
                f"checkpoint at {checkpoint.entry_count} entries does not "
                f"match the recomputed chain head"
            )
        if checkpoint.frontier.root() != frontier.root():
            raise LogIntegrityError(
                f"checkpoint at {checkpoint.entry_count} entries does not "
                f"match the recomputed Merkle frontier"
            )
        if checkpoint.total_bytes != total:
            raise LogIntegrityError(
                f"checkpoint at {checkpoint.entry_count} entries disagrees "
                f"on byte totals"
            )

    # -- lifecycle --------------------------------------------------------

    def sync(self) -> None:
        """Force all appended records to stable storage now."""
        self._wal.sync()

    def close(self) -> None:
        with self._lock:
            self._wal.close()

    def abandon(self) -> None:
        """Drop file handles without flushing or syncing -- the test
        harness calls this after a :class:`SimulatedCrash` so the dead
        store object cannot interfere with the recovered one."""
        self._wal.abandon()
