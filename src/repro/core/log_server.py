"""The trusted logger.

Accepts public-key registrations and log entries from components, stores the
entries tamper-evidently, and answers the auditor's queries.  Entries are
"simply pushed into the server" (Section V-B): there is no response path a
component could depend on, so a logger failure cannot stall the data plane
-- the paper's freedom from single-point failure.

When backed by a :class:`~repro.storage.durable_store.DurableLogStore` the
server also survives its *own* death: on construction it replays whatever
the store recovered -- Merkle tree, per-component counters, and the key
registry (journaled KEY records plus the checkpoint snapshot) -- and
cross-checks the rebuilt state against the checkpoint commitments, so
``verify_integrity()``, ``merkle_root()``, and every audit verdict after a
crash equal those of a never-crashed run.

Memory model: the store holds each raw record once -- a durable store on
disk only -- and the server holds no form of it, only the Merkle tree's
32-byte hashes.  Every record is fully decoded on the way in (an
undecodable one is refused, observers see the decoded entry) but the
object is not kept.  Reads stream from the store: recovery, :meth:`raw_records`
and :meth:`entries` take one record at a time, and every record served is
checked against the server's own Merkle leaf hash, so bytes altered in the
store since ingest raise :class:`~repro.errors.LogIntegrityError` instead
of being served as evidence.  :meth:`LogServer.entries` memoises what it
decodes, so an in-process auditor pays for the decoded copy when it asks
and a remote one never does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.core.entries import Direction, LogEntry
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.keystore import KeyStore
from repro.crypto.merkle import (
    MerkleConsistencyProof,
    MerkleProof,
    MerkleTree,
    leaf_hash,
)
from repro.core.log_store import InMemoryLogStore, LogStore
from repro.errors import DecodingError, LogIntegrityError, LoggingError


@dataclass(frozen=True)
class LogCommitment:
    """A logger's publishable commitment to everything it has ingested.

    One replica's answer to "what do you hold?": two replicas holding the
    same entries in the same order agree on every field; any divergence in
    content or order changes ``chain_head`` and ``merkle_root``.  Cheap to
    take (the root folds O(log n) stored subtree hashes), so replicated
    deployments can poll it as a health probe.
    """

    entries: int
    chain_head: bytes
    merkle_root: bytes
    total_bytes: int


class LogServer:
    """Key registry + tamper-evident entry store + query interface."""

    def __init__(
        self,
        store: Optional[LogStore] = None,
        signer: Optional[PrivateKey] = None,
        log_id: Optional[str] = None,
    ):
        self.keystore = KeyStore()
        #: Logger identity keypair; enables signed tree heads when set.
        self._signer = signer
        self.log_id = log_id or (
            f"log-{signer.public_key.fingerprint()}" if signer else "unsigned"
        )
        # identity test: an empty LogStore is falsy (it defines __len__),
        # `or` would wrongly replace it
        self.store: LogStore = store if store is not None else InMemoryLogStore()
        #: memo of :meth:`entries`: the decoded form of the first
        #: ``len(self._entries)`` records, extended on read
        self._entries: List[LogEntry] = []
        #: the one commitment structure: roots and proofs at the current
        #: and every historical size, O(log n) each
        self._merkle = MerkleTree()
        self._by_component: Dict[str, int] = {}
        self._bytes_by_component: Dict[str, int] = {}
        self._observers: List = []
        # reentrant: a durable store's auto-checkpoint fires inside
        # ``submit`` (under this lock) and calls back into
        # ``_checkpoint_extra``, which locks again
        self._lock = threading.RLock()
        #: Undecodable submissions refused (never ingested); lets chaos
        #: tests tell "network mangled the entry" from "entry never sent".
        self.rejected_submissions = 0
        if hasattr(self.store, "checkpoint_extra_provider"):
            self.store.checkpoint_extra_provider = self._checkpoint_extra
        if len(self.store):
            self._recover_from_store()

    # -- crash recovery ----------------------------------------------------

    def _recover_from_store(self) -> None:
        """Rebuild derived state from a store that recovered from disk."""
        recovery = getattr(self.store, "recovery", None)
        anchor = getattr(recovery, "checkpoint_entries", None)
        # per-component counts of the prefix the checkpoint covered
        recount: Dict[str, int] = {}
        with self._lock:
            for record in self.store.iter_records():
                index = len(self._merkle)
                try:
                    # decoded over a view (no copy of the data field)
                    self._apply_derived(
                        LogEntry.decode(memoryview(record)), record
                    )
                except DecodingError as exc:
                    # CRC and chain both passed, so these bytes are what
                    # was originally accepted -- an undecodable record here
                    # means the store was fed garbage, not torn by a crash.
                    raise LogIntegrityError(
                        f"recovered record {index} does not decode: {exc}"
                    ) from exc
                # one record in memory at a time (hence no enumerate():
                # its result tuple holds the last record during the read)
                del record
                if index + 1 == anchor:
                    recount = dict(self._by_component)
            store_root = getattr(self.store, "merkle_root", None)
            if store_root is not None and store_root() != self._merkle.root():
                raise LogIntegrityError(
                    "rebuilt Merkle tree disagrees with the store's "
                    "recovered frontier"
                )
            extra = dict(recovery.extra) if recovery is not None else {}
            self._restore_keys(extra)
            self._check_recovered_counters(extra, anchor, recount)

    def _restore_keys(self, extra: Dict[str, Any]) -> None:
        keys: Dict[str, bytes] = {}
        for component_id, key_hex in extra.get("keys", {}).items():
            keys[component_id] = bytes.fromhex(key_hex)
        keys.update(getattr(self.store, "recovered_keys", {}))
        for component_id, key_bytes in keys.items():
            self.keystore.register(component_id, PublicKey.from_bytes(key_bytes))

    @staticmethod
    def _check_recovered_counters(
        extra: Dict[str, Any], anchor: Optional[int], recount: Dict[str, int]
    ) -> None:
        """The checkpoint's counters must match the replay's recount of the
        prefix it covered -- a mismatch means entries were reordered or
        substituted in a way that kept the chain intact, which cannot
        happen short of a broken store implementation, so fail loudly."""
        snapshot = extra.get("by_component")
        if snapshot is None or anchor is None:
            return
        if recount != {k: int(v) for k, v in snapshot.items()}:
            raise LogIntegrityError(
                "checkpointed per-component counters disagree with the "
                "recovered entries"
            )

    def _checkpoint_extra(self) -> Dict[str, Any]:
        """Server-side state folded into every durable-store checkpoint."""
        with self._lock:
            return {
                "keys": {
                    component_id: key.to_bytes().hex()
                    for component_id, key in self.keystore.snapshot().items()
                },
                "by_component": dict(self._by_component),
                "bytes_by_component": dict(self._bytes_by_component),
                "merkle_root": self._merkle.root().hex(),
            }

    # -- observers --------------------------------------------------------

    def add_observer(self, callback) -> None:
        """Register a callable invoked with each decoded entry after
        ingestion -- the hook online analyses attach to (e.g.
        :meth:`repro.audit.online.OnlineAuditor.attach`)."""
        with self._lock:
            self._observers.append(callback)

    def remove_observer(self, callback) -> None:
        with self._lock:
            if callback in self._observers:
                self._observers.remove(callback)

    # -- component-facing API ---------------------------------------------

    def register_key(self, component_id: str, key: Union[PublicKey, bytes]) -> None:
        """Store a component's public key (step 1 of the prototype flow).

        With a durable store the registration is also journaled (as an
        unchained KEY record), so the registry survives a logger restart.
        """
        if isinstance(key, bytes):
            key = PublicKey.from_bytes(key)
        self.keystore.register(component_id, key)
        append_key = getattr(self.store, "append_key", None)
        if append_key is not None:
            append_key(component_id, key.to_bytes())

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        """Ingest one log entry; returns its index in the log.

        Accepts either a decoded :class:`LogEntry` or its wire encoding
        (what a remote logging thread would push over a socket).
        """
        if isinstance(entry, LogEntry):
            record = entry.encode()
            decoded = entry
        else:
            record = bytes(entry)
            try:
                decoded = LogEntry.decode(record)
            except DecodingError as exc:
                with self._lock:
                    self.rejected_submissions += 1
                raise LoggingError(f"undecodable log entry: {exc}") from exc
        with self._lock:
            # Derived state first, the store's append last: if the store
            # auto-checkpoints inside ``append``, the checkpoint must see
            # counters that already include this entry.
            size = len(self._merkle)
            self._apply_derived(decoded, record)
            try:
                index = self.store.append(record)
            except BaseException:
                # An injected crash or a real I/O failure: roll the derived
                # state back so memory never claims more than disk holds.
                self._rollback_derived(size, [(decoded, record)])
                raise
            observers = list(self._observers)
        for observer in observers:
            try:
                observer(decoded)
            except Exception:
                pass  # an analysis failure must not reject the entry
        return index

    def submit_batch(self, entries: List[Union[LogEntry, bytes]]) -> List[int]:
        """Ingest several entries as one group commit; returns their indices.

        The whole batch is appended under one lock acquisition and one
        store group commit (a durable store turns that into one WAL write
        burst with a single fsync).  Semantics are all-or-nothing: an
        undecodable entry rejects the batch before anything is mutated,
        and a store failure rolls the derived state back so memory never
        claims more than the store holds -- callers may then re-submit
        per entry to isolate a poison entry without double-ingesting its
        batchmates.  The resulting chain head and Merkle root are
        byte-identical to per-entry submission of the same stream.

        Subclasses or wrappers that intercept :meth:`submit` (outage
        simulation, admission control, ...) must intercept this method
        too: batched submission does NOT route through :meth:`submit`.
        """
        if not entries:
            return []
        pairs: List = []
        for entry in entries:
            if isinstance(entry, LogEntry):
                pairs.append((entry, entry.encode()))
            else:
                record = bytes(entry)
                try:
                    pairs.append((LogEntry.decode(record), record))
                except DecodingError as exc:
                    with self._lock:
                        self.rejected_submissions += 1
                    raise LoggingError(
                        f"undecodable log entry in batch: {exc}"
                    ) from exc
        with self._lock:
            size = len(self._merkle)
            store_size = len(self.store)
            for decoded, record in pairs:
                self._apply_derived(decoded, record)
            try:
                indices = self.store.append_batch(
                    [record for _, record in pairs]
                )
            except BaseException:
                # A store whose group commit is atomic (in-memory, durable
                # WAL) kept nothing; a plain per-record fallback store may
                # have kept a prefix.  Either way, re-sync the derived
                # state to exactly what the store now holds.
                landed = len(self.store) - store_size
                self._rollback_derived(size + landed, pairs[landed:])
                raise
            observers = list(self._observers)
        for decoded, _ in pairs:
            for observer in observers:
                try:
                    observer(decoded)
                except Exception:
                    pass  # an analysis failure must not reject the entry
        return indices

    def _apply_derived(self, decoded: LogEntry, record: bytes) -> None:
        """Fold one accepted entry into the derived state (lock held);
        ``decoded`` is read, not kept."""
        self._merkle.append(record)
        cid = decoded.component_id
        self._by_component[cid] = self._by_component.get(cid, 0) + 1
        self._bytes_by_component[cid] = (
            self._bytes_by_component.get(cid, 0) + len(record)
        )

    def _rollback_derived(self, size: int, pairs: List) -> None:
        """Undo :meth:`_apply_derived` for ``pairs``, shrinking the derived
        state back to ``size`` entries (lock held)."""
        self._merkle.truncate(size)
        for decoded, record in pairs:
            cid = decoded.component_id
            self._by_component[cid] -= 1
            if not self._by_component[cid]:
                del self._by_component[cid]
            self._bytes_by_component[cid] -= len(record)
            if not self._bytes_by_component[cid]:
                del self._bytes_by_component[cid]

    # -- auditor/query API ---------------------------------------------------

    def entries(
        self,
        component_id: Optional[str] = None,
        topic: Optional[str] = None,
        direction: Optional[Direction] = None,
        seq: Optional[int] = None,
    ) -> List[LogEntry]:
        """Entries matching every given filter, in ingestion order.

        The first call after an ingest reads the new records from the
        store and decodes them (under the server lock) and memoises them;
        until an auditor asks, nothing decoded is held.
        """
        with self._lock:
            for record in self._served(len(self._entries), len(self._merkle)):
                self._entries.append(LogEntry.decode(record))
            result = list(self._entries)
        if component_id is not None:
            result = [e for e in result if e.component_id == component_id]
        if topic is not None:
            result = [e for e in result if e.topic == topic]
        if direction is not None:
            result = [e for e in result if e.direction is direction]
        if seq is not None:
            result = [e for e in result if e.seq == seq]
        return result

    def __len__(self) -> int:
        with self._lock:
            return len(self._merkle)

    @property
    def total_bytes(self) -> int:
        """Total encoded bytes ingested (the Figure 15 / Table IV metric)."""
        # Taken under the server lock like the sibling accessors: reading
        # the store while ``submit`` appends under the lock would otherwise
        # race on multi-field store state.
        with self._lock:
            return self.store.total_bytes

    def bytes_by_component(self) -> Dict[str, int]:
        """Encoded bytes ingested per component."""
        with self._lock:
            return dict(self._bytes_by_component)

    def raw_records(
        self,
        start: int = 0,
        count: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[bytes]:
        """Encoded records ``[start, start + count)`` in ingestion order.

        The fetch side of anti-entropy: a lagging replica replays exactly
        these bytes, so its hash chain and Merkle tree land on the same
        commitments as the donor's.  With ``max_bytes`` the range stops
        before the record that would take it past that many bytes, but
        never before its first record.
        """
        if start < 0 or (count is not None and count < 0):
            raise ValueError("start and count must be non-negative")
        records: List[bytes] = []
        size = 0
        with self._lock:
            end = len(self._merkle)
            if count is not None:
                end = min(end, start + count)
            for record in self._served(start, end):
                size += len(record)
                if records and max_bytes is not None and size > max_bytes:
                    break
                records.append(record)
        return records

    def _served(self, start: int, end: int) -> Iterator[bytes]:
        """Records ``[start, end)`` read from the store, each checked
        against its Merkle leaf hash (lock held)."""
        records = islice(self.store.iter_records(start), max(0, end - start))
        for index, record in enumerate(records, start):
            if leaf_hash(record) != self._merkle.leaf(index):
                raise LogIntegrityError(
                    f"stored record {index} no longer matches its Merkle leaf"
                )
            yield record

    def components(self) -> List[str]:
        """All component ids that have registered a key."""
        return sorted(self.keystore.snapshot())

    def keys_snapshot(self) -> Dict[str, bytes]:
        """The key registry as ``component_id -> encoded public key``
        (what a recovering replica re-registers during catch-up)."""
        return {
            component_id: key.to_bytes()
            for component_id, key in self.keystore.snapshot().items()
        }

    def public_key(self, component_id: str) -> PublicKey:
        """The registered key for ``component_id`` (raises if unknown)."""
        return self.keystore.get(component_id)

    # -- integrity --------------------------------------------------------

    def verify_integrity(self) -> None:
        """Check the tamper-evident store; raises on any modification."""
        self.store.verify()

    def merkle_root(self) -> bytes:
        """Commitment over all ingested entries (publishable per epoch)."""
        with self._lock:
            return self._merkle.root()

    def commitment(self) -> LogCommitment:
        """Entry count, chain head, and Merkle root in one lock acquisition.

        The root is O(log n) even mid-ingest -- cheap enough for the
        ``OP_HEALTH`` probe of a replicated deployment to poll continuously.
        """
        with self._lock:
            return LogCommitment(
                entries=len(self._merkle),
                chain_head=self.store.head(),
                merkle_root=self._merkle.root(),
                total_bytes=self.store.total_bytes,
            )

    def prove_inclusion(self, index: int, tree_size: Optional[int] = None) -> MerkleProof:
        """Inclusion proof for the entry at ``index`` -- what a third-party
        investigator checks.  ``tree_size`` targets a historical root (the
        one a signed tree head of that size committed to); the default is
        the current tree.  Raises :class:`~repro.errors.ProofError` on an
        out-of-range index or size.
        """
        with self._lock:
            if tree_size is None:
                return self._merkle.prove(index)
            return self._merkle.prove(index, tree_size)

    def prove_consistency(
        self, old_size: int, new_size: Optional[int] = None
    ) -> MerkleConsistencyProof:
        """RFC 6962 consistency proof that the log at ``new_size`` (default:
        current) is an append-only extension of the log at ``old_size``."""
        with self._lock:
            if new_size is None:
                new_size = len(self._merkle)
            return self._merkle.prove_consistency(old_size, new_size)

    # -- signed tree heads -------------------------------------------------

    def attach_signer(self, signer: PrivateKey, log_id: Optional[str] = None) -> None:
        """Give the logger an identity keypair so it can issue signed tree
        heads.  ``log_id`` defaults to the key's fingerprint."""
        with self._lock:
            self._signer = signer
            self.log_id = log_id or f"log-{signer.public_key.fingerprint()}"

    @property
    def signer_public_key(self) -> Optional[PublicKey]:
        """The logger identity's public key (the STH trust anchor)."""
        with self._lock:
            return self._signer.public_key if self._signer else None

    def signed_tree_head(self, timestamp: Optional[float] = None):
        """Sign the current commitment: the logger's publishable promise of
        *the* history at this size.  Raises when no signer is attached."""
        from repro.gossip.sth import issue_sth

        with self._lock:
            signer, log_id = self._signer, self.log_id
            head = self.commitment()
        if signer is None:
            raise LoggingError(
                "log server has no signer attached; cannot issue a "
                "signed tree head"
            )
        # The signature (milliseconds of RSA) is taken outside the ingest
        # lock; signer and log id were read together, so a racing
        # ``attach_signer`` yields one identity or the other, never a mix.
        return issue_sth(
            signer,
            log_id,
            entries=head.entries,
            chain_head=head.chain_head,
            merkle_root=head.merkle_root,
            timestamp=timestamp,
        )

    def checkpoint(self) -> None:
        """Force a durable checkpoint now (no-op for in-memory stores)."""
        do_checkpoint = getattr(self.store, "checkpoint", None)
        if do_checkpoint is not None:
            # Lock order must match submit(): server lock, then the store's.
            # The store's checkpoint calls back into _checkpoint_extra (which
            # re-enters this RLock); taking the store lock first would invert
            # the order against a concurrent submit and deadlock.
            with self._lock:
                do_checkpoint()

    def close(self) -> None:
        self.store.close()
