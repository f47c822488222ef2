"""Topic-sharded trusted logger.

A single :class:`~repro.core.log_server.LogServer` funnels every submit --
batched or not -- through one lock and one hash chain, so the logger
saturates one core no matter how many components feed it.  The sharded
server runs N *independent* ``LogServer`` instances, one per shard, and
routes each entry to its shard by topic (:class:`ShardRouter`).  Shards
share nothing on the submit path: each has its own lock, hash chain,
Merkle frontier, and -- when backed by disk -- its own WAL + checkpoint
directory, so submits to different shards proceed in parallel.

What the set still commits to as a whole is the
:class:`ShardSetCommitment`: a Merkle root over the ordered shard roots.
One hash pins the entire log (publishable per epoch exactly like a single
server's root), and a mismatch localizes to the shard whose leaf changed.

Shard layout on disk::

    store_dir/
        shard-000/   <- one DurableLogStore (WAL segments + checkpoints)
        shard-001/
        ...

Reopening with a different ``shards`` count is refused: routing is plain
modulo, so a different count would scatter a topic's future entries across
new shards while its history stays in the old one -- the per-topic
transmission pairing the auditor relies on would silently break.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.entries import Direction, LogEntry
from repro.core.log_server import LogCommitment, LogServer
from repro.core.log_store import LogStore
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.merkle import MerkleTree
from repro.errors import DecodingError, LogIntegrityError, LoggingError, ProofError
from repro.sharding.router import ShardRouter

#: Name of shard ``i``'s subdirectory under a durable ``store_dir``.
SHARD_DIR_FORMAT = "shard-%03d"
_SHARD_DIR_RE = re.compile(r"^shard-(\d{3})$")

#: Fixed-width prefix of a shard's leaf in the set commitment: shard index
#: and entry count (8 bytes big-endian each) followed by the shard's chain
#: head and Merkle root.  Fixed widths make the encoding injective.
_LEAF_HEADER = struct.Struct(">QQ")


def shard_dirname(shard: int) -> str:
    """The on-disk directory name for shard ``shard``."""
    return SHARD_DIR_FORMAT % shard


def _shard_set_root(commitments: Sequence[LogCommitment]) -> bytes:
    tree = MerkleTree(
        _LEAF_HEADER.pack(index, c.entries) + c.chain_head + c.merkle_root
        for index, c in enumerate(commitments)
    )
    return tree.root()


@dataclass(frozen=True)
class ShardSetCommitment:
    """The sharded logger's publishable commitment: one Merkle root over
    the ordered per-shard commitments.

    Equality of two set roots implies equality of every shard's entry
    count, chain head, and Merkle root (each leaf binds all three), so a
    replicated deployment can compare whole sharded loggers with one hash
    -- and when the roots differ, :meth:`mismatched_shards` names the
    shards responsible.
    """

    shards: int
    entries: int
    total_bytes: int
    root: bytes
    shard_commitments: Tuple[LogCommitment, ...]

    def mismatched_shards(self, other: "ShardSetCommitment") -> List[int]:
        """Shard indices whose commitments differ between ``self`` and
        ``other`` (the localization step of a set-root mismatch)."""
        if other.shards != self.shards:
            raise ValueError(
                f"cannot compare shard sets of different sizes "
                f"({self.shards} vs {other.shards})"
            )
        return [
            i
            for i, (mine, theirs) in enumerate(
                zip(self.shard_commitments, other.shard_commitments)
            )
            if mine != theirs
        ]

    def as_log_commitment(self) -> LogCommitment:
        """Collapse to the single-logger commitment shape (set root in
        both hash slots) -- what an untargeted ``OP_HEALTH`` reports."""
        return LogCommitment(
            entries=self.entries,
            chain_head=self.root,
            merkle_root=self.root,
            total_bytes=self.total_bytes,
        )


class ShardedLogServer:
    """N independent :class:`LogServer` shards behind one logger surface.

    Drop-in for the places a ``LogServer`` goes: ``register_key`` /
    ``submit`` / ``submit_batch`` / ``entries`` / ``stats`` all exist with
    the same semantics, and ``ShardedLogServer(shards=1)`` is
    byte-identical to a plain ``LogServer`` fed the same stream (asserted
    by the equivalence suite).  The differences are where sharding shows:

    - ``commitment()`` returns a :class:`ShardSetCommitment`;
    - record indexes are per shard, so raw-record access and inclusion
      proofs take a shard argument;
    - key registrations are broadcast to every shard (each shard must be
      independently auditable, and keys are tiny compared to entries).
    """

    def __init__(
        self,
        shards: int = 4,
        store_dir: Optional[str] = None,
        fsync: "str | None" = None,
        checkpoint_every: int = 256,
        store_factory: Optional[Callable[[int], LogStore]] = None,
        signer: Optional[PrivateKey] = None,
        log_id: Optional[str] = None,
    ):
        if store_dir is not None and store_factory is not None:
            raise ValueError("pass either store_dir or store_factory, not both")
        #: Logger identity (one keypair for the whole set; per-shard heads
        #: carry the shard in their scope).  ``None`` = no signed heads.
        self._signer = signer
        self.log_id = log_id or (
            f"log-{signer.public_key.fingerprint()}" if signer else "unsigned"
        )
        self.router = ShardRouter(shards)
        self.store_dir = store_dir
        if store_dir is not None:
            self._check_layout(store_dir, shards)
            # import deferred so the in-memory path never touches storage
            from repro.storage.durable_store import DurableLogStore

            store_factory = lambda index: DurableLogStore(  # noqa: E731
                os.path.join(store_dir, shard_dirname(index)),
                fsync=fsync,
                checkpoint_every=checkpoint_every,
            )
        self._servers: List[LogServer] = [
            LogServer(store_factory(index) if store_factory is not None else None)
            for index in range(shards)
        ]
        #: Submissions refused before any shard was selected (undecodable
        #: bytes carry no topic to route on).
        self._unroutable = 0

    @staticmethod
    def _check_layout(store_dir: str, shards: int) -> None:
        """Refuse to reopen a durable layout with a different shard count."""
        if not os.path.isdir(store_dir):
            return
        existing = sorted(
            int(match.group(1))
            for name in os.listdir(store_dir)
            if (match := _SHARD_DIR_RE.match(name))
        )
        if not existing:
            return
        if existing != list(range(shards)):
            raise LogIntegrityError(
                f"store layout at {store_dir!r} holds shard directories "
                f"{existing} but {shards} shards were requested; the "
                f"topic->shard mapping depends on the count, so reopening "
                f"with a different one would split topics across shards"
            )

    # -- shard access ------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return self.router.shards

    def shard(self, index: int) -> LogServer:
        """The underlying :class:`LogServer` for shard ``index``."""
        return self._servers[index]

    def shard_of(self, topic: str) -> int:
        """Which shard entries for ``topic`` land in."""
        return self.router.shard_of(topic)

    @property
    def keystore(self):
        """A key registry view (all shards hold identical registries)."""
        return self._servers[0].keystore

    @property
    def rejected_submissions(self) -> int:
        """Undecodable submissions refused across the set (same semantics
        as :attr:`LogServer.rejected_submissions`)."""
        return self._unroutable + sum(
            server.rejected_submissions for server in self._servers
        )

    # -- component-facing API ---------------------------------------------

    def register_key(self, component_id: str, key: Union[PublicKey, bytes]) -> None:
        """Register a component's key on *every* shard.

        Each shard must be independently auditable (and independently
        recoverable from its own WAL), so the registry is replicated
        rather than routed.
        """
        if isinstance(key, bytes):
            key = PublicKey.from_bytes(key)
        for server in self._servers:
            server.register_key(component_id, key)

    def _route(self, entry: Union[LogEntry, bytes]) -> Tuple[int, Union[LogEntry, bytes]]:
        """Pick the shard for one entry; raises ``LoggingError`` (and
        counts the rejection) when the bytes are undecodable."""
        if isinstance(entry, LogEntry):
            return self.router.shard_of(entry.topic), entry
        record = bytes(entry)
        try:
            topic = LogEntry.decode(record).topic
        except DecodingError as exc:
            self._unroutable += 1
            raise LoggingError(f"undecodable log entry: {exc}") from exc
        # Hand the shard the original bytes, not the re-encoding: the
        # shard's chain must fold exactly what the component signed over.
        return self.router.shard_of(topic), record

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        """Ingest one entry into its topic's shard; returns the entry's
        index *within that shard*."""
        return self.submit_batch([entry])[0]

    def submit_batch(self, entries: List[Union[LogEntry, bytes]]) -> List[int]:
        """Group-commit a batch, split by shard.

        The batch is routed first (an undecodable entry rejects the whole
        batch before anything is mutated, like ``LogServer.submit_batch``),
        then each shard ingests its sub-batch under its own lock as one
        group commit.  All-or-nothing holds *per shard*: a store failure in
        shard ``k`` rolls back shard ``k``'s sub-batch, but sub-batches
        already committed to other shards stay -- the caller's per-entry
        retry fallback then re-submits only what the failing shard refused
        (re-submission of a committed entry would be visible to the auditor
        as a replayed sequence, never silent).
        """
        if not entries:
            return []
        routed: List[Tuple[int, Union[LogEntry, bytes]]] = []
        for entry in entries:
            routed.append(self._route(entry))
        by_shard: Dict[int, List[int]] = {}
        for position, (shard, _) in enumerate(routed):
            by_shard.setdefault(shard, []).append(position)
        indices: List[int] = [0] * len(entries)
        for shard in sorted(by_shard):
            positions = by_shard[shard]
            sub_batch = [routed[p][1] for p in positions]
            try:
                sub_indices = self._servers[shard].submit_batch(sub_batch)
            except Exception as exc:
                raise LoggingError(
                    f"shard {shard} rejected its sub-batch: {exc}"
                ) from exc
            for position, index in zip(positions, sub_indices):
                indices[position] = index
        return indices

    def submit_batch_to_shard(
        self, shard: int, entries: List[Union[LogEntry, bytes]]
    ) -> List[int]:
        """Ingest a batch into an explicitly named shard, verifying that
        the router agrees for every entry before anything is mutated --
        the server-side check behind shard-tagged ``OP_SUBMIT_BATCH``
        frames (a client with a stale shard count must not scatter a
        topic across shards)."""
        routed: List[Union[LogEntry, bytes]] = []
        for entry in entries:
            expected, item = self._route(entry)
            if shard != expected:
                raise LoggingError(
                    f"batch tagged for shard {shard} holds an entry whose "
                    f"topic belongs to shard {expected}"
                )
            routed.append(item)
        return self._servers[shard].submit_batch(routed)

    # -- auditor/query API -------------------------------------------------

    def entries(
        self,
        component_id: Optional[str] = None,
        topic: Optional[str] = None,
        direction: Optional[Direction] = None,
        seq: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> List[LogEntry]:
        """Entries matching every filter, shard-major in ingestion order.

        A ``topic`` filter touches only that topic's shard (routing makes
        the other shards provably empty for it); a ``shard`` filter scopes
        the query to one shard explicitly.
        """
        if shard is not None:
            servers = [self._servers[shard]]
        elif topic is not None:
            servers = [self._servers[self.router.shard_of(topic)]]
        else:
            servers = self._servers
        result: List[LogEntry] = []
        for server in servers:
            result.extend(server.entries(component_id, topic, direction, seq))
        return result

    def __len__(self) -> int:
        return sum(len(server) for server in self._servers)

    @property
    def total_bytes(self) -> int:
        return sum(server.total_bytes for server in self._servers)

    def shard_raw_records(
        self,
        shard: int,
        start: int = 0,
        count: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> List[bytes]:
        """Encoded records ``[start, start+count)`` of one shard -- the
        fetch side of per-shard anti-entropy (a merged index space would
        not be stable under interleaved submits, so fetches are per
        shard)."""
        return self._servers[shard].raw_records(start, count, max_bytes)

    def components(self) -> List[str]:
        return self._servers[0].components()

    def keys_snapshot(self) -> Dict[str, bytes]:
        return self._servers[0].keys_snapshot()

    def public_key(self, component_id: str) -> PublicKey:
        return self._servers[0].public_key(component_id)

    def add_observer(self, callback) -> None:
        for server in self._servers:
            server.add_observer(callback)

    def remove_observer(self, callback) -> None:
        for server in self._servers:
            server.remove_observer(callback)

    # -- stats -------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Flat integer counters (mergeable into protocol ``stats()``)."""
        return {
            "shard_count": self.shard_count,
            "sharded_entries": len(self),
            "sharded_bytes": self.total_bytes,
            "sharded_rejected": self.rejected_submissions,
        }

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard detail: entry/byte/rejection counters per shard."""
        return [
            {
                "shard": index,
                "entries": len(server),
                "total_bytes": server.total_bytes,
                "rejected_submissions": server.rejected_submissions,
            }
            for index, server in enumerate(self._servers)
        ]

    # -- integrity ---------------------------------------------------------

    def verify_shard(self, shard: int) -> None:
        """Check one shard's tamper-evident store; raises a
        :class:`LogIntegrityError` naming the shard."""
        try:
            self._servers[shard].verify_integrity()
        except LogIntegrityError as exc:
            raise LogIntegrityError(f"shard {shard}: {exc}") from exc

    def verify_integrity(self) -> None:
        """Check every shard's tamper-evident store; raises a
        :class:`LogIntegrityError` naming the first failing shard."""
        for index in range(self.shard_count):
            self.verify_shard(index)

    def shard_commitment(self, shard: int) -> LogCommitment:
        """One shard's commitment (what a shard-targeted ``OP_HEALTH``
        probe reports)."""
        return self._servers[shard].commitment()

    def commitment(self) -> ShardSetCommitment:
        """The set commitment over all shards.

        Each shard's snapshot is internally consistent (taken under that
        shard's lock); the *set* is a consistent point-in-time snapshot
        only when no submits are in flight, which is when commitments are
        taken (epoch close, catch-up freeze, audit).
        """
        commitments = tuple(server.commitment() for server in self._servers)
        return ShardSetCommitment(
            shards=self.shard_count,
            entries=sum(c.entries for c in commitments),
            total_bytes=sum(c.total_bytes for c in commitments),
            root=_shard_set_root(commitments),
            shard_commitments=commitments,
        )

    def merkle_root(self) -> bytes:
        """The shard-set root (the one hash pinning the whole log)."""
        return self.commitment().root

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shard_count:
            raise ProofError(
                f"shard {shard} out of range for a {self.shard_count}-shard set"
            )

    def prove_inclusion(self, shard: int, index: int, tree_size: Optional[int] = None):
        """Inclusion proof for entry ``index`` of shard ``shard`` against
        that shard's Merkle root; pair it with the shard's leaf in the set
        root for an end-to-end proof.  ``tree_size`` targets the shard's
        historical root (the one its signed tree head committed to)."""
        self._check_shard(shard)
        return self._servers[shard].prove_inclusion(index, tree_size)

    def shard_prove_inclusion(
        self, shard: int, index: int, tree_size: Optional[int] = None
    ):
        """Shard-tagged ``OP_PROVE_INCLUSION`` entry point (alias of
        :meth:`prove_inclusion` under the endpoint's protocol name)."""
        return self.prove_inclusion(shard, index, tree_size)

    def shard_prove_consistency(
        self, shard: int, old_size: int, new_size: Optional[int] = None
    ):
        """RFC 6962 consistency proof between two sizes of one shard's log
        (the shard-tagged ``OP_PROVE_CONSISTENCY`` entry point)."""
        self._check_shard(shard)
        return self._servers[shard].prove_consistency(old_size, new_size)

    # -- signed tree heads ---------------------------------------------------

    def attach_signer(self, signer: PrivateKey, log_id: Optional[str] = None) -> None:
        """Give the shard set an identity keypair for signed tree heads."""
        self._signer = signer
        self.log_id = log_id or f"log-{signer.public_key.fingerprint()}"

    @property
    def signer_public_key(self) -> Optional[PublicKey]:
        return self._signer.public_key if self._signer else None

    def _require_signer(self) -> PrivateKey:
        if self._signer is None:
            raise LoggingError(
                "sharded log server has no signer attached; cannot issue "
                "a signed tree head"
            )
        return self._signer

    def shard_signed_tree_head(self, shard: int, timestamp: Optional[float] = None):
        """One shard's signed head (scope = shard index + 1): the same
        logger identity signs every shard, so forked views of *any* shard
        convict the whole logger."""
        from repro.gossip.sth import issue_sth

        signer = self._require_signer()
        self._check_shard(shard)
        commitment = self._servers[shard].commitment()
        return issue_sth(
            signer,
            self.log_id,
            entries=commitment.entries,
            chain_head=commitment.chain_head,
            merkle_root=commitment.merkle_root,
            scope=shard + 1,
            timestamp=timestamp,
        )

    def signed_tree_head(self, timestamp: Optional[float] = None):
        """The signed *set* head: the shard-set root (which pins every
        shard's entry count, chain head, and Merkle root) in both hash
        slots, under the logger identity's signature."""
        from repro.gossip.sth import issue_sth

        signer = self._require_signer()
        commitment = self.commitment()
        return issue_sth(
            signer,
            self.log_id,
            entries=commitment.entries,
            chain_head=commitment.root,
            merkle_root=commitment.root,
            timestamp=timestamp,
        )

    def checkpoint(self) -> None:
        for server in self._servers:
            server.checkpoint()

    def close(self) -> None:
        for server in self._servers:
            server.close()
