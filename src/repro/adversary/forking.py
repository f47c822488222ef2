"""An equivocating trusted logger.

The gossip subsystem (:mod:`repro.gossip`) exists to catch exactly one
adversary: a *compromised logger* that signs two different histories and
shows each to a different audience -- a split view.  Per-client proofs
cannot catch it (each view is internally consistent, every inclusion and
consistency proof checks out); only comparing signed tree heads across
audiences can.

:class:`ForkingLogServer` builds that adversary out of two honest
:class:`~repro.core.log_server.LogServer` instances sharing ONE signing
identity (same key, same ``log_id``).  Every submission feeds both views;
at ``fork_at`` the forked view silently ingests a tampered-but-decodable
copy of the record instead, after which the two hash chains -- and hence
every subsequent chain head, Merkle root, and signed tree head -- diverge
forever while staying individually valid.

Serve the two views to two client groups with :meth:`face`::

    fork = ForkingLogServer(signer, fork_at=3)
    endpoint_a = LogServerEndpoint(fork.face("honest"), transport=...)
    endpoint_b = LogServerEndpoint(fork.face("forked"), transport=...)

Each face answers queries (commitments, proofs, STHs) from its own view
but routes ingestion through the shared fork controller, so both views
see the identical submission stream no matter which face a client used.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Union

from repro.core.entries import LogEntry
from repro.core.log_server import LogCommitment, LogServer
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.merkle import MerkleConsistencyProof, MerkleProof


def tamper_timestamp(record: bytes) -> bytes:
    """Default fork mutation: nudge the timestamp by one second.

    The result still decodes and still carries the component's original
    signature bytes -- a *plausible* lie (the kind a compromised logger
    would tell to reorder blame), not garbage the view itself would
    reject.
    """
    decoded = LogEntry.decode(record)
    decoded.timestamp = decoded.timestamp + 1.0
    return decoded.encode()


class ForkingLogServer:
    """One signing identity, two histories.

    ``fork_at`` is the entry index at which the forked view first
    diverges (default 0: the very first record).  Before that index both
    views are byte-identical; from it on they disagree on every head.
    """

    VIEWS = ("honest", "forked")

    def __init__(
        self,
        signer: PrivateKey,
        log_id: Optional[str] = None,
        fork_at: int = 0,
        mutate: Optional[Callable[[bytes], bytes]] = None,
    ):
        self.honest = LogServer(signer=signer, log_id=log_id)
        # Same signer, same identity: the whole point is that both views'
        # heads verify under one key, making the fork attributable.
        self.forked = LogServer(signer=signer, log_id=self.honest.log_id)
        self.log_id = self.honest.log_id
        self.fork_at = fork_at
        self._mutate = mutate or tamper_timestamp
        self._lock = threading.Lock()
        self.forked_records = 0

    @property
    def signer_public_key(self) -> PublicKey:
        return self.honest.signer_public_key

    # -- shared ingestion --------------------------------------------------

    def register_key(self, component_id: str, key) -> None:
        self.honest.register_key(component_id, key)
        self.forked.register_key(component_id, key)

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        with self._lock:
            record = (
                entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
            )
            index = self.honest.submit(record)
            if index == self.fork_at:
                record = self._mutate(record)
                self.forked_records += 1
            self.forked.submit(record)
            return index

    def submit_batch(self, entries: List[Union[LogEntry, bytes]]) -> List[int]:
        return [self.submit(entry) for entry in entries]

    # -- faces -------------------------------------------------------------

    def face(self, view: str) -> "_LoggerFace":
        """A ``LogServer``-shaped object serving ``view`` ("honest" or
        "forked") -- plug it straight into a
        :class:`~repro.core.remote.LogServerEndpoint`."""
        if view not in self.VIEWS:
            raise ValueError(f"unknown view {view!r}; expected one of {self.VIEWS}")
        return _LoggerFace(self, self.honest if view == "honest" else self.forked)

    def close(self) -> None:
        self.honest.close()
        self.forked.close()


class _LoggerFace:
    """One audience's window onto the fork.

    Ingestion goes through the shared controller (both views must see
    every submission); every read -- commitment, proof, STH, raw records
    -- answers from this face's view alone, which is what makes each
    audience's experience internally consistent.
    """

    def __init__(self, fork: ForkingLogServer, view: LogServer):
        self._fork = fork
        self._view = view

    # ingestion: shared, so the split stays invisible to submitters
    def register_key(self, component_id: str, key) -> None:
        self._fork.register_key(component_id, key)

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        return self._fork.submit(entry)

    def submit_batch(self, entries: List[Union[LogEntry, bytes]]) -> List[int]:
        return self._fork.submit_batch(entries)

    # reads: this view only
    def __len__(self) -> int:
        return len(self._view)

    @property
    def total_bytes(self) -> int:
        return self._view.total_bytes

    @property
    def keystore(self):
        return self._view.keystore

    @property
    def store(self):
        return self._view.store

    def keys_snapshot(self):
        return self._view.keys_snapshot()

    def checkpoint(self) -> None:
        self._view.checkpoint()

    def verify_integrity(self) -> None:
        self._view.verify_integrity()

    def commitment(self) -> LogCommitment:
        return self._view.commitment()

    def raw_records(
        self,
        start: int = 0,
        count: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        return self._view.raw_records(start, count, max_bytes)

    def entries(self, *args, **kwargs):
        return self._view.entries(*args, **kwargs)

    def signed_tree_head(self, timestamp: Optional[float] = None):
        return self._view.signed_tree_head(timestamp)

    def prove_inclusion(
        self, index: int, tree_size: Optional[int] = None
    ) -> MerkleProof:
        return self._view.prove_inclusion(index, tree_size)

    def prove_consistency(
        self, old_size: int, new_size: Optional[int] = None
    ) -> MerkleConsistencyProof:
        return self._view.prove_consistency(old_size, new_size)

    def add_observer(self, callback) -> None:
        self._view.add_observer(callback)

    def remove_observer(self, callback) -> None:
        self._view.remove_observer(callback)

    def stats(self):
        return {
            "entries": len(self._view),
            "total_bytes": self._view.total_bytes,
            "rejected_submissions": self._view.rejected_submissions,
        }

    def close(self) -> None:
        # Faces share the fork's servers; closing is the fork's job.
        pass
