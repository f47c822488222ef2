"""Case bundles: portable, tamper-evident evidence directories.

A case is a :class:`~repro.storage.durable_store.DurableLogStore`
directory -- the logger's own on-disk format -- plus a MANIFEST::

    case/
      wal/          -- the journal: entries (chained) and key registrations
      checkpoints/  -- one checkpoint covering every entry
      MANIFEST      -- chain head + Merkle root + counts, human-readable

So any store directory, a crashed logger's included, is evidence in the
same format.  :func:`open_store` is the one way it is opened: in place,
reads streamed from the WAL, nothing copied into memory, and nothing
written unless a crash left a torn tail past the last checkpoint.
:func:`load_case` adds the full tamper check and the MANIFEST root check
and returns a queryable/auditable
:class:`~repro.core.log_server.LogServer`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.log_server import LogServer
from repro.errors import LogIntegrityError
from repro.storage.durable_store import CHECKPOINT_SUBDIR, WAL_SUBDIR, DurableLogStore

MANIFEST_FILE = "MANIFEST"

#: bytes of records :func:`export_case` moves per group commit
_EXPORT_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class CaseBundle:
    """A loaded case: the reconstructed server plus its on-disk path."""

    path: str
    server: LogServer


def _holds_store(path: str) -> bool:
    """Whether ``path`` holds a WAL segment or a checkpoint (whose lost
    WAL the store's own open then reports as tampering)."""
    subdirs = [os.path.join(path, sub) for sub in (WAL_SUBDIR, CHECKPOINT_SUBDIR)]
    return any(os.listdir(sub) for sub in subdirs if os.path.isdir(sub))


def open_store(path: str) -> DurableLogStore:
    """Open the store in directory ``path`` in place.

    :raises FileNotFoundError: if ``path`` holds no store; nothing is
        created there.
    :raises LogIntegrityError: if recovery finds tampering.
    """
    if not _holds_store(path):
        raise FileNotFoundError(f"no log store in {path}")
    return DurableLogStore(path)


def export_case(server: LogServer, path: str) -> str:
    """Write ``server``'s evidence into directory ``path``; returns it.

    The records are the ones ``server`` serves (each checked against its
    Merkle leaf), replayed with its key registry into a new store, which
    is checkpointed once at the end.
    """
    if _holds_store(path):
        raise FileExistsError(f"{path} already holds a log store")
    case = LogServer(DurableLogStore(path, checkpoint_every=0))
    try:
        for component_id, key in sorted(server.keystore.snapshot().items()):
            case.register_key(component_id, key)
        start = 0
        while True:
            records = server.raw_records(start, max_bytes=_EXPORT_CHUNK_BYTES)
            if not records:
                break
            case.submit_batch(records)
            start += len(records)
        case.checkpoint()
        with open(os.path.join(path, MANIFEST_FILE), "w") as f:
            f.write("ADLP evidence case bundle\n")
            f.write(f"entries: {len(case)}\n")
            f.write(f"components: {len(case.keystore)}\n")
            f.write(f"chain_head: {case.store.head().hex()}\n")
            f.write(f"merkle_root: {case.merkle_root().hex()}\n")
    finally:
        case.close()
    return path


def load_case(path: str) -> CaseBundle:
    """Open a case (or any store) directory and check its evidence: the
    full tamper check and, when a MANIFEST is present, its Merkle root.

    :raises FileNotFoundError: if ``path`` holds no store.
    :raises LogIntegrityError: if any record was modified on disk.
    """
    store = open_store(path)
    try:
        server = LogServer(store)
        server.verify_integrity()
        _check_manifest(path, server)
    except BaseException:
        store.close()
        raise
    return CaseBundle(path=path, server=server)


def _check_manifest(path: str, server: LogServer) -> None:
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if not os.path.exists(manifest_path):
        return
    with open(manifest_path) as f:
        manifest = dict(line.strip().split(": ", 1) for line in f if ": " in line)
    expected_root = manifest.get("merkle_root")
    if expected_root and server.merkle_root().hex() != expected_root:
        raise LogIntegrityError(
            "case Merkle root does not match the MANIFEST commitment"
        )
