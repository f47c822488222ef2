"""Case bundles: portable, tamper-evident evidence directories.

Layout of a case directory::

    case/
      entries.log   -- hash-chained log records (FileLogStore format)
      keys.bin      -- framed (component id, public key) pairs
      MANIFEST      -- chain head + Merkle root + counts, human-readable

The bundle is self-contained: ``load_case`` re-verifies the hash chain on
open, rebuilds the key store, and returns a fully queryable/auditable
:class:`~repro.core.log_server.LogServer`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Dict

from repro.core.log_server import LogServer
from repro.core.log_store import FileLogStore
from repro.crypto.keys import PublicKey
from repro.errors import LogIntegrityError

_FRAME = struct.Struct("<I")

ENTRIES_FILE = "entries.log"
KEYS_FILE = "keys.bin"
MANIFEST_FILE = "MANIFEST"


@dataclass(frozen=True)
class CaseBundle:
    """A loaded case: the reconstructed server plus its on-disk paths."""

    path: str
    server: LogServer


def _write_framed(f, payload: bytes) -> None:
    f.write(_FRAME.pack(len(payload)) + payload)


def _read_framed(f):
    raw_len = f.read(_FRAME.size)
    if not raw_len:
        return None
    if len(raw_len) < _FRAME.size:
        raise LogIntegrityError("truncated frame length in case file")
    (length,) = _FRAME.unpack(raw_len)
    payload = f.read(length)
    if len(payload) < length:
        raise LogIntegrityError("truncated frame in case file")
    return payload


def export_case(server: LogServer, path: str) -> str:
    """Write ``server``'s evidence into directory ``path``; returns it."""
    os.makedirs(path, exist_ok=True)
    entries_path = os.path.join(path, ENTRIES_FILE)
    if os.path.exists(entries_path):
        raise FileExistsError(f"case already contains {entries_path}")

    store = FileLogStore(entries_path)
    for record in server.store.iter_records():
        store.append(record)
    head = store.head()
    store.close()

    with open(os.path.join(path, KEYS_FILE), "wb") as f:
        for component_id, key in sorted(server.keystore.snapshot().items()):
            _write_framed(f, component_id.encode("utf-8"))
            _write_framed(f, key.to_bytes())

    with open(os.path.join(path, MANIFEST_FILE), "w") as f:
        f.write("ADLP evidence case bundle\n")
        f.write(f"entries: {len(server)}\n")
        f.write(f"components: {len(server.keystore)}\n")
        f.write(f"chain_head: {head.hex()}\n")
        f.write(f"merkle_root: {server.merkle_root().hex()}\n")
    return path


def load_case(path: str) -> CaseBundle:
    """Open a case directory, re-verifying the evidence chain.

    :raises LogIntegrityError: if any record was modified on disk.
    """
    entries_path = os.path.join(path, ENTRIES_FILE)
    keys_path = os.path.join(path, KEYS_FILE)
    if not os.path.exists(entries_path):
        raise FileNotFoundError(f"no {ENTRIES_FILE} in {path}")

    keys: Dict[str, PublicKey] = {}
    if os.path.exists(keys_path):
        with open(keys_path, "rb") as f:
            while True:
                component_raw = _read_framed(f)
                if component_raw is None:
                    break
                key_raw = _read_framed(f)
                if key_raw is None:
                    raise LogIntegrityError("dangling component id in keys.bin")
                keys[component_raw.decode("utf-8")] = PublicKey.from_bytes(key_raw)

    # FileLogStore re-verifies the chain on open.
    store = FileLogStore(entries_path)
    records = store.records()
    store.close()

    server = LogServer()
    for component_id, key in keys.items():
        server.register_key(component_id, key)
    server.submit_batch(records)

    # Cross-check the manifest commitments when present.
    manifest_path = os.path.join(path, MANIFEST_FILE)
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = dict(
                line.strip().split(": ", 1)
                for line in f
                if ": " in line
            )
        expected_root = manifest.get("merkle_root")
        if expected_root and server.merkle_root().hex() != expected_root:
            raise LogIntegrityError(
                "case Merkle root does not match the MANIFEST commitment"
            )
    return CaseBundle(path=path, server=server)
