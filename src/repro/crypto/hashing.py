"""SHA-256 hashing helpers.

ADLP signs ``h(seq || D)`` where ``seq`` is the per-topic sequence number and
``D`` the published payload (Section IV-A: *freshness information is
incorporated into signatures, log entries, and messages*).  This module
centralizes that digest construction so that publisher, subscriber, and
auditor all hash exactly the same byte string.
"""

from __future__ import annotations

import hashlib

#: Length in bytes of every digest produced by this module (SHA-256).
HASH_LEN = 32


def sha256(data: bytes) -> bytes:
    """Return the 32-byte SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_prefixed(prefix: bytes, data: bytes) -> bytes:
    """SHA-256 of ``prefix || data``, both fed to one hash object: a short
    prefix never costs a concatenated copy of a large payload."""
    digest = hashlib.sha256(prefix)
    digest.update(data)
    return digest.digest()


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a hex string."""
    return hashlib.sha256(data).hexdigest()


def data_digest(seq: int, data: bytes) -> bytes:
    """Compute the paper's ``h(seq || D)`` digest.

    The sequence number is encoded as an 8-byte big-endian unsigned integer
    before concatenation so that (seq=1, data=b"\\x02...") and
    (seq=0x0102, data=b"...") can never collide -- a fixed-width prefix makes
    the concatenation injective.

    :param seq: per-topic publication sequence number (non-negative).
    :param data: serialized message payload ``D``.
    """
    if seq < 0:
        raise ValueError("sequence numbers are non-negative")
    if seq >= 1 << 64:
        raise ValueError("sequence number exceeds 64 bits")
    return sha256_prefixed(seq.to_bytes(8, "big"), data)
