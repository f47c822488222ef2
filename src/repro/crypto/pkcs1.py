"""RSASSA-PKCS1-v1_5 signatures over SHA-256 (RFC 8017, Section 8.2).

This is the exact scheme the ADLP prototype uses ("signed by using SHA-256
and PKCS#1 v1.5", Section V-B).  For an RSA-1024 key the signature is 128
bytes, which is where the paper's fixed 160-byte ACK message
(32-byte hash + 128-byte signature) comes from.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crypto.hashing import sha256
from repro.crypto.rsa import (
    RsaPrivateNumbers,
    RsaPublicNumbers,
    rsa_private_op,
    rsa_public_op,
)
from repro.errors import SignatureError
from repro.util.bytesutil import int_from_bytes, int_to_bytes

# DER-encoded DigestInfo prefix for SHA-256 (RFC 8017, Section 9.2 note 1):
# SEQUENCE { SEQUENCE { OID 2.16.840.1.101.3.4.2.1, NULL }, OCTET STRING (32) }
_SHA256_DIGESTINFO_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

#: Minimum PS padding length mandated by the RFC.
_MIN_PAD = 8


def _emsa_pkcs1_v15_encode(digest: bytes, em_len: int) -> bytes:
    """EMSA-PKCS1-v1_5 encoding of an *already computed* SHA-256 digest.

    Layout: ``0x00 || 0x01 || PS (0xff..) || 0x00 || DigestInfo``.
    """
    if len(digest) != 32:
        raise SignatureError("expected a 32-byte SHA-256 digest")
    t = _SHA256_DIGESTINFO_PREFIX + digest
    if em_len < len(t) + _MIN_PAD + 3:
        raise SignatureError("intended encoded message length too short")
    ps = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + ps + b"\x00" + t


@lru_cache(maxsize=8)
def _encoded_prefix(em_len: int) -> int:
    """The encoded message for an all-zero digest, as an integer: every
    byte of EM except the digest, built once per modulus size.  OR-ing a
    digest in gives the integer the full encoding would."""
    return int_from_bytes(_emsa_pkcs1_v15_encode(bytes(32), em_len))


def sign_digest(priv: RsaPrivateNumbers, digest: bytes) -> bytes:
    """Sign a precomputed SHA-256 ``digest``; returns a ``k``-byte signature.

    ADLP computes ``h(seq || D)`` once and signs the digest, so the API takes
    the digest directly (the hash is *not* recomputed here).
    """
    k = priv.byte_size
    em = _emsa_pkcs1_v15_encode(digest, k)
    s = rsa_private_op(priv, int_from_bytes(em))
    return int_to_bytes(s, k)


def verify_digest(pub: RsaPublicNumbers, digest: bytes, signature: bytes) -> bool:
    """Verify ``signature`` against a precomputed SHA-256 ``digest``.

    Returns ``False`` for any invalid signature (wrong key, wrong digest,
    malformed encoding, wrong length) rather than raising: the auditor treats
    "does not verify" as evidence, not as an error.
    """
    k = pub.byte_size
    if len(signature) != k or len(digest) != 32:
        return False
    try:
        m = rsa_public_op(pub, int_from_bytes(signature))
        expected = _encoded_prefix(k) | int_from_bytes(digest)
    except SignatureError:
        return False
    # Full encoded-message comparison, per RFC 8017's recommended approach
    # (as integers: nothing in the recovered block is parsed).
    return m == expected


def sign(priv: RsaPrivateNumbers, message: bytes) -> bytes:
    """Convenience: hash ``message`` with SHA-256 and sign the digest."""
    return sign_digest(priv, sha256(message))


def verify(pub: RsaPublicNumbers, message: bytes, signature: bytes) -> bool:
    """Convenience: hash ``message`` with SHA-256 and verify the digest."""
    return verify_digest(pub, sha256(message), signature)
