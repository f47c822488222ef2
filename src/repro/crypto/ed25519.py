"""Ed25519 (RFC 8032) on OpenSSL's libcrypto: the upgrade path.

The paper's RSA-1024 PKCS#1 v1.5 stays the faithful default;
:mod:`repro.crypto.schemes` carries Ed25519 in the key encoding.  Signing,
verification and key derivation are the EVP calls of the libcrypto
``hashlib`` loads, bound by :mod:`repro.crypto.bignum`.  There is no
fallback: without Ed25519 there, the first call raises
:class:`~repro.errors.SignatureError`.  The acceptance rule (key encoding
checked here, the cofactorless equation by libcrypto) is docs/PROTOCOL.md
Section 16.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from repro.crypto import bignum
from repro.errors import SignatureError

P = 2**255 - 19  #: the field prime
D = -121665 * pow(121666, P - 2, P) % P  #: the curve constant -121665/121666
SECRET_SIZE = PUBLIC_SIZE = 32
SIGNATURE_SIZE = 64

#: y of the eight points of order dividing 8: the identity, order 2, order 4,
#: and the two of order 8 (x = 0, hence -0, only at y = +-1)
_Y8 = 0x7A03AC9277FDC74EC6CC392CFA53202A0F67100D760B3CBA4FD84D3D706A17C7
_SMALL_ORDER_Y = frozenset((1, P - 1, 0, _Y8, P - _Y8))
_NID_ED25519 = 1087


def _libcrypto():
    if bignum._evp is None:
        bignum._bind()
    if not bignum._evp:
        raise SignatureError("the libcrypto behind hashlib has no Ed25519 (1.1.1+)")
    return bignum._evp


def generate_secret(seed: Optional[int] = None) -> bytes:
    """A 32-byte Ed25519 secret.  A ``seed`` derives it deterministically --
    **tests only**, as :func:`repro.crypto.keys.generate_keypair`'s."""
    if seed is None:
        return os.urandom(SECRET_SIZE)
    material = b"repro.ed25519.keygen.v1:" + str(seed).encode("ascii")
    return hashlib.sha512(material).digest()[:SECRET_SIZE]


def is_valid_public(public: bytes) -> bool:
    """True iff ``public`` is the canonical encoding of a curve point
    outside the small-order subgroup: the check on keys from outside."""
    if len(public) != PUBLIC_SIZE:
        return False
    y = int.from_bytes(public, "little") & ((1 << 255) - 1)
    if y >= P or y in _SMALL_ORDER_Y:
        return False
    y2 = y * y % P
    # x^2 = (y^2 - 1) / (d*y^2 + 1) has a root iff the quotient is a square
    return pow((y2 - 1) * (D * y2 + 1) % P, (P - 1) // 2, P) == 1


def _private_key(lib, secret: bytes):
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"ed25519 secret must be {SECRET_SIZE} bytes")
    return lib.EVP_PKEY_new_raw_private_key(_NID_ED25519, None, secret, SECRET_SIZE)


def _digest(lib, pkey, init, run, *args) -> bool:
    """One EVP_DigestSign or EVP_DigestVerify under ``pkey`` (freed here);
    False, with the thread's OpenSSL error queue cleared, if a step fails."""
    ctx = lib.EVP_MD_CTX_new()
    try:
        done = bool(pkey and ctx) and init(ctx, None, None, None, pkey) == 1
        if not (done and run(ctx, *args) == 1):
            lib.ERR_clear_error()
            return False
        return True
    finally:
        lib.EVP_MD_CTX_free(ctx)  # both free functions ignore NULL
        lib.EVP_PKEY_free(pkey)


def public_from_secret(secret: bytes) -> bytes:
    """The 32-byte compressed public point for a 32-byte secret."""
    from ctypes import byref, c_size_t, create_string_buffer  # loaded by _bind

    lib = _libcrypto()
    pkey = _private_key(lib, secret)
    out, size = create_string_buffer(PUBLIC_SIZE), c_size_t(PUBLIC_SIZE)
    try:
        if not pkey or lib.EVP_PKEY_get_raw_public_key(pkey, out, byref(size)) != 1:
            lib.ERR_clear_error()
            raise SignatureError("OpenSSL Ed25519 public-key derivation failed")
        return out.raw
    finally:
        lib.EVP_PKEY_free(pkey)


def sign(secret: bytes, message: bytes) -> bytes:
    """RFC 8032 Ed25519 signature (64 bytes ``R || S``) over ``message``."""
    from ctypes import byref, c_size_t, create_string_buffer

    lib = _libcrypto()
    out, size = create_string_buffer(SIGNATURE_SIZE), c_size_t(SIGNATURE_SIZE)
    args = (out, byref(size), message, len(message))
    pkey = _private_key(lib, secret)
    if not _digest(lib, pkey, lib.EVP_DigestSignInit, lib.EVP_DigestSign, *args):
        raise SignatureError("OpenSSL Ed25519 signing failed")
    return out.raw


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid Ed25519 signature over ``message``
    under ``public``; False, never an error, on any malformed input."""
    lib = _libcrypto()
    if len(public) != PUBLIC_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    y = int.from_bytes(public, "little") & ((1 << 255) - 1)
    # OpenSSL 3.0 reduces y mod p and ignores the sign of x = 0, so it
    # would take y >= p or -0 for a small-order point, under which
    # R = identity, S = 0 verifies on every message
    if y >= P or (public[31] >> 7 and y in (1, P - 1)):
        return False
    pkey = lib.EVP_PKEY_new_raw_public_key(_NID_ED25519, None, public, PUBLIC_SIZE)
    args = (signature, SIGNATURE_SIZE, message, len(message))
    return _digest(lib, pkey, lib.EVP_DigestVerifyInit, lib.EVP_DigestVerify, *args)
