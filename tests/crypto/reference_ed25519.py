"""Pure-Python Ed25519 (RFC 8032): the reference the libcrypto binding is
held to.

:mod:`repro.crypto.ed25519` signs and verifies through OpenSSL.  This module
is the same scheme written out from the RFC, with no dependency and no
caching, so the tests can check the binding against an independent
implementation byte for byte (signatures, public keys) and verdict for
verdict -- the role built-in ``pow`` plays for :mod:`repro.crypto.bignum`.

**What "valid" means here.**  :func:`verify` accepts ``(A, M, R || S)`` iff
``A`` and ``R`` are canonical encodings of curve points (``y < p``, an
``x`` exists, no ``-0``), ``S < L``, and the **cofactored** group equation
``[8](S*B - R - h*A) = 0`` holds, with ``h = SHA-512(R || A || M) mod L``.
The binding checks the cofactorless ``S*B = R + h*A`` instead (RFC 8032
Section 5.1.7 permits either).  The two agree on every honestly made
signature and differ only on inputs that carry a small-order component;
``tests/crypto/test_verify_batch.py`` pins where.

Points are kept in extended homogeneous coordinates ``(X, Y, Z, T)`` with
``x = X/Z``, ``y = Y/Z``, ``x*y = T/Z`` (RFC 8032, Section 5.1.4); a scalar
multiplication is plain double-and-add.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

#: field prime 2^255 - 19
P = 2**255 - 19
#: group order of the base point
L = 2**252 + 27742317777372353535851937790883648493
#: curve constant d = -121665/121666 mod p
D = (-121665 * pow(121666, P - 2, P)) % P

#: sizes, in bytes
SECRET_SIZE = 32
PUBLIC_SIZE = 32
SIGNATURE_SIZE = 64

_Point = Tuple[int, int, int, int]

# the neutral element (0, 1) in extended coordinates
_NEUTRAL: _Point = (0, 1, 1, 0)

_D2 = 2 * D % P
_SQRT_M1 = pow(2, (P - 1) // 4, P)

#: the base point (RFC 8032, Section 5.1)
_B_Y = 4 * pow(5, P - 2, P) % P
_B_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_BASE: _Point = (_B_X, _B_Y, 1, _B_X * _B_Y % P)


def _point_add(p: _Point, q: _Point) -> _Point:
    """add-2008-hwcd-3 for a = -1 twisted Edwards curves."""
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = t1 * t2 * _D2 % P
    d = 2 * z1 * z2 % P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_double(p: _Point) -> _Point:
    """dbl-2008-hwcd (independent of t, slightly cheaper than add)."""
    x1, y1, z1, _ = p
    a = x1 * x1 % P
    b = y1 * y1 % P
    c = 2 * z1 * z1 % P
    h = a + b
    e = (h - (x1 + y1) * (x1 + y1)) % P
    g = a - b
    f = c + g
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _point_neg(p: _Point) -> _Point:
    x, y, z, t = p
    return (-x, y, z, -t)


def _scalar_mul(s: int, p: _Point) -> _Point:
    """``s * p`` by double-and-add, most significant bit first."""
    q = _NEUTRAL
    for bit in range(s.bit_length() - 1, -1, -1):
        q = _point_double(q)
        if s >> bit & 1:
            q = _point_add(q, p)
    return q


def _base_mul(s: int) -> _Point:
    return _scalar_mul(s, _BASE)


def _is_small_order(p: _Point) -> bool:
    """True iff ``[8]p`` is the neutral element -- the cofactored check."""
    x, y, z, _ = _point_double(_point_double(_point_double(p)))
    return x % P == 0 and (y - z) % P == 0


def _sha512(*parts: bytes) -> bytes:
    h = hashlib.sha512()
    for part in parts:
        h.update(part)
    return h.digest()


def point_compress(p: _Point) -> bytes:
    """32-byte little-endian y with the sign of x in the top bit."""
    x, y, z, _ = p
    zinv = pow(z, -1, P)
    x, y = x * zinv % P, y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def point_decompress(data: bytes) -> Optional[_Point]:
    """Inverse of :func:`point_compress`; ``None`` for anything that is
    not the canonical encoding of a curve point (wrong length, ``y >= p``,
    an x-coordinate that does not exist, or ``-0``)."""
    if len(data) != 32:
        return None
    encoded = int.from_bytes(data, "little")
    sign = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    if y >= P:
        return None  # non-canonical y
    # x^2 = u/v; the candidate root u*v^3 * (u*v^7)^((p-5)/8) needs no
    # separate inversion of v (RFC 8032, Section 5.1.3)
    y2 = y * y % P
    u = (y2 - 1) % P
    v = (D * y2 + 1) % P
    v3 = v * v * v % P
    x = u * v3 * pow(u * v3 * v3 * v % P, (P - 5) // 8, P) % P
    vx2 = v * x * x % P
    if vx2 != u:
        if vx2 != P - u:
            return None  # u/v has no square root: not a curve point
        x = x * _SQRT_M1 % P
    if x == 0 and sign:
        return None  # "negative zero" is non-canonical
    if x & 1 != sign:
        x = P - x
    return (x, y, 1, x * y % P)


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


def public_from_secret(secret: bytes) -> bytes:
    """The 32-byte compressed public point for a 32-byte secret."""
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"ed25519 secret must be {SECRET_SIZE} bytes")
    return point_compress(_base_mul(_clamp(_sha512(secret)[:32])))


def sign(secret: bytes, message: bytes, public: Optional[bytes] = None) -> bytes:
    """RFC 8032 Ed25519 signature (64 bytes ``R || S``) over ``message``.

    :param public: the compressed public key; derived from ``secret`` when
        omitted (one extra base multiplication).
    """
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"ed25519 secret must be {SECRET_SIZE} bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    if public is None:
        public = point_compress(_base_mul(a))
    r = int.from_bytes(_sha512(h[32:], message), "little") % L
    r_bytes = point_compress(_base_mul(r))
    k = int.from_bytes(_sha512(r_bytes, public, message), "little") % L
    s = (r + k * a) % L
    return r_bytes + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid under the cofactored equation (see
    the module docstring).  Total over arbitrary byte strings."""
    if len(public) != PUBLIC_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return False  # non-canonical S (malleability check, RFC 8.4)
    a = point_decompress(public)
    r = point_decompress(signature[:32])
    if a is None or r is None:
        return False
    h = int.from_bytes(_sha512(signature[:32], public, message), "little") % L
    residual = _point_add(
        _base_mul(s), _point_neg(_point_add(r, _scalar_mul(h, a)))
    )
    return _is_small_order(residual)
