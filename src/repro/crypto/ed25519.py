"""Pure-Python Ed25519 (RFC 8032) with batch verification.

The paper's prototype signs with RSA-1024 PKCS#1 v1.5; the substitution
table in DESIGN.md keeps that as the faithful default.  This module is the
*upgrade path*: EdDSA over edwards25519, implemented from the RFC with no
dependencies, so deployments can swap signature schemes without changing
message semantics (the scheme layer in :mod:`repro.crypto.schemes` carries
the choice in the key encoding).

**What "valid" means.**  ADLP's signers are its adversaries, so the
verdict on a signature must not depend on *how* it was checked.  Both
:func:`verify` and :func:`verify_batch` accept ``(A, M, R || S)`` iff

- ``A`` and ``R`` are canonical encodings of curve points (``y < p``, an
  ``x`` exists, no ``-0``) and ``S < L``; and
- the **cofactored** group equation ``[8](S*B - R - h*A) = 0`` holds,
  with ``h = SHA-512(R || A || M) mod L`` -- the equation RFC 8032
  Section 5.1.7 states first.

A cofactorless single check (``S*B == R + h*A``) cannot be matched by a
batch: a signature carrying a small-order component in ``R`` or ``A``
passes or fails a random linear combination depending on the
coefficients (Chalkias et al., "Taming the many EdDSAs").  Multiplying by
the cofactor kills that component on both paths, so the two agree on
every input, honest or hostile.

**The batch kernel.**  :func:`verify_batch` checks ``n`` signatures with
one equation, ``[8](sum(z_i*S_i)*B - sum_k(sum(z_i*h_i))*A_k -
sum(z_i*R_i)) = 0``: the ``B`` and per-key ``A_k`` terms are one
fixed-window table walk each, the ``R_i`` term is a bucketed multi-scalar
multiplication over 128-bit ``z_i``.  The ``z_i`` are derived from a
SHA-512 transcript of the whole batch, not from an RNG: the same batch
always yields the same coefficients and the same booleans, and a signer
who must fix every signature before any ``z_i`` exists passes a forged
one with probability ``2^-128``.  When the combined equation fails the
batch is bisected (reusing the left half's sum to get the right half's)
down to :data:`_BISECT_LEAF` signatures, which are then judged one by one
by the same equation -- every forged signature is attributed to itself.

Implementation notes:

- points are kept in extended homogeneous coordinates ``(X, Y, Z, T)``
  with ``x = X/Z``, ``y = Y/Z``, ``x*y = T/Z`` (RFC 8032, Section 5.1.4);
  precomputed points are affine triples ``(y+x, y-x, 2d*x*y)``, which
  make an addition 7 multiplications instead of 9;
- the base point and every recently used public key get the same
  fixed-window table (:func:`_window_table`: ``j * 16^i * P``), so a
  scalar multiplication is at most 64 additions and no doublings; key
  tables live in a small LRU, the base table for the life of the process;
- decompression takes one modular exponentiation (RFC 8032, 5.1.3);
- all decoding paths are total: malformed or non-canonical inputs return
  ``None``/``False``, they never raise through :func:`verify`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

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
#: a precomputed affine point: (y + x, y - x, 2 * d * x * y)
_Niels = Tuple[int, int, int]
#: ``table[i][j - 1] = j * 16^i * P`` for ``j`` in 1..15
_Table = List[List[_Niels]]

# the neutral element (0, 1) in extended coordinates
_NEUTRAL: _Point = (0, 1, 1, 0)

_D2 = 2 * D % P
_SQRT_M1 = pow(2, (P - 1) // 4, P)

#: affine base point (RFC 8032, Section 5.1)
_B_Y = 4 * pow(5, P - 2, P) % P
_B_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202

#: fixed-window tables cover 64 four-bit windows: any scalar below 2^256
_WINDOWS = 64
#: public keys whose decompressed point (and, once verified against,
#: window table: ~0.25 MB each) stay cached
_KEY_CACHE_SIZE = 8
#: coefficient size for the random linear combination
_Z_BYTES = 16
#: a failing batch is bisected down to this many signatures, then judged
#: singly: below it the multi-scalar multiplication's fixed cost (128
#: doublings per sub-batch, shallow buckets) makes a combined check cost
#: as much per signature as the two table walks of a single one
_BISECT_LEAF = 16


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


def _point_add_niels(p: _Point, q: _Niels) -> _Point:
    """The same addition with ``q`` precomputed (madd-2008-hwcd-3)."""
    x1, y1, z1, t1 = p
    y_plus_x, y_minus_x, t2d = q
    a = (y1 - x1) * y_minus_x % P
    b = (y1 + x1) * y_plus_x % P
    c = t1 * t2d % P
    d = z1 + z1
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


def _is_small_order(p: _Point) -> bool:
    """True iff ``[8]p`` is the neutral element -- the cofactored check."""
    x, y, z, _ = _point_double(_point_double(_point_double(p)))
    return x % P == 0 and (y - z) % P == 0


def _to_niels(points: Sequence[_Point]) -> List[_Niels]:
    """Affine precomputed form of every point, for one field inversion
    (Montgomery's trick over the Z coordinates)."""
    prefix: List[int] = []
    product = 1
    for point in points:
        prefix.append(product)
        product = product * point[2] % P
    inverse = pow(product, -1, P)
    out: List[Optional[_Niels]] = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z, _ = points[i]
        z_inv = inverse * prefix[i] % P
        inverse = inverse * z % P
        x, y = x * z_inv % P, y * z_inv % P
        out[i] = ((y + x) % P, (y - x) % P, x * y * _D2 % P)
    return out  # type: ignore[return-value]


def _window_table(point: _Point) -> _Table:
    """``j * 16^i * point`` for every 4-bit window ``i`` and digit ``j``:
    the one table format, used for the base point and for public keys."""
    rows: List[_Point] = []
    for _ in range(_WINDOWS):
        multiple = point
        rows.append(multiple)
        for _ in range(14):
            multiple = _point_add(multiple, point)
            rows.append(multiple)
        point = _point_add(multiple, point)  # 16 * point: the next window
    flat = _to_niels(rows)
    return [flat[i : i + 15] for i in range(0, len(flat), 15)]


def _table_mul(table: _Table, s: int) -> _Point:
    """``s * P`` from ``P``'s window table (``0 <= s < 2^256``):
    additions only, one per non-zero 4-bit digit of ``s``."""
    q = _NEUTRAL
    i = 0
    while s:
        digit = s & 15
        if digit:
            q = _point_add_niels(q, table[i][digit - 1])
        s >>= 4
        i += 1
    return q


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


# -- per-key cache -----------------------------------------------------------


class _Key:
    """A decompressed point and, once it is multiplied, its window table."""

    __slots__ = ("point", "table")

    def __init__(self, point: _Point):
        self.point = point
        self.table: Optional[_Table] = None

    def mul(self, s: int) -> _Point:
        if self.table is None:
            self.table = _window_table(self.point)
        return _table_mul(self.table, s)


_BASE = _Key((_B_X, _B_Y, 1, _B_X * _B_Y % P))
_base_mul = _BASE.mul

#: compressed public key -> _Key, least recently used first
_KEYS: "OrderedDict[bytes, _Key]" = OrderedDict()
_KEYS_LOCK = threading.Lock()  # verifiers run on several threads


def _key(public: bytes) -> Optional[_Key]:
    """The cached :class:`_Key` for a compressed public key; ``None`` if
    it is not the canonical encoding of a curve point."""
    with _KEYS_LOCK:
        key = _KEYS.get(public)
        if key is not None:
            _KEYS.move_to_end(public)
            return key
    point = point_decompress(public)
    if point is None:
        return None
    key = _Key(point)
    with _KEYS_LOCK:
        _KEYS[bytes(public)] = key
        while len(_KEYS) > _KEY_CACHE_SIZE:
            _KEYS.popitem(last=False)
    return key


def is_valid_public(public: bytes) -> bool:
    """True iff ``public`` is the canonical encoding of a curve point."""
    return _key(public) is not None


# -- keys and signing --------------------------------------------------------


def _clamp(scalar_bytes: bytes) -> int:
    a = int.from_bytes(scalar_bytes, "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a


def generate_secret(seed: Optional[int] = None) -> bytes:
    """A 32-byte Ed25519 secret.

    :param seed: if given, the secret is derived deterministically --
        **tests only**, mirroring :func:`repro.crypto.keys.generate_keypair`'s
        seeded mode.  Production callers must leave it ``None``.
    """
    if seed is None:
        return os.urandom(SECRET_SIZE)
    material = b"repro.ed25519.keygen.v1:" + str(seed).encode("ascii")
    return hashlib.sha512(material).digest()[:SECRET_SIZE]


def public_from_secret(secret: bytes) -> bytes:
    """The 32-byte compressed public point for a 32-byte secret."""
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"ed25519 secret must be {SECRET_SIZE} bytes")
    a = _clamp(_sha512(secret)[:32])
    return point_compress(_base_mul(a))


def sign(secret: bytes, message: bytes, public: Optional[bytes] = None) -> bytes:
    """RFC 8032 Ed25519 signature (64 bytes ``R || S``) over ``message``.

    :param public: the cached compressed public key; derived from
        ``secret`` when omitted (one extra base multiplication).
    """
    if len(secret) != SECRET_SIZE:
        raise ValueError(f"ed25519 secret must be {SECRET_SIZE} bytes")
    h = _sha512(secret)
    a = _clamp(h[:32])
    prefix = h[32:]
    if public is None:
        public = point_compress(_base_mul(a))
    r = int.from_bytes(_sha512(prefix, message), "little") % L
    r_bytes = point_compress(_base_mul(r))
    k = int.from_bytes(_sha512(r_bytes, public, message), "little") % L
    s = (r + k * a) % L
    return r_bytes + s.to_bytes(32, "little")


# -- verification ------------------------------------------------------------


class _Checked:
    """One well-formed signature, decoded: what the group equation needs."""

    __slots__ = ("index", "key", "r", "s", "h", "z")

    def __init__(self, index: int, key: _Key, r: _Point, s: int, h: int):
        self.index = index  # position in the caller's batch
        self.key = key
        self.r = r
        self.s = s
        self.h = h
        self.z = 1  # the batch coefficient; 1 checks the signature alone


def _decode(
    index: int, public: bytes, message: bytes, signature: bytes
) -> Optional[_Checked]:
    """The range and canonicality checks; ``None`` means "invalid"."""
    if len(public) != PUBLIC_SIZE or len(signature) != SIGNATURE_SIZE:
        return None
    s = int.from_bytes(signature[32:], "little")
    if s >= L:
        return None  # non-canonical S (malleability check, RFC 8.4)
    key = _key(public)
    if key is None:
        return None
    r = point_decompress(signature[:32])
    if r is None:
        return None
    h = int.from_bytes(_sha512(signature[:32], public, message), "little") % L
    return _Checked(index, key, r, s, h)


def _multi_scalar_mul(scalars: Sequence[int], points: Sequence[_Point]) -> _Point:
    """``sum(scalars[i] * points[i])`` by the bucket method: per ``c``-bit
    window every point joins the bucket of its digit, and the buckets are
    folded with a running sum, so a window costs ``n + 2^(c+1)`` additions
    however large the scalars."""
    n = len(points)
    c = max(3, min(7, n.bit_length() - 3))
    mask = (1 << c) - 1
    niels = _to_niels(points)
    bits = max(scalars).bit_length()
    total = _NEUTRAL
    for shift in range((bits + c - 1) // c * c - c, -1, -c):
        for _ in range(c):
            total = _point_double(total)
        buckets: List[Optional[_Point]] = [None] * (mask + 1)
        for i in range(n):
            digit = (scalars[i] >> shift) & mask
            if digit:
                held = buckets[digit]
                buckets[digit] = (
                    points[i] if held is None else _point_add_niels(held, niels[i])
                )
        running: Optional[_Point] = None  # buckets[mask] + ... + buckets[j]
        window: Optional[_Point] = None  # sum of j * buckets[j]
        for j in range(mask, 0, -1):
            held = buckets[j]
            if held is not None:
                running = held if running is None else _point_add(running, held)
            if running is not None:
                window = running if window is None else _point_add(window, running)
        if window is not None:
            total = _point_add(total, window)
    return total


def _residual(batch: Sequence[_Checked]) -> _Point:
    """``sum z_i * (S_i*B - R_i - h_i*A_i)``: the neutral element (up to a
    small-order point) iff, overwhelmingly, every signature holds."""
    base_scalar = 0
    key_scalars: Dict[_Key, int] = {}
    for item in batch:
        base_scalar += item.z * item.s
        key_scalars[item.key] = key_scalars.get(item.key, 0) + item.z * item.h
    subtract = _multi_scalar_mul(
        [item.z for item in batch], [item.r for item in batch]
    )
    for key, scalar in key_scalars.items():
        subtract = _point_add(subtract, key.mul(scalar % L))
    return _point_add(_base_mul(base_scalar % L), _point_neg(subtract))


def _settle(batch: Sequence[_Checked], residual: _Point, results: List[bool]) -> None:
    """Mark ``batch``'s signatures valid if their combined ``residual``
    vanishes; otherwise bisect until the forged ones stand alone."""
    if _is_small_order(residual):
        for item in batch:
            results[item.index] = True
    elif len(batch) > _BISECT_LEAF:
        middle = len(batch) // 2
        left = _residual(batch[:middle])
        _settle(batch[:middle], left, results)
        # residuals add, so the right half's is the whole's minus the left's
        _settle(batch[middle:], _point_add(residual, _point_neg(left)), results)
    elif len(batch) > 1:
        for item in batch:
            item.z = 1
            results[item.index] = _is_small_order(_residual([item]))


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid Ed25519 signature (the cofactored
    equation; see the module docstring).

    Total over arbitrary byte strings: malformed keys, non-canonical
    points, out-of-range ``S`` and wrong lengths all return ``False``
    (the auditor treats "does not verify" as evidence, never an error).
    """
    item = _decode(0, public, message, signature)
    return item is not None and _is_small_order(_residual([item]))


def verify_batch(items: Sequence[Tuple[bytes, bytes, bytes]]) -> List[bool]:
    """:func:`verify` for every ``(public, message, signature)`` in
    ``items``, as one combined check; same booleans, in input order."""
    results = [False] * len(items)
    batch: List[_Checked] = []
    transcript = hashlib.sha512()
    for index, (public, message, signature) in enumerate(items):
        item = _decode(index, public, message, signature)
        if item is not None:
            batch.append(item)
            # fixed-size fields first, so the framing is unambiguous
            transcript.update(public + signature + len(message).to_bytes(8, "little"))
            transcript.update(message)
    if len(batch) > 1:
        seed = transcript.digest()
        for item in batch:
            item.z = int.from_bytes(
                _sha512(seed, item.index.to_bytes(8, "little"))[:_Z_BYTES], "little"
            )
    if batch:
        _settle(batch, _residual(batch), results)
    return results
