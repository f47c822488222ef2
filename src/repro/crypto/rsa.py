"""Textbook RSA: key generation and modular-exponentiation primitives.

This module deliberately exposes only *raw* RSA (RSADP/RSASP1 etc. from
RFC 8017).  All padding lives in :mod:`repro.crypto.pkcs1`; nothing in this
library ever signs or encrypts unpadded data.

Key generation uses two random primes of ``bits/2`` bits each, public
exponent 65537, and a CRT-accelerated private operation (~3-4x faster than a
single exponentiation with ``d`` for 1024-bit keys).  Every exponentiation
goes through :func:`repro.crypto.bignum.modexp` (OpenSSL's Montgomery
arithmetic, constant-time for the private halves); range checks, Garner
recombination and all padding stay in Python.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.bignum import modexp
from repro.crypto.primes import generate_prime
from repro.errors import KeyGenerationError, SignatureError

#: The public exponent used for all generated keys (F4, standard choice).
PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicNumbers:
    """The public half of an RSA key: modulus ``n`` and exponent ``e``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        """Length ``k`` of signatures/ciphertexts under this key, in bytes."""
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateNumbers:
    """The private half: primes, exponents, and CRT coefficients."""

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int  # d mod (p-1)
    dq: int  # d mod (q-1)
    qinv: int  # q^-1 mod p

    @property
    def public_numbers(self) -> RsaPublicNumbers:
        return RsaPublicNumbers(n=self.n, e=self.e)

    @property
    def byte_size(self) -> int:
        return (self.n.bit_length() + 7) // 8


def generate_rsa_numbers(
    bits: int = 1024, rng: Optional[random.Random] = None
) -> RsaPrivateNumbers:
    """Generate an RSA key of ``bits`` modulus bits (paper uses 1024).

    :param bits: modulus size; must be even and >= 128 (tests use small keys
        for speed, real use should stick to >= 1024).
    :param rng: optional seeded RNG for reproducible test keys.  When omitted
        a system CSPRNG is used.
    """
    if bits % 2 != 0:
        raise KeyGenerationError("modulus bit length must be even")
    if bits < 128:
        raise KeyGenerationError("modulus must be at least 128 bits")
    rng = rng or random.SystemRandom()

    e = PUBLIC_EXPONENT
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        if p < q:
            p, q = q, p  # convention: p > q, required for the CRT qinv step
        n = p * q
        if n.bit_length() != bits:
            continue
        lam = (p - 1) * (q - 1)  # Euler totient; fine for e coprime to it
        if lam % e == 0:
            continue
        d = pow(e, -1, lam)
        return RsaPrivateNumbers(
            n=n,
            e=e,
            d=d,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            qinv=pow(q, -1, p),
        )


def rsa_public_op(pub: RsaPublicNumbers, m: int) -> int:
    """RSAVP1/RSAEP: compute ``m^e mod n``.  ``m`` must be in [0, n)."""
    if not 0 <= m < pub.n:
        raise SignatureError("representative out of range for modulus")
    return modexp(m, pub.e, pub.n, secret=False)


def rsa_private_op(priv: RsaPrivateNumbers, c: int) -> int:
    """RSADP/RSASP1 via the Chinese Remainder Theorem.

    Computes ``c^d mod n`` using the two half-size exponentiations
    ``c^dp mod p`` and ``c^dq mod q`` and Garner recombination.
    """
    if not 0 <= c < priv.n:
        raise SignatureError("representative out of range for modulus")
    m1 = modexp(c % priv.p, priv.dp, priv.p, secret=True)
    m2 = modexp(c % priv.q, priv.dq, priv.q, secret=True)
    h = ((m1 - m2) * priv.qinv) % priv.p
    return m2 + h * priv.q
