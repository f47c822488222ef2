"""Prime generation for RSA key material.

Implements deterministic trial division over small primes followed by the
Miller-Rabin probabilistic primality test.  With 40 rounds the probability of
accepting a composite is below 4^-40, far beyond what this library needs.

A seedable ``random.Random`` may be passed everywhere so tests can generate
reproducible keys; production key generation uses ``random.SystemRandom``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.bignum import modexp

# Small primes for cheap pre-filtering before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
    317, 331, 337, 347, 349,
]

#: Rounds of Miller-Rabin witnesses; error probability <= 4**-40.
MILLER_RABIN_ROUNDS = 40


def is_probable_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Return whether ``n`` is (very probably) prime.

    Deterministic and exact for ``n`` < 350**2 via trial division; Miller-Rabin
    with :data:`MILLER_RABIN_ROUNDS` random witnesses above that.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _SMALL_PRIMES[-1] ** 2:
        return True

    rng = rng or random.SystemRandom()
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = modexp(a, d, n, secret=True)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: Optional[random.Random] = None) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits (standard practice for RSA moduli), and the
    low bit is forced to 1 so candidates are odd.
    """
    if bits < 8:
        raise ValueError("refusing to generate primes under 8 bits")
    rng = rng or random.SystemRandom()
    top_two = (1 << (bits - 1)) | (1 << (bits - 2))
    while True:
        candidate = rng.getrandbits(bits) | top_two | 1
        if is_probable_prime(candidate, rng):
            return candidate
