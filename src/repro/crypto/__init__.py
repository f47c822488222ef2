"""Cryptographic substrate for ADLP.

The paper's prototype uses PyCrypto (RSA-1024 + SHA-256 + PKCS#1 v1.5).  That
library is not available offline, so this package implements the same
primitives itself; as in PyCrypto, only the bignum arithmetic runs in C,
and the Ed25519 upgrade path is libcrypto's:

- :mod:`repro.crypto.hashing` -- SHA-256 digests, including the paper's
  ``h(seq || D)`` construction.
- :mod:`repro.crypto.primes` -- Miller-Rabin probabilistic primality testing
  and prime generation for RSA key material.
- :mod:`repro.crypto.bignum` -- the one binding of the libcrypto ``hashlib``
  links: modular exponentiation on its bignum library (built-in ``pow``
  where it cannot be loaded) and the Ed25519 calls.
- :mod:`repro.crypto.rsa` -- textbook RSA key generation and modular
  exponentiation primitives.
- :mod:`repro.crypto.pkcs1` -- EMSA-PKCS1-v1_5 signature encoding
  (RFC 8017), the signature scheme the paper uses.
- :mod:`repro.crypto.ed25519` -- RFC 8032 Ed25519 through libcrypto's EVP
  calls (bound by :mod:`repro.crypto.bignum`), the upgrade path.
- :mod:`repro.crypto.schemes` -- the pluggable :class:`SignatureScheme`
  registry binding the two backends to scheme-tagged key encodings.
- :mod:`repro.crypto.keys` -- key pair objects with serialization.
- :mod:`repro.crypto.keystore` -- the trusted logger's public-key registry.
- :mod:`repro.crypto.hashchain` / :mod:`repro.crypto.merkle` --
  tamper-evident structures realizing the paper's trusted-logger assumption.
"""

from repro.crypto.hashing import (
    sha256,
    sha256_hex,
    data_digest,
    HASH_LEN,
)
from repro.crypto.keys import KeyPair, PublicKey, PrivateKey, generate_keypair
from repro.crypto.keystore import KeyStore
from repro.crypto.pkcs1 import sign as pkcs1_sign, verify as pkcs1_verify
from repro.crypto.hashchain import HashChain
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.schemes import (
    SignatureScheme,
    default_scheme_name,
    get_scheme,
    register_scheme,
    scheme_names,
)

__all__ = [
    "sha256",
    "sha256_hex",
    "data_digest",
    "HASH_LEN",
    "KeyPair",
    "PublicKey",
    "PrivateKey",
    "generate_keypair",
    "KeyStore",
    "pkcs1_sign",
    "pkcs1_verify",
    "HashChain",
    "MerkleTree",
    "MerkleProof",
    "SignatureScheme",
    "default_scheme_name",
    "get_scheme",
    "register_scheme",
    "scheme_names",
]
