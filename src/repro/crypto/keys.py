"""Key objects: the component-facing wrapper around the signature schemes.

Each ADLP component generates a key pair at startup (paper, step 1: *Key
registration*), registers the public key with the trusted logger, and keeps
the private key local.  These classes bundle scheme-specific key material
(``numbers``) with the signing/verification operations and a compact,
scheme-tagged serialization used to ship public keys to the logger (see
:mod:`repro.crypto.schemes` for the tag format and the pluggable backend
registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.schemes import (
    DEFAULT_SCHEME,
    KEY_TAG_MAGIC,
    SignatureScheme,
    default_scheme_name,
    get_scheme,
    scheme_for_tag,
)
from repro.errors import DecodingError

#: Modulus size the paper uses (RSA; fixed-size schemes ignore it).
DEFAULT_KEY_BITS = 1024


@dataclass(frozen=True)
class PublicKey:
    """A component's public key under some registered signature scheme."""

    #: scheme-specific public material (:class:`RsaPublicNumbers` for RSA,
    #: :class:`~repro.crypto.schemes.Ed25519Public` for Ed25519)
    numbers: Any
    scheme_name: str = DEFAULT_SCHEME

    @property
    def scheme(self) -> SignatureScheme:
        return get_scheme(self.scheme_name)

    @property
    def signature_size(self) -> int:
        """Signature length in bytes (128 for RSA-1024, 64 for Ed25519)."""
        return self.scheme.signature_size(self.numbers)

    def verify_digest(self, digest: bytes, signature: bytes) -> bool:
        """Verify a signature over a precomputed SHA-256 digest."""
        return self.scheme.verify_digest(self.numbers, digest, signature)

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a signature over ``message`` (hashes internally)."""
        return self.scheme.verify(self.numbers, message, signature)

    def to_bytes(self) -> bytes:
        """Scheme-tagged serialization:
        ``0xA5 || scheme tag || scheme payload``."""
        scheme = self.scheme
        return bytes((KEY_TAG_MAGIC, scheme.tag)) + scheme.public_to_bytes(
            self.numbers
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Inverse of :meth:`to_bytes`; anything but the scheme-tagged
        encoding raises :class:`~repro.errors.DecodingError`."""
        if not data:
            raise DecodingError("empty public key bytes")
        if data[0] != KEY_TAG_MAGIC:
            raise DecodingError("public key bytes carry no scheme tag")
        if len(data) < 2:
            raise DecodingError("truncated scheme-tagged public key")
        scheme = scheme_for_tag(data[1])
        return cls(scheme.public_from_bytes(data[2:]), scheme.name)

    def describe(self) -> str:
        """Human-readable scheme label, e.g. ``rsa-1024`` or ``ed25519``."""
        return self.scheme.describe(self.numbers)

    def fingerprint(self) -> str:
        """Short hex identifier of this key (first 8 digest bytes)."""
        from repro.crypto.hashing import sha256

        return sha256(self.to_bytes())[:8].hex()


@dataclass(frozen=True)
class PrivateKey:
    """A component's private key; produces signatures under its scheme."""

    numbers: Any
    scheme_name: str = DEFAULT_SCHEME

    @property
    def scheme(self) -> SignatureScheme:
        return get_scheme(self.scheme_name)

    @property
    def signature_size(self) -> int:
        return self.scheme.signature_size(self.numbers)

    def sign_digest(self, digest: bytes) -> bytes:
        """Sign a precomputed SHA-256 digest (ADLP's main operation)."""
        return self.scheme.sign_digest(self.numbers, digest)

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` (hashes internally)."""
        return self.scheme.sign(self.numbers, message)

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(self.scheme.public_of(self.numbers), self.scheme_name)


@dataclass(frozen=True)
class KeyPair:
    """A (private, public) pair as generated by a component at startup."""

    private: PrivateKey
    public: PublicKey


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    seed: Optional[int] = None,
    scheme: Optional[str] = None,
) -> KeyPair:
    """Generate a fresh key pair under a registered signature scheme.

    :param bits: key size for schemes that are parameterized by one (RSA;
        the paper uses 1024).  Fixed-size schemes (Ed25519) ignore it.
    :param seed: if given, keys are generated from a seeded PRNG --
        **for tests only**, to make key material reproducible and fast to
        cache.  Production callers must leave this ``None``.
    :param scheme: scheme name (``rsa``, ``ed25519``); ``None`` uses the
        process default (the ``ADLP_SIG_SCHEME`` environment variable,
        else the paper-faithful ``rsa``).
    """
    backend = get_scheme(scheme if scheme is not None else default_scheme_name())
    priv = PrivateKey(backend.generate(bits, seed), backend.name)
    return KeyPair(private=priv, public=priv.public_key)
