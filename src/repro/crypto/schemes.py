"""Pluggable signature schemes.

The paper fixes RSA-1024 PKCS#1 v1.5; SNIPPETS' protocol plan explicitly
leaves room to "upgrade to Ed25519 without changing message semantics".
This module is that seam: a :class:`SignatureScheme` interface (key
generation, digest/message sign and verify, key serialization) with two
registered backends -- the paper-faithful RSA and a pure-Python Ed25519
(:mod:`repro.crypto.ed25519`) -- selected by name.

**Wire encoding.**  A scheme-tagged public key is::

    0xA5 || scheme tag (1 byte) || scheme-specific payload

``0xA5`` cannot begin a legacy untagged RSA key (its first two bytes are
the big-endian byte length of the modulus, so ``0xA5`` would claim a
~338000-bit key), which is how
:meth:`repro.crypto.keys.PublicKey.from_bytes` keeps decoding keys
serialized before this layer existed.  Signatures stay raw bytes on the
wire -- the verifying key carries the scheme, so log-entry and message
formats are unchanged.

The process-wide default scheme is ``rsa`` (paper-faithful), overridable
with the ``ADLP_SIG_SCHEME`` environment variable (how the CI matrix runs
the suite under Ed25519) or per node via
:attr:`repro.core.policy.AdlpConfig.signature_scheme`.
"""

from __future__ import annotations

import abc
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto import ed25519, pkcs1
from repro.crypto.hashing import sha256
from repro.crypto.rsa import (
    RsaPrivateNumbers,
    RsaPublicNumbers,
    generate_rsa_numbers,
)
from repro.errors import DecodingError, KeyGenerationError

#: First byte of every scheme-tagged key encoding.
KEY_TAG_MAGIC = 0xA5

#: Environment variable naming the default scheme for the process.
SCHEME_ENV_VAR = "ADLP_SIG_SCHEME"

#: The paper-faithful default.
DEFAULT_SCHEME = "rsa"


class SignatureScheme(abc.ABC):
    """One signature algorithm: keygen, sign/verify, key serialization.

    A scheme operates on opaque *material* objects (the ``numbers`` slot
    of :class:`~repro.crypto.keys.PublicKey`/``PrivateKey``); the key
    classes delegate here, so every consumer of the key API is
    scheme-agnostic.
    """

    #: registry name (``rsa``, ``ed25519``)
    name: str
    #: one-byte wire tag in the tagged key encoding
    tag: int

    # -- key generation ---------------------------------------------------

    @abc.abstractmethod
    def generate(self, bits: int, seed: Optional[int] = None) -> Any:
        """Fresh private material.  ``bits`` sizes the key where the
        scheme is parameterized (RSA); fixed-size schemes ignore it.
        ``seed`` makes generation deterministic (tests only)."""

    @abc.abstractmethod
    def public_of(self, private_material: Any) -> Any:
        """The public material for some private material."""

    # -- signing ----------------------------------------------------------

    @abc.abstractmethod
    def sign_digest(self, private_material: Any, digest: bytes) -> bytes:
        """Sign a precomputed SHA-256 digest (ADLP's hot operation)."""

    @abc.abstractmethod
    def verify_digest(
        self, public_material: Any, digest: bytes, signature: bytes
    ) -> bool:
        """True iff ``signature`` covers ``digest``.  Total: malformed
        signatures return ``False``, they never raise."""

    def verify_batch(
        self, items: Sequence[Tuple[Any, bytes, bytes]]
    ) -> List[bool]:
        """:meth:`verify_digest` for every ``(public material, digest,
        signature)`` in ``items``, in input order -- the auditor's one
        verify path.  Schemes with a cheaper combined check override
        this; the booleans must equal the loop's on every input."""
        return [
            self.verify_digest(material, digest, signature)
            for material, digest, signature in items
        ]

    def sign(self, private_material: Any, message: bytes) -> bytes:
        """Sign ``message`` (hashes internally; same construction for
        every scheme so message-level semantics never change on upgrade)."""
        return self.sign_digest(private_material, sha256(message))

    def verify(
        self, public_material: Any, message: bytes, signature: bytes
    ) -> bool:
        return self.verify_digest(public_material, sha256(message), signature)

    # -- serialization ----------------------------------------------------

    @abc.abstractmethod
    def public_to_bytes(self, public_material: Any) -> bytes:
        """The scheme-specific payload (excluding the two tag bytes)."""

    @abc.abstractmethod
    def public_from_bytes(self, payload: bytes) -> Any:
        """Inverse of :meth:`public_to_bytes`; raises
        :class:`~repro.errors.DecodingError` on malformed payloads."""

    # -- introspection ----------------------------------------------------

    @abc.abstractmethod
    def signature_size(self, material: Any) -> int:
        """Signature length in bytes under this key (public or private)."""

    def describe(self, material: Any) -> str:
        """Human-readable scheme label for one key (e.g. ``rsa-1024``)."""
        return self.name


class RsaPkcs1Scheme(SignatureScheme):
    """RSASSA-PKCS1-v1_5 over SHA-256 -- the paper's scheme, kept as the
    default so benchmarks stay faithful to Table I."""

    name = "rsa"
    tag = 0x01

    def generate(self, bits: int, seed: Optional[int] = None) -> RsaPrivateNumbers:
        rng = random.Random(seed) if seed is not None else None
        return generate_rsa_numbers(bits, rng)

    def public_of(self, private_material: RsaPrivateNumbers) -> RsaPublicNumbers:
        return private_material.public_numbers

    def sign_digest(self, private_material: RsaPrivateNumbers, digest: bytes) -> bytes:
        return pkcs1.sign_digest(private_material, digest)

    def verify_digest(
        self, public_material: RsaPublicNumbers, digest: bytes, signature: bytes
    ) -> bool:
        return pkcs1.verify_digest(public_material, digest, signature)

    def public_to_bytes(self, public_material: RsaPublicNumbers) -> bytes:
        from repro.util.bytesutil import int_to_bytes

        n_bytes = int_to_bytes(public_material.n)
        e_bytes = int_to_bytes(public_material.e)
        return (
            len(n_bytes).to_bytes(2, "big")
            + n_bytes
            + len(e_bytes).to_bytes(2, "big")
            + e_bytes
        )

    def public_from_bytes(self, payload: bytes) -> RsaPublicNumbers:
        from repro.util.bytesutil import int_from_bytes

        try:
            n_len = int.from_bytes(payload[0:2], "big")
            n = int_from_bytes(payload[2 : 2 + n_len])
            off = 2 + n_len
            e_len = int.from_bytes(payload[off : off + 2], "big")
            e = int_from_bytes(payload[off + 2 : off + 2 + e_len])
            if off + 2 + e_len != len(payload):
                raise DecodingError("trailing bytes after public key")
        except (IndexError, ValueError) as exc:
            raise DecodingError(f"malformed public key bytes: {exc}") from exc
        if n <= 0 or e <= 0:
            raise DecodingError("public key numbers must be positive")
        return RsaPublicNumbers(n=n, e=e)

    def signature_size(self, material: Any) -> int:
        return material.byte_size

    def describe(self, material: Any) -> str:
        return f"rsa-{material.bits if hasattr(material, 'bits') else material.n.bit_length()}"


@dataclass(frozen=True)
class Ed25519Public:
    """Compressed edwards25519 point (32 bytes)."""

    point: bytes


@dataclass(frozen=True)
class Ed25519Private:
    """The RFC 8032 32-byte secret plus its cached public point."""

    secret: bytes
    point: bytes  # compressed public, cached so signing skips a base mul

    def __repr__(self) -> str:  # never leak the secret into logs
        return f"Ed25519Private(point={self.point.hex()[:16]}...)"


class Ed25519Scheme(SignatureScheme):
    """RFC 8032 Ed25519 (pure Python, :mod:`repro.crypto.ed25519`).

    Digest-level signing signs the 32-byte SHA-256 digest as the Ed25519
    message (EdDSA hashes internally with SHA-512), so ADLP's
    ``h(seq || D)`` commitment construction is untouched.
    """

    name = "ed25519"
    tag = 0x02

    def generate(self, bits: int, seed: Optional[int] = None) -> Ed25519Private:
        # ``bits`` is accepted for interface uniformity; the curve fixes
        # the size.  Reject nonsense rather than silently ignoring it.
        if bits and bits < 128:
            raise KeyGenerationError("key size must be at least 128 bits")
        secret = ed25519.generate_secret(seed)
        return Ed25519Private(secret=secret, point=ed25519.public_from_secret(secret))

    def public_of(self, private_material: Ed25519Private) -> Ed25519Public:
        return Ed25519Public(point=private_material.point)

    def sign_digest(self, private_material: Ed25519Private, digest: bytes) -> bytes:
        return ed25519.sign(
            private_material.secret, digest, public=private_material.point
        )

    def verify_digest(
        self, public_material: Ed25519Public, digest: bytes, signature: bytes
    ) -> bool:
        return ed25519.verify(public_material.point, digest, signature)

    def verify_batch(
        self, items: Sequence[Tuple[Ed25519Public, bytes, bytes]]
    ) -> List[bool]:
        return ed25519.verify_batch(
            [(material.point, digest, signature) for material, digest, signature in items]
        )

    def public_to_bytes(self, public_material: Ed25519Public) -> bytes:
        return public_material.point

    def public_from_bytes(self, payload: bytes) -> Ed25519Public:
        if len(payload) != ed25519.PUBLIC_SIZE:
            raise DecodingError(
                f"ed25519 public key must be {ed25519.PUBLIC_SIZE} bytes, "
                f"got {len(payload)}"
            )
        if not ed25519.is_valid_public(payload):
            raise DecodingError("ed25519 public key is not a canonical curve point")
        return Ed25519Public(point=bytes(payload))

    def signature_size(self, material: Any) -> int:
        return ed25519.SIGNATURE_SIZE


_SCHEMES: Dict[str, SignatureScheme] = {}
_BY_TAG: Dict[int, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme) -> SignatureScheme:
    """Add ``scheme`` to the registry (name and wire tag must be unique)."""
    existing = _SCHEMES.get(scheme.name)
    if existing is not None and existing is not scheme:
        raise ValueError(f"signature scheme {scheme.name!r} already registered")
    by_tag = _BY_TAG.get(scheme.tag)
    if by_tag is not None and by_tag is not scheme:
        raise ValueError(
            f"scheme tag {scheme.tag:#x} already taken by {by_tag.name!r}"
        )
    _SCHEMES[scheme.name] = scheme
    _BY_TAG[scheme.tag] = scheme
    return scheme


def get_scheme(name: str) -> SignatureScheme:
    """The registered scheme called ``name``; raises ``ValueError``."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown signature scheme {name!r}; "
            f"registered: {sorted(_SCHEMES)}"
        ) from None


def scheme_for_tag(tag: int) -> SignatureScheme:
    """The scheme behind a wire tag byte; raises
    :class:`~repro.errors.DecodingError` for unknown tags (this sits on
    the key *decode* path)."""
    try:
        return _BY_TAG[tag]
    except KeyError:
        raise DecodingError(f"unknown signature scheme tag {tag:#04x}") from None


def scheme_names() -> List[str]:
    """Registered scheme names, sorted."""
    return sorted(_SCHEMES)


def default_scheme_name() -> str:
    """The process default: ``ADLP_SIG_SCHEME`` if set, else ``rsa``."""
    return os.environ.get(SCHEME_ENV_VAR, DEFAULT_SCHEME)


RSA = register_scheme(RsaPkcs1Scheme())
ED25519 = register_scheme(Ed25519Scheme())
