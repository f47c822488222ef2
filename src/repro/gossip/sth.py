"""Signed tree heads (STH).

A signed tree head is the logger's own signature over its commitment
``(entries, chain_head, merkle_root, timestamp)``.  Publishing one is a
promise: *this is the one true history at this size*.  Two valid STHs from
the same log at the same size with different roots are therefore
self-incriminating -- no further trust assumptions are needed to convict
the logger of equivocation (see :mod:`repro.gossip.evidence`).

Wire format mirrors the rest of the protocol (protobuf-style framing via
:mod:`repro.serialization`); the signature covers a canonical
length-prefixed packing, independent of field ordering quirks.
"""

from __future__ import annotations

import struct
import time
from typing import Optional

from repro.crypto.keys import PrivateKey, PublicKey
from repro.errors import DecodingError, LogIntegrityError
from repro.serialization import WireMessage, bytes_, double, string, uint64

#: Domain separation for STH signatures; never signs anything else.
_STH_DOMAIN = b"repro.gossip.sth.v1"



def _packed(blob: bytes) -> bytes:
    return struct.pack(">I", len(blob)) + blob


class SignedTreeHead(WireMessage):
    """A logger-signed commitment to the log at a given size."""

    log_id = string(1)
    entries = uint64(2)
    chain_head = bytes_(3)
    merkle_root = bytes_(4)
    timestamp = double(5)
    #: Field 6 carried the retired scope of topic sharding's per-shard
    #: heads.  It is never reused: the decoder skips it.
    key_fingerprint = string(7)
    signature = bytes_(8)

    def signing_payload(self) -> bytes:
        """The canonical byte string the logger signs.  The zero after
        ``entries`` is where the retired scope was packed, so heads signed
        before and after its removal verify against each other."""
        return b"".join(
            (
                _STH_DOMAIN,
                _packed(self.log_id.encode("utf-8")),
                struct.pack(">QQ", self.entries, 0),
                _packed(self.chain_head),
                _packed(self.merkle_root),
                struct.pack(">d", self.timestamp),
            )
        )

    def verify(self, public_key: PublicKey) -> bool:
        """True iff :attr:`signature` is the logger's signature over this head."""
        if not self.signature:
            return False
        return public_key.verify(self.signing_payload(), self.signature)

    def to_bytes(self) -> bytes:
        return self.encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SignedTreeHead":
        try:
            sth = cls.decode(blob)
        except Exception as exc:  # noqa: BLE001 - normalize decode failures
            raise DecodingError(f"malformed signed tree head: {exc}") from exc
        if not sth.log_id or not sth.signature:
            raise DecodingError("signed tree head missing log id or signature")
        return sth

    def conflicts_with(self, other: "SignedTreeHead") -> bool:
        """Same log, same size -- different history."""
        return (
            self.log_id == other.log_id
            and self.entries == other.entries
            and (
                self.merkle_root != other.merkle_root
                or self.chain_head != other.chain_head
            )
        )

    def describe(self) -> str:
        return (
            f"{self.log_id} size={self.entries} "
            f"root={self.merkle_root.hex()[:16]} head={self.chain_head.hex()[:16]}"
        )


def issue_sth(
    signer: PrivateKey,
    log_id: str,
    entries: int,
    chain_head: bytes,
    merkle_root: bytes,
    timestamp: Optional[float] = None,
) -> SignedTreeHead:
    """Sign a tree head with the logger's key."""
    sth = SignedTreeHead(
        log_id=log_id,
        entries=entries,
        chain_head=chain_head,
        merkle_root=merkle_root,
        timestamp=time.time() if timestamp is None else timestamp,
        key_fingerprint=signer.public_key.fingerprint(),
    )
    sth.signature = signer.sign(sth.signing_payload())
    return sth


def require_valid(sth: SignedTreeHead, public_key: PublicKey) -> SignedTreeHead:
    """Return ``sth`` if its signature verifies, else raise."""
    if not sth.verify(public_key):
        raise LogIntegrityError(
            f"signed tree head from {sth.log_id!r} failed signature verification"
        )
    return sth
