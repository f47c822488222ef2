"""Self-contained equivocation evidence.

When two signed tree heads from the same log conflict, the pair *is* the
proof of misbehavior: anyone holding the logger's public key can re-verify
both signatures and observe the contradiction, with no trust in whoever
assembled the evidence.  Two conflict shapes exist:

- ``fork``: equal size, different root or chain head -- the logger showed
  two different histories of the same length (a split view).
- ``consistency``: different sizes, but the logger could not (or refused
  to) produce a valid RFC 6962 consistency proof from the smaller head to
  the larger -- the "extension" rewrote history instead of appending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.crypto.keys import PublicKey
from repro.errors import DecodingError
from repro.gossip.sth import SignedTreeHead
from repro.serialization import WireMessage, bytes_, string

#: Evidence kinds.
KIND_FORK = "fork"
KIND_CONSISTENCY = "consistency"


class _EvidenceWire(WireMessage):
    kind = string(1)
    detail = string(2)
    first_source = string(3)
    second_source = string(4)
    first_sth = bytes_(5)
    second_sth = bytes_(6)


@dataclass(frozen=True)
class EquivocationEvidence:
    """A convicting pair of signed tree heads plus discovery metadata.

    ``first``/``second`` are ordered by ``entries`` (ascending; ties keep
    observation order) so fork evidence always has equal sizes and
    consistency evidence always runs small -> large.
    """

    kind: str
    first: SignedTreeHead
    second: SignedTreeHead
    detail: str = ""
    sources: Tuple[str, str] = field(default=("", ""))

    @property
    def log_id(self) -> str:
        return self.first.log_id

    def verify(self, public_key: PublicKey) -> bool:
        """Re-derive the conviction from scratch: both signatures must be
        the logger's, and the pair must actually contradict append-only
        growth of a single history."""
        if not self.first.verify(public_key) or not self.second.verify(public_key):
            return False
        if self.first.log_id != self.second.log_id:
            return False
        if self.kind == KIND_FORK:
            return self.first.conflicts_with(self.second)
        if self.kind == KIND_CONSISTENCY:
            # The heads differ in size; the conviction rests on the logger
            # having failed the consistency challenge recorded in `detail`.
            # The pair is still checked for the minimal contradiction shape.
            return self.first.entries != self.second.entries
        return False

    def describe(self) -> str:
        return (
            f"equivocation[{self.kind}] {self.first.describe()} "
            f"vs {self.second.describe()}"
            + (f" ({self.detail})" if self.detail else "")
        )

    # -- serialization (reports, CI artifacts) ------------------------------

    def to_bytes(self) -> bytes:
        return _EvidenceWire(
            kind=self.kind,
            detail=self.detail,
            first_source=self.sources[0],
            second_source=self.sources[1],
            first_sth=self.first.to_bytes(),
            second_sth=self.second.to_bytes(),
        ).encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "EquivocationEvidence":
        try:
            wire = _EvidenceWire.decode(blob)
        except Exception as exc:  # noqa: BLE001 - normalize decode failures
            raise DecodingError(f"malformed equivocation evidence: {exc}") from exc
        return cls(
            kind=wire.kind,
            first=SignedTreeHead.from_bytes(wire.first_sth),
            second=SignedTreeHead.from_bytes(wire.second_sth),
            detail=wire.detail,
            sources=(wire.first_source, wire.second_source),
        )


def make_evidence(
    kind: str,
    a: SignedTreeHead,
    b: SignedTreeHead,
    detail: str = "",
    sources: Tuple[str, str] = ("", ""),
) -> EquivocationEvidence:
    """Order the pair canonically (ascending size) and build evidence."""
    if b.entries < a.entries:
        a, b = b, a
        sources = (sources[1], sources[0])
    return EquivocationEvidence(
        kind=kind, first=a, second=b, detail=detail, sources=sources
    )
