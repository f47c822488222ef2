"""Client-side verified-head cache (the "act local" half).

A :class:`TreeHeadMonitor` is what a single client keeps: the latest
signed tree head it has *verified* -- signature checked against the
logger's public key, and append-only growth from the previously verified
head checked via a consistency proof.  A head that fails either check
never enters the cache; a head that contradicts a cached one produces
:class:`~repro.gossip.evidence.EquivocationEvidence` on the spot.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.crypto.keys import PublicKey
from repro.errors import LogIntegrityError
from repro.gossip.evidence import (
    KIND_CONSISTENCY,
    KIND_FORK,
    EquivocationEvidence,
    make_evidence,
)
from repro.gossip.sth import SignedTreeHead

#: ``prove_consistency(old_size, new_size) -> MerkleConsistencyProof``,
#: typically a bound ``RemoteLogger.prove_consistency``.
ConsistencyFetcher = Callable[[int, int], object]


class TreeHeadMonitor:
    """Append-only verification of one log's tree heads."""

    def __init__(self, public_key: Optional[PublicKey] = None):
        self._key = public_key
        self._verified: Optional[SignedTreeHead] = None
        self._evidence: List[EquivocationEvidence] = []
        self._lock = threading.Lock()

    def verified_head(self) -> Optional[SignedTreeHead]:
        with self._lock:
            return self._verified

    def evidence(self) -> List[EquivocationEvidence]:
        with self._lock:
            return list(self._evidence)

    def observe(
        self,
        sth: SignedTreeHead,
        prove_consistency: Optional[ConsistencyFetcher] = None,
    ) -> SignedTreeHead:
        """Verify ``sth`` and fold it into the cache.

        Raises :class:`LogIntegrityError` on a bad signature, on a fork
        against the cached head, or on a failed/refused consistency proof;
        fork and consistency failures also record evidence first, so the
        caller can retrieve the convicting pair after catching the error.
        """
        with self._lock:
            key = self._key
        if key is not None and not sth.verify(key):
            raise LogIntegrityError(
                f"tree head from {sth.log_id!r} failed signature verification"
            )
        with self._lock:
            held = self._verified
        if held is not None and held.log_id == sth.log_id:
            if held.conflicts_with(sth):
                self._record(
                    make_evidence(
                        KIND_FORK, held, sth, detail="same size, different root"
                    )
                )
                raise LogIntegrityError(
                    f"log {sth.log_id!r} equivocated: two size-{sth.entries} "
                    "heads with different roots"
                )
            if sth.entries == held.entries:
                return held  # identical head re-observed; nothing to do
            old, new = (held, sth) if held.entries < sth.entries else (sth, held)
            if prove_consistency is not None:
                self._challenge(old, new, prove_consistency)
            if sth.entries < held.entries:
                return held  # verified, but the cache already holds newer
        with self._lock:
            self._verified = sth
        return sth

    def _challenge(
        self,
        old: SignedTreeHead,
        new: SignedTreeHead,
        prove_consistency: ConsistencyFetcher,
    ) -> None:
        try:
            proof = prove_consistency(old.entries, new.entries)
            ok = bool(
                proof is not None
                and proof.verify(old.merkle_root, new.merkle_root)  # type: ignore[attr-defined]
            )
            detail = "" if ok else "consistency proof does not verify"
        except Exception as exc:  # noqa: BLE001 - refusal is also evidence
            ok = False
            detail = f"logger failed the consistency challenge: {exc}"
        if not ok:
            self._record(
                make_evidence(KIND_CONSISTENCY, old, new, detail=detail)
            )
            raise LogIntegrityError(
                f"log {old.log_id!r} is not append-only between sizes "
                f"{old.entries} and {new.entries}: {detail}"
            )

    def _record(self, evidence: EquivocationEvidence) -> None:
        with self._lock:
            self._evidence.append(evidence)
