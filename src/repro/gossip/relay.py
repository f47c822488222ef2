"""STH gossip and split-view detection.

A single client can never catch an equivocating logger on its own: the
logger simply shows that client one internally consistent history.  The
countermeasure (the "Think Global, Act Local" design) is for observers --
replicas, auditors, other clients -- to *gossip* the signed tree heads
they have seen.  The moment two views of the same log meet in one place,
the conflict is mechanically checkable and the logger's own signatures
convict it.

:class:`GossipRelay` is that meeting place.  Each participant runs one,
feeds it every STH it fetches (:meth:`GossipRelay.observe`), and
periodically exchanges pools with a peer (:meth:`GossipRelay.exchange`).
Detection is therefore bounded by the gossip topology's diameter: once a
path of exchanges connects two observers of different forks, evidence
appears -- for the two-group split-view attack, a single round suffices.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.gossip.evidence import (
    KIND_CONSISTENCY,
    KIND_FORK,
    EquivocationEvidence,
    make_evidence,
)
from repro.gossip.sth import SignedTreeHead

#: Heads retained per log; old sizes age out FIFO, like the
#: replication divergence detector's snapshot window.
HISTORY_LIMIT = 256

#: Optional callback producing a consistency proof between two observed
#: heads of the same log (typically wired to ``RemoteLogger.prove_consistency``).
#: Returning an invalid proof -- or raising -- convicts the logger.
ConsistencyProver = Callable[[SignedTreeHead, SignedTreeHead], object]


class GossipRelay:
    """A pool of observed STHs that cross-checks every new arrival.

    Signature policy: heads for a log with a registered public key are
    verified on arrival and dropped (counted) when invalid -- forged heads
    must not frame an honest logger.  Heads for unknown logs are kept but
    can only produce evidence once a key is registered, since unverifiable
    evidence convicts nobody.
    """

    def __init__(
        self,
        name: str = "relay",
        history_limit: int = HISTORY_LIMIT,
        consistency_prover: Optional[ConsistencyProver] = None,
    ):
        self.name = name
        self._history_limit = history_limit
        self._prover = consistency_prover
        self._keys: Dict[str, PublicKey] = {}
        # log_id -> entries -> (sth, source)
        self._pools: Dict[str, "OrderedDict[int, Tuple[SignedTreeHead, str]]"] = {}
        self._flagged: set = set()
        self._evidence: List[EquivocationEvidence] = []
        self._listeners: List[Callable[[EquivocationEvidence], None]] = []
        self._lock = threading.RLock()
        #: Completed :meth:`exchange` rounds (observability: detection
        #: latency is measured in these).
        self.rounds = 0
        #: Heads dropped because their signature failed verification.
        self.rejected_heads = 0

    # -- configuration ------------------------------------------------------

    def register_key(self, log_id: str, public_key: PublicKey) -> None:
        """Trust anchor: the logger's public key, for STH verification."""
        with self._lock:
            self._keys[log_id] = public_key

    def add_listener(self, callback: Callable[[EquivocationEvidence], None]) -> None:
        """Invoke ``callback`` for every *new* piece of evidence."""
        with self._lock:
            self._listeners.append(callback)

    # -- observation --------------------------------------------------------

    def observe(
        self, sth: SignedTreeHead, source: str = "local"
    ) -> List[EquivocationEvidence]:
        """Deposit one signed tree head; returns any *new* evidence."""
        with self._lock:
            key = self._keys.get(sth.log_id)
            if key is not None and not sth.verify(key):
                self.rejected_heads += 1
                return []
            pool = self._pools.setdefault(sth.log_id, OrderedDict())
            fresh: List[EquivocationEvidence] = []
            existing = pool.get(sth.entries)
            if existing is not None:
                held, held_source = existing
                if held.conflicts_with(sth):
                    fresh.extend(
                        self._convict_locked(
                            KIND_FORK,
                            held,
                            sth,
                            detail="same size, different root",
                            sources=(held_source, source),
                        )
                    )
                # Keep the first-seen head for this size either way.
            else:
                fresh.extend(self._check_consistency_locked(pool, sth, source))
                pool[sth.entries] = (sth, source)
                while len(pool) > self._history_limit:
                    pool.popitem(last=False)
            for evidence in fresh:
                for listener in list(self._listeners):
                    listener(evidence)
            return fresh

    def _check_consistency_locked(
        self,
        pool: "OrderedDict[int, Tuple[SignedTreeHead, str]]",
        sth: SignedTreeHead,
        source: str,
    ) -> List[EquivocationEvidence]:
        """Challenge the newcomer against the nearest held head, if a
        consistency prover is wired up."""
        if self._prover is None or not pool:
            return []
        # Nearest held size below (preferred) or above the newcomer.
        sizes = sorted(pool)
        below = [s for s in sizes if s < sth.entries]
        above = [s for s in sizes if s > sth.entries]
        anchor_size = below[-1] if below else above[0]
        anchor, anchor_source = pool[anchor_size]
        old, new = (anchor, sth) if anchor_size < sth.entries else (sth, anchor)
        old_source, new_source = (
            (anchor_source, source) if anchor_size < sth.entries else (source, anchor_source)
        )
        try:
            proof = self._prover(old, new)
            ok = bool(
                proof is not None
                and proof.verify(old.merkle_root, new.merkle_root)  # type: ignore[attr-defined]
            )
            detail = "consistency proof does not verify" if not ok else ""
        except Exception as exc:  # noqa: BLE001 - refusal is also evidence
            ok = False
            detail = f"logger failed the consistency challenge: {exc}"
        if ok:
            return []
        return self._convict_locked(
            KIND_CONSISTENCY, old, new, detail=detail, sources=(old_source, new_source)
        )

    def _convict_locked(
        self,
        kind: str,
        a: SignedTreeHead,
        b: SignedTreeHead,
        detail: str,
        sources: Tuple[str, str],
    ) -> List[EquivocationEvidence]:
        key = self._keys.get(a.log_id)
        if key is None or not (a.verify(key) and b.verify(key)):
            # Unverifiable evidence convicts nobody: without the logger's
            # key this conflict cannot be attributed (anyone could have
            # forged one side to frame the logger).  The heads stay pooled,
            # so a later ``register_key`` plus re-gossip can still convict.
            return []
        dedup = (
            a.log_id,
            kind,
            min(a.entries, b.entries),
            max(a.entries, b.entries),
            tuple(sorted((a.merkle_root, b.merkle_root))),
        )
        if dedup in self._flagged:
            return []
        self._flagged.add(dedup)
        evidence = make_evidence(kind, a, b, detail=detail, sources=sources)
        self._evidence.append(evidence)
        return [evidence]

    # -- gossip -------------------------------------------------------------

    def heads(self) -> List[SignedTreeHead]:
        """Snapshot of every head currently pooled (for gossip payloads)."""
        with self._lock:
            return [sth for pool in self._pools.values() for sth, _ in pool.values()]

    def latest(self, log_id: str) -> Optional[SignedTreeHead]:
        """The largest head seen for ``log_id``, if any."""
        with self._lock:
            pool = self._pools.get(log_id)
            if not pool:
                return None
            return pool[max(pool)][0]

    def exchange(self, peer: "GossipRelay") -> List[EquivocationEvidence]:
        """One bidirectional gossip round with ``peer``.

        Both relays end up holding the union of the two pools; any
        cross-pool conflict surfaces as evidence on the receiving side.
        Returns the union of new evidence from both directions.
        """
        mine = self.heads()
        theirs = peer.heads()
        fresh: List[EquivocationEvidence] = []
        for sth in mine:
            fresh.extend(peer.observe(sth, source=f"gossip:{self.name}"))
        for sth in theirs:
            fresh.extend(self.observe(sth, source=f"gossip:{peer.name}"))
        with self._lock:
            self.rounds += 1
        with peer._lock:
            peer.rounds += 1
        return fresh

    # -- reporting ----------------------------------------------------------

    def evidence(self) -> List[EquivocationEvidence]:
        """All evidence accumulated so far."""
        with self._lock:
            return list(self._evidence)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "pools": len(self._pools),
                "heads": sum(len(pool) for pool in self._pools.values()),
                "evidence": len(self._evidence),
                "rounds": self.rounds,
                "rejected_heads": self.rejected_heads,
            }


def gossip_round(relays: List[GossipRelay]) -> List[EquivocationEvidence]:
    """Run one ring-topology round over ``relays``; returns new evidence.

    A ring connects the whole population in ``ceil(n/2)`` rounds at worst,
    which keeps "detection within a bounded number of rounds" a concrete,
    testable statement.
    """
    if len(relays) < 2:
        return []
    fresh: List[EquivocationEvidence] = []
    for i, relay in enumerate(relays):
        fresh.extend(relay.exchange(relays[(i + 1) % len(relays)]))
    return fresh
