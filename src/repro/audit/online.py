"""Online (streaming) auditing.

The paper notes the logger choice depends on "the need for on-line
analysis" (Section II-A).  :class:`OnlineAuditor` consumes entries as they
are ingested and raises findings within a bounded delay, instead of
waiting for a post-incident batch audit:

- entries are verified (phase-1 obvious detection) immediately;
- each transmission's two entries are matched as they arrive; a pair is
  judged the moment both sides are present;
- a one-sided transmission is judged after ``grace_period`` seconds of
  waiting for the counterpart -- producing the hidden-entry inference of
  Lemma 2 *during operation*, e.g. to alert on a component that silently
  stopped logging.

Findings are delivered to a callback; the auditor also keeps an
accumulating :class:`~repro.audit.verdicts.AuditReport`-compatible view
via :meth:`snapshot`.

Time is taken from an injectable clock so tests drive it deterministically.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.audit.auditor import Auditor, Topology
from repro.audit.verdicts import AuditReport
from repro.core.entries import Direction, LogEntry
from repro.crypto.keystore import KeyStore
from repro.util.clock import Clock, SystemClock

#: key identifying one transmission: (topic, seq, subscriber)
_TransKey = Tuple[str, int, str]


@dataclass(frozen=True)
class OnlineFinding:
    """One incremental result pushed to the callback."""

    kind: str  # "invalid" | "hidden" | "anomaly"
    component_id: str
    topic: str
    seq: int
    detail: str


class OnlineAuditor:
    """Incremental wrapper around the batch :class:`Auditor`.

    Entries accumulate in per-transmission buckets; completed (or expired)
    buckets are audited in isolation, which is sound because the batch
    algorithm judges transmissions independently (phase-1 replay detection
    is handled by the online layer's own seen-set).
    """

    def __init__(
        self,
        keystore: KeyStore,
        topology: Optional[Topology] = None,
        grace_period: float = 1.0,
        on_finding: Optional[Callable[[OnlineFinding], None]] = None,
        clock: Optional[Clock] = None,
        verify_sample_rate: float = 1.0,
        sample_seed: Optional[int] = None,
    ):
        if not 0.0 <= verify_sample_rate <= 1.0:
            raise ValueError("verify_sample_rate must be within [0, 1]")
        self._keystore = keystore
        self._auditor = Auditor(keystore, topology)
        self._topology = topology
        self.grace_period = grace_period
        #: fraction of completed transmissions judged inline; the rest are
        #: deferred to :meth:`final_audit` (amortized verification)
        self.verify_sample_rate = verify_sample_rate
        self._sample_rng = random.Random(sample_seed)
        self._on_finding = on_finding or (lambda finding: None)
        self._clock = clock or SystemClock()
        self._pending: Dict[_TransKey, Tuple[float, List[LogEntry]]] = {}
        self._findings: List[OnlineFinding] = []
        self._judged_entries = 0
        self._seen_entries: List[LogEntry] = []
        self._sampled_transmissions = 0
        self._deferred_transmissions = 0
        self._lock = threading.Lock()

    # -- attachment ---------------------------------------------------------

    @classmethod
    def attach(
        cls,
        server,
        topology: Optional[Topology] = None,
        grace_period: float = 1.0,
        on_finding: Optional[Callable[[OnlineFinding], None]] = None,
        clock: Optional[Clock] = None,
        verify_sample_rate: float = 1.0,
        sample_seed: Optional[int] = None,
    ) -> "OnlineAuditor":
        """Create an auditor fed live by a
        :class:`~repro.core.log_server.LogServer`'s ingestion stream.

        Call :meth:`detach` (or keep polling) when done.
        """
        auditor = cls(
            server.keystore,
            topology,
            grace_period=grace_period,
            on_finding=on_finding,
            clock=clock,
            verify_sample_rate=verify_sample_rate,
            sample_seed=sample_seed,
        )
        server.add_observer(auditor.ingest)
        auditor._attached_server = server
        return auditor

    def detach(self) -> None:
        """Stop receiving entries from the attached server."""
        server = getattr(self, "_attached_server", None)
        if server is not None:
            server.remove_observer(self.ingest)
            self._attached_server = None

    # -- ingestion -------------------------------------------------------

    def _keys_for(self, entry: LogEntry) -> List[_TransKey]:
        if entry.direction is Direction.IN:
            return [(entry.topic, entry.seq, entry.component_id)]
        if entry.aggregated:
            return [
                (entry.topic, entry.seq, sid) for sid in entry.ack_peer_ids
            ]
        return [(entry.topic, entry.seq, entry.peer_id)]

    def ingest(self, entry: LogEntry) -> None:
        """Feed one entry; judges its transmission if now complete."""
        now = self._clock.now()
        ready: List[List[LogEntry]] = []
        with self._lock:
            self._seen_entries.append(entry)
            for key in self._keys_for(entry):
                deadline_entries = self._pending.get(key)
                if deadline_entries is None:
                    self._pending[key] = (now + self.grace_period, [entry])
                else:
                    _, entries = deadline_entries
                    entries.append(entry)
                    directions = {e.direction for e in entries}
                    if {Direction.OUT, Direction.IN} <= directions:
                        ready.append(entries)
                        del self._pending[key]
        for bucket in ready:
            self._judge(bucket)
        self.poll()

    def poll(self) -> None:
        """Judge transmissions whose grace period expired (call this
        periodically, or after advancing a simulated clock)."""
        now = self._clock.now()
        expired: List[List[LogEntry]] = []
        with self._lock:
            for key in list(self._pending):
                deadline, entries = self._pending[key]
                if now >= deadline:
                    expired.append(entries)
                    del self._pending[key]
        for bucket in expired:
            self._judge(bucket)

    def drain(self) -> None:
        """Judge everything still pending, grace period notwithstanding."""
        with self._lock:
            buckets = [entries for _, entries in self._pending.values()]
            self._pending.clear()
        for bucket in buckets:
            self._judge(bucket)

    # -- judging ----------------------------------------------------------

    @staticmethod
    def _findings_from(report: AuditReport) -> List[OnlineFinding]:
        findings: List[OnlineFinding] = []
        for classified in report.invalid_entries():
            findings.append(
                OnlineFinding(
                    kind="invalid",
                    component_id=classified.component_id,
                    topic=classified.entry.topic,
                    seq=classified.entry.seq,
                    detail=",".join(r.value for r in classified.reasons),
                )
            )
        for hidden in report.hidden:
            findings.append(
                OnlineFinding(
                    kind="hidden",
                    component_id=hidden.component_id,
                    topic=hidden.transmission.topic,
                    seq=hidden.transmission.seq,
                    detail=hidden.reason.value,
                )
            )
        for anomaly in report.anomalies:
            findings.append(
                OnlineFinding(
                    kind="anomaly",
                    component_id=anomaly.transmission.publisher,
                    topic=anomaly.transmission.topic,
                    seq=anomaly.transmission.seq,
                    detail="double_signing",
                )
            )
        return findings

    def _judge(self, entries: List[LogEntry]) -> None:
        if (
            self.verify_sample_rate < 1.0
            and self._sample_rng.random() >= self.verify_sample_rate
        ):
            # Amortized mode: skip the inline verification for this
            # transmission; :meth:`final_audit` still covers it, so
            # detection is delayed, never lost.
            with self._lock:
                self._deferred_transmissions += 1
            return
        report = self._auditor.audit(entries)
        emitted = self._findings_from(report)
        with self._lock:
            self._sampled_transmissions += 1
            self._findings.extend(emitted)
            self._judged_entries += len(entries)
        for finding in emitted:
            self._on_finding(finding)

    def final_audit(self) -> AuditReport:
        """Batch-audit *everything* ingested so far (drains pending
        buckets first) and return the full report.

        This is the second half of amortized verification: transmissions
        the sampler skipped inline are verified here, as one signature
        batch.  Findings the inline pass has not already reported are
        pushed to the callback.
        """
        self.drain()
        with self._lock:
            entries = list(self._seen_entries)
        report = Auditor(self._keystore, self._topology).audit(entries)
        candidates = self._findings_from(report)
        with self._lock:
            known = set(self._findings)
            fresh = [f for f in candidates if f not in known]
            self._findings.extend(fresh)
        for finding in fresh:
            self._on_finding(finding)
        return report

    # -- continuous verification (STH gossip) -----------------------------

    def watch_gossip(self, relay) -> None:
        """Continuously-verified mode: subscribe to a
        :class:`~repro.gossip.relay.GossipRelay` so proven logger
        equivocation surfaces through the same findings stream as
        entry-level misbehavior.

        The resulting findings use ``kind="equivocation"`` with the
        convicted *log id* in the ``component_id`` slot -- here the
        accountable party is the logger itself, not a pub/sub component.
        """
        relay.add_listener(self._on_equivocation)
        self._watched_relays = getattr(self, "_watched_relays", [])
        self._watched_relays.append(relay)
        # Evidence the relay accumulated before we subscribed still counts.
        for evidence in relay.evidence():
            self._on_equivocation(evidence)

    def _on_equivocation(self, evidence) -> None:
        finding = OnlineFinding(
            kind="equivocation",
            component_id=evidence.log_id,
            topic=f"sth-scope-{evidence.scope}",
            seq=evidence.second.entries,
            detail=evidence.describe(),
        )
        with self._lock:
            if any(
                f.kind == "equivocation" and f.detail == finding.detail
                for f in self._findings
            ):
                return  # already reported (e.g. pre-subscription replay)
            self._findings.append(finding)
        self._on_finding(finding)

    # -- inspection ---------------------------------------------------------

    @property
    def findings(self) -> List[OnlineFinding]:
        with self._lock:
            return list(self._findings)

    @property
    def pending_transmissions(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def judged_entries(self) -> int:
        with self._lock:
            return self._judged_entries

    @property
    def sampled_transmissions(self) -> int:
        """Completed transmissions the inline pass actually verified."""
        with self._lock:
            return self._sampled_transmissions

    @property
    def deferred_transmissions(self) -> int:
        """Completed transmissions deferred to :meth:`final_audit`."""
        with self._lock:
            return self._deferred_transmissions

    def flagged_components(self) -> List[str]:
        """Components with any finding so far."""
        with self._lock:
            return sorted({f.component_id for f in self._findings})
