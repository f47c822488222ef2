"""Online (streaming) auditing.

The paper notes the logger choice depends on "the need for on-line
analysis" (Section II-A).  :class:`OnlineAuditor` consumes entries as they
are ingested and raises findings within a bounded delay, instead of
waiting for a post-incident batch audit:

- entries are verified (phase-1 obvious detection) immediately;
- a transmission is judged the moment both of its sides are present;
- a one-sided transmission is judged after ``grace_period`` seconds of
  waiting for the counterpart -- producing the hidden-entry inference of
  Lemma 2 *during operation*, e.g. to alert on a component that silently
  stopped logging.  A counterpart that arrives later judges it again.

It is the batch audit's own :class:`~repro.audit.auditor.AuditFold`, fed
entry by entry, so :meth:`OnlineAuditor.final_audit` is what
:meth:`~repro.audit.auditor.Auditor.audit` under the same topology says
of everything ingested.  The topology is required: a log that has not
arrived yet cannot vote on who publishes a topic, so the batch audit's
inference from the whole log has no online counterpart
(:meth:`~repro.audit.auditor.Topology.from_master` captures a live
deployment's).
Findings are delivered to a callback and kept in :attr:`findings`.

Time is taken from an injectable clock so tests drive it deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.audit.auditor import AuditFold, TransKey, Topology
from repro.audit.verdicts import AuditReport
from repro.core.entries import LogEntry
from repro.crypto.keystore import KeyStore
from repro.util.clock import Clock, SystemClock


@dataclass(frozen=True)
class OnlineFinding:
    """One incremental result pushed to the callback."""

    kind: str  # "invalid" | "hidden" | "anomaly" | "equivocation"
    component_id: str
    topic: str
    seq: int
    detail: str


class OnlineAuditor:
    """Drives one long-lived :class:`~repro.audit.auditor.AuditFold`.

    :meth:`ingest` feeds an entry, :meth:`poll` closes the transmissions
    whose grace period expired, :meth:`drain` closes all of them, and
    every verdict a call decides or changes becomes a finding.  Replays
    are caught by the fold's own replay sets, so a replayed entry is
    reported invalid and never makes its honest counterpart look hidden.

    Findings are append-only.  A ``hidden`` finding raised when a grace
    period ends is provisional: should the counterpart arrive after all,
    the fold re-judges the transmission and drops the hidden record, but
    the finding already delivered stays in :attr:`findings` and
    :meth:`flagged_components`.  :meth:`final_audit` is authoritative.
    """

    def __init__(
        self,
        keystore: KeyStore,
        topology: Topology,
        grace_period: float = 1.0,
        on_finding: Optional[Callable[[OnlineFinding], None]] = None,
        clock: Optional[Clock] = None,
    ):
        self._fold = AuditFold(keystore, topology)
        self.grace_period = grace_period
        self._on_finding = on_finding or (lambda finding: None)
        self._clock = clock or SystemClock()
        #: pending transmission -> when its grace period ends
        self._deadlines: Dict[TransKey, float] = {}
        self._findings: List[OnlineFinding] = []
        self._lock = threading.Lock()

    # -- attachment ---------------------------------------------------------

    @classmethod
    def attach(
        cls,
        server,
        topology: Topology,
        grace_period: float = 1.0,
        on_finding: Optional[Callable[[OnlineFinding], None]] = None,
        clock: Optional[Clock] = None,
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

    def ingest(self, entry: LogEntry) -> None:
        """Feed one entry; judges its transmission if now complete."""
        self._run(lambda: self._fold.feed([entry]))
        self.poll()

    def poll(self) -> None:
        """Judge transmissions whose grace period expired (call this
        periodically, or after advancing a simulated clock)."""
        now = self._clock.now()
        with self._lock:
            self._deadlines = {
                key: self._deadlines.get(key, now + self.grace_period)
                for key in self._fold.pending
            }
            expired = [key for key, end in self._deadlines.items() if now >= end]
        self._run(lambda: self._fold.close(expired))

    def drain(self) -> None:
        """Judge everything still pending, grace period notwithstanding."""
        self._run(self._fold.close)

    def final_audit(self) -> AuditReport:
        """Drain, then return the fold's report: what a batch audit of
        everything ingested so far says."""
        self.drain()
        with self._lock:
            return self._fold.report()

    # -- judging ----------------------------------------------------------

    def _run(self, step: Callable[[], AuditReport]) -> None:
        """Advance the fold under the lock; report what changed."""
        with self._lock:
            emitted = self._findings_from(step())
            self._findings.extend(emitted)
        for finding in emitted:
            self._on_finding(finding)

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
        # Evidence the relay accumulated before we subscribed still counts.
        for evidence in relay.evidence():
            self._on_equivocation(evidence)

    def _on_equivocation(self, evidence) -> None:
        finding = OnlineFinding(
            kind="equivocation",
            component_id=evidence.log_id,
            topic="sth",
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
            return len(self._fold.pending)

    @property
    def judged_entries(self) -> int:
        with self._lock:
            return self._fold.judged_entries

    def flagged_components(self) -> List[str]:
        """Components with any finding so far."""
        with self._lock:
            return sorted({f.component_id for f in self._findings})
