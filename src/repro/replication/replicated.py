"""Client-side replication of the trusted logger.

:class:`ReplicatedLogger` is a drop-in for the ``log_server`` argument of
:class:`~repro.core.adlp_protocol.AdlpProtocol` (the ``register_key`` /
``submit`` / ``stats`` surface) that fans every operation out to N
:class:`~repro.core.remote.LogServerEndpoint` replicas:

- **Quorum submission** -- each submit is sent to every replica whose
  circuit breaker admits it; the call reports (via counters and
  :meth:`quorum_status`) whether it reached a durable majority or is
  limping on fewer replicas.  Submits stay fire-and-forget per replica,
  so a dead replica never stalls the data plane -- the paper's
  no-single-point-of-failure property, now without the single point.
- **Health probes** -- the ``OP_HEALTH`` RPC returns each replica's
  :class:`~repro.core.log_server.LogCommitment` (entry count, chain head,
  Merkle root); probes drive the per-replica breaker and feed the
  :class:`~repro.replication.divergence.DivergenceDetector`.
- **Failover** -- consecutive failures trip a replica's breaker open;
  fan-out skips it (no spill build-up for a quarantined replica) until a
  jittered half-open probe readmits it.
- **Anti-entropy catch-up** -- :meth:`catch_up` replays a lagging
  replica's missing suffix from the healthiest peer, re-verifying the
  hash chain record by record before trusting the rejoin.

**Ordering caveat**: replica commitments are order-sensitive, so all
components of one deployment must fan out through a *shared*
``ReplicatedLogger`` instance (submits are serialized internally, giving
every replica the identical interleaving).  Independent fan-out points
would produce replicas that disagree on order -- indistinguishable from
divergence.  See PROTOCOL.md §9.
"""

from __future__ import annotations

import logging
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.core.entries import LogEntry
from repro.core.log_server import LogCommitment
from repro.core.policy import ReplicationConfig
from repro.core.remote import RemoteLogger, RemoteUnavailable
from repro.crypto.hashchain import chain_digest
from repro.crypto.keys import PublicKey
from repro.errors import LoggingError, TransportError
from repro.gossip.evidence import EquivocationEvidence
from repro.gossip.relay import GossipRelay
from repro.gossip.sth import SignedTreeHead
from repro.middleware.transport.base import Transport
from repro.replication.breaker import BreakerState, CircuitBreaker
from repro.replication.divergence import DivergenceDetector, DivergenceEvidence
from repro.util.concurrency import StoppableThread

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


@dataclass
class ReplicaStatus:
    """One replica's view for operators (the CLI ``replicas`` command)."""

    index: int
    address: object
    breaker: str
    connected: bool
    entries: Optional[int]
    chain_head: Optional[bytes]
    merkle_root: Optional[bytes]
    lag: Optional[int]
    submitted: int
    skipped: int
    last_error: Optional[str]


@dataclass(frozen=True)
class CatchUpResult:
    """Outcome of one replica's anti-entropy catch-up."""

    replica: int
    donor: int
    replayed: int
    discarded_spill: int
    ok: bool
    reason: str = ""


class _ReplicaHandle:
    """One replica: its client stub, breaker, and bookkeeping."""

    def __init__(self, index: int, address, client: RemoteLogger, breaker: CircuitBreaker):
        self.index = index
        self.address = address
        self.client = client
        self.breaker = breaker
        self.last_health: Optional[LogCommitment] = None
        self.last_error: Optional[str] = None
        self.submitted = 0
        self.skipped = 0
        #: Latest signed tree head fetched from this replica (gossip mode).
        self.last_sth: Optional[SignedTreeHead] = None
        #: Cleared after a clean "no signer" refusal so an unsigned
        #: replica is not re-asked on every probe.
        self.sth_enabled = True

    @property
    def label(self) -> str:
        return f"replica-{self.index}"


class ReplicatedLogger:
    """Fan-out stub over a set of trusted-logger replicas.

    :param addresses: replica endpoint addresses (falls back to
        ``config.replicas`` when omitted).
    :param config: replication policy; see
        :class:`~repro.core.policy.ReplicationConfig`.
    :param transport: shared transport used for every replica connection
        (defaults to TCP, like :class:`~repro.core.remote.RemoteLogger`).
    :param spill_dir: directory for per-replica disk spill files; ``None``
        keeps the per-replica spill queues memory-only.
    :param time_source: injected clock for the breakers (tests).
    :param rng: injected randomness for breaker jitter (tests).
    """

    def __init__(
        self,
        addresses: Optional[Sequence] = None,
        config: Optional[ReplicationConfig] = None,
        transport: Optional[Transport] = None,
        spill_dir: Optional[str] = None,
        time_source: Callable[[], float] = time.monotonic,
        rng: Optional[random.Random] = None,
    ):
        self.config = config or ReplicationConfig()
        addresses = list(addresses if addresses is not None else self.config.replicas)
        if not addresses:
            raise ValueError("a replica set needs at least one address")
        self._transport = transport
        self._spill_dir = spill_dir
        self._rng = rng or random.Random()
        self._time = time_source
        self._handles: List[_ReplicaHandle] = [
            self._make_handle(index, address)
            for index, address in enumerate(addresses)
        ]
        self.detector = DivergenceDetector()
        #: STH gossip (opt-in via :meth:`enable_sth_gossip`): health probes
        #: then also fetch each replica's signed tree head, and any
        #: equivocation evidence force-opens the offender's breaker.
        self.gossip: Optional[GossipRelay] = None
        self._gossip_key: Optional[PublicKey] = None
        # Serializes fan-out *rounds* so every replica sees the same
        # interleaving of submissions (multiple components share one
        # instance; commitments are order-sensitive).  Within one round
        # the replica RPCs run concurrently on the fan-out pool -- each
        # replica still observes the identical round order, but a slow
        # replica no longer adds its latency to every other replica's.
        self._submit_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._fanout = ThreadPoolExecutor(
            max_workers=len(self._handles),
            thread_name_prefix="replica-fanout",
        )
        self.submits = 0
        self.quorum_submits = 0
        self.degraded_submits = 0
        self.last_reached = 0
        self._prober: Optional[StoppableThread] = None

    # -- construction ----------------------------------------------------

    def _make_handle(self, index: int, address) -> _ReplicaHandle:
        spill_path = None
        if self._spill_dir is not None:
            spill_path = f"{self._spill_dir}/replica-{index}.spill"
        client = RemoteLogger(
            address,
            transport=self._transport,
            spill_path=spill_path,
            window_bytes=self.config.window_bytes,
            rng=self._rng,
        )
        breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
            max_reset_timeout=self.config.breaker_max_reset_timeout,
            jitter=self.config.breaker_jitter,
            time_source=self._time,
            rng=self._rng,
        )
        return _ReplicaHandle(index, address, client, breaker)

    def _fan_out(
        self, fn: Callable[[_ReplicaHandle], "_T"]
    ) -> List["_T"]:
        """Run ``fn`` once per replica concurrently; results in replica
        order.  Exceptions propagate (callers' ``fn`` absorb per-replica
        trouble themselves).  A single-replica set stays inline -- no
        thread hop on the degenerate case."""
        if len(self._handles) == 1:
            return [fn(self._handles[0])]
        return list(self._fanout.map(fn, self._handles))

    @property
    def quorum(self) -> int:
        """Replicas a submit must reach to count as durably logged."""
        return self.config.quorum_for(len(self._handles))

    @property
    def replica_count(self) -> int:
        return len(self._handles)

    # -- AdlpProtocol-facing surface -------------------------------------

    def register_key(self, component_id: str, key: Union[PublicKey, bytes]) -> None:
        """Register on every reachable replica; raises unless at least a
        quorum accepted (startup must not proceed under-replicated)."""
        if isinstance(key, PublicKey):
            key = key.to_bytes()

        def register_one(handle: _ReplicaHandle) -> Optional[str]:
            try:
                handle.client.register_key(component_id, key)
                handle.breaker.record_success()
                return None
            except (LoggingError, TransportError) as exc:
                handle.breaker.record_failure()
                handle.last_error = str(exc)
                return f"{handle.label}: {exc}"

        outcomes = self._fan_out(register_one)
        errors = [error for error in outcomes if error is not None]
        accepted = len(outcomes) - len(errors)
        if accepted < self.quorum:
            raise LoggingError(
                f"key registration for {component_id!r} reached only "
                f"{accepted}/{len(self._handles)} replicas "
                f"(quorum {self.quorum}): {'; '.join(errors)}"
            )

    def submit(self, entry: Union[LogEntry, bytes]) -> int:
        """Fan one entry out to every admissible replica; returns 0."""
        return self.submit_batch([entry])[0]

    def submit_batch(self, entries: Sequence[Union[LogEntry, bytes]]) -> List[int]:
        """Fan a batch out to every admissible replica in one pass.

        Each replica gets the batch as one ``OP_SUBMIT_BATCH`` frame, under
        the submit lock, so every replica observes the identical
        interleaving of batches.  Never raises and never blocks on a dead
        replica: per-replica trouble is absorbed by that replica's client
        (spill) or breaker (skip).  Quorum accounting is entry-denominated
        -- a batch of N that reached a majority counts as N quorum submits
        -- and visible via :meth:`quorum_status`.
        """
        if not entries:
            return []
        records = [
            entry.encode() if isinstance(entry, LogEntry) else bytes(entry)
            for entry in entries
        ]

        def submit_one(handle: _ReplicaHandle) -> int:
            # Only CLOSED replicas get data: a submit must never be the
            # half-open readmission probe, because a replica that came
            # back *behind* its peers would append new entries over the
            # gap and fork its chain.  Readmission goes through
            # :meth:`probe` (which demands an up-to-date commitment) or
            # :meth:`catch_up` (which restores one).
            if handle.breaker.state is not BreakerState.CLOSED:
                handle.skipped += len(records)
                return 0
            handle.client.submit_batch(records)
            handle.submitted += len(records)
            if handle.client.connected:
                handle.breaker.record_success()
                return 1
            self._note_failure(handle, "submit could not connect")
            return 0

        with self._submit_lock:
            reached = sum(self._fan_out(submit_one))
        with self._counter_lock:
            self.submits += len(records)
            self.last_reached = reached
            if reached >= self.quorum:
                self.quorum_submits += len(records)
            else:
                self.degraded_submits += len(records)
        return [0] * len(records)

    def stats(self) -> Dict[str, int]:
        """Replication counters, shaped for ``AdlpStats.attach_source``.

        Per-replica spill/drop counters are summed under ``replica_``
        prefixes (a drop at one replica is not evidence loss while a
        quorum holds the entry, so they must not pollute the component's
        own ``dropped``)."""
        with self._counter_lock:
            out = {
                "replicated_submits": self.submits,
                "quorum_submits": self.quorum_submits,
                "degraded_submits": self.degraded_submits,
                "replica_dropped": 0,
                "replica_spilled": 0,
                "replica_skipped": 0,
                "breaker_opens": 0,
            }
        for handle in self._handles:
            client_stats = handle.client.stats()
            out["replica_dropped"] += client_stats["dropped"]
            out["replica_spilled"] += client_stats["spilled"]
            out["replica_skipped"] += handle.skipped
            out["breaker_opens"] += handle.breaker.opens
        if self.gossip is not None:
            out["equivocation_evidence"] = len(self.gossip.evidence())
        return out

    # -- health / failover ------------------------------------------------

    def _note_failure(self, handle: _ReplicaHandle, error: str) -> None:
        handle.last_error = error
        before = handle.breaker.state
        handle.breaker.record_failure()
        if (
            before is not BreakerState.OPEN
            and handle.breaker.state is BreakerState.OPEN
        ):
            # Quarantined: drop the entries parked for this replica.  They
            # are durable on the quorum peers, and anti-entropy catch-up
            # will replay them in canonical order -- letting the reconnect
            # drain push them later would fork this replica's chain from
            # its peers' (order divergence), which is strictly worse.
            discarded = handle.client.discard_spill()
            logger.warning(
                "%s breaker opened after %r; discarded %d parked entries "
                "(recoverable via catch_up from a quorum peer)",
                handle.label,
                error,
                discarded,
            )

    def probe(self) -> List[DivergenceEvidence]:
        """Health-probe every admissible replica once.

        Drives the breakers (an open replica whose backoff expired gets
        its half-open probe here) and feeds the divergence detector.
        Returns any *new* divergence evidence this round surfaced.

        A quarantined replica that answers its half-open probe is only
        readmitted if its commitment has caught up with the healthy
        replicas' entry count; an alive-but-lagging replica stays out
        (its probe counts as a failure) until :meth:`catch_up` restores
        a commitment-identical state -- handing it fresh submits over the
        gap would fork its chain, which is worse than its absence.
        """
        fresh: List[DivergenceEvidence] = []
        healthy = [
            h for h in self._handles if h.breaker.state is BreakerState.CLOSED
        ]
        rejoining = [h for h in self._handles if h not in healthy]
        best: Optional[int] = None
        for handle in healthy:
            health = self._probe_one(handle, fresh)
            if health is not None and (best is None or health.entries > best):
                best = health.entries
        if best is None:
            # No CLOSED replica answered this round (e.g. a full outage
            # tripped every breaker).  Fall back to the best commitment
            # ever observed: probing rejoiners with no reference at all
            # would skip the lag check and readmit a lagging replica,
            # which forks its chain the moment submits resume.
            best = max(
                (
                    h.last_health.entries
                    for h in self._handles
                    if h.last_health is not None
                ),
                default=None,
            )
        for handle in rejoining:
            if not handle.breaker.allow():
                continue
            health = self._probe_one(handle, fresh, readmit_at=best)
        for evidence in fresh:
            self._quarantine_divergent(evidence)
        return fresh

    def _probe_one(
        self,
        handle: _ReplicaHandle,
        fresh: List[DivergenceEvidence],
        readmit_at: Optional[int] = None,
    ) -> Optional[LogCommitment]:
        try:
            health = handle.client.health(timeout=self.config.health_timeout)
        except (LoggingError, TransportError) as exc:
            self._note_failure(handle, str(exc))
            return None
        handle.last_health = health
        fresh.extend(self.detector.observe(handle.label, health))
        if self._gossip_probe(handle):
            # Proven equivocation: the quarantine the gossip listener just
            # applied must not be undone by this probe's success path --
            # and a half-open re-probe of a convicted logger re-opens here
            # every time (conviction is permanent; evidence never expires).
            return health
        if readmit_at is not None and health.entries < readmit_at:
            handle.breaker.record_failure()
            handle.last_error = (
                f"alive but lagging {readmit_at - health.entries} entries; "
                "catch_up required before readmission"
            )
            return health
        handle.last_error = None
        handle.breaker.record_success()
        return health

    # -- STH gossip (split-view detection) --------------------------------

    def enable_sth_gossip(
        self,
        public_key: Optional[PublicKey] = None,
        relay: Optional[GossipRelay] = None,
    ) -> GossipRelay:
        """Arm STH gossip: every health probe then also fetches the
        replica's signed tree head and deposits it in ``relay`` (created
        here when not supplied -- supplying one shares a pool with other
        observers, e.g. an auditor's).  ``public_key`` is the logger
        identity's key; it is registered for every log id the replicas
        present, so forged heads are dropped rather than convicting anyone.

        Any equivocation evidence -- from this client's own probes or
        gossiped in by whoever else feeds the relay -- force-opens the
        breaker of every replica presenting the convicted log id: the
        strongest possible divergence signal, since the logger signed two
        different histories itself.
        """
        self.gossip = relay or GossipRelay("replicated-client")
        self._gossip_key = public_key
        self.gossip.add_listener(self._quarantine_equivocator)
        return self.gossip

    def _gossip_probe(self, handle: _ReplicaHandle) -> bool:
        """Fetch and gossip one replica's STH; returns True when this
        replica presents a *convicted* log id (its quarantine must then
        stick -- the caller skips the probe's success bookkeeping)."""
        relay = self.gossip
        if relay is None or not handle.sth_enabled:
            return False
        try:
            sth = handle.client.fetch_sth(timeout=self.config.health_timeout)
        except (RemoteUnavailable, TransportError):
            return False  # transient; the health probe already noted it
        except LoggingError:
            # A clean server-side refusal: the replica has no signer.
            # Remember that instead of re-asking on every probe.
            handle.sth_enabled = False
            return False
        handle.last_sth = sth
        if self._gossip_key is not None:
            relay.register_key(sth.log_id, self._gossip_key)
        # Fresh evidence reaches _quarantine_equivocator via the relay
        # listener; the membership check below also re-convicts on old
        # evidence (a half-open re-probe of an already-convicted logger).
        relay.observe(sth, source=handle.label)
        convicted = any(
            ev.log_id == sth.log_id and ev.scope == sth.scope
            for ev in relay.evidence()
        )
        if convicted:
            handle.breaker.force_open()
            handle.last_error = (
                f"equivocation proven for log {sth.log_id!r}"
            )
        return convicted

    def _quarantine_equivocator(self, evidence: EquivocationEvidence) -> None:
        """Force-open every replica presenting the convicted log id.  No
        majority vote here (unlike root divergence): the evidence embeds
        two heads the logger *signed*, so there is no honest explanation
        to protect."""
        for handle in self._handles:
            sth = handle.last_sth
            if sth is not None and sth.log_id == evidence.log_id:
                handle.breaker.force_open()
                handle.last_error = (
                    f"equivocation ({evidence.kind}) proven for log "
                    f"{evidence.log_id!r} at size {evidence.second.entries}"
                )

    def equivocation(self) -> List[EquivocationEvidence]:
        """All equivocation evidence the gossip relay has accumulated."""
        return self.gossip.evidence() if self.gossip is not None else []

    def _quarantine_divergent(self, evidence: DivergenceEvidence) -> None:
        """Force-open the breakers of the replicas on the *minority* side
        of a divergence: their entries can no longer be trusted for
        quorum, and an operator must resolve the fork before they rejoin.
        When no side has a majority (a perfect split), every participant
        is quarantined -- there is no way to tell who is lying."""
        # Vote with every replica's latest commitment at this entry count,
        # not just the pair that triggered the evidence: when the rogue is
        # probed before the agreeing majority, the evidence alone looks
        # like a perfect split and would quarantine an honest replica.
        roots: Dict[str, bytes] = dict(evidence.roots)
        for handle in self._handles:
            health = handle.last_health
            if health is not None and health.entries == evidence.entries:
                roots.setdefault(handle.label, health.merkle_root)
        by_root: Dict[bytes, List[str]] = {}
        for label, root in roots.items():
            by_root.setdefault(root, []).append(label)
        majority = max(len(labels) for labels in by_root.values())
        flagged = {
            label
            for labels in by_root.values()
            if len(labels) < majority
            for label in labels
        }
        if not flagged:  # perfect split: quarantine all participants
            flagged = set(roots)
        for handle in self._handles:
            if handle.label in flagged:
                handle.breaker.force_open()

    def start_probing(self) -> None:
        """Run :meth:`probe` every ``config.probe_interval`` seconds in a
        background thread until :meth:`close`."""
        if self._prober is not None:
            return
        thread_box: List[StoppableThread] = []

        def loop() -> None:
            thread = thread_box[0]
            while not thread.stopped():
                try:
                    self.probe()
                except Exception:
                    logger.exception("replica health probe failed")
                thread.stop_event.wait(self.config.probe_interval)

        self._prober = StoppableThread("replica-prober", target=loop)
        thread_box.append(self._prober)
        self._prober.start()

    # -- observability ----------------------------------------------------

    def statuses(self) -> List[ReplicaStatus]:
        """Per-replica status for operators; lag is relative to the most
        advanced *probed* replica."""
        max_entries = max(
            (h.last_health.entries for h in self._handles if h.last_health),
            default=None,
        )
        statuses = []
        for handle in self._handles:
            health = handle.last_health
            statuses.append(
                ReplicaStatus(
                    index=handle.index,
                    address=handle.address,
                    breaker=handle.breaker.state.value,
                    connected=handle.client.connected,
                    entries=health.entries if health else None,
                    chain_head=health.chain_head if health else None,
                    merkle_root=health.merkle_root if health else None,
                    lag=(
                        max_entries - health.entries
                        if health is not None and max_entries is not None
                        else None
                    ),
                    submitted=handle.submitted,
                    skipped=handle.skipped,
                    last_error=handle.last_error,
                )
            )
        return statuses

    def quorum_status(self) -> Dict[str, object]:
        """One dict answering "are we durable on a majority right now?"."""
        closed = sum(
            1 for h in self._handles if h.breaker.state is BreakerState.CLOSED
        )
        with self._counter_lock:
            last_reached = self.last_reached
            degraded = self.degraded_submits
        return {
            "replicas": len(self._handles),
            "quorum": self.quorum,
            "breakers_closed": closed,
            "quorum_met": closed >= self.quorum,
            "last_submit_reached": last_reached,
            "degraded_submits": degraded,
        }

    def divergence(self) -> List[DivergenceEvidence]:
        """All divergence evidence accumulated by the detector."""
        return self.detector.check()

    # -- failover plumbing -------------------------------------------------

    def quiesce(
        self, replica: Optional[int] = None, timeout: float = 5.0
    ) -> bool:
        """Barrier: one synchronous round trip per targeted replica.

        The transport delivers a connection's frames in order and the
        endpoint serves them serially, so a health response proves every
        fire-and-forget frame sent *earlier on that connection* has been
        ingested.  This is the signal an orchestrator needs before
        gracefully restarting a replica's endpoint: bouncing one with
        frames still buffered would discard them silently, and the
        survivor/newcomer histories could fork (which :meth:`catch_up`
        correctly refuses to merge).  Entries parked in spill queues are
        NOT covered -- they live client-side and survive a bounce.

        Returns ``True`` only when every targeted replica answered.
        """
        handles = (
            self._handles if replica is None else [self._handles[replica]]
        )
        ok = True
        for handle in handles:
            try:
                handle.client.health(timeout=timeout)
            except (LoggingError, TransportError) as exc:
                handle.last_error = str(exc)
                ok = False
        return ok

    def reset_replica(self, index: int, address=None) -> None:
        """Point a replica slot at a (possibly new) endpoint address.

        Failover support: a replica that died and came back on a different
        port (or a replacement machine) is re-attached here.  The slot's
        breaker state is preserved -- the newcomer still has to pass a
        half-open probe and, typically, :meth:`catch_up` before it counts
        toward the quorum again.
        """
        handle = self._handles[index]
        handle.client.close()
        if address is not None:
            handle.address = address
        spill_path = None
        if self._spill_dir is not None:
            spill_path = f"{self._spill_dir}/replica-{index}.spill"
        handle.client = RemoteLogger(
            handle.address,
            transport=self._transport,
            spill_path=spill_path,
            window_bytes=self.config.window_bytes,
            rng=self._rng,
        )
        handle.last_health = None
        handle.last_error = None

    # -- anti-entropy ------------------------------------------------------

    def catch_up(
        self, replica: Optional[int] = None, attempts: int = 3
    ) -> List[CatchUpResult]:
        """Replay missing entries onto lagging replicas from the most
        advanced healthy peer; returns one result per replica attempted.

        The replayed records are chain-verified locally (folding the
        laggard's head through every fetched record must reproduce the
        donor's head) *before* the rejoin is trusted, and the laggard's
        post-replay commitment must equal the donor's -- so a replica
        only rejoins in a commitment-identical state.

        The bulk of the gap is replayed off the submit lock (live
        fan-out keeps flowing); the *final* verification then freezes
        fan-out, closes whatever residual gap live submits opened
        mid-replay, and compares the laggard against the donor's frozen
        commitment -- readmission happens inside that window, so no
        submit can land between a verification and the rejoin.  Failed
        passes (transient connection trouble) are retried up to
        ``attempts`` times per replica.  A *fork* (the donor's suffix
        does not extend the laggard's chain) is never retried: no amount
        of replaying reconciles divergent histories.
        """
        healths: Dict[int, LogCommitment] = {}
        for handle in self._handles:
            try:
                healths[handle.index] = handle.client.health(
                    timeout=self.config.health_timeout
                )
            except (LoggingError, TransportError) as exc:
                handle.last_error = str(exc)
        if not healths:
            raise LoggingError("catch_up: no reachable replica to act on")
        donor_index = max(healths, key=lambda i: healths[i].entries)
        donor = self._handles[donor_index]
        donor_entries = healths[donor_index].entries
        if replica is not None:
            targets = [replica]
        else:
            targets = [
                i
                for i, health in sorted(healths.items())
                if health.entries < donor_entries
            ]
        results = []
        for index in targets:
            if index == donor_index:
                continue
            if index not in healths:
                results.append(
                    CatchUpResult(
                        replica=index,
                        donor=donor_index,
                        replayed=0,
                        discarded_spill=0,
                        ok=False,
                        reason="replica unreachable",
                    )
                )
                continue
            handle = self._handles[index]
            result = None
            for _ in range(max(1, attempts)):
                try:
                    # fresh commitments each pass: the donor may have
                    # advanced while the previous replay was in flight
                    donor_health = donor.client.health(
                        timeout=self.config.health_timeout
                    )
                    lag_health = handle.client.health(
                        timeout=self.config.health_timeout
                    )
                except (LoggingError, TransportError) as exc:
                    result = CatchUpResult(
                        replica=index,
                        donor=donor_index,
                        replayed=0,
                        discarded_spill=0,
                        ok=False,
                        reason=str(exc),
                    )
                    break
                result = self._catch_up_one(handle, lag_health, donor, donor_health)
                if result.ok or "forked" in result.reason:
                    break
            results.append(result)
        return results

    def _replay_gap(
        self,
        handle: _ReplicaHandle,
        lag_health: LogCommitment,
        donor: _ReplicaHandle,
        donor_health: LogCommitment,
    ) -> Optional[int]:
        """Fetch, chain-verify, and replay the records the laggard lacks
        relative to ``donor_health``; returns the count replayed, or
        ``None`` on a fork.  Raises on fetch/connection trouble.

        The whole suffix is fetched and folded BEFORE submitting any of
        it: a fork is only provable once the complete fold is compared
        against the donor's head, and by then a submitted record would
        have buried the forked replica's evidence.

        When the replicas are sharded (``config.shards > 0``), chain heads
        and record indexes are per shard, so the gap is replayed shard by
        shard instead (``lag_health``/``donor_health`` are then aggregate
        set commitments and only their entry counts are meaningful here;
        the per-shard variant refetches per-shard commitments itself).
        """
        if self.config.shards:
            return self._replay_gap_sharded(handle, donor)
        expected_head = lag_health.chain_head
        start = lag_health.entries
        suffix: List[bytes] = []
        while start < donor_health.entries:
            batch = donor.client.fetch_records(
                start, min(self.config.fetch_batch, donor_health.entries - start)
            )
            if not batch:
                raise LoggingError(
                    f"donor {donor.label} returned no records at {start}"
                )
            for record in batch:
                expected_head = chain_digest(expected_head, record)
            suffix.extend(batch)
            start += len(batch)
        if expected_head != donor_health.chain_head:
            # The donor's suffix does not extend the laggard's chain:
            # one of the two forked -- that is divergence, not lag.
            return None
        replayed = 0
        step = max(1, self.config.fetch_batch)
        while replayed < len(suffix):
            batch = suffix[replayed:replayed + step]
            handle.client.submit_batch(batch)
            if not handle.client.connected:
                raise LoggingError(f"{handle.label} connection lost mid-replay")
            replayed += len(batch)
        return replayed

    def _replay_gap_sharded(
        self, handle: _ReplicaHandle, donor: _ReplicaHandle
    ) -> Optional[int]:
        """Per-shard analogue of :meth:`_replay_gap` for sharded replicas.

        Each shard is an independent chain, so the fetch-fold-verify-replay
        cycle runs once per shard against that shard's commitments
        (``OP_HEALTH``/``OP_FETCH`` with a shard tag); replayed records are
        submitted with the shard tag too, so the receiving server verifies
        the routing instead of trusting it.  Returns the total records
        replayed across shards, or ``None`` on any shard's fork.  A shard
        where the laggard is *ahead* of the donor is skipped -- the final
        frozen set-commitment comparison in ``_catch_up_one`` then fails
        honestly rather than inventing a merge.
        """
        total = 0
        timeout = self.config.health_timeout
        for shard in range(self.config.shards):
            donor_health = donor.client.health(timeout=timeout, shard=shard)
            lag_health = handle.client.health(timeout=timeout, shard=shard)
            if lag_health.entries >= donor_health.entries:
                if (
                    lag_health.entries == donor_health.entries
                    and lag_health.chain_head != donor_health.chain_head
                ):
                    return None  # same length, different history: a fork
                continue
            expected_head = lag_health.chain_head
            start = lag_health.entries
            suffix: List[bytes] = []
            while start < donor_health.entries:
                batch = donor.client.fetch_records(
                    start,
                    min(self.config.fetch_batch, donor_health.entries - start),
                    shard=shard,
                )
                if not batch:
                    raise LoggingError(
                        f"donor {donor.label} returned no records at "
                        f"shard {shard} index {start}"
                    )
                for record in batch:
                    expected_head = chain_digest(expected_head, record)
                suffix.extend(batch)
                start += len(batch)
            if expected_head != donor_health.chain_head:
                return None
            replayed = 0
            step = max(1, self.config.fetch_batch)
            while replayed < len(suffix):
                batch = suffix[replayed:replayed + step]
                handle.client.submit_batch(batch, shard=shard)
                if not handle.client.connected:
                    raise LoggingError(
                        f"{handle.label} connection lost mid-replay "
                        f"(shard {shard})"
                    )
                replayed += len(batch)
            total += replayed
        return total

    def _catch_up_one(
        self,
        handle: _ReplicaHandle,
        lag_health: LogCommitment,
        donor: _ReplicaHandle,
        donor_health: LogCommitment,
    ) -> CatchUpResult:
        def failure(reason: str, replayed: int = 0, discarded: int = 0):
            return CatchUpResult(
                replica=handle.index,
                donor=donor.index,
                replayed=replayed,
                discarded_spill=discarded,
                ok=False,
                reason=reason,
            )

        try:
            # Stale parked entries would replay out of canonical order;
            # the donor's records supersede them.
            discarded = handle.client.discard_spill()
            # Key registry first: replayed entries audit as valid only if
            # the replica knows every component's public key.
            for component_id, key in sorted(donor.client.fetch_keys().items()):
                handle.client.register_key(component_id, key)
            # Bulk replay against the snapshots, off the submit lock:
            # live fan-out keeps flowing and may advance the donor past
            # ``donor_health`` while this runs.
            replayed = self._replay_gap(handle, lag_health, donor, donor_health)
            if replayed is None:
                return failure(
                    "chain mismatch: replica and donor have forked",
                    discarded=discarded,
                )
            # Readmission window: freeze fan-out, close whatever residual
            # gap live submits opened during the bulk replay, and verify
            # against the donor's commitment taken INSIDE the freeze.
            # Verifying against the pre-replay snapshot instead would pass
            # while the donor is already ahead, and readmitting the still-
            # lagging replica would fork its chain on the next submit.
            with self._submit_lock:
                donor_now = donor.client.health(timeout=self.config.health_timeout)
                lag_now = handle.client.health(timeout=self.config.health_timeout)
                if lag_now.entries < donor_now.entries:
                    residual = self._replay_gap(handle, lag_now, donor, donor_now)
                    if residual is None:
                        return failure(
                            "chain mismatch: replica and donor have forked",
                            replayed=replayed,
                            discarded=discarded,
                        )
                    replayed += residual
                # The health request rides the same ordered connection as
                # the replayed submits, so its response proves they were
                # ingested.
                final = handle.client.health(timeout=self.config.health_timeout)
                handle.last_health = final
                commitment_identical = (
                    final.entries == donor_now.entries
                    and final.chain_head == donor_now.chain_head
                    and final.merkle_root == donor_now.merkle_root
                )
                if commitment_identical:
                    # Readmit while fan-out is still frozen: the first
                    # submit after the lock releases reaches a replica
                    # that is provably level with the donor.
                    handle.breaker.record_success()
                    handle.last_error = None
        except (LoggingError, TransportError) as exc:
            self._note_failure(handle, str(exc))
            return failure(str(exc))
        if not commitment_identical:
            self._note_failure(handle, "catch-up verification failed")
            return failure(
                "post-replay commitment does not match the donor",
                replayed=replayed,
                discarded=discarded,
            )
        self.detector.observe(handle.label, final)
        return CatchUpResult(
            replica=handle.index,
            donor=donor.index,
            replayed=replayed,
            discarded_spill=discarded,
            ok=True,
        )

    # -- lifecycle ---------------------------------------------------------

    def flush_spill(self) -> bool:
        """Attempt every replica's spill drain; ``True`` if all are empty."""
        with self._submit_lock:
            return all(handle.client.flush_spill() for handle in self._handles)

    def close(self) -> None:
        if self._prober is not None:
            self._prober.stop()
            self._prober = None
        for handle in self._handles:
            handle.client.close()
        self._fanout.shutdown(wait=True)
