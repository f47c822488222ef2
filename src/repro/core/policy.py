"""Protocol configuration.

Bundles the design knobs the paper discusses so benchmarks and ablations can
sweep them:

- ``subscriber_stores_hash`` -- Section IV-A's ``h(I_y)`` vs ``I_y`` choice
  for the subscriber's log entry (the Figure 15 ablation);
- ``ack_returns_data`` -- whether the ACK echoes the data instead of the
  hash (the small-data variant);
- ``require_ack`` -- the withhold-until-ACK penalty of Section V-B step 2;
- ``aggregate_publisher_entries`` -- the Section VI-E aggregated-logging
  extension (one publisher entry per publication instead of per subscriber);
- ``verify_on_receive`` -- optional eager verification of the publisher's
  signature at the subscriber (off in the paper's measured fast path; the
  auditor verifies after the fact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.keys import DEFAULT_KEY_BITS
from repro.crypto.schemes import default_scheme_name, get_scheme

__all__ = [
    "AdlpConfig",
    "ReplicationConfig",
]


@dataclass(frozen=True)
class AdlpConfig:
    """Immutable per-node ADLP configuration."""

    #: RSA modulus size; the paper uses 1024.  Fixed-size schemes
    #: (Ed25519) ignore it.
    key_bits: int = DEFAULT_KEY_BITS

    #: Signature scheme this node generates its key pair under (``rsa``,
    #: the paper-faithful default, or ``ed25519``).  The default follows
    #: the ``ADLP_SIG_SCHEME`` environment variable so a whole process can
    #: be switched without touching call sites.  Verification is always
    #: scheme-agnostic -- the registered public key carries the scheme --
    #: so mixed-scheme topologies work.
    signature_scheme: str = field(default_factory=default_scheme_name)

    #: Subscriber log entries store ``h(seq||D)`` instead of ``D``.
    subscriber_stores_hash: bool = True

    #: ACK carries the raw data instead of the hash (small-data option).
    ack_returns_data: bool = False

    #: Withhold the next message to a subscriber until it ACKs the previous
    #: one.  Disabling this removes the completeness penalty (ablation).
    require_ack: bool = True

    #: Seconds a publisher link waits for an ACK before treating the
    #: subscriber as non-cooperative.
    ack_timeout: float = 5.0

    #: When an ACK times out: ``True`` stops serving that subscriber (the
    #: paper's penalty), ``False`` keeps sending (ablation).
    drop_unacked_subscriber: bool = True

    #: Retransmissions of an unacknowledged publication before giving up.
    #: ``0`` is the paper-faithful behavior (a missing ACK is treated as
    #: subscriber misbehavior, never a network fault); lossy deployments
    #: raise it so transient frame loss does not starve a faithful
    #: subscriber or litter the log with unproven publications.
    max_retransmits: int = 0

    #: Multiplier applied to the ACK-wait timeout after each timeout
    #: (exponential backoff across retransmission attempts).
    retransmit_backoff: float = 2.0

    #: Upper bound a single ACK wait can grow to under backoff.
    max_ack_timeout: float = 30.0

    #: Per-server-submission retries performed by the logging thread before
    #: an entry is counted as dropped.
    log_retry_limit: int = 2

    #: Initial sleep between logging-thread submission retries (doubles per
    #: attempt).
    log_retry_backoff: float = 0.01

    #: Fold all subscribers' ACKs for one publication into one publisher
    #: entry (Section VI-E extension).
    aggregate_publisher_entries: bool = False

    #: Seconds an aggregating publisher waits for further ACKs of the same
    #: publication before flushing the combined entry.
    aggregation_window: float = 0.05

    #: Subscriber verifies the publisher signature before delivering the
    #: message to the application (eager detection; off the paper's path).
    verify_on_receive: bool = False

    #: Entries the logging thread drains per wakeup into one group-commit
    #: ``submit_batch`` call (one lock acquisition, one WAL fsync, one RPC
    #: round trip for the whole batch).  ``1`` submits every entry as a
    #: batch of one.  Batched and
    #: per-entry submission of the same entry stream produce byte-identical
    #: chain heads and Merkle roots -- batching changes throughput only.
    submit_batch_max: int = 64

    #: Directory for per-component durable sequence state (one journal per
    #: component id).  ``None`` keeps counters in memory only; set it and a
    #: restarted publisher resumes numbering where it stopped instead of
    #: re-signing old sequence numbers (which would audit as
    #: ``replayed_sequence``), while a restarted subscriber keeps rejecting
    #: frames it already accepted.
    state_dir: "str | None" = None

    def __post_init__(self) -> None:
        if self.key_bits < 128:
            raise ValueError("key_bits must be at least 128")
        get_scheme(self.signature_scheme)  # ValueError on unknown names
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be non-negative")
        if self.retransmit_backoff < 1.0:
            raise ValueError("retransmit_backoff must be at least 1")
        if self.max_ack_timeout < self.ack_timeout:
            raise ValueError("max_ack_timeout must be at least ack_timeout")
        if self.log_retry_limit < 0:
            raise ValueError("log_retry_limit must be non-negative")
        if self.log_retry_backoff < 0:
            raise ValueError("log_retry_backoff must be non-negative")
        if self.aggregation_window < 0:
            raise ValueError("aggregation_window must be non-negative")
        if self.submit_batch_max < 1:
            raise ValueError("submit_batch_max must be at least 1")


@dataclass(frozen=True)
class ReplicationConfig:
    """Client-side policy for a replicated trusted logger.

    Governs how :class:`~repro.replication.ReplicatedLogger` fans submits
    out to a replica set: what counts as a durable quorum, when a replica's
    circuit breaker trips and how its half-open probes back off, and how
    anti-entropy catch-up batches its record fetches.
    """

    #: Replica endpoints (transport addresses); may also be given directly
    #: to :class:`~repro.replication.ReplicatedLogger`.
    replicas: Tuple = ()

    #: Replicas a submit must reach for "durable on a quorum"; ``None``
    #: derives a majority (``n // 2 + 1``) from the replica-set size.
    quorum: Optional[int] = None

    #: Consecutive failures that trip a replica's breaker open.
    breaker_failure_threshold: int = 3

    #: Seconds a freshly-opened breaker waits before its first half-open
    #: probe (doubles on every failed probe).
    breaker_reset_timeout: float = 0.5

    #: Upper bound the open interval can grow to under backoff.
    breaker_max_reset_timeout: float = 30.0

    #: Jitter fraction applied to every open interval (0.2 = up to +20%),
    #: so a replica coming back does not face synchronized probe storms.
    breaker_jitter: float = 0.2

    #: Seconds a health probe waits for the replica's commitment.
    health_timeout: float = 2.0

    #: Seconds between background health probes (``start_probing``).
    probe_interval: float = 1.0

    #: Records fetched per anti-entropy batch during catch-up.
    fetch_batch: int = 1024

    #: Credit window of every replica handle: outstanding fire-and-forget
    #: bytes before a credit sync (see ``RemoteLogger``).  ``None`` = off.
    window_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.window_bytes is not None and self.window_bytes < 1:
            raise ValueError("window_bytes must be >= 1")
        if self.quorum is not None and self.quorum < 1:
            raise ValueError("quorum must be at least 1")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be at least 1")
        if self.breaker_reset_timeout <= 0:
            raise ValueError("breaker_reset_timeout must be positive")
        if self.breaker_max_reset_timeout < self.breaker_reset_timeout:
            raise ValueError(
                "breaker_max_reset_timeout must be at least breaker_reset_timeout"
            )
        if not 0 <= self.breaker_jitter <= 1:
            raise ValueError("breaker_jitter must be within [0, 1]")
        if self.health_timeout <= 0:
            raise ValueError("health_timeout must be positive")
        if self.probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if self.fetch_batch < 1:
            raise ValueError("fetch_batch must be at least 1")

    def quorum_for(self, replica_count: int) -> int:
        """The effective quorum for a set of ``replica_count`` replicas."""
        if self.quorum is not None:
            return self.quorum
        return replica_count // 2 + 1
