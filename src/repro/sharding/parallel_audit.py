"""Shard-by-shard audit of a sharded log, with per-shard localization.

Topic routing keeps both log entries of every transmission in the same
shard (the publisher's OUT and the subscriber's IN carry the same topic),
so the paper's pairwise verification (Lemmas 1-3) decomposes cleanly:
each shard is audited *independently*, and the per-shard verdicts are
exact -- not approximations of a global audit.  The
equivalence suite asserts this: the merged verdicts equal a single-server
audit of the same workload.

Only two things span shards and run after the merge:

- per-component aggregation (a component publishes and subscribes across
  many topics, hence many shards), rebuilt from the concatenated verdicts;
- temporal-causality checks over multi-hop chains (Lemma 4): a chain
  ``x -[t1]-> y -[t2]-> z`` crosses shards when ``t1`` and ``t2`` route
  differently, so :func:`check_chain_precedence` runs over the merged
  entry list.

Tamper localization falls out of shard independence: a shard whose store
fails verification is reported *by index* (``tampered_shards``), and a
shard whose commitment disagrees with an expected
:class:`ShardSetCommitment` is named by ``mismatched_shards`` -- the
investigator re-fetches one shard, not the whole log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.audit.auditor import Auditor, Topology
from repro.audit.causality import (
    CausalityViolation,
    ChainHop,
    check_chain_precedence,
)
from repro.audit.verdicts import AuditReport
from repro.core.log_server import LogCommitment
from repro.errors import LogIntegrityError
from repro.sharding.sharded_server import ShardedLogServer, ShardSetCommitment


@dataclass
class ShardAuditOutcome:
    """What one shard's audit concluded."""

    shard: int
    entries: int
    #: the shard's store failed tamper-evident verification
    tampered: bool = False
    #: the verification error, when ``tampered``
    error: str = ""
    #: the shard's classification (``None`` when verification failed --
    #: verdicts over tampered bytes would be meaningless)
    report: Optional[AuditReport] = None
    #: the shard's commitment at audit time
    commitment: Optional[LogCommitment] = None


@dataclass
class ShardedAuditResult:
    """A full sharded audit: merged verdicts plus per-shard localization."""

    shards: int
    outcomes: List[ShardAuditOutcome]
    #: merged classification across all untampered shards, with
    #: per-component aggregates rebuilt over the union
    report: AuditReport
    #: the set commitment taken at audit time
    commitment: ShardSetCommitment
    #: shards whose stores failed verification
    tampered_shards: List[int] = field(default_factory=list)
    #: shards whose commitment disagrees with the expected one
    mismatched_shards: List[int] = field(default_factory=list)
    #: cross-shard temporal-causality violations (Lemma 4)
    causality_violations: List[CausalityViolation] = field(default_factory=list)

    def flagged_shards(self) -> List[int]:
        """Shards implicated by tampering or commitment mismatch."""
        return sorted(set(self.tampered_shards) | set(self.mismatched_shards))

    @property
    def clean(self) -> bool:
        """No tampering, no mismatch, no flagged component, no causality
        violation anywhere in the set."""
        return (
            not self.tampered_shards
            and not self.mismatched_shards
            and not self.causality_violations
            and not self.report.flagged_components()
            and not self.report.anomalies
        )


def _audit_one_shard(
    server: ShardedLogServer,
    shard: int,
    topology: Optional[Topology],
) -> ShardAuditOutcome:
    shard_server = server.shard(shard)
    outcome = ShardAuditOutcome(shard=shard, entries=len(shard_server))
    outcome.commitment = shard_server.commitment()
    try:
        server.verify_shard(shard)
    except LogIntegrityError as exc:
        outcome.tampered = True
        outcome.error = str(exc)
        return outcome
    auditor = Auditor(shard_server.keystore, topology)
    outcome.report = auditor.audit(shard_server.entries())
    return outcome


def _merge_reports(outcomes: Sequence[ShardAuditOutcome]) -> AuditReport:
    """Concatenate shard reports (shard-major, preserving each shard's
    ingestion order) and rebuild the per-component aggregates over the
    union -- components span shards even though transmissions do not."""
    merged = AuditReport()
    for outcome in outcomes:
        if outcome.report is None:
            continue
        merged.classified.extend(outcome.report.classified)
        merged.hidden.extend(outcome.report.hidden)
        merged.anomalies.extend(outcome.report.anomalies)
    merged._account()
    return merged


def audit_sharded(
    server: ShardedLogServer,
    topology: Optional[Topology] = None,
    expected: Optional[ShardSetCommitment] = None,
    chains: Sequence[Sequence[ChainHop]] = (),
) -> ShardedAuditResult:
    """Audit every shard of ``server``, one after another.

    :param topology: a-priori deployment knowledge, shared by all shards
        (when omitted, each shard derives its own from its entries --
        exact, because topics never span shards).
    :param expected: a previously published :class:`ShardSetCommitment`
        to compare against; disagreeing shards land in
        ``mismatched_shards``.
    :param chains: multi-hop causal chains (Lemma 4) to check over the
        *merged* entries -- the only check that crosses shard boundaries.
    """
    count = server.shard_count
    outcomes = [_audit_one_shard(server, shard, topology) for shard in range(count)]
    result = ShardedAuditResult(
        shards=count,
        outcomes=outcomes,
        report=_merge_reports(outcomes),
        commitment=server.commitment(),
        tampered_shards=[o.shard for o in outcomes if o.tampered],
    )
    if expected is not None:
        result.mismatched_shards = expected.mismatched_shards(result.commitment)
    if chains:
        merged_entries = [c.entry for c in result.report.classified]
        for chain in chains:
            result.causality_violations.extend(
                check_chain_precedence(merged_entries, chain)
            )
    return result
