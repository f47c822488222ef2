"""Parallel audit of a sharded log, with per-shard localization.

Topic routing keeps both log entries of every transmission in the same
shard (the publisher's OUT and the subscriber's IN carry the same topic),
so the paper's pairwise verification (Lemmas 1-3) decomposes cleanly:
each shard is audited *independently* on its own worker, and the per-shard
verdicts are exact -- not approximations of a global audit.  The
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

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.auditor import Auditor, Topology
from repro.audit.causality import (
    CausalityViolation,
    ChainHop,
    check_chain_precedence,
)
from repro.audit.verdicts import AuditReport, HiddenRecord
from repro.core.log_server import LogCommitment
from repro.errors import LogIntegrityError
from repro.sharding.sharded_server import ShardedLogServer, ShardSetCommitment


@dataclass
class ShardAuditOutcome:
    """What one shard's worker concluded."""

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

    def shard_of_hidden(self, hidden: HiddenRecord) -> int:
        """Which shard a proven-hidden entry should have lived in (the
        shard whose worker inferred it; topics never span shards, so this
        is also where the missing entry's topic routes)."""
        for outcome in self.outcomes:
            if outcome.report is not None and hidden in outcome.report.hidden:
                return outcome.shard
        raise ValueError(f"hidden record {hidden} was not produced by this audit")

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


def _verify_shard_of(server: ShardedLogServer, shard: int) -> None:
    """Integrity-check one shard of either backend.

    Prefers the server's ``verify_shard`` (which checks the shard's
    *actual* store -- for the process backend, the worker's durable WAL
    via ``OP_VERIFY``); falls back to verifying a shard view directly.
    Re-fetching records and re-chaining them locally would only prove
    transit integrity, which is why verification happens here, before any
    payload is extracted for a process-pool audit.
    """
    verify_shard = getattr(server, "verify_shard", None)
    if verify_shard is not None:
        verify_shard(shard)
    else:
        server.shard(shard).verify_integrity()


def _audit_one_shard(
    server: ShardedLogServer,
    shard: int,
    topology: Optional[Topology],
) -> ShardAuditOutcome:
    shard_server = server.shard(shard)
    outcome = ShardAuditOutcome(shard=shard, entries=len(shard_server))
    outcome.commitment = shard_server.commitment()
    try:
        _verify_shard_of(server, shard)
    except LogIntegrityError as exc:
        outcome.tampered = True
        outcome.error = str(exc)
        return outcome
    auditor = Auditor(shard_server.keystore, topology)
    outcome.report = auditor.audit(shard_server.entries())
    return outcome


def _audit_shard_payload(
    shard: int,
    records: List[bytes],
    keys: Dict[str, bytes],
    topology: Optional[Topology],
) -> Tuple[int, AuditReport]:
    """Audit one shard's extracted payload in a child interpreter.

    Top-level (picklable) on purpose: this is the function a
    ``ProcessPoolExecutor`` ships to its spawn-context children.  It gets
    plain values (raw records + key blobs), rebuilds the shard view, and
    returns the shard's :class:`AuditReport` -- integrity verification
    already happened parent-side (:func:`_verify_shard_of`), because a
    rebuilt in-memory chain is self-consistent by construction and would
    mask store tampering.
    """
    from repro.core.log_server import LogServer

    shard_server = LogServer()
    for component_id in sorted(keys):
        shard_server.register_key(component_id, keys[component_id])
    if records:
        shard_server.submit_batch(records)
    auditor = Auditor(shard_server.keystore, topology)
    return shard, auditor.audit(shard_server.entries())


def _shard_payload_of(
    server: ShardedLogServer, shard: int
) -> Tuple[List[bytes], Dict[str, bytes]]:
    payload = getattr(server, "shard_audit_payload", None)
    if payload is not None:
        return payload(shard)
    shard_server = server.shard(shard)
    return shard_server.raw_records(), shard_server.keys_snapshot()


def _audit_with_processes(
    server: ShardedLogServer,
    topology: Optional[Topology],
    workers: int,
    count: int,
) -> List[ShardAuditOutcome]:
    """The ``executor="process"`` fan-out: verify and extract each shard
    parent-side, audit the payloads in a spawn-context process pool (the
    signature checks are the CPU cost, and child interpreters do them
    outside this process's GIL)."""
    outcomes: Dict[int, ShardAuditOutcome] = {}
    ready: List[Tuple[int, List[bytes], Dict[str, bytes]]] = []
    for shard in range(count):
        commitment = server.shard_commitment(shard)
        outcome = ShardAuditOutcome(
            shard=shard, entries=commitment.entries, commitment=commitment
        )
        outcomes[shard] = outcome
        try:
            _verify_shard_of(server, shard)
        except LogIntegrityError as exc:
            outcome.tampered = True
            outcome.error = str(exc)
            continue
        records, keys = _shard_payload_of(server, shard)
        ready.append((shard, records, keys))
    if ready:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(workers, len(ready)), mp_context=context
        ) as pool:
            futures = [
                pool.submit(_audit_shard_payload, shard, records, keys, topology)
                for shard, records, keys in ready
            ]
            for future in futures:
                shard, report = future.result()
                outcomes[shard].report = report
    return [outcomes[shard] for shard in range(count)]


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
    workers: Optional[int] = None,
    expected: Optional[ShardSetCommitment] = None,
    chains: Sequence[Sequence[ChainHop]] = (),
    executor: str = "thread",
) -> ShardedAuditResult:
    """Audit every shard of ``server`` across a worker pool.

    :param topology: a-priori deployment knowledge, shared by all workers
        (when omitted, each shard derives its own from its entries --
        exact, because topics never span shards).
    :param workers: pool size for the per-shard fan-out; default
        ``min(shard_count, cpu_count)``.  ``1`` audits serially (thread
        mode).
    :param expected: a previously published :class:`ShardSetCommitment`
        to compare against; disagreeing shards land in
        ``mismatched_shards``.
    :param chains: multi-hop causal chains (Lemma 4) to check over the
        *merged* entries -- the only check that crosses shard boundaries.
    :param executor: ``"thread"`` audits shards on a thread pool;
        ``"process"`` extracts each shard's payload (after verifying its
        store parent-side) and audits in a spawn-context process pool --
        same verdicts, but the signature checking escapes this process's
        GIL.  Works against both sharding backends.
    """
    count = server.shard_count
    if workers is None:
        workers = min(count, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if executor not in ("thread", "process"):
        raise ValueError(
            f"unknown audit executor {executor!r}; expected 'thread' or 'process'"
        )

    if executor == "process":
        outcomes = _audit_with_processes(server, topology, workers, count)
    elif workers == 1 or count == 1:
        outcomes = [
            _audit_one_shard(server, shard, topology) for shard in range(count)
        ]
    else:
        with ThreadPoolExecutor(
            max_workers=min(workers, count), thread_name_prefix="shard-audit"
        ) as pool:
            outcomes = list(
                pool.map(
                    lambda shard: _audit_one_shard(server, shard, topology),
                    range(count),
                )
            )

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
