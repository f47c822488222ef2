"""Auditing a *replicated* trusted logger.

With one logger, the auditor trusts the store it reads (tamper is caught
by the chain, but a logger that lies consistently is outside the threat
model).  With N replicas, the auditor can do better: fetch every
replica's records, check that a quorum agrees on the common prefix, and
audit the quorum-consistent view -- a minority of crashed, lagging, or
lying replicas can then neither suppress evidence nor inject a forged
history.

The comparison is prefix-based: replicas at different entry counts are
expected during normal operation (one may lag behind the fan-out), so
only the shortest common prefix must match; disagreement *within* that
prefix is divergence and is returned as evidence, while a quorum that
cannot agree at all fails the audit loudly (:class:`LogIntegrityError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.auditor import Auditor, Topology
from repro.audit.verdicts import AuditReport
from repro.core.log_server import LogServer
from repro.crypto.merkle import MerkleTree
from repro.errors import LogIntegrityError, LoggingError, TransportError

#: Records fetched per RPC while pulling a replica's full history.
AUDIT_FETCH_BATCH = 1024


@dataclass(frozen=True)
class ReplicaDivergence:
    """One replica whose common-prefix root disagrees with the quorum's."""

    replica: int
    entries: int
    prefix_root: bytes
    quorum_root: bytes


@dataclass
class ReplicaSetAudit:
    """Result of auditing a replica set as one logical logger."""

    #: The classification of the quorum-consistent view.
    report: AuditReport
    #: Index of the replica whose (longest) history was audited.
    audited_replica: int
    #: Entry count of the audited view.
    audited_entries: int
    #: Common-prefix length every reachable replica was compared at.
    common_prefix: int
    #: Replicas agreeing with the quorum prefix root.
    agreeing: List[int] = field(default_factory=list)
    #: Replicas contradicting the quorum prefix root, with evidence.
    divergent: List[ReplicaDivergence] = field(default_factory=list)
    #: Replicas that could not be reached (crashed or partitioned).
    unreachable: List[int] = field(default_factory=list)
    #: Replicas whose fetched records failed local re-verification.
    corrupt: List[int] = field(default_factory=list)


def _fetch_replica(client) -> Tuple[List[bytes], Dict[str, bytes]]:
    """Pull a replica's complete history and key registry."""
    health = client.health()
    records: List[bytes] = []
    while len(records) < health.entries:
        batch = client.fetch_records(
            len(records), min(AUDIT_FETCH_BATCH, health.entries - len(records))
        )
        if not batch:
            raise LoggingError(
                f"replica returned no records at index {len(records)}"
            )
        records.extend(batch)
    return records, client.fetch_keys()


def _rebuild(records: Sequence[bytes], keys: Dict[str, bytes]) -> LogServer:
    """Re-ingest a replica's records into a local LogServer.

    Re-running submission locally re-derives the chain and Merkle state
    from the raw bytes, so the audit never trusts a root the replica
    merely *claimed*."""
    server = LogServer()
    for component_id in sorted(keys):
        server.register_key(component_id, keys[component_id])
    server.submit_batch(list(records))
    return server


def audit_replica_set(
    clients: Sequence,
    topology: Optional[Topology] = None,
    quorum: Optional[int] = None,
) -> ReplicaSetAudit:
    """Audit a replica set as one logical trusted logger.

    :param clients: one :class:`~repro.core.remote.RemoteLogger` (or
        compatible ``health``/``fetch_records``/``fetch_keys`` stub) per
        replica.
    :param topology: optional known topology (else inferred from entries).
    :param quorum: replicas that must agree on the common prefix;
        defaults to a majority of the *whole* set (crashed replicas count
        against the quorum, as they must).
    :raises LogIntegrityError: when no quorum of replicas agrees on the
        common prefix -- there is no trustworthy view to audit.
    """
    if not clients:
        raise ValueError("audit_replica_set needs at least one replica client")
    quorum = quorum or (len(clients) // 2 + 1)

    unreachable: List[int] = []
    corrupt: List[int] = []
    replicas: Dict[int, Tuple[List[bytes], LogServer]] = {}
    for index, client in enumerate(clients):
        try:
            records, keys = _fetch_replica(client)
            replicas[index] = (records, _rebuild(records, keys))
        except (LoggingError, TransportError):
            unreachable.append(index)
        except Exception:
            # fetched fine but would not re-ingest: internally inconsistent
            corrupt.append(index)

    if len(replicas) < quorum:
        raise LogIntegrityError(
            f"only {len(replicas)}/{len(clients)} replicas answered the "
            f"audit; quorum of {quorum} unreachable"
        )

    common = min(len(records) for records, _ in replicas.values())
    prefix_roots = {
        index: MerkleTree(records[:common]).root()
        for index, (records, _) in replicas.items()
    }
    by_root: Dict[bytes, List[int]] = {}
    for index, root in sorted(prefix_roots.items()):
        by_root.setdefault(root, []).append(index)
    quorum_root, agreeing = max(
        by_root.items(), key=lambda item: (len(item[1]), item[1][0] * -1)
    )
    if len(agreeing) < quorum:
        raise LogIntegrityError(
            "replica set has no quorum-consistent view: prefix roots at "
            f"{common} entries split "
            + ", ".join(
                f"{root.hex()[:16]}x{len(members)}"
                for root, members in sorted(by_root.items())
            )
        )
    divergent = [
        ReplicaDivergence(
            replica=index,
            entries=common,
            prefix_root=root,
            quorum_root=quorum_root,
        )
        for index, root in sorted(prefix_roots.items())
        if root != quorum_root
    ]

    # Audit the longest agreeing history: most entries, most evidence.
    audited_replica = max(agreeing, key=lambda index: len(replicas[index][0]))
    _, server = replicas[audited_replica]
    report = Auditor.for_server(server, topology).audit_server(server)
    return ReplicaSetAudit(
        report=report,
        audited_replica=audited_replica,
        audited_entries=len(replicas[audited_replica][0]),
        common_prefix=common,
        agreeing=agreeing,
        divergent=divergent,
        unreachable=unreachable,
        corrupt=corrupt,
    )
