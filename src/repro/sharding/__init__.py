"""Topic-sharded trusted logger with per-shard audit.

Partitions the log by topic across N independent shards -- each with its
own lock, hash chain, Merkle tree, and (when durable) WAL + checkpoint
directory -- while a single :class:`ShardSetCommitment` (Merkle root over
the ordered shard roots) still pins the entire log.  ``audit_sharded``
audits the shards one by one and localizes tampering to the shard it
lives in.
"""

from repro.sharding.parallel_audit import (
    ShardAuditOutcome,
    ShardedAuditResult,
    audit_sharded,
)
from repro.sharding.router import ShardRouter
from repro.sharding.sharded_server import (
    ShardedLogServer,
    ShardSetCommitment,
    shard_dirname,
)

__all__ = [
    "ShardAuditOutcome",
    "ShardRouter",
    "ShardSetCommitment",
    "ShardedAuditResult",
    "ShardedLogServer",
    "audit_sharded",
    "shard_dirname",
]
