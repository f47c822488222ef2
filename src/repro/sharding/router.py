"""Deterministic topic -> shard routing.

ADLP's audit machinery is naturally partitioned by topic: a transmission
``D_{x->y}`` is identified by ``(topic, seq, subscriber)`` and both of its
log entries -- the publisher's OUT and each subscriber's IN -- carry the
same topic.  Routing every entry by its topic therefore keeps *both sides
of every transmission in the same shard*, so per-shard audits see complete
pairs and lose none of the paper's pairwise guarantees (Lemmas 1-3).

The router must be stable across process restarts and across machines: a
recovered :class:`~repro.sharding.sharded_server.ShardedLogServer` reopens
each shard's WAL directory and must route new entries for old topics to
the same shard, and a remote client computes the shard id locally before
tagging an ``OP_SUBMIT_BATCH`` frame.  Python's builtin ``hash()`` is
salted per process (PYTHONHASHSEED), so the router hashes with SHA-256
instead.
"""

from __future__ import annotations

from typing import List

from repro.crypto.hashing import sha256

#: Domain separation: the routing hash must not collide with any other use
#: of SHA-256 over topic names elsewhere in the protocol.
_ROUTE_PREFIX = b"repro.shard.route\x00"


class ShardRouter:
    """Maps topics onto ``shards`` buckets, identically on every host.

    ``shard_of`` is a pure function of ``(topic, shards)``: no state, no
    process salt, no dependence on registration order.  Changing the shard
    count changes the mapping (plain modulo, not consistent hashing) --
    which is why :class:`ShardedLogServer` refuses to reopen a durable
    shard layout with a different count.
    """

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        self.shards = shards

    def shard_of(self, topic: str) -> int:
        """The shard index for ``topic`` (stable across restarts)."""
        digest = sha256(_ROUTE_PREFIX + topic.encode("utf-8"))
        return int.from_bytes(digest[:8], "big") % self.shards

    def partition(self, topics: List[str]) -> List[List[str]]:
        """Group ``topics`` by shard (index ``i`` lists shard ``i``'s)."""
        buckets: List[List[str]] = [[] for _ in range(self.shards)]
        for topic in topics:
            buckets[self.shard_of(topic)].append(topic)
        return buckets

    def __repr__(self) -> str:
        return f"ShardRouter(shards={self.shards})"
