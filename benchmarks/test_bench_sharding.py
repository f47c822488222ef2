"""Engineering benchmark (beyond the paper): topic sharding.

A single trusted logger funnels every submit through one lock and one
hash chain, so its ingest rate saturates one core (the ceiling behind the
paper's Table IV system log rates).  ``ShardedLogServer`` splits the log
into N share-nothing shards routed by topic; this file measures the axis
that sharding opens up:

- **submit throughput vs shard count**: four submitter threads, each
  owning one topic *group* chosen so the groups split evenly across 4,
  2, and 1 shards.  Payloads are 32 KiB: SHA-256 releases the GIL above
  ~2 KiB, so chain/Merkle hashing of different shards genuinely overlaps
  when the host has cores to run them on.

Sharding is verdict- and commitment-preserving (asserted by
``tests/sharding/``); this file measures only speed.  Scaling assertions
only run where scaling is physically possible (4+ CPUs via
:func:`host_cpu_count`, not SMOKE), and every saved row carries the
``cpu_count`` it was measured on so the numbers stay interpretable --
on a 1-CPU host every variant lands near the same rate and that is the
honest result.

Set ``REPRO_BENCH_SMOKE=1`` for a tiny CI-sized workload.
"""

from __future__ import annotations

import os
import threading

import pytest

from benchmarks.harness import Table, host_cpu_count, save_results
from repro.core.entries import Direction, LogEntry, Scheme
from repro.sharding import ShardRouter, ShardedLogServer
from repro.sharding.router import _ROUTE_PREFIX  # the routing hash domain

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
THREADS = 4
PER_THREAD = 32 if SMOKE else 150
PAYLOAD = b"x" * (4096 if SMOKE else 32768)
ROUNDS = 1 if SMOKE else 3
SHARD_COUNTS = (1, 2, 4)

_results: dict = {}


def _row(value: float) -> dict:
    """One saved benchmark row: the measurement plus the host's CPU
    count, so a scaling number can never be read without knowing whether
    scaling was physically possible when it was taken."""
    return {"value": value, "cpu_count": host_cpu_count()}


def _topic_groups(count: int = THREADS) -> dict:
    """One topic per routing-hash residue class mod ``count``.

    Group ``g`` satisfies ``H(topic) % 4 == g``, so at 4 shards each
    group owns shard ``g``, at 2 shards groups {0,2} share shard 0 and
    {1,3} share shard 1 (``H % 2 == (H % 4) % 2``), and at 1 shard all
    four contend for the single lock -- the contention sweep the
    benchmark wants, from one stable topic set.
    """
    from repro.crypto.hashing import sha256

    groups: dict = {}
    i = 0
    while len(groups) < count:
        topic = "/bench-%d" % i
        digest = sha256(_ROUTE_PREFIX + topic.encode("utf-8"))
        residue = int.from_bytes(digest[:8], "big") % count
        groups.setdefault(residue, topic)
        i += 1
    return groups


GROUPS = _topic_groups()


def _make_group_entries(topic: str) -> list:
    return [
        LogEntry(
            component_id="/pub",
            topic=topic,
            type_name="std/String",
            direction=Direction.OUT,
            seq=i,
            timestamp=float(i),
            scheme=Scheme.ADLP,
            data=PAYLOAD,
            own_sig=b"\x5a" * 64,
        )
        for i in range(1, PER_THREAD + 1)
    ]


WORK = {group: _make_group_entries(topic) for group, topic in GROUPS.items()}


# -- submit throughput vs shard count -----------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_submit_scaling(benchmark, shards):
    # sanity: the groups split over the shard counts as designed
    router = ShardRouter(shards)
    assert {router.shard_of(t) for t in GROUPS.values()} == set(
        g % shards for g in GROUPS
    )

    def setup():
        return (ShardedLogServer(shards=shards),), {}

    def hammer(server):
        threads = [
            threading.Thread(
                target=lambda group=group: [
                    server.submit(entry) for entry in WORK[group]
                ]
            )
            for group in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server) == THREADS * PER_THREAD

    benchmark.pedantic(hammer, setup=setup, rounds=ROUNDS, warmup_rounds=0)
    _results[f"submit_{shards}_shards"] = (
        THREADS * PER_THREAD / benchmark.stats.stats.mean
    )


# -- report -------------------------------------------------------------------


def test_report_sharding(benchmark):
    benchmark(lambda: None)
    cpus = host_cpu_count()

    table = Table(
        f"Sharded submit: entries/s, {THREADS} threads, "
        f"{len(PAYLOAD)} B payloads ({cpus} cpus)",
        ["Shards", "Entries/s", "vs 1 shard"],
    )
    data = {
        "cpus": cpus,  # legacy top-level copy; every row repeats it
        "threads": THREADS,
        "payload_bytes": len(PAYLOAD),
    }
    base = _results["submit_1_shards"]
    for shards in SHARD_COUNTS:
        rate = _results[f"submit_{shards}_shards"]
        table.add_row(shards, rate, f"{rate / base:.2f}x")
        data[f"submit_{shards}_shards"] = _row(rate)
    data["submit_speedup_4_shards"] = _row(_results["submit_4_shards"] / base)
    table.show()

    save_results("sharding", data)
    assert all(rate > 0 for rate in _results.values())
    # The scaling bar only applies where scaling is physically possible:
    # threaded shards overlap hashing via GIL release, which needs cores
    # to land on.  A host with fewer records honest flat numbers (each
    # row says so via its cpu_count).
    if not SMOKE and cpus >= 4:
        speedup = data["submit_speedup_4_shards"]["value"]
        assert speedup >= 2.0, (
            f"4-shard submit speedup {speedup:.2f}x < 2x on {cpus} cpus"
        )

