"""Engineering benchmark (beyond the paper): the price of durability.

The paper's trusted logger keeps evidence in memory; a crash silently
discards it.  The durable store journals every entry through a CRC-framed
WAL, so the interesting question is what each fsync policy costs relative
to the in-memory baseline:

- ``never``    -- OS page cache only; survives process death, not power loss
- ``interval`` -- fsync on a timer; bounded post-power-loss tail loss
- ``always``   -- fsync per entry; the classic synchronous-commit price
"""

import pytest

from benchmarks.harness import CallTimer, Table, save_results
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.log_store import InMemoryLogStore
from repro.storage.durable_store import DurableLogStore

ENTRIES = 200

_results = {}


def _make_entries():
    return [
        LogEntry(
            component_id="/pub",
            topic="/t",
            type_name="std/String",
            direction=Direction.OUT,
            seq=i,
            timestamp=float(i),
            scheme=Scheme.ADLP,
            data=b"x" * 256,
            own_sig=b"\x5a" * 64,
        )
        for i in range(1, ENTRIES + 1)
    ]


def _bench_ingest(benchmark, tmp_path_factory, label, make_store):
    entries = _make_entries()
    open_servers = []

    def setup():
        store = make_store(str(tmp_path_factory.mktemp(f"bench-{label}")))
        server = LogServer(store)
        open_servers.append(server)
        return (server,), {}

    def ingest(server):
        for entry in entries:
            server.submit(entry)

    timed = CallTimer(ingest)
    benchmark.pedantic(timed, setup=setup, rounds=3, warmup_rounds=0)
    for server in open_servers:
        server.close()
    _results[label] = ENTRIES / timed.stats().mean


def test_ingest_in_memory(benchmark, tmp_path_factory):
    _bench_ingest(
        benchmark, tmp_path_factory, "memory", lambda d: InMemoryLogStore()
    )


@pytest.mark.parametrize("fsync", ["never", "interval", "always"])
def test_ingest_durable(benchmark, tmp_path_factory, fsync):
    _bench_ingest(
        benchmark,
        tmp_path_factory,
        f"wal_fsync_{fsync}",
        lambda d: DurableLogStore(d, fsync=fsync, checkpoint_every=0),
    )


def test_report_durability(benchmark):
    benchmark(lambda: None)
    table = Table(
        "Log ingest throughput vs durability (256 B payloads)",
        ["Store", "Entries/s", "vs memory"],
    )
    baseline = _results["memory"]
    for label in ("memory", "wal_fsync_never", "wal_fsync_interval", "wal_fsync_always"):
        rate = _results[label]
        table.add_row(label, rate, f"{rate / baseline:.1%}")
    table.show()
    save_results("durability", dict(_results))
    assert all(rate > 0 for rate in _results.values())
    # Page-cache-only journaling should stay within an order of magnitude
    # of the in-memory store; per-entry fsync is allowed to be much slower.
    assert _results["wal_fsync_never"] > baseline / 50
