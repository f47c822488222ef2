"""Engineering benchmark (beyond the paper): group-commit batching.

Per-entry submission pays one lock acquisition, one WAL fsync, or one RPC
frame *per log entry*.  Group commit drains the logging queue in batches
(``AdlpConfig.submit_batch_max``) and pays those costs once per batch, so
the interesting ratio is entries/sec batched vs per-entry for each sink in
the logging stack:

- in-memory ``LogServer`` (lock amortization only)
- ``DurableLogStore`` under each fsync policy (fsync coalescing --
  ``always`` is where group commit classically earns its keep)
- ``RemoteLogger`` over TCP against a durably backed trusted logger
  (fsync ``always`` -- the paper's deployment), plus a volatile
  memory-backed variant that isolates the framing saving alone
- ``ReplicatedLogger`` over three replicas (the frame saving, times N)

Batched and per-entry submission are commitment-identical (asserted in
``tests/core/test_batch_submission.py``); this file measures only the
speed difference.  Set ``REPRO_BENCH_SMOKE=1`` for a tiny CI-sized
workload.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.harness import Table, save_results
from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.log_store import InMemoryLogStore
from repro.core.remote import LogServerEndpoint, RemoteLogger
from repro.core.policy import ReplicationConfig
from repro.replication import ReplicatedLogger
from repro.storage.durable_store import DurableLogStore

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
ENTRIES = 128 if SMOKE else 512
BATCH = 64
ROUNDS = 1 if SMOKE else 3

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


def _batches(entries):
    return [entries[i : i + BATCH] for i in range(0, len(entries), BATCH)]


def _spin_until(predicate, timeout=30.0):
    """Tight wait (no sleep quantization -- this is a benchmark)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("benchmark sink never ingested the workload")


def _record(label, benchmark):
    _results[label] = ENTRIES / benchmark.stats.stats.mean


# -- local sinks (LogServer over a store) ------------------------------------


def _bench_local(benchmark, tmp_path_factory, label, make_store, batched):
    entries = _make_entries()
    batches = _batches(entries)
    open_servers = []

    def setup():
        store = make_store(str(tmp_path_factory.mktemp(f"bench-{label}")))
        server = LogServer(store)
        open_servers.append(server)
        return (server,), {}

    def per_entry(server):
        for entry in entries:
            server.submit(entry)

    def grouped(server):
        for batch in batches:
            server.submit_batch(batch)

    benchmark.pedantic(
        grouped if batched else per_entry,
        setup=setup,
        rounds=ROUNDS,
        warmup_rounds=0,
    )
    for server in open_servers:
        server.close()
    _record(label, benchmark)


@pytest.mark.parametrize("mode", ["per_entry", "batched"])
def test_memory(benchmark, tmp_path_factory, mode):
    _bench_local(
        benchmark,
        tmp_path_factory,
        f"memory_{mode}",
        lambda d: InMemoryLogStore(),
        batched=(mode == "batched"),
    )


@pytest.mark.parametrize("fsync", ["never", "interval", "always"])
@pytest.mark.parametrize("mode", ["per_entry", "batched"])
def test_durable(benchmark, tmp_path_factory, fsync, mode):
    _bench_local(
        benchmark,
        tmp_path_factory,
        f"wal_fsync_{fsync}_{mode}",
        lambda d: DurableLogStore(d, fsync=fsync, checkpoint_every=0),
        batched=(mode == "batched"),
    )


# -- remote sink (one TCP round trip per frame) -------------------------------


@pytest.mark.parametrize("backing", ["durable", "volatile"])
@pytest.mark.parametrize("mode", ["per_entry", "batched"])
def test_remote(benchmark, tmp_path_factory, backing, mode):
    entries = _make_entries()
    batches = _batches(entries)
    worlds = []

    def setup():
        if backing == "durable":
            # The paper's deployment: the trusted logger persists with
            # fsync on commit, so every single-entry OP_SUBMIT_BATCH frame
            # costs an fsync and a 64-entry one coalesces 64 into one.
            store = DurableLogStore(
                str(tmp_path_factory.mktemp("bench-remote")),
                fsync="always",
                checkpoint_every=0,
            )
            server = LogServer(store)
        else:
            server = LogServer()
        endpoint = LogServerEndpoint(server)
        client = RemoteLogger(endpoint.address, submit_batch_max=BATCH)
        worlds.append((server, endpoint, client))
        return (server, client), {}

    def per_entry(server, client):
        for entry in entries:
            client.submit(entry)
        _spin_until(lambda: len(server) == ENTRIES)

    def grouped(server, client):
        for batch in batches:
            client.submit_batch(batch)
        _spin_until(lambda: len(server) == ENTRIES)

    benchmark.pedantic(
        grouped if mode == "batched" else per_entry,
        setup=setup,
        rounds=ROUNDS,
        warmup_rounds=0,
    )
    for server, endpoint, client in worlds:
        client.close()
        endpoint.close()
        server.close()
    label = "remote" if backing == "durable" else "remote_volatile"
    _record(f"{label}_{mode}", benchmark)


# -- replicated sink (3 replicas) ---------------------------------------------


@pytest.mark.parametrize("mode", ["per_entry", "batched"])
def test_replicated(benchmark, mode):
    entries = _make_entries()
    batches = _batches(entries)
    worlds = []

    def setup():
        servers = [LogServer() for _ in range(3)]
        endpoints = [LogServerEndpoint(s) for s in servers]
        rlogger = ReplicatedLogger(
            [e.address for e in endpoints], config=ReplicationConfig()
        )
        worlds.append((servers, endpoints, rlogger))
        return (servers, rlogger), {}

    def per_entry(servers, rlogger):
        for entry in entries:
            rlogger.submit(entry)
        _spin_until(lambda: all(len(s) == ENTRIES for s in servers))

    def grouped(servers, rlogger):
        for batch in batches:
            rlogger.submit_batch(batch)
        _spin_until(lambda: all(len(s) == ENTRIES for s in servers))

    benchmark.pedantic(
        grouped if mode == "batched" else per_entry,
        setup=setup,
        rounds=ROUNDS,
        warmup_rounds=0,
    )
    for servers, endpoints, rlogger in worlds:
        rlogger.close()
        for endpoint in endpoints:
            endpoint.close()
    _record(f"replicated_{mode}", benchmark)


# -- report -------------------------------------------------------------------

SINKS = [
    "memory",
    "wal_fsync_never",
    "wal_fsync_interval",
    "wal_fsync_always",
    "remote",
    "remote_volatile",
    "replicated",
]


def test_report_batching(benchmark):
    benchmark(lambda: None)
    table = Table(
        f"Group-commit batching: entries/s, batch={BATCH}, 256 B payloads",
        ["Sink", "Per-entry", "Batched", "Speedup"],
    )
    data = {}
    for sink in SINKS:
        per_entry = _results[f"{sink}_per_entry"]
        batched = _results[f"{sink}_batched"]
        speedup = batched / per_entry
        table.add_row(sink, per_entry, batched, f"{speedup:.2f}x")
        data[f"{sink}_per_entry"] = per_entry
        data[f"{sink}_batched"] = batched
        data[f"{sink}_speedup"] = speedup
    table.show()
    data["batch_size"] = BATCH
    data["entries"] = ENTRIES
    save_results("batching", data)
    assert all(rate > 0 for rate in _results.values())
    # The acceptance bar: batching the remote path (one OP_SUBMIT_BATCH
    # frame and one fsync per 64 entries instead of 64 frames and 64
    # fsyncs) must at least double throughput.
    assert data["remote_speedup"] >= 2.0, (
        f"remote batching speedup {data['remote_speedup']:.2f}x < 2x"
    )
