"""Engineering benchmark (beyond the paper): the pipelined wire protocol.

The v2 correlation envelope (PROTOCOL.md section 15) lets one socket
carry many RPCs at once, so the interesting ratios are against the
pre-envelope discipline of one exchange in flight per connection:

- ``serial_rpc``: one entry per acknowledged RPC, one RPC in flight --
  the old ``_rpc_lock`` behavior, reconstructed with an external lock;
- ``pipelined_rpc``: the same per-entry RPCs issued by 8 threads over
  ONE shared socket (isolates what correlation alone buys: hiding the
  per-exchange turnaround gap);
- ``pipelined_batched``: 8 threads, 16-entry acknowledged batches, one
  socket -- the acceptance row (pipelining plus group commit);
- ``fanin``: how many concurrently connected clients one event-loop
  endpoint holds while answering all of them (the selectors rebuild's
  claim, counted not asserted-by-vibes).

Pipelining hides waiting, it does not create CPU: per-entry speedups
beyond turnaround-hiding need cores, so that assertion is gated on
:func:`host_cpu_count` and every saved row carries the ``cpu_count`` it
was measured on.  The batched bar comes from overlapping waits (frame
turnaround) and holds even on one CPU.  Correctness is asserted in ``tests/core/test_remote_pipeline.py``
and ``tests/core/test_fanin_soak.py``; this file measures only speed.
Set ``REPRO_BENCH_SMOKE=1`` for a tiny CI-sized workload.
"""

from __future__ import annotations

import os
import threading

from repro.bench.reporting import Table, host_cpu_count, save_results
from repro.core.entries import LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.remote import LogServerEndpoint, RemoteLogger

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
ENTRIES = 128 if SMOKE else 512
THREADS = 8
BATCH = 16
ROUNDS = 1 if SMOKE else 3
# The single-socket rows are cheap (tens of ms per round) but their
# ratios feed a hard acceptance bar, so run more rounds and score the
# best one: scheduler noise on a contended host only ever *inflates* a
# round, so the minimum is the least-noise estimate of each mode.
RPC_ROUNDS = 3 if SMOKE else 5
FANIN_CLIENTS = 32 if SMOKE else 256

_results: dict = {}


def _row(value: float) -> dict:
    """One saved benchmark row: the measurement plus the host's CPU
    count, so a scaling number can never be read without knowing whether
    scaling was physically possible when it was taken."""
    return {"value": value, "cpu_count": host_cpu_count()}


def _entries(count: int, base: int = 0) -> list:
    return [
        LogEntry(
            component_id="/pub",
            topic="/t",
            seq=base + i,
            scheme=Scheme.ADLP,
            data=b"x" * 64,
        )
        for i in range(1, count + 1)
    ]


# -- one socket: serial vs pipelined vs pipelined+batched ---------------------


def _bench_one_socket(benchmark, label, hammer):
    worlds = []

    def setup():
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        client = RemoteLogger(endpoint.address)
        client.health()  # connect outside the timed region
        worlds.append((server, endpoint, client))
        return (server, client), {}

    benchmark.pedantic(
        hammer, setup=setup, rounds=RPC_ROUNDS, warmup_rounds=0
    )
    for server, endpoint, client in worlds:
        client.close()
        endpoint.close()
    _results[label] = ENTRIES / benchmark.stats.stats.min


def test_serial_rpc(benchmark):
    """The pre-envelope discipline: every acknowledged submit waits out
    its reply before the next frame goes down the socket."""
    work = _entries(ENTRIES)
    lock = threading.Lock()  # the old client-side _rpc_lock, externalized

    def hammer(server, client):
        for entry in work:
            with lock:
                client.submit_batch_sync([entry], timeout=30.0)
        assert len(server) == ENTRIES

    _bench_one_socket(benchmark, "serial_rpc", hammer)


def test_pipelined_rpc(benchmark):
    """The same per-entry RPCs, 8 threads in flight on one socket."""
    per_thread = ENTRIES // THREADS
    work = [
        _entries(per_thread, base=worker * per_thread)
        for worker in range(THREADS)
    ]

    def hammer(server, client):
        def run(worker: int) -> None:
            for entry in work[worker]:
                client.submit_batch_sync([entry], timeout=30.0)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server) == ENTRIES

    _bench_one_socket(benchmark, "pipelined_rpc", hammer)


def test_pipelined_batched(benchmark):
    """The acceptance row: 16-entry acknowledged batches from 8 threads
    sharing one correlated socket."""
    per_thread = ENTRIES // THREADS
    work = [
        _entries(per_thread, base=worker * per_thread)
        for worker in range(THREADS)
    ]

    def hammer(server, client):
        def run(worker: int) -> None:
            batch = work[worker]
            for start in range(0, per_thread, BATCH):
                client.submit_batch_sync(
                    batch[start : start + BATCH], timeout=30.0
                )

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server) == ENTRIES

    _bench_one_socket(benchmark, "pipelined_batched", hammer)


# -- fan-in: concurrent connections held by one endpoint ----------------------


def test_fanin_connections(benchmark):
    """Connect ``FANIN_CLIENTS`` stubs to ONE endpoint, answer an RPC on
    each, and sample the live connection count while all are open."""
    worlds = []

    def setup():
        server = LogServer()
        endpoint = LogServerEndpoint(server)
        worlds.append((server, endpoint))
        return (endpoint,), {}

    def fan_in(endpoint):
        clients = []
        try:
            for _ in range(FANIN_CLIENTS):
                client = RemoteLogger(endpoint.address)
                client.health(timeout=30.0)
                clients.append(client)
            peak = len(endpoint._connections)
            assert peak >= FANIN_CLIENTS
            _results["fanin_connections"] = max(
                _results.get("fanin_connections", 0), peak
            )
        finally:
            for client in clients:
                client.close()

    benchmark.pedantic(fan_in, setup=setup, rounds=ROUNDS, warmup_rounds=0)
    for server, endpoint in worlds:
        endpoint.close()
    _results["fanin_seconds"] = benchmark.stats.stats.mean


# -- report -------------------------------------------------------------------


def test_report_async(benchmark):
    benchmark(lambda: None)
    cpus = host_cpu_count()

    table = Table(
        f"Pipelined wire protocol: entries/s over one socket, "
        f"{THREADS} threads, 64 B payloads ({cpus} cpus)",
        ["Mode", "Entries/s", "vs serial RPC"],
    )
    serial = _results["serial_rpc"]
    data = {"threads": THREADS, "batch_size": BATCH, "entries": ENTRIES}
    for label in ("serial_rpc", "pipelined_rpc", "pipelined_batched"):
        rate = _results[label]
        table.add_row(label, rate, f"{rate / serial:.2f}x")
        data[label] = _row(rate)
    pipelined_speedup = _results["pipelined_rpc"] / serial
    batched_speedup = _results["pipelined_batched"] / serial
    data["pipelined_rpc_speedup"] = _row(pipelined_speedup)
    data["pipelined_batched_speedup"] = _row(batched_speedup)
    table.show()

    fanin = _results["fanin_connections"]
    print(
        f"\nfan-in: {fanin} concurrent connections on one endpoint "
        f"({_results['fanin_seconds']:.3f}s to connect+answer all)\n"
    )
    data["fanin_connections"] = _row(float(fanin))
    save_results("async", data)

    assert all(value > 0 for value in _results.values())
    assert fanin >= FANIN_CLIENTS
    # The acceptance bar: pipelined batched submit at least doubles the
    # serial-RPC rate.  It comes from overlapping *waits* (reply
    # turnaround), so it holds even on one CPU and is not core-gated.
    assert batched_speedup >= 2.0, (
        f"pipelined batched submit {batched_speedup:.2f}x serial RPC "
        f"(expected >= 2x on {cpus} cpus)"
    )
    # Bare per-entry pipelining only beats serial by more than the
    # turnaround-hiding margin when dispatch can actually run in
    # parallel with the client; that bar needs cores.
    if not SMOKE and cpus >= 4:
        assert pipelined_speedup >= 1.2, (
            f"pipelined per-entry RPCs {pipelined_speedup:.2f}x serial "
            f"on {cpus} cpus (expected >= 1.2x)"
        )
