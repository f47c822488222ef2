"""Engineering benchmark (beyond the paper): the overload probe.

The paper's logging thread pushes entries fire-and-forget and has no
overload control (Section V-B).  The one overload mechanism this
repository keeps is the client's outstanding-bytes credit window,
``RemoteLogger(window_bytes=...)``, off by default.  This probe measures
it against its absence on the spine's server at library defaults: one
TCP ``LogServerEndpoint`` over ``LogServer(DurableLogStore(fsync="always"))``.

Two traffic shapes, ``k`` clients each, for a timed window:

- **loop**: every client runs a closed loop of acknowledged
  ``submit_batch_sync`` calls of 64 entries;
- **flood**: every client floods fire-and-forget ``submit_batch`` calls
  of 64 entries (the logging thread's traffic), beside one acknowledged
  probe client that submits 2-entry batches.

Each run is its own subprocess and reads its own ``VmHWM``, so
``peak_rss_mb`` is that run's alone.
After the window every client re-sends anything it parked and passes a
FIFO ``health()`` barrier.
Entries still missing at that point are counted as late landings.  The
run then waits until the endpoint is idle and counts lost entries.
Window on and off alternate within each pair.

The bar is what the window buys on the flood: a lower probe ack p50 and
a lower peak RSS.  No run may lose an entry or land one late.

Set ``REPRO_BENCH_SMOKE=1`` for a CI-sized run (k = 8, one pair, 1 s
windows).
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from benchmarks.harness import (
    Table,
    honest_records,
    host_cpu_count,
    save_results,
    workload_keys,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
CLIENTS = (8,) if SMOKE else (8, 64)
PAIRS = 1 if SMOKE else 3
SECONDS = 1.0 if SMOKE else 10.0
SHAPES = ("loop", "flood")
BATCH = 64
PROBE_BATCH = 2
#: The credit window of the "on" arm, bytes.
WINDOW_BYTES = 1 << 20
#: Bound on the wait for the endpoint to go idle after the window.
IDLE_TIMEOUT = 900.0

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_results: dict = {}


def _percentile(values, q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _build_pool(path: str, batches: int) -> None:
    rng = random.Random(7)
    records = honest_records(
        rng, workload_keys(7), ["/probe/a", "/probe/b"], batches * BATCH // 2
    )
    with open(path, "wb") as fh:
        pickle.dump([records[i:i + BATCH] for i in range(0, len(records), BATCH)], fh)


def _wait_idle(server, endpoint) -> None:
    """Until the entry count has held still for 2 s with no queued work."""
    last = -1
    stable_since = time.perf_counter()
    deadline = stable_since + IDLE_TIMEOUT
    while time.perf_counter() < deadline:
        count = len(server)
        busy = any(s.running or s.pending for s in list(endpoint._states.values()))
        if count != last or busy:
            last = count
            stable_since = time.perf_counter()
        elif time.perf_counter() - stable_since >= 2.0:
            return
        time.sleep(0.25)


def _peak_rss_mb() -> float:
    """This process's own peak RSS (``VmHWM``).  ``ru_maxrss`` would not
    do: Linux starts a child's at the RSS of the process that forked it,
    so every run would report the parent pytest's size."""
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return kb / 1024.0


def _run_one(shape: str, k: int, window: bool, seconds: float, pool_path: str) -> dict:
    """One run in this process; returns its row."""
    from repro.core.log_server import LogServer
    from repro.core.remote import LogServerEndpoint, RemoteLogger
    from repro.errors import LoggingError
    from repro.storage.durable_store import DurableLogStore

    with open(pool_path, "rb") as fh:
        pool = pickle.load(fh)
    store_dir = tempfile.mkdtemp(prefix="overload-probe-")
    server = LogServer(DurableLogStore(store_dir, fsync="always"))
    endpoint = LogServerEndpoint(server)
    clients = [
        RemoteLogger(endpoint.address, window_bytes=WINDOW_BYTES if window else None)
        for _ in range(k)
    ]
    probe = RemoteLogger(endpoint.address) if shape == "flood" else None
    everyone = clients + ([probe] if probe is not None else [])
    stop = threading.Event()
    lock = threading.Lock()
    latencies: list = []
    counts = {"acked": 0, "acked_in_window": 0, "submitted": 0, "sync_errors": 0}
    window_end = [0.0]

    def acked_call(client, batch) -> None:
        started = time.perf_counter()
        try:
            client.submit_batch_sync(batch, timeout=IDLE_TIMEOUT)
        except LoggingError:
            with lock:
                counts["sync_errors"] += 1
            return
        done = time.perf_counter()
        with lock:
            latencies.append(done - started)
            counts["acked"] += len(batch)
            if not window_end[0] or done <= window_end[0]:
                counts["acked_in_window"] += len(batch)

    def loop(i: int) -> None:
        j = i
        while not stop.is_set():
            acked_call(clients[i], pool[j % len(pool)])
            j += 1

    def flood(i: int) -> None:
        j, sent = i, 0
        while not stop.is_set():
            batch = pool[j % len(pool)]
            clients[i].submit_batch(batch)
            sent += len(batch)
            j += 1
        with lock:
            counts["submitted"] += sent

    def probing() -> None:
        j = 0
        while not stop.is_set():
            acked_call(probe, pool[j % len(pool)][:PROBE_BATCH])
            j += 1

    try:
        for client in everyone:
            client.health(timeout=30.0)  # connected before the window opens
        threads = [
            threading.Thread(target=loop if shape == "loop" else flood, args=(i,), daemon=True)
            for i in range(k)
        ]
        if probe is not None:
            threads.append(threading.Thread(target=probing, daemon=True))
        base = len(server)
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        landed_in_window = len(server) - base
        window_end[0] = time.perf_counter()
        stop.set()
        for thread in threads:
            thread.join()
        expected = counts["submitted"] + counts["acked"]
        for client in everyone:
            client.flush_spill()  # a send that failed parked its batch
            client.health(timeout=IDLE_TIMEOUT)
        late = max(0, expected - (len(server) - base))
        _wait_idle(server, endpoint)
        landed = len(server) - base
        stats = [client.stats() for client in clients]
        goodput = counts["acked_in_window"] if shape == "loop" else landed_in_window
        return {
            "shape": shape,
            "k": k,
            "window": window,
            "goodput_eps": goodput / seconds,
            "ack_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "ack_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "peak_rss_mb": _peak_rss_mb(),
            "credit_syncs": sum(s.get("credit_syncs", 0) for s in stats),
            "spill_retries": sum(s["spill_retries"] for s in stats),
            "sync_errors": counts["sync_errors"],
            "expected": expected,
            "landed": landed,
            "lost": max(0, expected - landed),
            "late": late,
        }
    finally:
        for client in everyone:
            client.close()
        endpoint.close()
        server.close()
        shutil.rmtree(store_dir, ignore_errors=True)


def _run_subprocess(shape: str, k: int, window: bool, pool_path: str) -> dict:
    env = dict(os.environ)
    # src for repro, the repository root for benchmarks.harness
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src"), _ROOT, env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), shape, str(k),
         "on" if window else "off", str(SECONDS), pool_path],
        capture_output=True, text=True, env=env, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, f"{shape}/k={k} run failed: {proc.stderr[-2000:]}"
    return json.loads(lines[-1])


def _median(rows, key):
    return statistics.median(row[key] for row in rows)


def test_overload_probe(benchmark):
    def run():
        with tempfile.TemporaryDirectory() as scratch:
            pool_path = os.path.join(scratch, "pool.pkl")
            _build_pool(pool_path, batches=8 if SMOKE else 32)
            for pair in range(PAIRS):
                for shape in SHAPES:
                    for k in CLIENTS:
                        arms = (False, True) if pair % 2 == 0 else (True, False)
                        for window in arms:
                            row = _run_subprocess(shape, k, window, pool_path)
                            _results.setdefault((shape, k, window), []).append(row)

    benchmark.pedantic(run, rounds=1, warmup_rounds=0)
    table = Table(
        f"Overload probe: credit window off/on, {PAIRS} pair(s) of "
        f"{SECONDS:.0f} s per cell ({host_cpu_count()} cpus)",
        ["Traffic", "k", "Window", "Goodput e/s", "Ack p50 ms", "Ack p99 ms",
         "Peak RSS MB", "Lost", "Late"],
    )
    data: dict = {
        "cpus": host_cpu_count(),
        "python": sys.version.split()[0],
        "seconds": SECONDS,
        "pairs": PAIRS,
        "window_bytes": WINDOW_BYTES,
    }
    for (shape, k, window), rows in sorted(_results.items()):
        label = f"{shape}_k{k}_{'on' if window else 'off'}"
        summary = {
            key: _median(rows, key)
            for key in ("goodput_eps", "ack_p50_ms", "ack_p99_ms", "peak_rss_mb")
        }
        summary["lost"] = sum(row["lost"] for row in rows)
        summary["late"] = sum(row["late"] for row in rows)
        data[label] = summary
        table.add_row(
            shape, k, "on" if window else "off", summary["goodput_eps"],
            summary["ack_p50_ms"], summary["ack_p99_ms"], summary["peak_rss_mb"],
            summary["lost"], summary["late"],
        )
    table.show()
    save_results("overload", data)
    for rows in _results.values():
        for row in rows:
            assert row["lost"] == 0, f"entries lost: {row}"
            assert row["late"] == 0, f"entries landed after the barrier: {row}"
    # The bar: on the flood, the window buys the probe's ack latency and
    # the server's memory.
    for k in CLIENTS:
        off, on = _results[("flood", k, False)], _results[("flood", k, True)]
        assert _median(on, "ack_p50_ms") < _median(off, "ack_p50_ms"), (k, on, off)
        assert _median(on, "peak_rss_mb") < _median(off, "peak_rss_mb"), (k, on, off)


if __name__ == "__main__":
    shape_arg, k_arg, window_arg, seconds_arg, pool_arg = sys.argv[1:6]
    print(json.dumps(_run_one(shape_arg, int(k_arg), window_arg == "on",
                              float(seconds_arg), pool_arg)))
