"""Measurement harness shared by the pytest benchmarks in ``benchmarks/``.

- **Workloads**: the paper's representative payloads (Steering 20 B,
  Scan 8705 B, Image 921641 B), the Figure 13 size sweep, and a shuffled
  honest stream of signed publisher/subscriber log records.
- **Timing**: repeated-sample timing with summary stats.
- **CPU**: process- and thread-group CPU utilization via ``/proc`` (the
  paper measures CPU% of the publisher and system-wide).
- **Rates**: log-generation-rate measurement.
- **Reporting**: plain-text tables mirroring the paper's rows, plus JSON
  result capture for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.entries import Direction, LogEntry, Scheme
from repro.core.log_server import LogServer
from repro.core.protocol import message_digest
from repro.crypto.keys import KeyPair, generate_keypair

# -- workloads ---------------------------------------------------------------

#: The paper's Table I data sizes, in bytes.  Our realizations: a small
#: control command, a 1080-beam packed LIDAR sweep, a 640x480 RGB frame.
PAPER_SIZES: Dict[str, int] = {
    "Steering": 20,
    "Scan": 8705,
    "Image": 921641,
}

#: Payload sizes of the Figure 13 latency sweep (the paper sweeps small
#: to ~1 MB).
LATENCY_SWEEP_SIZES: Tuple[int, ...] = (20, 1024, 8705, 65536, 262144, 921641)


def payload_of_size(size: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random payload of exactly ``size`` bytes:
    incompressible like real sensor data, reproducible across runs."""
    rng = np.random.default_rng(seed + size)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def paper_payloads(seed: int = 0) -> Dict[str, bytes]:
    """The three Table I payloads, keyed by type name."""
    return {name: payload_of_size(size, seed) for name, size in PAPER_SIZES.items()}


def workload_keys(seed: int) -> Tuple[KeyPair, KeyPair]:
    """The ``/pub`` and ``/sub`` key pairs of :func:`honest_records`."""
    return (
        generate_keypair(512, seed=seed + 1),
        generate_keypair(512, seed=seed + 2),
    )


def _honest_pair(
    keys: Tuple[KeyPair, KeyPair], topic: str, seq: int, payload: bytes
) -> Tuple[bytes, bytes]:
    """Encoded publisher OUT + subscriber IN for one honest transmission."""
    digest = message_digest(seq, payload)
    s_x = keys[0].private.sign_digest(digest)
    s_y = keys[1].private.sign_digest(digest)
    pub = LogEntry(
        component_id="/pub", topic=topic, type_name="std/String",
        direction=Direction.OUT, seq=seq, scheme=Scheme.ADLP,
        data=payload, own_sig=s_x,
        peer_id="/sub", peer_hash=digest, peer_sig=s_y,
    )
    sub = LogEntry(
        component_id="/sub", topic=topic, type_name="std/String",
        direction=Direction.IN, seq=seq, scheme=Scheme.ADLP,
        data_hash=digest, own_sig=s_y, peer_id="/pub", peer_sig=s_x,
    )
    return pub.encode(), sub.encode()


def honest_records(
    rng: random.Random,
    keys: Tuple[KeyPair, KeyPair],
    topics: Sequence[str],
    transmissions: int,
) -> List[bytes]:
    """A shuffled honest workload: two encoded entries per transmission,
    signed with ``keys`` (see :func:`workload_keys`)."""
    seqs = {t: 0 for t in topics}
    records: List[bytes] = []
    for _ in range(transmissions):
        topic = rng.choice(list(topics))
        seqs[topic] += 1
        payload = bytes(
            rng.getrandbits(8) for _ in range(rng.randrange(4, 24))
        )
        pub, sub = _honest_pair(keys, topic, seqs[topic], payload)
        records.append(pub)
        records.append(sub)
    rng.shuffle(records)
    return records


# -- timing ------------------------------------------------------------------


@dataclass(frozen=True)
class TimingStats:
    """Mean/stdev/min/max of a timing experiment, in seconds."""

    samples: int
    mean: float
    stdev: float
    min: float
    max: float

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    @property
    def stdev_ms(self) -> float:
        return self.stdev * 1e3

    def __str__(self) -> str:
        return f"{self.mean_ms:.3f} ms ({self.stdev_ms:.3f} ms) n={self.samples}"

    @classmethod
    def from_samples(cls, durations: List[float]) -> "TimingStats":
        n = len(durations)
        if n == 0:
            raise ValueError("no samples")
        mean = sum(durations) / n
        var = sum((d - mean) ** 2 for d in durations) / n
        return cls(
            samples=n,
            mean=mean,
            stdev=math.sqrt(var),
            min=min(durations),
            max=max(durations),
        )


def measure(
    fn: Callable[[], object], samples: int = 100, warmup: int = 3
) -> TimingStats:
    """Time ``fn`` over ``samples`` calls (after ``warmup`` discarded ones).

    The paper's Table I uses 3000 samples per data type; callers choose
    their own count.
    """
    for _ in range(warmup):
        fn()
    durations = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - t0)
    return TimingStats.from_samples(durations)


class CallTimer:
    """A callable handed to ``pytest-benchmark`` that times each of its own
    calls with ``time.perf_counter``.

    Saved figures come from :meth:`stats`, not from ``benchmark.stats``,
    which is ``None`` under ``--benchmark-disable`` (the callable then runs
    once, and that one call is the figure).
    """

    def __init__(self, fn: Callable[..., Any]):
        self._fn = fn
        self._durations: List[float] = []

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return self._fn(*args, **kwargs)
        finally:
            self._durations.append(time.perf_counter() - t0)

    def stats(self) -> TimingStats:
        return TimingStats.from_samples(self._durations)


# -- CPU utilization -----------------------------------------------------------
#
# The paper's Figure 14 reports the *publisher's* CPU utilization and
# Table II the system-wide utilization of the self-driving application.
# Our nodes are threads of one Python process, so ProcessCpuSampler is
# Table II's analogue and ThreadGroupCpuSampler (per-task utime+stime from
# /proc/self/task/<tid>/stat) is Figure 14's analogue of per-process
# accounting.  Utilization is in percent of one core, as the paper plots
# it (values may exceed 100 on multi-core usage).

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _task_cpu_seconds(tid: int) -> Optional[float]:
    """utime+stime of one task (thread), in seconds; None if it exited."""
    try:
        with open(f"/proc/self/task/{tid}/stat", "rb") as f:
            raw = f.read().decode("ascii", "replace")
    except OSError:
        return None
    # fields after the parenthesized comm; utime/stime are fields 14/15
    rest = raw.rsplit(")", 1)[1].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / _CLOCK_TICKS


def threads_matching(predicate: Callable[[threading.Thread], bool]) -> List[int]:
    """Native thread ids of live Python threads satisfying ``predicate``."""
    ids = []
    for thread in threading.enumerate():
        if thread.native_id is not None and predicate(thread):
            ids.append(thread.native_id)
    return ids


class ProcessCpuSampler:
    """Whole-process CPU%: delta(cpu time)/delta(wall time) * 100."""

    def __init__(self) -> None:
        self._t0 = 0.0
        self._cpu0 = 0.0

    def start(self) -> None:
        times = os.times()
        self._cpu0 = times.user + times.system
        self._t0 = time.monotonic()

    def stop(self) -> float:
        """Return average CPU% of one core since :meth:`start`."""
        times = os.times()
        wall = time.monotonic() - self._t0
        if wall <= 0:
            return 0.0
        return 100.0 * (times.user + times.system - self._cpu0) / wall


class ThreadGroupCpuSampler:
    """CPU% consumed by a fixed set of native thread ids.

    Threads that exit mid-measurement keep their last observed CPU time, so
    short-lived workers are still accounted (their final reading may lag by
    one sample; sample reasonably often for accuracy).
    """

    def __init__(self, thread_ids: Iterable[int]):
        self._ids = list(thread_ids)
        self._last: dict = {}
        self._t0 = 0.0
        self._base = 0.0

    def _total(self) -> float:
        total = 0.0
        for tid in self._ids:
            seconds = _task_cpu_seconds(tid)
            if seconds is not None:
                self._last[tid] = seconds
            total += self._last.get(tid, 0.0)
        return total

    def start(self) -> None:
        self._base = self._total()
        self._t0 = time.monotonic()

    def sample(self) -> None:
        """Refresh the last-seen CPU times (call periodically for threads
        that may exit before :meth:`stop`)."""
        self._total()

    def stop(self) -> float:
        """Return average CPU% of one core since :meth:`start`."""
        wall = time.monotonic() - self._t0
        if wall <= 0:
            return 0.0
        return 100.0 * (self._total() - self._base) / wall


# -- log-generation rate (Figure 15 / Table IV) --------------------------------


@dataclass(frozen=True)
class LogRate:
    """Observed logging throughput."""

    duration_s: float
    entries: int
    bytes: int

    @property
    def bytes_per_second(self) -> float:
        return self.bytes / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def megabits_per_second(self) -> float:
        """Mb/s as the paper's Table IV reports (decimal megabits)."""
        return self.bytes_per_second * 8 / 1e6

    @property
    def entries_per_second(self) -> float:
        return self.entries / self.duration_s if self.duration_s > 0 else 0.0


def measure_log_rate(server: LogServer, duration_s: float) -> LogRate:
    """Watch ``server`` for ``duration_s`` and report the ingest rate.

    The workload must already be running; this only observes counters.
    """
    entries0 = len(server)
    bytes0 = server.total_bytes
    t0 = time.monotonic()
    time.sleep(duration_s)
    elapsed = time.monotonic() - t0
    return LogRate(
        duration_s=elapsed,
        entries=len(server) - entries0,
        bytes=server.total_bytes - bytes0,
    )


# -- reporting -----------------------------------------------------------------
#
# Each benchmark prints a plain-text table mirroring the paper's rows and
# appends its raw numbers to ``bench_results.json`` so EXPERIMENTS.md can
# be cross-checked against an actual run.

_RESULTS_PATH = os.environ.get("REPRO_BENCH_RESULTS", "bench_results.json")
_lock = threading.Lock()
_cpu_count: "int | None" = None


def host_cpu_count() -> int:
    """The host's CPU count, detected once and shared.

    Every benchmark that gates a scaling assertion on available
    parallelism (and every saved row that must be interpretable later)
    uses this single helper, so gating and recording can never disagree
    about what host the numbers came from.
    """
    global _cpu_count
    if _cpu_count is None:
        _cpu_count = os.cpu_count() or 1
    return _cpu_count


class Table:
    """A fixed-width text table."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_format_cell(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [f"== {self.title} =="]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render() + "\n")


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def save_results(experiment: str, data: Dict[str, Any]) -> None:
    """Merge ``data`` under ``experiment`` into the results JSON file."""
    with _lock:
        results: Dict[str, Any] = {}
        if os.path.exists(_RESULTS_PATH):
            try:
                with open(_RESULTS_PATH) as f:
                    results = json.load(f)
            except (OSError, json.JSONDecodeError):
                results = {}
        results[experiment] = data
        with open(_RESULTS_PATH, "w") as f:
            json.dump(results, f, indent=2, sort_keys=True)
