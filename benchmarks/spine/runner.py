"""Runs workloads and writes result files.

Two levels:

* :func:`run_workload` -- one workload, in this process: set up
  (several times, for a median ``setup_s``), one timed window, oracles,
  teardown.  This is what ``run --workload NAME`` executes and what ends
  in the one-line JSON result.
* :func:`run_suite` -- every workload, each in a fresh subprocess (clean
  RSS, clean GC), optionally repeated over several seeds and followed by a
  traced pass; writes one provenance-stamped result file for ``compare``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from . import metrics
from .stats import median, percentile, quartile_spread
from .tracing import LeafPatches, Tracer, chrome_trace
from .workloads import (
    Audit,
    Measurement,
    OracleError,
    Workload,
    make_workload,
    workload_params,
)

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(PACKAGE_DIR, ".work")
DEFAULT_OUT = os.path.join(PACKAGE_DIR, "results")

#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0
DEFAULT_SEED = 1
MEMORY_FILESYSTEMS = {"tmpfs", "ramfs"}
#: Above this share of stolen CPU time a window's timings are not comparable.
STEAL_LIMIT = 0.05


class Refused(Exception):
    """The benchmark will not run here (exit code 2, nothing measured)."""


# ---------------------------------------------------------------------------
# Host and provenance.
# ---------------------------------------------------------------------------


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount-point match)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def fsync_probe(directory: str, samples: int = 100) -> Dict[str, float]:
    """Latency of ``write(4 KiB) + fsync`` on the store's medium, so that
    ``fsync="always"`` numbers carry what they were measured on."""
    path = os.path.join(directory, "fsync-probe")
    times = []
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o600)
    try:
        for _ in range(samples):
            os.write(fd, b"\0" * 4096)
            began = time.perf_counter()
            os.fsync(fd)
            times.append(time.perf_counter() - began)
    finally:
        os.close(fd)
        os.unlink(path)
    return {
        "samples": samples,
        "p50_ms": median(times) * 1e3,
        "p90_ms": percentile(times, 0.9) * 1e3,
    }


def cpu_ticks() -> Tuple[int, int]:
    """``(busy, stolen)`` clock ticks of all CPUs since boot."""
    try:
        with open("/proc/stat") as handle:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(field) for field in handle.readline().split()[1:9]
            )
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=metrics.REPO_ROOT, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint(workdir: str) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "store_filesystem": filesystem_type(workdir),
        "fsync_probe": fsync_probe(workdir),
    }


def require_disk(path: str, allow_tmpfs: bool) -> str:
    """Filesystem type under ``path``; refuses a memory filesystem."""
    fstype = filesystem_type(path)
    if fstype in MEMORY_FILESYSTEMS and not allow_tmpfs:
        raise Refused(
            f"{path} is on {fstype}: fsync there measures nothing. "
            "Pass --workdir on a disk, or --allow-tmpfs to run anyway (recorded)."
        )
    return fstype


class WorkDir:
    """A fresh directory for stores, spill files and traces; removed on
    success and on failure."""

    def __init__(self, path: Optional[str] = None):
        self._given = path

    def __enter__(self) -> str:
        if self._given:
            os.makedirs(self._given, exist_ok=True)
            self.path = tempfile.mkdtemp(prefix="run-", dir=self._given)
        else:
            os.makedirs(WORK_ROOT, exist_ok=True)
            self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        if not self._given:
            try:
                os.rmdir(WORK_ROOT)  # only when no other run is using it
            except OSError:
                pass


# ---------------------------------------------------------------------------
# One workload, in this process.
# ---------------------------------------------------------------------------


def _measure(workload: Workload, seconds: float) -> Measurement:
    """One window and its oracles.  Also records the share of the CPU time
    this machine asked for during the window that its hypervisor withheld:
    timings taken while that share is high measure the neighbours."""
    busy0, stolen0 = cpu_ticks()
    measurement = workload.run(seconds)
    busy1, stolen1 = cpu_ticks()
    stolen = stolen1 - stolen0
    measurement.counters["host_steal_share"] = stolen / max(1, busy1 - busy0 + stolen)
    workload.verify(measurement)
    return measurement


def _untraced(name: str, seed: int, seconds: float, smoke: bool, workdir: str,
              inject: Optional[str], detail: Dict[str, Any]) -> Dict[str, Any]:
    """The first set-up is the one measured, so the window runs (and
    ``ru_maxrss`` is read) in a process that has done nothing else; the
    further set-ups only add samples to ``setup_s``."""
    spec = metrics.load_spec()
    setups: List[float] = []
    measurement = None
    for attempt in range(1 if smoke else SETUP_REPEATS):
        workload = make_workload(name, seed, os.path.join(workdir, f"setup-{attempt}"),
                                 smoke=smoke, inject=inject)
        try:
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)
            if measurement is None:
                measurement = _measure(workload, seconds)
                if isinstance(workload, Audit):
                    detail["prefix_verdicts"] = workload.prefix_verdicts()
        finally:
            workload.close()
    values = metrics.end_to_end(measurement, median(setups))
    detail.update(
        setup_samples_s=setups,
        samples={key: len(value) for key, value in measurement.named.items()},
        generator_late_ms_p50=median(measurement.lateness) * 1e3,
        tails=metrics.tails(measurement),
        counters=dict(measurement.counters),
    )
    return {
        "correct": True,
        "attempted": measurement.ops,
        "failed": measurement.failed,
        "metrics": metrics.attach_units(values, spec["end_to_end"]),
    }


def _traced(name: str, seed: int, seconds: float, smoke: bool, workdir: str,
            inject: Optional[str], trace_out: Optional[str],
            detail: Dict[str, Any]) -> Dict[str, Any]:
    """Half the window untraced (the reference the overhead is taken
    against, and the source of the tails), half with spans recorded."""
    spec = metrics.load_spec()
    half = seconds / 2.0
    workload = make_workload(name, seed, os.path.join(workdir, "reference"),
                             smoke=smoke, inject=inject)
    try:
        workload.setup()
        reference = _measure(workload, half)
    finally:
        workload.close()
    tracer = Tracer()
    workload = make_workload(name, seed, os.path.join(workdir, "traced"),
                             smoke=smoke, tracer=tracer, inject=inject)
    try:
        with LeafPatches(tracer):
            workload.setup()
            traced = _measure(workload, half)
    finally:
        workload.close()
    values = metrics.per_layer(workload, reference, traced, tracer)
    detail.update(
        spans=len(tracer.spans),
        traced_ops=traced.ops,  # the base of every per_op metric
        layer_self_time_shares=metrics.layer_shares(tracer),
        tails=metrics.tails(reference),
        counters=dict(traced.counters),
    )
    if trace_out:
        chrome_trace(tracer.spans, trace_out)
    return {
        "correct": True,
        "attempted": reference.ops + traced.ops,
        "failed": reference.failed + traced.failed,
        "metrics": metrics.attach_units(values, spec["per_layer"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int = 0, smoke: bool = False,
                 workdir: Optional[str] = None, inject: Optional[str] = None,
                 allow_tmpfs: bool = False, trace_out: Optional[str] = None):
    """Run one workload here; returns ``(result, detail)``.

    ``result`` has exactly the keys of the one-line JSON.  An oracle
    violation yields ``correct: false`` and no metrics.
    """
    if smoke:
        seconds = min(seconds, SMOKE_SECONDS)
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "params": workload_params(name, smoke),
    }
    with WorkDir(workdir) as path:
        detail["store_filesystem"] = require_disk(path, allow_tmpfs)
        detail["allow_tmpfs"] = allow_tmpfs
        try:
            if trace:
                result = _traced(name, seed, seconds, smoke, path, inject, trace_out, detail)
            else:
                result = _untraced(name, seed, seconds, smoke, path, inject, detail)
        except OracleError as exc:
            detail["oracle_error"] = str(exc)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result, detail


# ---------------------------------------------------------------------------
# Every workload, each in a fresh subprocess.
# ---------------------------------------------------------------------------

CHILD_TIMEOUT_S = 180


def _child(name: str, seed: int, seconds: float, trace: int, options, scratch: str,
           trace_out: Optional[str] = None) -> Dict[str, Any]:
    detail_path = os.path.join(scratch, f"detail-{name}-{seed}-{trace}.json")
    command = [
        sys.executable, "-m", "benchmarks.spine", "run", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--detail", detail_path, "--workdir", scratch,
    ]
    if options.smoke:
        command.append("--smoke")
    if options.allow_tmpfs:
        command.append("--allow-tmpfs")
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        done = subprocess.run(
            command, cwd=metrics.REPO_ROOT, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "correct": False, "error": f"no result within {CHILD_TIMEOUT_S} s"}
    run: Dict[str, Any] = {"seed": seed, "exit_code": done.returncode}
    lines = done.stdout.strip().splitlines()
    try:
        run.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        run.update(correct=False, error=done.stderr.strip()[-2000:] or "no result line")
    if os.path.exists(detail_path):
        with open(detail_path) as handle:
            run["detail"] = json.load(handle)
    if done.returncode != 0:
        run["correct"] = False
        run.setdefault("error", done.stderr.strip()[-2000:])
    return run


def _summarise(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and A/A spread of each metric over the good runs."""
    good = [run for run in runs if run.get("correct")]
    summary: Dict[str, Dict[str, Any]] = {}
    if not good:
        return summary
    for name, first in good[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in good]
        summary[name] = {
            "unit": first["unit"],
            "n": len(values),
            "median": median(values),
            "min": min(values),
            "max": max(values),
            "spread": quartile_spread(values),
        }
    return summary


def run_suite(options) -> int:
    """``run`` without ``--workload``: the whole benchmark.  Returns the
    process exit code (non-zero if any workload failed an oracle)."""
    spec = metrics.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    seconds = SMOKE_SECONDS if options.smoke else options.seconds
    failures: List[str] = []
    with WorkDir(options.workdir) as scratch:
        require_disk(scratch, options.allow_tmpfs)
        document: Dict[str, Any] = {
            "schema": "spine/1",
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git_sha": git_sha(),
            "host": host_fingerprint(scratch),
            "seed": options.seed,
            "repeats": options.repeats,
            "seconds": seconds,
            "smoke": options.smoke,
            "allow_tmpfs": options.allow_tmpfs,
            "workloads": {},
        }
        for name in names:
            runs = [
                _child(name, options.seed + repeat, seconds, 0, options, scratch)
                for repeat in range(options.repeats)
            ]
            entry: Dict[str, Any] = {
                "params": workload_params(name, options.smoke),
                "runs": runs,
                "end_to_end": _summarise(runs),
                "host_steal_share": median([
                    run["detail"]["counters"]["host_steal_share"]
                    for run in runs if run.get("correct")
                ]),
            }
            if options.trace:
                trace_out = None
                if options.trace_out:
                    os.makedirs(options.trace_out, exist_ok=True)
                    trace_out = os.path.join(os.path.abspath(options.trace_out), f"{name}.trace.json")
                traced = _child(name, options.seed, seconds, 1, options, scratch, trace_out)
                entry["traced_run"] = traced
                entry["per_layer"] = _summarise([traced])
                runs = runs + [traced]
            for run in runs:
                if not run.get("correct"):
                    failures.append(f"{name} (seed {run['seed']}): "
                                    f"{run.get('error') or run.get('detail', {}).get('oracle_error')}")
            document["workloads"][name] = entry
            _print_rows(name, entry)
        failures += _cross_scheme(document)
    os.makedirs(options.out, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(options.out, f"spine-{stamp}-{document['git_sha'][:10]}.json")
    document["failures"] = failures
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(path)}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cross_scheme(document: Dict[str, Any]) -> List[str]:
    """Scheme independence: per-transmission verdicts of ``audit_rsa`` and
    ``audit_ed25519`` agree on the prefix they share, seed by seed."""
    def verdicts(name: str) -> Dict[int, Any]:
        runs = document["workloads"].get(name, {}).get("runs", [])
        return {run["seed"]: run.get("detail", {}).get("prefix_verdicts") for run in runs}

    rsa, ed = verdicts("audit_rsa"), verdicts("audit_ed25519")
    return [
        f"audit_rsa and audit_ed25519 disagree on their shared prefix (seed {seed})"
        for seed in sorted(set(rsa) & set(ed))
        if rsa[seed] is None or rsa[seed] != ed[seed]
    ]


def _print_rows(name: str, entry: Dict[str, Any]) -> None:
    """Every metric by name with its unit, ops attempted on each row."""
    good = [run for run in entry["runs"] if run.get("correct")]
    if len(good) < len(entry["runs"]) or not good:
        print(f"{name}: oracle or run failure -- metric rows withheld")
        return
    attempted = int(median([run["attempted"] for run in good]))
    failed = sum(run["failed"] for run in good)
    if entry["host_steal_share"] > STEAL_LIMIT:
        print(f"{name}: the hypervisor withheld {entry['host_steal_share']:.0%} of the CPU time "
              "asked for (median over runs) -- these timings measure the neighbours")
    skip = metrics.filler(entry["params"])
    for metric, row in entry["end_to_end"].items():
        if metric in skip:
            continue
        spread = f"  spread {row['spread']:.3f} (n={row['n']})" if row["n"] > 1 else ""
        print(f"{name:18s} {metric:28s} {row['median']:14.4f} {row['unit']:6s} "
              f"ops_attempted={attempted} failed={failed}{spread}")
    traced = entry.get("traced_run", {}).get("detail", {})
    for metric, row in entry.get("per_layer", {}).items():
        print(f"{name:18s} {metric:44s} {row['median']:14.5f} {row['unit']:6s} "
              f"ops_attempted={traced.get('traced_ops')}")
    shares = traced.get("layer_self_time_shares")
    if shares:
        layers = {k: v for k, v in shares.items() if "." not in k}
        spans = {k: v for k, v in shares.items() if "." in k}
        order = sorted(layers, key=layers.get, reverse=True)
        print(f"{name:18s} busy self-time shares: "
              + ", ".join(f"{layer} {layers[layer]:.0%}" for layer in order)
              + f"; largest span {max(spans, key=spans.get)} {max(spans.values()):.0%}")
