"""``compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric: both medians, the ratio with
its base, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``worse`` -- B is worse than A by more than the bound;
* ``better`` -- B is better than A by more than the bound;
* ``within`` -- neither;
* ``unresolved`` -- a difference of the bound's size cannot be told from
  noise: the run-to-run spread recorded in either file exceeds the bound,
  or a file holds a single run and so records no spread at all; or the two
  files' stores were not on the same kind of disk (``fsync="always"``
  numbers from a memory filesystem, or from two different filesystems,
  do not compare); or the hypervisor withheld more than a twentieth of the
  CPU time a workload's windows asked for (such timings measure the
  neighbours).

Exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .metrics import filler, load_spec
from .runner import MEMORY_FILESYSTEMS, STEAL_LIMIT
from .workloads import workload_params


def verdict(a: float, b: float, better: str, bound: float, spread: Optional[float]) -> str:
    if spread is None or spread > bound:
        return "unresolved"
    if a == 0:
        return "within" if b == 0 else "unresolved"
    change = (b - a) / abs(a)
    if better == "lower":
        change = -change  # now positive = improvement
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within"


def medium_mismatch(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why the two files' store media do not compare, if they do not."""
    fs_a, fs_b = a["host"]["store_filesystem"], b["host"]["store_filesystem"]
    memory = sorted({fs_a, fs_b} & MEMORY_FILESYSTEMS)
    if memory:
        return f"a store was on {memory[0]} (--allow-tmpfs): its fsync measured nothing"
    if fs_a != fs_b:
        return f"stores on different filesystems ({fs_a} and {fs_b})"
    return None


def rows(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]):
    declared = {metric["name"]: metric for metric in spec["end_to_end"]}
    same_medium = medium_mismatch(a, b) is None
    for workload in (w["name"] for w in spec["workloads"]):
        entry_a, entry_b = a["workloads"].get(workload, {}), b["workloads"].get(workload, {})
        in_a, in_b = entry_a.get("end_to_end", {}), entry_b.get("end_to_end", {})
        steal = max(entry_a.get("host_steal_share", 0.0), entry_b.get("host_steal_share", 0.0))
        comparable = same_medium and steal <= STEAL_LIMIT
        skip = filler(workload_params(workload))
        for name, metric in declared.items():
            if name in skip:
                continue
            if name not in in_a or name not in in_b:
                yield workload, name, None
                continue
            va, vb = in_a[name]["median"], in_b[name]["median"]
            spreads = (in_a[name]["spread"], in_b[name]["spread"])
            spread = None if None in spreads else max(spreads)
            yield workload, name, {
                "a": va, "b": vb, "unit": metric["unit"], "bound": metric["bound"],
                "better": metric["better"], "spread": spread, "steal": steal,
                "ratio": vb / va if va else float("nan"),
                "verdict": (verdict(va, vb, metric["better"], metric["bound"], spread)
                            if comparable else "unresolved"),
            }


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"A = {path_a}  (git {a['git_sha'][:10]}, seed {a['seed']}, {a['repeats']} run(s), "
          f"{a['host']['store_filesystem']}, fsync p50 {a['host']['fsync_probe']['p50_ms']:.3f} ms)")
    print(f"B = {path_b}  (git {b['git_sha'][:10]}, seed {b['seed']}, {b['repeats']} run(s), "
          f"{b['host']['store_filesystem']}, fsync p50 {b['host']['fsync_probe']['p50_ms']:.3f} ms)")
    print(f"{'workload':18s} {'metric':28s} {'A':>13s} {'B':>13s} {'unit':6s} "
          f"{'B/A':>16s} {'bound':>6s} {'A/A spread':>10s}  verdict")
    mismatch = medium_mismatch(a, b)
    if mismatch:
        print(f"every row unresolved: {mismatch}")
    worse = 0
    for workload, name, row in rows(a, b, load_spec()):
        if row is None:
            print(f"{workload:18s} {name:28s} missing from a file (failed oracle?)  unresolved")
            continue
        ratio = f"{row['ratio']:.3f} x A"
        spread = "none" if row["spread"] is None else f"{row['spread']:.3f}"
        print(f"{workload:18s} {name:28s} {row['a']:13.4f} {row['b']:13.4f} {row['unit']:6s} "
              f"{ratio:>16s} {row['bound']:6.2f} {spread:>10s}  {row['verdict']}"
              f" ({row['better']} is better)"
              + (f" [{row['steal']:.0%} of CPU time stolen]" if row["steal"] > STEAL_LIMIT else ""))
        worse += row["verdict"] == "worse"
    print(f"{worse} row(s) worse")
    return 1 if worse else 0
