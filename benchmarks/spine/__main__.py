"""Command line: ``python -m benchmarks.spine {run,compare}``.

``run --workload NAME --seed N --seconds S --trace 0|1`` runs one workload
in this process and prints, as the last line of stdout, one JSON object
with exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``.
``run`` without ``--workload`` runs every workload in fresh subprocesses
and writes a result file; ``compare A.json B.json`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_REPO_ROOT, "src")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.spine", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", help="run only this workload, in this process")
    run.add_argument("--seed", type=int, default=None, help="workload seed (default 1)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured window per run (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1: record spans and report per-layer metrics")
    run.add_argument("--trace-out", help="write Chrome trace-event JSON here "
                     "(a file with --workload, else a directory)")
    run.add_argument("--smoke", action="store_true",
                     help="same code paths and oracles, each workload under 2 s")
    run.add_argument("--workdir", help="parent for stores and traces "
                     "(default: a fresh directory under benchmarks/spine/.work)")
    run.add_argument("--allow-tmpfs", action="store_true",
                     help="run store-backed workloads even on a memory filesystem (recorded)")
    run.add_argument("--out", default=None, help="directory for the result file "
                     "(default: benchmarks/spine/results)")
    run.add_argument("--repeats", type=int, default=1,
                     help="untraced runs per workload, seeds seed..seed+repeats-1 (A/A spread)")
    run.add_argument("--detail", help="also write this run's provenance and samples here")
    run.add_argument("--inject", choices=("drop_acked_entry", "flip_verdict"),
                     help="oracle self-test: seed one violation; the run must then fail")

    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv=None) -> int:
    options = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"spine: the program under test is not here ({_SRC}/repro)", file=sys.stderr)
        return 2
    for path in (_SRC, _REPO_ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.spine import compare, metrics, runner

    if options.command == "compare":
        return compare.main(options.a, options.b)

    spec = metrics.load_spec()
    if options.seconds is None:
        options.seconds = float(spec["run_seconds"])
    if options.seed is None:
        options.seed = runner.DEFAULT_SEED
    if options.out is None:
        options.out = runner.DEFAULT_OUT
    try:
        if not options.workload:
            return runner.run_suite(options)
        if options.workload not in [w["name"] for w in spec["workloads"]]:
            print(f"spine: unknown workload {options.workload!r}", file=sys.stderr)
            return 2
        result, detail = runner.run_workload(
            options.workload, options.seed, options.seconds, trace=options.trace,
            smoke=options.smoke, workdir=options.workdir, inject=options.inject,
            allow_tmpfs=options.allow_tmpfs, trace_out=options.trace_out,
        )
    except runner.Refused as exc:
        print(f"spine: {exc}", file=sys.stderr)
        return 2
    if options.detail:
        with open(options.detail, "w") as handle:
            json.dump({**detail, **result}, handle, indent=1, sort_keys=True, default=str)
    if not result["correct"]:
        print(f"spine: ORACLE FAILED: {detail.get('oracle_error')}", file=sys.stderr)
    steal = detail.get("counters", {}).get("host_steal_share", 0.0)
    if steal > runner.STEAL_LIMIT:
        print(f"spine: the hypervisor withheld {steal:.0%} of the CPU time asked for "
              "during the window -- these timings measure the neighbours", file=sys.stderr)
    # per_op metrics of a traced run divide by the traced half's operations
    base = detail.get("traced_ops", result["attempted"])
    skip = metrics.filler(detail["params"])
    for name, metric in result["metrics"].items():
        if name not in skip:
            print(f"{options.workload:18s} {name:44s} {metric['value']:14.5f} {metric['unit']:6s} "
                  f"ops_attempted={base}")
    shares = detail.get("layer_self_time_shares")
    if shares:
        for name, share in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"{options.workload:18s} self-time share {name:32s} {share:7.1%}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
