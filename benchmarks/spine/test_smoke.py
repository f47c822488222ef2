"""Smoke tests of the benchmark itself.

Run with ``python -m pytest benchmarks/spine -q`` (outside tier-1's
``testpaths``).  They drive the real command line in ``--smoke`` mode, so
the code paths and oracles are the ones a full run uses.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [path for path in (os.path.join(REPO_ROOT, "src"), REPO_ROOT)
                if path not in sys.path]

from benchmarks.spine.metrics import filler  # noqa: E402
from benchmarks.spine.tracing import Span, SpanTable, self_times  # noqa: E402
from benchmarks.spine.workloads import workload_params  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def spine(*args, timeout=170):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.spine", *args],
        cwd=REPO_ROOT, timeout=timeout, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace, declared, tmp_path):
    done = spine("run", "--workload", workload, "--smoke", "--seed", "7",
                 "--trace", str(trace), "--workdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[declared]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    # every row is printed by name with its unit, but for the cells that
    # repeat another metric of this workload
    for name in set(expected) - filler(workload_params(workload)):
        assert any(name in line and expected[name] in line
                   for line in done.stdout.splitlines()[:-1]), name
    if declared == "end_to_end":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert os.listdir(tmp_path) == []  # the work directory cleans up after itself


@pytest.mark.parametrize("workload,violation", [
    ("ingest_batched", "drop_acked_entry"),
    ("audit_rsa", "flip_verdict"),
])
def test_seeded_oracle_violation_fails_the_run(workload, violation, tmp_path):
    done = spine("run", "--workload", workload, "--smoke", "--seed", "7",
                 "--inject", violation, "--workdir", str(tmp_path))
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}
    assert "ORACLE FAILED" in done.stderr
    assert os.listdir(tmp_path) == []  # also removed when the run fails


def test_compare_flags_a_regression_and_what_it_cannot_tell(tmp_path):
    def result_file(name, latency, spread=0.01, filesystem="ext4", steal=0.0):
        row = {"median": latency, "spread": spread, "unit": "ms", "n": 10}
        document = {
            "git_sha": name, "seed": 1, "repeats": 10,
            "host": {"store_filesystem": filesystem, "fsync_probe": {"p50_ms": 0.1}},
            "workloads": {"pubsub_steering": {
                "host_steal_share": steal,
                "end_to_end": {"latency_ms_p50": row, "ops_per_s": row},
            }},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        return str(path)

    base, same, slow = result_file("base", 3.0), result_file("same", 3.1), result_file("slow", 4.2)
    within = spine("compare", base, same)
    assert within.returncode == 0 and "within" in within.stdout
    # the offered rate of an open loop is no result
    assert not any(line.startswith("pubsub_steering") and "ops_per_s" in line
                   for line in within.stdout.splitlines())
    worse = spine("compare", base, slow)
    assert worse.returncode != 0 and "worse" in worse.stdout
    assert "1.400 x A" in worse.stdout  # the ratio names its base
    for unresolvable in (
        result_file("single", 4.2, spread=None),        # one run records no spread
        result_file("noisy", 4.2, spread=0.5),          # spread wider than the bound
        result_file("memory", 4.2, filesystem="tmpfs"),  # fsync measured nothing
        result_file("other", 4.2, filesystem="xfs"),     # not the same medium
        result_file("stolen", 4.2, steal=0.3),           # measured the neighbours
    ):
        blind = spine("compare", base, unresolvable)
        assert blind.returncode == 0, blind.stdout
        assert "unresolved" in blind.stdout and "worse (" not in blind.stdout


def test_self_time_of_a_synthetic_span_tree():
    def span(id, parent, start, end, name="s", layer="l"):
        return Span(id, parent, name, layer, start, end, 1, None, 0)

    spans = [
        span(1, 0, 0.0, 10.0, "root"),
        span(2, 1, 1.0, 5.0),        # children 2 and 3 overlap on [4, 5]:
        span(3, 1, 4.0, 8.0),        # together they cover [1, 8] = 7, not 8
        span(4, 2, 2.0, 3.0),        # grandchild: taken from 2, not from 1
        span(5, 99, 2.0, 3.5),       # parent never recorded: a root of its own
        span(6, 1, 9.0, 12.0),       # child outliving its parent is clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[2] == pytest.approx(4.0 - 1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.5)
    assert own[6] == pytest.approx(3.0)

    table = SpanTable(spans)
    assert [s.id for s in table.select(parent_name="ROOT")] == [1, 5]
    # a waiting head contributes its descendants but not its own self time
    assert table.blocking_self_time([("root", None, False)]) == pytest.approx(3 + 4 + 1 + 3)
    assert table.blocking_self_time([("root", None, True)]) == pytest.approx(13.0)
