"""Ablation: server-side content-addressed deduplication (§VI-E's
"this kind of optimization can also be done at the log server-side").

Runs the self-driving app under plain ADLP (per-subscriber publisher
entries) but stores the log in a :class:`DedupLogStore`.  The two camera
subscribers cause every ~900 KB frame to appear in two publisher entries;
dedup stores it once, recovering most of the aggregation extension's
saving without touching the protocol.
"""

import time

import pytest

from repro.apps.selfdriving import SelfDrivingApp
from repro.apps.selfdriving.app import seeded_keypairs
from benchmarks.harness import Table, save_results
from repro.core import DedupLogStore, LogServer
from repro.core.policy import AdlpConfig

MEASURE_S = 3.0

_results = {}


@pytest.fixture(scope="module")
def app_keys():
    return seeded_keypairs(bits=1024)


def test_dedup_saving(benchmark, app_keys):
    store = DedupLogStore()
    server = LogServer(store=store)
    config = AdlpConfig(key_bits=1024, subscriber_stores_hash=True, ack_timeout=10.0)
    with SelfDrivingApp(
        scheme="adlp", log_server=server, keypairs=app_keys, adlp_config=config
    ) as app:
        app.start()
        time.sleep(1.0 + MEASURE_S)
        app.flush_logs()
    app.flush_logs()
    server.verify_integrity()  # reconstruction must be exact
    _results["logical_mb"] = store.total_bytes / 1e6
    _results["physical_mb"] = store.physical_bytes / 1e6
    _results["dedup_ratio"] = store.dedup_ratio
    benchmark.pedantic(lambda: None, rounds=1)


def test_report_dedup(benchmark, app_keys):
    benchmark(lambda: None)
    table = Table(
        "Ablation -- server-side dedup storage (self-driving app, ADLP)",
        ["Logical (MB)", "Physical (MB)", "Ratio"],
    )
    table.add_row(
        _results["logical_mb"], _results["physical_mb"], _results["dedup_ratio"]
    )
    table.show()
    save_results("ablation_dedup", _results)
    # the camera topic's 2-subscriber fan-out alone guarantees savings
    assert _results["dedup_ratio"] > 1.4
