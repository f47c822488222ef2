"""Table IV: system-wide log generation rate of the self-driving app.

Paper: Base 36.893 Mb/s vs ADLP 37.297 Mb/s, "in both of which the
subscribers store hashed data" -- ADLP generates only ~1.1% more log
volume than base logging.

We measure three configurations:

- ``naive``  -- base logging, subscribers store h(D) (the paper's setup);
- ``adlp``   -- ADLP per-subscriber publisher entries (the prototype's
  step 6 writes one L_x per acknowledgement);
- ``adlp_aggregated`` -- the Section VI-E aggregation extension (one L_x
  per publication).

With our Figure 11(b) topology the camera topic has *two* subscribers, so
plain ADLP duplicates the ~900 KB image payload in publisher entries and
overshoots base logging by ~2x; the aggregated variant collapses that
duplication and recovers the paper's "ADLP ~ base + small %" shape.  The
discrepancy and its cause are recorded in EXPERIMENTS.md.
"""

import time

import pytest

from repro.apps.selfdriving import SelfDrivingApp
from repro.apps.selfdriving.app import seeded_keypairs
from benchmarks.harness import measure_log_rate, Table, save_results
from repro.core.policy import AdlpConfig

MEASURE_S = 3.0

VARIANTS = ["naive", "adlp", "adlp_aggregated"]

_results = {}


@pytest.fixture(scope="module")
def app_keys():
    return seeded_keypairs(bits=1024)


def _measure(variant, app_keys):
    scheme = "naive" if variant == "naive" else "adlp"
    config = AdlpConfig(
        key_bits=1024,
        subscriber_stores_hash=True,
        ack_timeout=10.0,
        aggregate_publisher_entries=(variant == "adlp_aggregated"),
    )
    with SelfDrivingApp(
        scheme=scheme,
        keypairs=app_keys,
        adlp_config=config,
        camera_hz=20.0,
        naive_stores_hash=True,  # Table IV: subscribers store hashed data
    ) as app:
        app.start()
        time.sleep(1.0)
        return measure_log_rate(app.log_server, MEASURE_S)


@pytest.mark.parametrize("variant", VARIANTS)
def test_system_log_rate(benchmark, app_keys, variant):
    rate = _measure(variant, app_keys)
    _results[variant] = {
        "megabits_per_s": rate.megabits_per_second,
        "entries_per_s": rate.entries_per_second,
    }
    benchmark.pedantic(lambda: None, rounds=1)


def test_report_table4(benchmark, app_keys):
    benchmark(lambda: None)
    table = Table(
        "Table IV -- system-wide log generation rate (Mb/s)",
        ["Scheme", "Rate (Mb/s)", "Entries/s"],
    )
    for variant in VARIANTS:
        row = _results[variant]
        table.add_row(variant, row["megabits_per_s"], row["entries_per_s"])
    table.show()
    save_results("table4", _results)

    naive = _results["naive"]["megabits_per_s"]
    adlp = _results["adlp"]["megabits_per_s"]
    aggregated = _results["adlp_aggregated"]["megabits_per_s"]
    # Log data flows at a meaningful rate everywhere.
    assert min(naive, adlp, aggregated) > 1.0

    # Absolute rates are load-sensitive (CPU contention throttles the app's
    # message rate), so the shape checks are normalized per entry -- the
    # byte cost of one log entry does not depend on machine load.
    def per_entry(variant):
        row = _results[variant]
        return row["megabits_per_s"] * 1e6 / 8 / max(row["entries_per_s"], 1)

    naive_pe = per_entry("naive")
    adlp_pe = per_entry("adlp")
    agg_pe = per_entry("adlp_aggregated")
    # Plain ADLP entries are fatter: per-subscriber payload duplication on
    # the 2-subscriber camera topic plus signatures.
    assert adlp_pe > naive_pe
    # Aggregation collapses the duplication back toward base logging
    # (the paper's "ADLP ~ base + small %" shape).
    assert agg_pe < adlp_pe
    assert 0.5 * naive_pe < agg_pe < 2.0 * naive_pe
