"""Table II: system-wide CPU utilization of the self-driving application
under Idle / No Logging / Base Logging / ADLP.

Paper's numbers: Idle 26.03%, No-Logging 77.21%, Base 83.24%, ADLP 88.69%
(4 logical cores).  Expected shape: Idle < No-Logging < Base < ADLP, and
the ADLP increment over Base is modest relative to the application's own
cost.
"""

import time

import pytest

from repro.apps.selfdriving import SelfDrivingApp
from repro.apps.selfdriving.app import seeded_keypairs
from benchmarks.harness import ProcessCpuSampler, Table, save_results
from repro.core.policy import AdlpConfig

MEASURE_S = 4.0
CONFIG = AdlpConfig(key_bits=1024, ack_timeout=10.0)

_results = {}


@pytest.fixture(scope="module")
def app_keys():
    return seeded_keypairs(bits=1024)


def _measure_idle() -> float:
    sampler = ProcessCpuSampler()
    sampler.start()
    time.sleep(MEASURE_S)
    return sampler.stop()


def _measure_app(scheme, app_keys) -> float:
    with SelfDrivingApp(
        scheme=scheme, keypairs=app_keys, adlp_config=CONFIG, camera_hz=20.0
    ) as app:
        app.start()
        time.sleep(1.0)  # pipeline warm-up
        sampler = ProcessCpuSampler()
        sampler.start()
        time.sleep(MEASURE_S)
        return sampler.stop()


def test_idle(benchmark):
    _results["idle"] = _measure_idle()
    benchmark.pedantic(lambda: None, rounds=1)


@pytest.mark.parametrize("scheme", ["none", "naive", "adlp"])
def test_app_cpu(benchmark, app_keys, scheme):
    _results[scheme] = _measure_app(scheme, app_keys)
    benchmark.pedantic(lambda: None, rounds=1)


def test_report_table2(benchmark, app_keys):
    benchmark(lambda: None)
    table = Table(
        "Table II -- system-wide CPU%% of the self-driving app",
        ["Idle", "No Logging", "Base Logging", "ADLP"],
    )
    table.add_row(
        _results["idle"], _results["none"], _results["naive"], _results["adlp"]
    )
    table.show()
    save_results("table2", _results)

    # Shape: idle < no-logging < base < adlp (the paper's ordering).
    assert _results["idle"] < _results["none"]
    assert _results["none"] < _results["naive"]
    assert _results["naive"] < _results["adlp"]
